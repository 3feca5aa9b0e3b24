import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from plda_local import cli, eval_harness, preprocess
from plda_local.data_model import Dataset, UtteranceRecord, read_dataset, write_dataset
from plda_local.eval_harness import compute_eer, read_key, write_key
from plda_local.eval_harness import TrialSet, generate_trials
from plda_local.plda import TrainConfig, load_model, save_model, train_em
from _helpers import label_view, local_class, partition_by, read_scores, trial_pairs


def run(*args):
    return cli.main([str(a) for a in args])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def corpus_file(tmp_path):
    out = tmp_path / "data.csv"
    assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 40,
               "--slots", 2, "--utts", 2, "--recurrence", 0.2,
               "--seed", 5, "--out", out) == 0
    return out


class TestSynth:
    def test_writes_corpus_and_truth(self, corpus_file):
        data = read_dataset(corpus_file)
        assert len(data) == 160
        assert data.dim == 4
        model, pp = load_model(f"{corpus_file}.truth.plda")
        assert model.V.shape == (4, 2)
        np.testing.assert_array_equal(pp.whitener, np.eye(4))

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("synth", "--dim", 3, "--latent", 1, "--conversations", 10,
                       "--seed", 9, "--out", out) == 0
        assert sha(a) == sha(b)

    def test_unwritable_truth_model_removes_corpus(self, tmp_path):
        out = tmp_path / "d.csv"
        (tmp_path / "d.csv.truth.plda").mkdir()
        assert run("synth", "--dim", 3, "--latent", 1, "--conversations", 10,
                   "--seed", 9, "--out", out) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv.truth.plda"]

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run("synth", "--dim", 3, "--latent", 1,
                   "--out", tmp_path / "x.csv") == 1


class TestTrain:
    @pytest.mark.parametrize("labels", ["global", "local"])
    def test_trains_and_saves(self, corpus_file, tmp_path, labels):
        model_path = tmp_path / "m.plda"
        assert run("train", "--data", corpus_file, "--labels", labels,
                   "--q", 2, "--iters", 5, "--seed", 0,
                   "--model", model_path) == 0
        model, pp = load_model(model_path)
        assert model.V.shape == (4, 2)

    def test_imports_no_scipy(self, corpus_file, tmp_path):
        # numpy is the only run-time dependency; the test suite itself loads
        # scipy, so the command runs in a fresh interpreter
        code = ("import sys\n"
                "from plda_local import cli\n"
                "assert cli.main(sys.argv[1:]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, "train", "--data", str(corpus_file),
             "--labels", "global", "--q", "2", "--iters", "3", "--seed", "0",
             "--model", str(tmp_path / "m.plda")],
            env={**os.environ, "PYTHONPATH": src}, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_pooled_two_files(self, corpus_file, tmp_path):
        other = tmp_path / "other.csv"
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 30,
                   "--slots", 2, "--utts", 2, "--seed", 6, "--out", other) == 0
        model_path = tmp_path / "m.plda"
        assert run("train", "--data", f"{corpus_file},{other}",
                   "--labels", "pooled", "--q", 2, "--iters", 5, "--seed", 0,
                   "--model", model_path) == 0
        load_model(model_path)

    def test_pooled_single_file_needs_both_kinds(self, corpus_file, tmp_path):
        # every record in a synth corpus carries a speaker id
        assert run("train", "--data", corpus_file, "--labels", "pooled",
                   "--q", 2, "--iters", 3, "--seed", 0,
                   "--model", tmp_path / "m.plda") == 2

    def test_pooled_single_file(self, corpus_file, tmp_path):
        # conversations 0, 3, 6, ... lose their speaker labels
        data = read_dataset(corpus_file)
        mixed = tmp_path / "mixed.csv"
        write_dataset(Dataset(data.dim, tuple(
            dataclasses.replace(r, global_spk=None) if int(r.conv_id[-5:]) % 3 == 0 else r
            for r in data.records)), mixed)
        model_path = tmp_path / "m.plda"
        assert run("train", "--data", mixed, "--labels", "pooled", "--q", 2, "--iters", 5,
                   "--seed", 0, "--model", model_path) == 0
        # the labeled speakers, then the slots of the unlabeled conversations
        data = read_dataset(mixed)
        g = [r for r in data.records if r.global_spk is not None]
        l = [r for r in data.records if r.global_spk is None]
        classes = {**{f"g:{k}": m for k, m in partition_by(
                       [r.global_spk for r in g], [r.utt_id for r in g]).items()},
                   **{f"l:{k}": m for k, m in partition_by(
                       map(local_class, l), [r.utt_id for r in l]).items()}}
        pp = preprocess.fit(data.vectors())
        model, _ = train_em(data, label_view("pooled", classes, data.utt_ids), pp,
                            TrainConfig(latent_dim=2, iterations=5, seed=0))
        save_model(model, pp, tmp_path / "want.plda")
        assert model_path.read_bytes() == (tmp_path / "want.plda").read_bytes()

    def test_default_q_is_half_dim(self, corpus_file, tmp_path):
        model_path = tmp_path / "m.plda"
        assert run("train", "--data", corpus_file, "--labels", "global",
                   "--iters", 3, "--seed", 0, "--model", model_path) == 0
        model, _ = load_model(model_path)
        assert model.V.shape == (4, 2)

    def test_output_must_differ_from_input(self, corpus_file):
        assert run("train", "--data", corpus_file, "--labels", "global",
                   "--seed", 0, "--model", corpus_file) == 1

    def test_output_spelled_differently_must_differ_from_input(
            self, corpus_file, monkeypatch):
        before = sha(corpus_file)
        monkeypatch.chdir(corpus_file.parent)
        (corpus_file.parent / "sub").mkdir()
        for alias in (f"./{corpus_file.name}", f"sub/../{corpus_file.name}",
                      str(corpus_file.resolve())):
            assert run("train", "--data", corpus_file.name, "--labels", "global",
                       "--seed", 0, "--model", alias) == 1
        link = corpus_file.parent / "link.csv"
        link.symlink_to(corpus_file)
        assert run("train", "--data", corpus_file, "--labels", "global",
                   "--seed", 0, "--model", link) == 1
        assert sha(corpus_file) == before

    def test_missing_data_file(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope.csv",
                   "--labels", "global", "--seed", 0,
                   "--model", tmp_path / "m.plda") == 2

    def test_deterministic(self, corpus_file, tmp_path):
        a, b = tmp_path / "a.plda", tmp_path / "b.plda"
        for out in (a, b):
            assert run("train", "--data", corpus_file, "--labels", "local",
                       "--q", 2, "--iters", 5, "--seed", 3,
                       "--model", out) == 0
        assert sha(a) == sha(b)


@pytest.fixture
def scored_setup(corpus_file, tmp_path):
    """A trained model plus disjoint enroll/test corpora sharing speakers."""
    model_path = tmp_path / "m.plda"
    assert run("train", "--data", corpus_file, "--labels", "global",
               "--q", 2, "--iters", 5, "--seed", 0, "--model", model_path) == 0
    eval_path = tmp_path / "eval.csv"
    assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 25,
               "--utts", 4, "--seed", 7, "--out", eval_path) == 0
    data = read_dataset(eval_path)
    by_spk = {}
    for r in data.records:
        by_spk.setdefault(r.global_spk, []).append(r.utt_id)
    enroll_utts = [utts[0] for utts in by_spk.values()]
    test_utts = [u for utts in by_spk.values() for u in utts[1:]]
    enroll_path = tmp_path / "enroll.csv"
    test_path = tmp_path / "test.csv"
    write_dataset(data.subset(enroll_utts), enroll_path)
    write_dataset(data.subset(test_utts), test_path)
    return model_path, enroll_path, test_path


class TestScore:
    def test_scores_all_pairs(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        scores_path = tmp_path / "scores.csv"
        assert run("score", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--scores", scores_path) == 0
        rows = read_scores(scores_path)
        assert len(rows) == 25 * 75

    @pytest.mark.parametrize("side", ["enroll", "test"])
    def test_header_only_corpus_gives_header_only_scores(self, scored_setup, tmp_path,
                                                         side):
        model_path, enroll_path, test_path = scored_setup
        empty = tmp_path / "empty.csv"
        empty.write_text("#dim=4\n")
        enroll, test = (empty, test_path) if side == "enroll" else (enroll_path, empty)
        scores_path = tmp_path / "scores.csv"
        assert run("score", "--model", model_path, "--enroll", enroll, "--test", test,
                   "--scores", scores_path) == 0
        assert scores_path.read_text() == "model_id,test_utt_id,score\n"

    def test_unlabeled_test_records_are_scored(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        test = read_dataset(test_path)
        unlabeled_path = tmp_path / "unlabeled.csv"
        write_dataset(Dataset(test.dim, tuple(dataclasses.replace(r, global_spk=None)
                                              for r in test.records)), unlabeled_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, out in ((test_path, a), (unlabeled_path, b)):
            assert run("score", "--model", model_path, "--enroll", enroll_path,
                       "--test", path, "--scores", out) == 0
        assert sha(a) == sha(b)

    def test_unlabeled_enrollment_record_is_rejected(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        enroll = read_dataset(enroll_path)
        records = list(enroll.records)
        records[3] = dataclasses.replace(records[3], global_spk=None)
        write_dataset(Dataset(enroll.dim, tuple(records)), enroll_path)
        scores_path = tmp_path / "scores.csv"
        assert run("score", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--scores", scores_path) == 2
        assert not scores_path.exists()


class TestDimensionMismatch:
    @pytest.mark.parametrize("side", ["enroll", "test"])
    @pytest.mark.parametrize("command", ["score", "eval", "sweep"])
    def test_exits_2_without_output(self, scored_setup, corpus_file, tmp_path,
                                    command, side):
        # a dim-5 corpus against a dim-4 model (score, eval) or training set (sweep)
        model_path, enroll_path, test_path = scored_setup
        wide, local = tmp_path / "wide.csv", tmp_path / "local.csv"
        assert run("synth", "--dim", 5, "--latent", 2, "--conversations", 6,
                   "--utts", 4, "--seed", 3, "--out", wide) == 0
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 30,
                   "--slots", 2, "--utts", 2, "--seed", 11, "--out", local) == 0
        key = tmp_path / "key.csv"
        key.write_text("model_id,test_utt_id,key\n")
        out = tmp_path / "out.csv"
        args = {
            "score": ["--model", model_path, "--scores", out],
            "eval": ["--model", model_path, "--key", key, "--report", out],
            "sweep": ["--data", f"{corpus_file},{local}", "--grid-global", 20,
                      "--grid-local", 20, "--q", 2, "--iters", 2, "--seed", 1,
                      "--report", out],
        }[command]
        enroll, test = (wide, test_path) if side == "enroll" else (enroll_path, wide)
        assert run(command, "--enroll", enroll, "--test", test, *args) == 2
        assert not out.exists()


class TestEval:
    def _make_key(self, enroll_path, test_path, key_path):
        test = read_dataset(test_path)
        enroll = read_dataset(enroll_path)
        models = sorted({r.global_spk for r in enroll.records})
        trials = generate_trials(models, test)
        write_key(trials, key_path)
        return trials

    def test_report_matches_scores_file(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        made = self._make_key(enroll_path, test_path, key_path)
        report_path = tmp_path / "report.csv"
        scores_path = tmp_path / "scores.csv"
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", report_path, "--scores", scores_path) == 0

        lines = report_path.read_text().splitlines()
        reported = float(dict(l.split(",") for l in lines[1:5])["eer"])

        trials = read_key(key_path, made.model_ids, made.test_utt_ids)
        key = dict(zip(trial_pairs(trials), trials.target.tolist()))
        rows = read_scores(scores_path)
        ts = [s for m, t, s in rows if key[(m, t)]]
        ns = [s for m, t, s in rows if not key[(m, t)]]
        eer, _ = compute_eer(ts, ns)
        assert reported == pytest.approx(eer, abs=1e-12)
        assert 0.0 <= reported < 0.5

    def test_deterministic(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        self._make_key(enroll_path, test_path, key_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("eval", "--model", model_path, "--enroll", enroll_path,
                       "--test", test_path, "--key", key_path,
                       "--report", out) == 0
        assert sha(a) == sha(b)

    def test_key_without_nontargets_leaves_no_output(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        trials = self._make_key(enroll_path, test_path, key_path)
        targets = [f"{m},{t},target" for (m, t), y
                   in zip(trial_pairs(trials), trials.target) if y]
        key_path.write_text("\n".join(targets) + "\n")
        report_path, scores_path = tmp_path / "r.csv", tmp_path / "s.csv"
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", report_path, "--scores", scores_path) == 2
        assert not report_path.exists()
        assert not scores_path.exists()

    def test_unwritable_report_removes_scores(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        self._make_key(enroll_path, test_path, key_path)
        report_path, scores_path = tmp_path / "no_dir" / "r.csv", tmp_path / "s.csv"
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", report_path, "--scores", scores_path) == 2
        assert not scores_path.exists()

    def test_repeated_key_row(self, scored_setup, tmp_path, capsys):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        self._make_key(enroll_path, test_path, key_path)
        lines = key_path.read_text().splitlines()
        key_path.write_text("\n".join(lines + [lines[len(lines) // 2]]) + "\n")
        report_path = tmp_path / "r.csv"
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", report_path) == 2
        assert "duplicate trial pairs" in capsys.readouterr().err
        assert not report_path.exists()

    def test_malformed_key(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        key_path.write_text("model_id,test_utt_id,key\nm0,t0,maybe\n")
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", tmp_path / "r.csv") == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_sparse_key_gets_the_score_rows(self, scored_setup, tmp_path, seed):
        # numbered over the corpora, a key in any row and test order and
        # with any share of the pairs gets score's bits for every pair
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        product = self._make_key(enroll_path, test_path, key_path)
        lines = key_path.read_text().splitlines()
        rng = np.random.default_rng(seed)
        rows = [lines[1 + i] for i in rng.permutation(len(lines) - 1)
                if rng.random() < 0.3]
        key_path.write_text("\n".join(rows) + "\n")
        scores_path, eval_scores = tmp_path / "s.csv", tmp_path / "e.csv"
        assert run("score", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--scores", scores_path) == 0
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path, "--report",
                   tmp_path / "r.csv", "--scores", eval_scores) == 0
        full = {(m, t): s for m, t, s in (
            line.split(",") for line in scores_path.read_text().splitlines()[1:])}
        got = [line.split(",") for line in eval_scores.read_text().splitlines()[1:]]
        assert [(m, t) for m, t, _ in got] == [tuple(r.split(",")[:2]) for r in rows]
        assert 0 < len(got) < len(product)
        assert all(s == full[(m, t)] for m, t, s in got)

    @pytest.mark.parametrize("column", [0, 1])
    def test_key_id_missing_from_the_corpora(self, scored_setup, tmp_path, capsys,
                                             column):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        self._make_key(enroll_path, test_path, key_path)
        lines = key_path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[column] = "nobody"
        key_path.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
        report_path, scores_path = tmp_path / "r.csv", tmp_path / "s.csv"
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", report_path, "--scores", scores_path) == 2
        what = ("enroll model id", "test utt_id")[column]
        assert f"error: unresolved {what} 'nobody'" in capsys.readouterr().err
        assert not report_path.exists()
        assert not scores_path.exists()


class TestSweep:
    def test_end_to_end(self, scored_setup, tmp_path, corpus_file):
        _, enroll_path, test_path = scored_setup
        local_path = tmp_path / "local.csv"
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 30,
                   "--slots", 2, "--utts", 2, "--recurrence", 0.3,
                   "--seed", 11, "--out", local_path) == 0
        report = tmp_path / "grid.csv"
        assert run("sweep", "--data", f"{corpus_file},{local_path}",
                   "--enroll", enroll_path, "--test", test_path,
                   "--grid-global", "0,20", "--grid-local", "20",
                   "--repeats", 2, "--q", 2, "--iters", 4,
                   "--seed", 1, "--report", report) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "n_global,n_local,seed,eer"
        assert len(lines) == 1 + 2 * 1 * 2

    @pytest.mark.parametrize("side", ["enroll", "test"])
    def test_dimension_mismatch_fails_before_training(self, scored_setup, corpus_file,
                                                      tmp_path, monkeypatch, side):
        calls = []
        train_em = eval_harness.train_em

        def counting(*args):
            calls.append(1)
            return train_em(*args)

        monkeypatch.setattr(eval_harness, "train_em", counting)
        _, enroll_path, test_path = scored_setup
        wide, local = tmp_path / "wide.csv", tmp_path / "local.csv"
        assert run("synth", "--dim", 5, "--latent", 2, "--conversations", 6,
                   "--utts", 4, "--seed", 3, "--out", wide) == 0
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 30,
                   "--slots", 2, "--utts", 2, "--seed", 11, "--out", local) == 0
        enroll, test = (wide, test_path) if side == "enroll" else (enroll_path, wide)
        report = tmp_path / "grid.csv"
        assert run("sweep", "--data", f"{corpus_file},{local}", "--enroll", enroll,
                   "--test", test, "--grid-global", "0,20", "--grid-local", 20,
                   "--q", 2, "--iters", 2, "--seed", 1, "--report", report) == 2
        assert not report.exists()
        assert calls == []

    def test_header_only_enroll_fails_before_training(self, scored_setup, corpus_file,
                                                      tmp_path, monkeypatch):
        calls = []
        train_em = eval_harness.train_em

        def counting(*args):
            calls.append(1)
            return train_em(*args)

        monkeypatch.setattr(eval_harness, "train_em", counting)
        _, _, test_path = scored_setup
        enroll, local = tmp_path / "enroll.csv", tmp_path / "local.csv"
        enroll.write_text("#dim=4\n")
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 30,
                   "--slots", 2, "--utts", 2, "--seed", 11, "--out", local) == 0
        report = tmp_path / "grid.csv"
        assert run("sweep", "--data", f"{corpus_file},{local}", "--enroll", enroll,
                   "--test", test_path, "--grid-global", "0,20", "--grid-local", 20,
                   "--q", 2, "--iters", 2, "--seed", 1, "--report", report) == 2
        assert not report.exists()
        assert calls == []

    def test_single_data_path_is_usage_error(self, scored_setup, tmp_path,
                                             corpus_file):
        _, enroll_path, test_path = scored_setup
        assert run("sweep", "--data", str(corpus_file),
                   "--enroll", enroll_path, "--test", test_path,
                   "--grid-global", "0", "--grid-local", "20",
                   "--seed", 1, "--report", tmp_path / "g.csv") == 1

    def test_bad_axis_is_usage_error(self, scored_setup, tmp_path, corpus_file):
        _, enroll_path, test_path = scored_setup
        local_path = tmp_path / "local2.csv"
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 5,
                   "--seed", 12, "--out", local_path) == 0
        assert run("sweep", "--data", f"{corpus_file},{local_path}",
                   "--enroll", enroll_path, "--test", test_path,
                   "--grid-global", "ten", "--grid-local", "20",
                   "--seed", 1, "--report", tmp_path / "g.csv") == 1


class TestNotUtf8:
    """An input file holding bytes that are not UTF-8 exits 2 with an error
    naming the file, and leaves no output behind."""

    @staticmethod
    def spoil(path):
        """Put the bytes 0xff 0xfe, which no UTF-8 text holds, in the middle
        of a file."""
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff\xfe" + data[len(data) // 2:])
        return path

    def expect_refused(self, capsys, args, bad, outputs):
        assert run(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text")
        assert "Traceback" not in err
        for out in outputs:
            assert not out.exists()

    def test_train_corpus(self, corpus_file, tmp_path, capsys):
        model = tmp_path / "m.plda"
        self.expect_refused(capsys, ["train", "--data", self.spoil(corpus_file),
                                     "--labels", "local", "--seed", 0, "--model", model],
                            corpus_file, [model])

    @pytest.mark.parametrize("bad_input", ["model", "enroll", "test"])
    def test_score_inputs(self, scored_setup, tmp_path, capsys, bad_input):
        paths = dict(zip(("model", "enroll", "test"), scored_setup))
        self.spoil(paths[bad_input])
        scores = tmp_path / "scores.csv"
        self.expect_refused(capsys, ["score", "--model", paths["model"],
                                     "--enroll", paths["enroll"], "--test", paths["test"],
                                     "--scores", scores],
                            paths[bad_input], [scores])

    @pytest.mark.parametrize("bad_input", ["model", "key"])
    def test_eval_inputs(self, scored_setup, tmp_path, capsys, bad_input):
        model_path, enroll_path, test_path = scored_setup
        key = tmp_path / "key.csv"
        TestEval()._make_key(enroll_path, test_path, key)
        bad = self.spoil(model_path if bad_input == "model" else key)
        report, scores = tmp_path / "r.csv", tmp_path / "s.csv"
        self.expect_refused(capsys, ["eval", "--model", model_path, "--enroll", enroll_path,
                                     "--test", test_path, "--key", key,
                                     "--report", report, "--scores", scores],
                            bad, [report, scores])


class TestNegativeSeed:
    """A seed numpy cannot take exits 2 with the module's message and
    leaves no output."""

    def check(self, capsys, code, out):
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert list(out.parent.glob(f"{out.name}*")) == []

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        self.check(capsys, run("synth", "--dim", 3, "--latent", 1, "--conversations", 4,
                               "--seed", -1, "--out", out), out)

    def test_train(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "m.plda"
        self.check(capsys, run("train", "--data", corpus_file, "--labels", "local",
                               "--q", 2, "--iters", 2, "--seed", -1, "--model", out), out)

    def test_sweep(self, scored_setup, corpus_file, tmp_path, capsys):
        _, enroll_path, test_path = scored_setup
        local = tmp_path / "local.csv"
        assert run("synth", "--dim", 4, "--latent", 2, "--conversations", 30,
                   "--slots", 2, "--utts", 2, "--seed", 11, "--out", local) == 0
        out = tmp_path / "grid.csv"
        self.check(capsys, run("sweep", "--data", f"{corpus_file},{local}",
                               "--enroll", enroll_path, "--test", test_path,
                               "--grid-global", "0,20", "--grid-local", 20, "--q", 2,
                               "--iters", 2, "--seed", -1, "--report", out), out)


def run_fresh(*args):
    """The CLI in a fresh interpreter, where a RuntimeWarning is only printed:
    (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-m", "plda_local.cli", *map(str, args)],
                         env={**os.environ, "PYTHONPATH": src}, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=120)
    return out.returncode, out.stderr


class TestHostileNumbers:
    """Input the file format allows but no model or score can come from
    exits 2 with an error naming the file or the fault, and writes nothing."""

    @staticmethod
    def score(scored_setup, tmp_path, **paths):
        args = dict(zip(("model", "enroll", "test"), scored_setup), **paths)
        scores = tmp_path / "scores.csv"
        code, err = run_fresh("score", "--model", args["model"], "--enroll", args["enroll"],
                              "--test", args["test"], "--scores", scores)
        assert code == 2, err
        assert "Traceback" not in err
        assert not scores.exists()
        return err

    # dimensions numpy refuses at once (8 and 16 TiB) if anything were
    # allocated from the header
    @pytest.mark.parametrize("header, error", [
        ("#plda dim=1099511627776 q=0", "truncated: a dim=1099511627776 model has "
                                        "3298534883336 lines, this file 4"),
        ("#plda dim=2 q=1099511627776", "header needs dim >= 1 and 0 <= q <= dim"),
    ])
    def test_model_header_dimension(self, scored_setup, tmp_path, header, error):
        bad = tmp_path / "bad.plda"
        bad.write_text(f"{header}\nu:\n0.0,0.0\nV:\n")
        assert self.score(scored_setup, tmp_path, model=bad).startswith(f"error: {bad}: {error}")

    def test_model_trailing_content(self, scored_setup, tmp_path):
        model = scored_setup[0]
        model.write_text(model.read_text() + "1.0\n")
        err = self.score(scored_setup, tmp_path)
        assert err.startswith(f"error: {model}: trailing content: a dim=4 model has 20 lines, "
                              "this file 21")

    @pytest.mark.parametrize("text", ["#dim=99999999999999999999\n",
                                      "#dim=1099511627776\nu1,c1,0,A,1.0\n"])
    def test_corpus_header_dimension(self, scored_setup, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert self.score(scored_setup, tmp_path, test=bad).startswith(f"error: {bad}: line ")

    @staticmethod
    def model_text(V, whitener, Sigma=None):
        d = len(whitener)
        Sigma = np.eye(d).tolist() if Sigma is None else Sigma
        rows = lambda m: "".join(",".join(map(repr, r)) + "\n" for r in m)
        return (f"#plda dim={d} q={len(V[0])}\nu:\n{rows([[0.0] * d])}V:\n{rows(V)}"
                f"Sigma:\n{rows(Sigma)}pp.mean:\n{rows([[0.0] * d])}"
                f"pp.whitener:\n{rows(whitener)}")

    def test_model_whose_terms_overflow(self, scored_setup, tmp_path):
        # finite u, V and Sigma, but V' Sigma^-1 V is 1e400
        bad = tmp_path / "bad.plda"
        bad.write_text(self.model_text([[1e200], [0.0], [0.0], [0.0]], np.eye(4).tolist()))
        assert self.score(scored_setup, tmp_path, model=bad).startswith(
            f"error: {bad}: V' Sigma^-1 or V' Sigma^-1 V is not finite")

    def test_whitener_that_overflows(self, scored_setup, tmp_path):
        bad = tmp_path / "bad.plda"
        bad.write_text(self.model_text([[1.0], [0.0], [0.0], [0.0]],
                                       (1e300 * np.eye(4)).tolist()))
        err = self.score(scored_setup, tmp_path, model=bad)
        assert "has norm inf after centering and whitening" in err

    @staticmethod
    def with_block(block):
        """The 4 x 4 identity with ``block`` as its top left 2 x 2 block."""
        m = np.eye(4)
        m[:2, :2] = block
        return m.tolist()

    def test_asymmetric_sigma_whose_norms_overflow(self, scored_setup, tmp_path):
        # unscaled, both Frobenius norms overflow and their ratio is NaN
        bad = tmp_path / "bad.plda"
        Sigma = self.with_block([[1e300, 1e300], [-1e300, 1e300]])
        bad.write_text(self.model_text([[1.0], [0.0], [0.0], [0.0]], np.eye(4).tolist(),
                                       Sigma))
        assert self.score(scored_setup, tmp_path, model=bad).startswith(
            f"error: {bad}: Sigma asymmetric (relative 1.41e+00)")

    def test_asymmetric_whitener_whose_norms_overflow(self, scored_setup, tmp_path):
        bad = tmp_path / "bad.plda"
        bad.write_text(self.model_text([[1.0], [0.0], [0.0], [0.0]],
                                       self.with_block([[1e300, 1e300], [0.0, 1e300]])))
        assert self.score(scored_setup, tmp_path, model=bad).startswith(
            f"error: {bad}: whitener asymmetric (relative 8.16e-01)")

    @staticmethod
    def output_args(command, models, test, tmp_path):
        """The output options of ``score``, or of ``eval`` with a key of
        every model against the first two tests."""
        out = tmp_path / "out.csv"
        if command == "score":
            return out, ("--scores", out)
        key = tmp_path / "key.csv"
        key.write_text("".join(f"{m},{t},nontarget\n" for m in models
                               for t in read_dataset(test).utt_ids[:2]))
        return out, ("--key", key, "--report", out)

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_count_terms_that_overflow(self, scored_setup, tmp_path, command):
        # V' Sigma^-1 V is 1e306, so I + n V' Sigma^-1 V is finite for model
        # B's one enrollment vector and overflows for model A's 1,000
        model = tmp_path / "big.plda"
        model.write_text(self.model_text([[1e153], [0.0], [0.0], [0.0]], np.eye(4).tolist()))
        enroll = tmp_path / "enroll1000.csv"
        rng = np.random.default_rng(0)
        write_dataset(Dataset(4, tuple(
            UtteranceRecord(f"e{i}", f"c{i}", 0, "A" if i else "B", rng.normal(size=4))
            for i in range(1001))), enroll)
        test = scored_setup[2]
        out, args = self.output_args(command, "AB", test, tmp_path)
        code, err = run_fresh(command, "--model", model, "--enroll", enroll,
                              "--test", test, *args)
        assert code == 2, err
        assert err.startswith("error: I + n V' Sigma^-1 V overflows at n=1000 utterances")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_model_mean_that_overflows_the_scores(self, scored_setup, tmp_path, command):
        # a finite mean of 1e308 passes the model checks; centering and
        # projecting the rows overflows, and every score would be NaN
        model, enroll, test = scored_setup
        lines = model.read_text().split("\n")
        assert lines[1] == "u:"
        lines[2] = ",".join(["1e308", *lines[2].split(",")[1:]])
        model.write_text("\n".join(lines))
        models = sorted(set(read_dataset(enroll).global_spks))
        out, args = self.output_args(command, models, test, tmp_path)
        code, err = run_fresh(command, "--model", model, "--enroll", enroll,
                              "--test", test, *args)
        assert (code, err) == (2, "error: non-finite score\n")
        assert not out.exists()

    def test_corpus_whose_covariance_overflows(self, corpus_file, tmp_path):
        # a row of 1e200 components is finite; its square is not
        lines = corpus_file.read_text().split("\n")
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:4] + ["1e200"] * (len(fields) - 4))
        corpus_file.write_text("\n".join(lines))
        model = tmp_path / "m.plda"
        code, err = run_fresh("train", "--data", corpus_file, "--labels", "local", "--q", 2,
                              "--iters", 2, "--seed", 1, "--model", model)
        assert (code, err) == (2, "error: the sample covariance of the vectors overflows\n")
        assert not model.exists()

    def test_test_vector_whose_norm_overflows(self, scored_setup, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("#dim=4\nbig,c1,0,A,1e+308,1e+308,1e+308,1e+308\n")
        err = self.score(scored_setup, tmp_path, test=bad)
        assert "has norm inf after centering and whitening" in err


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1
