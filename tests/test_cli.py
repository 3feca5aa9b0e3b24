import dataclasses
import hashlib

import numpy as np
import pytest

from plda_local import cli
from plda_local.data_model import Dataset, read_dataset, write_dataset
from plda_local.eval_harness import compute_eer, read_key, read_scores, write_key
from plda_local.eval_harness import TrialSet, generate_trials
from plda_local.plda import load_model


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
        trials = generate_trials(
            models, test, {r.utt_id: r.global_spk for r in test.records}
        )
        write_key(trials, key_path)
        return trials

    def test_report_matches_scores_file(self, scored_setup, tmp_path):
        model_path, enroll_path, test_path = scored_setup
        key_path = tmp_path / "key.csv"
        self._make_key(enroll_path, test_path, key_path)
        report_path = tmp_path / "report.csv"
        scores_path = tmp_path / "scores.csv"
        assert run("eval", "--model", model_path, "--enroll", enroll_path,
                   "--test", test_path, "--key", key_path,
                   "--report", report_path, "--scores", scores_path) == 0

        lines = report_path.read_text().splitlines()
        reported = float(dict(l.split(",") for l in lines[1:5])["eer"])

        _, key = read_key(key_path)
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
                   in zip(trials.iter_trials(), trials.target) if y]
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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1
