import os

import numpy as np
import pytest

from plda_local import data_model, eval_harness, plda
from plda_local.data_model import (
    DataError,
    Dataset,
    LabelingError,
    ParseError,
    PoolingError,
    UtteranceRecord,
    build_global_view,
    build_local_view,
    build_pooled_view,
    merge_datasets,
    read_dataset,
    write_dataset,
)
from plda_local.eval_harness import SweepGrid
from plda_local.preprocess import Preprocessor
from _helpers import corpus, member_count, partition, random_model


def rec(utt, conv="c1", slot=0, spk="A", vec=(1.0, 2.0)):
    return UtteranceRecord(utt_id=utt, conv_id=conv, slot=slot, global_spk=spk,
                           vector=np.array(vec))


class TestRecords:
    def test_rejects_nonfinite_vector(self):
        with pytest.raises(DataError):
            rec("u1", vec=(1.0, np.nan))

    def test_rejects_colon_in_conv_id(self):
        with pytest.raises(DataError):
            rec("u1", conv="a:b")

    def test_rejects_negative_slot(self):
        with pytest.raises(DataError):
            rec("u1", slot=-1)

    def test_local_class_composition(self):
        assert rec("u1", conv="c7", slot=3).local_class == "c7:3"

    def test_vector_is_read_only(self):
        r = rec("u1")
        with pytest.raises(ValueError):
            r.vector[0] = 9.0


class TestDataset:
    def test_duplicate_utt_id(self):
        with pytest.raises(DataError):
            Dataset(2, (rec("u1"), rec("u1", conv="c2")))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            Dataset(3, (rec("u1"),))

    def test_merge_disjoint(self):
        a = Dataset(2, (rec("u1"),))
        b = Dataset(2, (rec("u2"),))
        assert len(merge_datasets(a, b)) == 2

    def test_merge_overlap_rejected(self):
        a = Dataset(2, (rec("u1"),))
        with pytest.raises(DataError):
            merge_datasets(a, a)

    def test_duplicate_vectors_are_legal(self):
        # near-duplicate archives must not be silently merged
        d = Dataset(2, (rec("u1"), rec("u2")))
        assert len(d) == 2


class TestGlobalView:
    def test_partition_by_speaker(self):
        d = Dataset(2, (rec("u1", spk="A"), rec("u2", spk="A", conv="c2"),
                        rec("u3", spk="B", conv="c3")))
        v = build_global_view(d)
        assert v.strategy == "global"
        assert sorted(len(m) for m in v.classes.values()) == [1, 2]

    def test_empty_dataset(self):
        v = build_global_view(Dataset(2, ()))
        assert v.n_classes == 0

    def test_missing_label_names_utterance(self):
        d = Dataset(2, (rec("u1"), rec("u9", spk=None, conv="c2")))
        with pytest.raises(LabelingError, match="u9"):
            build_global_view(d)

    def test_corpus_scale_class_count(self):
        # 42,719 utterances spread over 6,000 speakers -> 6,000 classes
        records = tuple(
            UtteranceRecord(utt_id=f"u{i}", conv_id=f"c{i}", slot=0,
                            global_spk=f"s{i % 6000}", vector=np.zeros(1))
            for i in range(42719)
        )
        v = build_global_view(Dataset(1, records))
        assert v.n_classes == 6000
        assert member_count(v) == 42719


class TestLocalView:
    def test_cross_conversation_split(self):
        d = Dataset(2, (rec("u1", conv="c1", spk="A"),
                        rec("u2", conv="c2", spk="A")))
        v = build_local_view(d)
        assert v.n_classes == 2

    def test_class_id_form(self):
        d = Dataset(2, (rec("u1", conv="c1", slot=2, spk=None),))
        v = build_local_view(d)
        assert set(v.classes) == {"c1:2"}

    def test_no_recurrence_matches_global_partition(self):
        data = corpus(seed=5, dim=4, q=2, nconv=40, slots=2, utts=3, rho=0.0)
        assert partition(build_local_view(data)) == partition(build_global_view(data))

    def test_recurrent_corpus_class_count(self):
        # 1000 conversations x 2 slots always gives 2000 local classes;
        # recurrence only shrinks the distinct-speaker count below that
        data = corpus(seed=11, dim=3, q=1, nconv=1000, slots=2, utts=1, rho=0.3)
        v = build_local_view(data)
        n_spk = len({r.global_spk for r in data.records})
        assert v.n_classes == 2000
        assert n_spk <= 2000
        assert n_spk < 2000  # with rho=0.3 some recurrence is near-certain

    def test_never_merges_conversations(self):
        data = corpus(seed=3, dim=3, q=1, nconv=30, slots=2, utts=2, rho=0.5)
        by_utt = data.by_utt()
        for members in build_local_view(data).classes.values():
            assert len({by_utt[u].conv_id for u in members}) == 1


class TestPooledView:
    def test_counts_add(self):
        g = LabelViewFixture.global_view(3)
        l = LabelViewFixture.local_view(2)
        p = build_pooled_view(g, l)
        assert p.n_classes == 5
        assert member_count(p) == member_count(g) + member_count(l)

    def test_namespacing(self):
        g = LabelViewFixture.global_view(1)
        l = LabelViewFixture.local_view(1)
        p = build_pooled_view(g, l)
        assert all(c.startswith(("g:", "l:")) for c in p.classes)

    def test_empty_local_side(self):
        from plda_local.data_model import LabelView
        g = LabelViewFixture.global_view(2)
        p = build_pooled_view(g, LabelView("local", {}))
        assert partition(p) == partition(g)

    def test_overlap_rejected(self):
        from plda_local.data_model import LabelView
        g = LabelView("global", {"A": ("u1",)})
        l = LabelView("local", {"c1:0": ("u1",)})
        with pytest.raises(PoolingError):
            build_pooled_view(g, l)

    def test_corpus_scale_pooled_counts(self):
        from plda_local.data_model import LabelView
        g = LabelView("global", {f"s{i}": (f"gu{i}",) for i in range(6000)})
        l = LabelView("local", {f"c{i}:0": (f"lu{i}",) for i in range(5532)})
        assert build_pooled_view(g, l).n_classes == 11532


class LabelViewFixture:
    @staticmethod
    def global_view(n):
        from plda_local.data_model import LabelView
        return LabelView("global", {f"s{i}": (f"gu{i}a", f"gu{i}b") for i in range(n)})

    @staticmethod
    def local_view(n):
        from plda_local.data_model import LabelView
        return LabelView("local", {f"c{i}:0": (f"lu{i}",) for i in range(n)})


class TestFileRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        data = corpus(seed=2, dim=4, q=2, nconv=3, slots=1, utts=2)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        back = read_dataset(p)
        assert back.dim == data.dim
        assert len(back) == len(data)
        for a, b in zip(data.records, back.records):
            assert (a.utt_id, a.conv_id, a.slot, a.global_spk) == \
                   (b.utt_id, b.conv_id, b.slot, b.global_spk)
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_short_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#dim=4\nu1,c1,0,A,1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(p)

    def test_non_numeric_component(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#dim=2\nu1,c1,0,A,1.0,zzz\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(p)

    def test_duplicate_utt_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#dim=1\nu1,c1,0,A,1.0\nu1,c2,0,B,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_dataset(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u1,c1,0,A,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_dataset(p)

    def test_dash_means_unlabeled(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("#dim=2\nu1,c1,0,-,1.0,2.0\nu2,c2,0,-,3.0,4.0\n")
        data = read_dataset(p)
        assert all(r.global_spk is None for r in data.records)
        with pytest.raises(LabelingError):
            build_global_view(data)

    def test_colon_in_conv_rejected_at_read(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#dim=1\nu1,a:b,0,A,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(p)


# writer -> (module whose format_float it calls, calls before the failure, write)
WRITERS = {
    "write_dataset": (data_model, 10, lambda path: write_dataset(
        corpus(seed=2, dim=4, q=2, nconv=3, slots=1, utts=2), path)),
    "save_model": (plda, 10, lambda path: plda.save_model(
        random_model(np.random.default_rng(0), 4, 2), Preprocessor.identity(4), path)),
    "write_report": (eval_harness, 2, lambda path: eval_harness.write_report(
        SweepGrid(axis_global=(0, 5), axis_local=(10,), repeats=2,
                  cells={(0, 10): np.array([0.1, 0.2]), (5, 10): np.array([0.0, 0.5])}),
        path)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    module, good_calls, write = WRITERS[writer]
    path = tmp_path / "out.csv"
    path.write_text("old contents\n")
    calls = []

    def failing_format(x):
        if len(calls) == good_calls:
            raise RuntimeError("format failed")
        calls.append(x)
        return repr(float(x))

    monkeypatch.setattr(module, "format_float", failing_format)
    with pytest.raises(RuntimeError):
        write(path)
    assert len(calls) == good_calls
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def row(i):
    return f"r{i},{i / 7!r}\n"


def rows(a, b):
    return map(row, range(a, b))


def count_forks(monkeypatch):
    """A list that grows by one at each os.fork call."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


class TestChunkedWriter:
    """_write_chunked against a row-at-a-time reference, with three rows per
    chunk; the tests' leak guard checks that no worker outlives a write."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(data_model, "_CHUNK", 3)
        return count_forks(monkeypatch)

    @staticmethod
    def write(path, n, lines=rows):
        with data_model._replacing(path) as fh:
            fh.write("head\n")
            data_model._write_chunked(fh, n, lines)

    @pytest.mark.parametrize("n, cores, workers", [
        (0, 2, 0),    # header only
        (3, 2, 0),    # one chunk never forks
        (6, 2, 1),    # two chunks
        (20, 2, 1),   # seven chunks: runs of 3 and 4
        (20, 3, 2),   # runs of 2, 2 and 3, whatever the host's core count
        (20, 1, 0),   # one usable core
    ])
    def test_bytes_equal_row_at_a_time(self, tmp_path, monkeypatch, forks, n, cores,
                                       workers):
        monkeypatch.setattr(data_model, "_usable_cores", lambda: cores)
        path = tmp_path / "out.csv"
        self.write(path, n)
        assert path.read_text() == "head\n" + "".join(map(row, range(n)))
        assert len(forks) == workers
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_run_of_a_failed_worker_is_formatted_here(self, tmp_path, monkeypatch,
                                                      forks):
        monkeypatch.setattr(data_model, "_usable_cores", lambda: 3)
        parent = os.getpid()

        def lines(a, b):
            if os.getpid() != parent:
                raise RuntimeError("worker failed")
            return rows(a, b)

        path = tmp_path / "out.csv"
        self.write(path, 20, lines)
        assert path.read_text() == "head\n" + "".join(map(row, range(20)))
        assert len(forks) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_run_is_formatted_here_when_fork_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_model, "_CHUNK", 3)

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "out.csv"
        self.write(path, 20)
        assert path.read_text() == "head\n" + "".join(map(row, range(20)))
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    # first bad chunk start: in this process's run, or in the worker's only
    @pytest.mark.parametrize("bad", [3, 12])
    def test_failure_everywhere_raises_the_serial_error(self, tmp_path, monkeypatch,
                                                        forks, bad):
        monkeypatch.setattr(data_model, "_usable_cores", lambda: 2)

        def lines(a, b):
            if a >= bad:
                raise ValueError(f"bad chunk at {a}")
            return rows(a, b)

        path = tmp_path / "out.csv"
        path.write_text("old contents\n")
        with pytest.raises(ValueError, match=f"at {bad}$"):
            self.write(path, 20, lines)
        assert len(forks) == 1
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    # six dim-4 records; a chunk holds _CHUNK // 4 records, at least one,
    # and with a core per chunk every chunk after the first forks a worker
    @pytest.mark.parametrize("chunk, workers", [(2, 5), (8, 2), (12, 1), (1 << 16, 0)])
    def test_corpus_chunk_holds_chunk_over_dim_records(self, tmp_path, monkeypatch,
                                                       chunk, workers):
        data = corpus(seed=2, dim=4, q=2, nconv=3, slots=1, utts=2)
        want = tmp_path / "serial.csv"
        write_dataset(data, want)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(data_model, "_CHUNK", chunk)
        monkeypatch.setattr(data_model, "_usable_cores", lambda: 8)
        path = tmp_path / "out.csv"
        write_dataset(data, path)
        assert path.read_bytes() == want.read_bytes()
        assert len(forks) == workers
