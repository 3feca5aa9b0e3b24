import ast
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plda_local import cli, data_model, eval_harness, plda
from plda_local.data_model import (
    DataError,
    Dataset,
    LabelingError,
    ParseError,
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
from _helpers import (classes, corpus, label_view, local_class, member_count, partition,
                      random_model, read_dataset_rows)
from test_golden_output import SPECIAL


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

    # every separator str.splitlines breaks a row on, and the field separator
    @pytest.mark.parametrize("sep", [",", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                     "\x1e", "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("field", ["utt_id", "conv_id", "global_spk"])
    def test_rejects_an_id_the_file_cannot_carry(self, field, sep):
        fields = dict(utt_id="u1", conv_id="c1", slot=0, global_spk="A",
                      vector=np.zeros(2))
        fields[field] = f"a{sep}b"
        with pytest.raises(DataError, match="may not contain ',' or line breaks"):
            UtteranceRecord(**fields)

    def test_rejects_the_missing_speaker_mark(self):
        # a corpus file writes a record without a speaker as '-'
        with pytest.raises(DataError, match="pass None"):
            rec("u1", spk="-")

    def test_rejects_a_non_integer_slot(self):
        with pytest.raises(DataError, match="slot must be an integer"):
            rec("u1", slot=1.5)

    def test_integer_slot_becomes_int(self):
        r = rec("u1", slot=np.int64(3))
        assert r.slot == 3 and type(r.slot) is int

    def test_local_class_composition(self):
        assert local_class(rec("u1", conv="c7", slot=3)) == "c7:3"

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
        assert sorted(len(m) for m in classes(v).values()) == [1, 2]

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
        assert set(classes(v)) == {"c1:2"}

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
        conv_of = dict(zip(data.utt_ids, data.conv_ids))
        for members in classes(build_local_view(data)).values():
            assert len({conv_of[u] for u in members}) == 1


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
        assert all(c.startswith(("g:", "l:")) for c in classes(p))

    def test_empty_local_side(self):
        g = LabelViewFixture.global_view(2)
        p = build_pooled_view(g, label_view("local", {}))
        assert partition(p) == partition(g)

    def test_rows_line_up_with_merge_datasets(self):
        a = corpus(seed=3, dim=3, q=1, nconv=20, slots=2, utts=2, rho=0.3)
        b = corpus(seed=4, dim=3, q=1, nconv=20, slots=2, utts=2, rho=0.3)
        p = build_pooled_view(build_global_view(a), build_local_view(b))
        assert p.utt_ids == merge_datasets(a, b).utt_ids
        assert classes(p) == {**{f"g:{k}": v for k, v in classes(build_global_view(a)).items()},
                              **{f"l:{k}": v for k, v in classes(build_local_view(b)).items()}}

    def test_corpus_scale_pooled_counts(self):
        g = label_view("global", {f"s{i}": (f"gu{i}",) for i in range(6000)})
        l = label_view("local", {f"c{i}:0": (f"lu{i}",) for i in range(5532)})
        assert build_pooled_view(g, l).n_classes == 11532


class TestLabelViewChecks:
    """A view checks its strategy, that it has one class code per row, each
    a class index or -1, and that no class is empty."""

    def test_empty_class_rejected(self):
        with pytest.raises(LabelingError, match="empty"):
            label_view("global", {"A": ("u1",), "B": ()})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(LabelingError, match="strategy"):
            label_view("speaker", {})

    @pytest.mark.parametrize("codes", [[0, 2], [-2, 0], [0, 1, 1], [[0, 1]]])
    def test_codes_must_be_class_indices_one_per_row(self, codes):
        from plda_local.data_model import LabelView
        with pytest.raises(LabelingError, match="class codes"):
            LabelView("global", ("u1", "u2"), ("A", "B"), np.array(codes))

    def test_codes_are_read_only(self):
        v = label_view("global", {"A": ("u1",), "B": ("u2",)})
        with pytest.raises(ValueError):
            v.codes[0] = 1


class LabelViewFixture:
    @staticmethod
    def global_view(n):
        return label_view("global", {f"s{i}": (f"gu{i}a", f"gu{i}b") for i in range(n)})

    @staticmethod
    def local_view(n):
        return label_view("local", {f"c{i}:0": (f"lu{i}",) for i in range(n)})


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

    # characters beside the refused ones: '\t' and '\x1f' break no line
    @pytest.mark.parametrize("name", ["a\tb", "a\x1fb", " a ", "-x", "--", "ü#λ"])
    def test_unusual_ids_round_trip(self, tmp_path, name):
        data = Dataset(1, (rec(name, conv=name, slot=2, spk=name, vec=(1.0,)),
                           rec("-", conv="-", spk="a:b", vec=(2.0,)),
                           rec("a:b", spk=None, vec=(3.0,))))
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        back = read_dataset(p)
        for col in ("utt_ids", "conv_ids", "slots", "global_spks"):
            assert getattr(back, col) == getattr(data, col)
        np.testing.assert_array_equal(back.vectors(), data.vectors())

    def test_short_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#dim=4\nu1,c1,0,A,1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(p)

    @pytest.mark.parametrize("dim", ["1152921504606846976", "99999999999999999999"])
    def test_dimension_numpy_cannot_index(self, tmp_path, dim):
        p = tmp_path / "bad.csv"
        p.write_text(f"#dim={dim}\n")
        with pytest.raises(ParseError, match=f"line 1: dimension {dim} too large"):
            read_dataset(p)

    def test_huge_dimension_with_a_short_row(self, tmp_path):
        # 2**40 components would take 8 TiB; the row holds one
        p = tmp_path / "bad.csv"
        p.write_text("#dim=1099511627776\nu1,c1,0,A,1.0\n")
        with pytest.raises(ParseError, match="line 2: expected 1099511627780 fields, got 5"):
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


def det_report():
    return eval_harness.eval_report(np.linspace(-1.0, 1.0, 12), np.arange(12) % 3 == 0)


# writer -> (calls of the array formatter before the failure, write); with
# values written in chunks of one or two, the calls before it write rows
WRITERS = {
    "write_dataset": (2, lambda path: write_dataset(
        corpus(seed=2, dim=4, q=2, nconv=3, slots=1, utts=2), path)),
    "save_model": (3, lambda path: plda.save_model(
        random_model(np.random.default_rng(0), 4, 2), Preprocessor.identity(4), path)),
    "write_report": (2, lambda path: eval_harness.write_report(
        SweepGrid(axis_global=(0, 5), axis_local=(10,), repeats=2,
                  cells={(0, 10): np.array([0.1, 0.2]), (5, 10): np.array([0.0, 0.5])}),
        path)),
    "write_report_det": (4, lambda path: eval_harness.write_report(det_report(), path)),
    "write_scores": (2, lambda path: eval_harness.write_scores(
        eval_harness.TrialSet.product(["m0", "m1"], [f"t{i}" for i in range(6)],
                                      np.eye(2, 6, dtype=bool)),
        np.linspace(0.0, 1.0, 12), path)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    good_calls, write = WRITERS[writer]
    path = tmp_path / "out.csv"
    path.write_text("old contents\n")
    monkeypatch.setattr(data_model, "_CHUNK", 2)
    monkeypatch.setattr(data_model, "_usable_cores", lambda: 2)
    parent = os.getpid()
    calls = []
    format_into = data_model._format_into

    def failing_format(*args):
        # a worker formats its run of chunks into a part file; this process
        # fails in its own run, after some rows are written
        if os.getpid() == parent:
            if len(calls) == good_calls:
                raise RuntimeError("format failed")
            calls.append(1)
        format_into(*args)

    monkeypatch.setattr(data_model, "_format_into", failing_format)
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


# corpus text for the reader tests: ids from a small alphabet with spaces,
# '#', '-' and non-ASCII, components in several spellings float() accepts
ID = st.text(alphabet=" ab-#ü", min_size=1, max_size=4)
COMPONENT = st.one_of(
    st.sampled_from(SPECIAL).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 1.5", "+2", "1E3", "1_000", "-0", ".5", "7."]),
)


@st.composite
def corpus_rows(draw, min_rows=0):
    """(dim, rows): each row a list of its field strings; the '.' before the
    row number, which ID never draws, keeps utt_ids distinct."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(min_rows, 24))
    rows = []
    for i in range(n):
        spk = draw(st.one_of(st.just("-"), ID))
        rows.append([f"{draw(ID)}.{i}", draw(ID), str(draw(st.integers(0, 9))), spk,
                     *draw(st.lists(COMPONENT, min_size=dim, max_size=dim))])
    return dim, rows


def corpus_text(dim, rows, blanks):
    """The file text, with a blank or blank-looking line before row i
    wherever blanks[i] is not None."""
    out = [f"#dim={dim}"]
    for row, blank in zip(rows, blanks):
        if blank is not None:
            out.append(blank)
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def read_both(text, chunk, cores):
    """(read_dataset's result or ParseError, the oracle's), for one file
    read with ``chunk`` values per chunk over ``cores`` usable cores."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        path.write_text(text, encoding="utf-8")
        got = []
        for read in (read_dataset, read_dataset_rows):
            with mock.patch.object(data_model, "_CHUNK", chunk), \
                    mock.patch.object(data_model, "_usable_cores", lambda: cores):
                try:
                    got.append(read(path))
                except ParseError as e:
                    got.append(e)
    return got


def assert_same_dataset(got, want):
    assert got.dim == want.dim
    assert got.utt_ids == tuple(r.utt_id for r in want.records)
    assert got.conv_ids == tuple(r.conv_id for r in want.records)
    assert got.slots == tuple(r.slot for r in want.records)
    assert got.global_spks == tuple(r.global_spk for r in want.records)
    assert got.vectors().shape == (len(want), want.dim)
    # bit-equal, so -0.0 and 0.0 differ
    assert got.vectors().tobytes() == want.vectors().tobytes()


CHUNKS = st.sampled_from([1, 3, 8, 1 << 16])
CORES = st.sampled_from([1, 2, 3])
BLANKS = st.lists(st.one_of(st.none(), st.sampled_from(["", " ", "\t"])),
                  min_size=24, max_size=24)

FAULTS = ("field count", "duplicate utt_id", "non-integer slot", "negative slot",
          "non-numeric value", "non-finite value", "':' in conv_id", "empty id")


def with_fault(kind, k, rows, draw):
    """Row k's fields with one fault of the given kind."""
    utt, conv, slot, spk, *comps = rows[k]
    if kind == "field count":
        comps = comps[:-1] if draw(st.booleans()) else comps + ["1.0"]
    elif kind == "duplicate utt_id":
        utt = rows[draw(st.integers(0, k - 1))][0]
    elif kind == "non-integer slot":
        slot = draw(st.sampled_from(["x", "1.5", "", "1e3"]))
    elif kind == "negative slot":
        slot = "-3"
    elif kind == "non-numeric value":
        comps[-1] = draw(st.sampled_from(["zzz", "", "1.2.3", "0x1"]))
    elif kind == "non-finite value":
        comps[0] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif kind == "':' in conv_id":
        conv += ":"
    else:
        field = draw(st.sampled_from(["utt", "conv", "spk"]))
        utt, conv, spk = ("" if f == field else v
                          for f, v in (("utt", utt), ("conv", conv), ("spk", spk)))
    return [utt, conv, slot, spk, *comps]


class TestReaderMatchesRowAtATime:
    """read_dataset against the row-at-a-time oracle in _helpers, over one
    and several chunks and 1 to 3 usable cores."""

    @settings(deadline=None, max_examples=60)
    @given(corpus_rows(), BLANKS, CHUNKS, CORES)
    def test_valid_corpus(self, corpus, blanks, chunk, cores):
        dim, rows = corpus
        got, want = read_both(corpus_text(dim, rows, blanks), chunk, cores)
        assert not isinstance(want, ParseError), want
        assert_same_dataset(got, want)

    @pytest.mark.parametrize("kind", FAULTS)
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_one_fault_raises_the_same_error(self, kind, data):
        dim, rows = data.draw(corpus_rows(min_rows=2))
        blanks = data.draw(BLANKS)
        k = data.draw(st.integers(1 if kind == "duplicate utt_id" else 0, len(rows) - 1))
        rows[k] = with_fault(kind, k, rows, data.draw)
        got, want = read_both(corpus_text(dim, rows, blanks), data.draw(CHUNKS),
                              data.draw(CORES))
        assert isinstance(want, ParseError)
        line = 2 + k + sum(b is not None for b in blanks[:k + 1])
        assert f": line {line}: " in str(want)
        assert isinstance(got, ParseError) and str(got) == str(want)


def reader_file(tmp_path, n, faults=None):
    """A dim-2 corpus of n rows; faults maps a row to its text."""
    lines = [f"u{i},c{i // 2},{i % 2},{'-' if i % 3 == 0 else f's{i}'},{i / 7!r},{-i}"
             for i in range(n)]
    for i, text in (faults or {}).items():
        lines[i] = text
    path = tmp_path / "c.csv"
    path.write_text("#dim=2\n" + "".join(line + "\n" for line in lines))
    return path


class TestChunkedReader:
    """read_dataset's forked parse with one dim-2 row per chunk; the tests'
    leak guard checks that no worker outlives a read."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(data_model, "_CHUNK", 2)
        return count_forks(monkeypatch)

    @pytest.mark.parametrize("n, cores, workers", [
        (0, 2, 0),    # header only
        (1, 2, 0),    # one chunk never forks
        (2, 2, 1),    # two chunks
        (7, 2, 1),    # seven chunks: runs of 3 and 4
        (7, 3, 2),    # runs of 2, 2 and 3, whatever the host's core count
        (7, 1, 0),    # one usable core
    ])
    def test_values_equal_row_at_a_time(self, tmp_path, monkeypatch, forks, n, cores,
                                        workers):
        monkeypatch.setattr(data_model, "_usable_cores", lambda: cores)
        path = reader_file(tmp_path, n)
        assert_same_dataset(read_dataset(path), read_dataset_rows(path))
        assert len(forks) == workers

    def test_run_is_parsed_here_when_fork_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_model, "_CHUNK", 2)
        monkeypatch.setattr(data_model, "_usable_cores", lambda: 3)

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        path = reader_file(tmp_path, 7)
        assert_same_dataset(read_dataset(path), read_dataset_rows(path))

    def test_run_of_a_failed_worker_is_parsed_here(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(data_model, "_usable_cores", lambda: 3)
        parent = os.getpid()

        def worker_fails(text):
            if os.getpid() != parent:
                raise RuntimeError("worker failed")
            return float(text)

        monkeypatch.setattr(data_model, "float", worker_fails, raising=False)
        path = reader_file(tmp_path, 7)
        assert_same_dataset(read_dataset(path), read_dataset_rows(path))
        assert len(forks) == 2

    # faults by row; with all seven rows parsed, rows 0-2 are this process's
    # run and rows 3-6 the worker's. Only the rows before a fault found when
    # the ids are split off are parsed, one chunk each, so a fault in row 1
    # leaves one chunk and no worker
    @pytest.mark.parametrize("faults, workers", [
        ({6: "u6,c3,0,s6,zzz,1"}, 1),            # non-numeric
        ({5: "u5,c2,1,s5,1.0,inf"}, 1),          # non-finite
        ({6: "u6,c3,0,s6,1.0,2.0,3.0"}, 1),      # field count
        ({5: "u5,c2,x,s5,1.0,2.0"}, 1),          # bad slot
        ({4: "u4,c2,0,s4,1.0,nan", 6: "u6,c3,0,s6,1.0"}, 1),
        ({5: "u5,c2,1,s5,zzz,1.0", 6: "u6,c3,x,s6,1.0,2.0"}, 1),
        ({2: "u2,c1,0,s2,1.0,zzz", 5: "u5,c2,1,s5,1.0,zzz"}, 1),
        ({1: "u1,c0,-1,s1,1.0,2.0", 3: "u3,c1,1,s3,zzz,2.0"}, 0),
        ({3: "u3,c1,-1,s3,zzz,1.0"}, 1),         # non-numeric before the slot's sign
        ({3: "u3,c1,-1,s3,inf,1.0"}, 1),         # the slot's sign before non-finite
    ])
    def test_fault_raises_the_serial_error(self, tmp_path, monkeypatch, forks, faults,
                                           workers):
        monkeypatch.setattr(data_model, "_usable_cores", lambda: 2)
        path = reader_file(tmp_path, 7, faults)
        with pytest.raises(ParseError) as want:
            read_dataset_rows(path)
        assert f": line {2 + min(faults)}: " in str(want.value)
        with pytest.raises(ParseError) as got:
            read_dataset(path)
        assert str(got.value) == str(want.value)
        assert len(forks) == workers


def test_train_builds_no_record(tmp_path, monkeypatch):
    """The train command works on columns: no UtteranceRecord is built and
    no record view is asked for, on a corpus read over several chunks."""
    path = tmp_path / "c.csv"
    write_dataset(corpus(seed=4, dim=4, q=2, nconv=30, slots=2, utts=2), path)
    monkeypatch.setattr(data_model, "_CHUNK", 64)  # 16 rows a chunk, 8 chunks
    monkeypatch.setattr(data_model, "_usable_cores", lambda: 2)
    forks = count_forks(monkeypatch)
    built, viewed = [], []
    post_init, records = UtteranceRecord.__post_init__, Dataset.records

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_records(self):
        viewed.append(1)
        return records.fget(self)

    monkeypatch.setattr(UtteranceRecord, "__post_init__", counting_post_init)
    monkeypatch.setattr(Dataset, "records", property(counting_records))
    for labels in ("local", "global"):
        assert cli.main(["train", "--data", str(path), "--labels", labels, "--seed", "0",
                         "--model", str(tmp_path / f"{labels}.plda")]) == 0
    assert built == [] and viewed == []
    assert len(forks) == 2  # one worker per read


def test_src_has_one_fork_call_site():
    src = Path(data_model.__file__).parent
    sites = [(p.name, node.lineno) for p in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork"]
    assert len(sites) == 1, sites
