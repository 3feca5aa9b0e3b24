"""The array float formatter against repr(float), value by value and as the
bytes of every file written through it."""
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plda_local import data_model
from plda_local.data_model import Dataset, UtteranceRecord, format_float, write_dataset
from plda_local.eval_harness import TrialSet, write_key, write_report, write_scores
from plda_local.plda import save_model
from plda_local.preprocess import Preprocessor
from _helpers import (
    random_model,
    report_with_det,
    save_model_rows,
    write_dataset_rows,
    write_key_rows,
    write_report_rows,
    write_scores_rows,
)


def text_of(values):
    """_text_rows of a (n, k) array, as one string."""
    return "".join(data_model._text_rows(np.asarray(values, dtype=np.float64)))


def repr_rows(values):
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())


def from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# every float64 bit pattern: both zeros, subnormals, infinities, NaNs with
# any payload and sign
FLOAT_BITS = st.integers(0, 2**64 - 1).map(from_bits)
ANY = st.one_of(st.floats(), FLOAT_BITS)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestAgainstRepr:
    @settings(deadline=None, max_examples=500)
    @given(ANY)
    def test_one_value(self, x):
        assert format_float(x) == repr(x)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
               st.lists(ANY, min_size=k, max_size=k), min_size=1, max_size=15)),
           st.sampled_from([1, 2, 7, 1 << 13]))
    def test_rows_of_values(self, rows, block):
        # small blocks too, so the rows fall in several blocks of one or more rows
        values = np.array(rows)
        with mock.patch.object(data_model, "_BLOCK", block):
            assert text_of(values) == repr_rows(values)

    def test_sweep(self):
        e = np.arange(-1074, 1024)
        powers = np.ldexp(1.0, e)
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        layout = np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 0.001, 1e-100, 1e-99, 1e100,
                           1e101, 123456789012345678.0, 0.0001234, 9.999999999999999e-5])
        extremes = np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2, np.finfo(float).max,
                             np.finfo(float).tiny, np.finfo(float).smallest_subnormal,
                             np.nextafter(np.finfo(float).tiny, 0), 0.0, np.inf, np.nan])
        base = np.concatenate([powers, tens, layout, extremes])
        with np.errstate(over="ignore"):  # the largest float's neighbour is inf
            x = np.concatenate([base, np.nextafter(base, np.inf),
                                np.nextafter(base, -np.inf)])
        x = np.concatenate([x, -x])
        assert text_of(x[:, None]) == repr_rows(x[:, None])
        three = x[:len(x) // 3 * 3].reshape(-1, 3)
        assert text_of(three) == repr_rows(three)

    def test_nan_has_no_sign(self):
        assert format_float(-np.nan) == "nan"
        assert format_float(from_bits(0xFFF0000000000001)) == "nan"

    def test_power_of_ten_table_is_in_range(self):
        # g in [2^125, 2^126) splits into a high part in [2^62, 2^63)
        assert len(data_model._G1) == data_model._K_MAX - data_model._K_MIN + 1
        assert (data_model._G1 >= 2**62).all() and (data_model._G1 < 2**63).all()
        assert (data_model._G0 < 2**63).all()


# ids without "," or a line break; multi-byte UTF-8, NUL, tab and other
# control characters included
ID_CHARS = st.sampled_from(["a", "b", "7", "-", " ", "ü", "日", "\U0001f600", "\x00",
                            "\t", "\x01", "\x7f", "\x1b"])
IDS = st.lists(st.text(ID_CHARS, min_size=1, max_size=5), min_size=1, max_size=6,
               unique=True)
SETTINGS = st.tuples(st.sampled_from([1, 3, 8, 1 << 16]), st.sampled_from([1, 2, 3]),
                     st.sampled_from([1, 5, 1 << 13]))


def same_bytes(write, oracle, settings_):
    """Write with ``write`` under (values per chunk, usable cores, values
    per block) and with the row-at-a-time ``oracle``; compare the bytes."""
    chunk, cores, block = settings_
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got", Path(tmp) / "want"
        with mock.patch.object(data_model, "_CHUNK", chunk), \
                mock.patch.object(data_model, "_usable_cores", lambda: cores), \
                mock.patch.object(data_model, "_BLOCK", block):
            write(got)
        oracle(want)
        assert got.read_bytes() == want.read_bytes()


class TestFilesAgainstRowWriters:
    @settings(deadline=None, max_examples=40)
    @given(IDS, IDS, st.data(), SETTINGS)
    def test_scores_and_key(self, models, tests, data, settings_):
        n = len(models) * len(tests)
        scores = np.array(data.draw(st.lists(ANY, min_size=n, max_size=n)))
        target = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        product = TrialSet.product(models, tests, target.reshape(len(models), len(tests)))
        keep = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        keyed = TrialSet.from_pairs(models, tests, [models[i // len(tests)] for i in keep],
                                    [tests[i % len(tests)] for i in keep], target[keep])
        for trials, s in ((product, scores), (keyed, scores[keep])):
            same_bytes(lambda p: write_scores(trials, s, p),
                       lambda p: write_scores_rows(trials, s, p), settings_)
            same_bytes(lambda p: write_key(trials, p),
                       lambda p: write_key_rows(trials, p), settings_)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4), st.data(), SETTINGS)
    def test_corpus(self, dim, data, settings_):
        ids = data.draw(IDS)
        records = tuple(UtteranceRecord(
            utt_id=u, conv_id=data.draw(st.text(ID_CHARS, min_size=1, max_size=3)),
            slot=data.draw(st.integers(0, 12)),
            global_spk=data.draw(st.one_of(st.none(), st.text(ID_CHARS, min_size=1,
                                                              max_size=3).filter(
                                                                  lambda s: s != "-"))),
            vector=np.array(data.draw(st.lists(FINITE, min_size=dim, max_size=dim))))
            for u in ids)
        corpus = Dataset(dim, records)
        same_bytes(lambda p: write_dataset(corpus, p),
                   lambda p: write_dataset_rows(corpus, p), settings_)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(ANY, ANY), min_size=1, max_size=40), FINITE, FINITE, SETTINGS)
    def test_det_report(self, points, eer, threshold, settings_):
        report = report_with_det(eer=eer, threshold=threshold, det_points=np.array(points),
                                 n_target=3, n_nontarget=len(points))
        same_bytes(lambda p: write_report(report, p),
                   lambda p: write_report_rows(report, p), settings_)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 6), st.data(), st.integers(0, 2**32 - 1), SETTINGS)
    def test_model(self, d, data, seed, settings_):
        q = data.draw(st.integers(0, d))
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, q, vscale=10.0 ** rng.integers(-5, 6))
        A = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-100, 100)
        pp = Preprocessor(mean=np.array(data.draw(st.lists(FINITE, min_size=d, max_size=d))),
                          whitener=A + A.T)
        same_bytes(lambda p: save_model(model, pp, p),
                   lambda p: save_model_rows(model, pp, p), settings_)


@pytest.mark.parametrize("chunk", [2, 1 << 16])
def test_ids_with_multibyte_and_control_characters(tmp_path, monkeypatch, chunk):
    """Ids whose bytes are NUL, tab or other controls, or span several bytes,
    come out byte for byte as the row writers give them."""
    monkeypatch.setattr(data_model, "_CHUNK", chunk)
    models = ["m\x00", "日本\x00", "\x00\x00", "ü\t"]
    tests = ["t\x01", "\t\x7f", "\U0001f600", "x\x1b\x00"]
    target = np.arange(16).reshape(4, 4) % 3 == 0
    scores = np.linspace(-3, 3, 16) ** 3
    product = TrialSet.product(models, tests, target)
    picks = [13, 2, 7, 0, 11, 4, 9, 14]  # a shuffled part of the product
    keyed = TrialSet.from_pairs(models, tests, [models[i // 4] for i in picks],
                                [tests[i % 4] for i in picks], [True, False] * 4)
    corpus = Dataset(2, tuple(
        UtteranceRecord(f"u{i}\x00{m}", f"c\t{i}", i, None if i % 2 else t, [i / 3, -i])
        for i, (m, t) in enumerate(zip(models, tests))))
    cases = [
        (lambda p: write_scores(product, scores, p),
         lambda p: write_scores_rows(product, scores, p)),
        (lambda p: write_scores(keyed, scores[:8], p),
         lambda p: write_scores_rows(keyed, scores[:8], p)),
        (lambda p: write_key(product, p), lambda p: write_key_rows(product, p)),
        (lambda p: write_key(keyed, p), lambda p: write_key_rows(keyed, p)),
        (lambda p: write_dataset(corpus, p), lambda p: write_dataset_rows(corpus, p)),
    ]
    for i, (write, oracle) in enumerate(cases):
        write(tmp_path / f"got{i}")
        oracle(tmp_path / f"want{i}")
        assert (tmp_path / f"got{i}").read_bytes() == (tmp_path / f"want{i}").read_bytes()
