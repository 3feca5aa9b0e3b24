import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plda_local import _kernels
from plda_local.data_model import Dataset, UtteranceRecord
from plda_local.eval_harness import TrialSet, generate_trials
from plda_local.plda import score_trialset
from _helpers import dense_llr, random_model


class TestNumpyPath:
    def test_estep_q0(self):
        A = np.empty((5, 0))
        counts = np.ones(5, dtype=np.int64)
        F = np.empty((0, 0))
        M, R2, ll = _kernels.estep_stats(A, counts, F)
        assert M.shape == (5, 0)
        assert R2.shape == (0, 0)
        assert ll == 0.0


def _material(seed, d=4, q=2, n_models=9, n_tests=11):
    """Model, enrollment sets of 1-4 vectors and test vectors."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, q)
    enroll = {f"m{i}": rng.normal(size=(int(rng.integers(1, 5)), d))
              for i in range(n_models)}
    tests = {f"t{j}": rng.normal(size=d) for j in range(n_tests)}
    return rng, model, enroll, tests


def _sparse_keyed(rng, enroll, tests, share=0.4):
    """A shuffled key over a random share of the model x test pairs."""
    pairs = [(m, t) for m in enroll for t in tests if rng.random() < share]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    key = {p: bool(rng.random() < 0.3) for p in pairs}
    return TrialSet.from_pairs(pairs, key)


def _assert_matches_oracle(model, enroll, tests, trials):
    scores = score_trialset(model, enroll, trials, tests)
    assert scores.shape == (len(trials),)
    for (mid, tid), s in zip(trials.iter_trials(), scores):
        assert s == pytest.approx(dense_llr(model, enroll[mid], tests[tid]),
                                  rel=1e-9, abs=1e-9)


class TestScoreTrialset:
    """score_trialset against the dense joint-Gaussian oracle."""

    def test_sparse_shuffled_key(self):
        rng, model, enroll, tests = _material(0)
        trials = _sparse_keyed(rng, enroll, tests)
        assert len({len(v) for v in enroll.values()}) > 1
        assert 0 < len(trials) < len(enroll) * len(tests)
        _assert_matches_oracle(model, enroll, tests, trials)

    def test_full_cross_product(self):
        _, model, enroll, tests = _material(1, n_models=6, n_tests=8)
        test = Dataset(model.dim, tuple(
            UtteranceRecord(utt_id=t, conv_id="c", slot=0, global_spk=f"m{j % 6}",
                            vector=v)
            for j, (t, v) in enumerate(tests.items())
        ))
        trials = generate_trials(sorted(enroll), test,
                                 {r.utt_id: r.global_spk for r in test.records})
        assert len(trials) == 48
        _assert_matches_oracle(model, enroll, tests, trials)

    def test_q0_model(self):
        rng, model, enroll, tests = _material(2, q=0)
        _assert_matches_oracle(model, enroll, tests, _sparse_keyed(rng, enroll, tests))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 5), st.sampled_from(["0", "1", "d"]),
           st.lists(st.integers(1, 40), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_matches_oracle_for_any_rank_and_count(self, d, rank, counts, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, {"0": 0, "1": 1, "d": d}[rank])
        enroll = {f"m{i}": rng.normal(size=(n, d)) for i, n in enumerate(counts)}
        tests = {f"t{j}": rng.normal(size=d) for j in range(3)}
        _assert_matches_oracle(model, enroll, tests,
                               _sparse_keyed(rng, enroll, tests, share=1.0))

    def test_no_trials(self):
        _, model, enroll, tests = _material(3)
        trials = TrialSet(["m0"], ["t0"], [], [], [])
        assert score_trialset(model, enroll, trials, tests).shape == (0,)

    @pytest.mark.parametrize("block", [1, 11, 23, 40])
    def test_spans_model_chunks(self, monkeypatch, block):
        # 11 tests: blocks of 1 and 11 scores take one model per chunk,
        # 23 two and 40 three; models m2 and m5 have no trials at all
        rng, model, enroll, tests = _material(4)
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        mids, tids = list(enroll), list(tests)
        pairs = [(m, t) for m in range(len(mids)) for t in range(len(tids))
                 if m not in (2, 5) and rng.random() < 0.5]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        trials = TrialSet(mids, tids, [m for m, _ in pairs], [t for _, t in pairs],
                          [False] * len(pairs))
        _assert_matches_oracle(model, enroll, tests, trials)

    def test_sparse_key_memory_stays_far_below_the_full_block(self):
        # a diagonal key over 4000 x 4000: the whole score block would be 128 MB
        n, d = 4000, 3
        rng = np.random.default_rng(5)
        model = random_model(rng, d, 2)
        enroll = {f"m{i}": rng.normal(size=(1, d)) for i in range(n)}
        tests = {f"t{i}": rng.normal(size=d) for i in range(n)}
        trials = TrialSet(list(enroll), list(tests), np.arange(n), np.arange(n),
                          np.ones(n, dtype=bool))
        tracemalloc.start()
        try:
            scores = score_trialset(model, enroll, trials, tests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
        for i in (0, 1234, n - 1):
            assert scores[i] == pytest.approx(
                dense_llr(model, enroll[f"m{i}"], tests[f"t{i}"]), rel=1e-9, abs=1e-9)
