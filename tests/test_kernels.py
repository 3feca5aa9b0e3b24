import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plda_local import _kernels
from plda_local.data_model import Dataset, UtteranceRecord
from plda_local.plda import _posterior_terms
from plda_local.eval_harness import (
    EvalError,
    TrialSet,
    generate_trials,
    read_key,
    write_key,
    write_scores,
)
from _helpers import dense_llr, random_model, score_from_dicts, trial_indices, trial_pairs


class TestNumpyPath:
    def test_estep_q0(self):
        A = np.empty((5, 0))
        F = np.empty((0, 0))
        # five classes of size 1
        M, R2, ll = _kernels.estep_stats(A, np.array([1]), np.array([0, 5]),
                                         *_posterior_terms(F, [1]))
        assert M.shape == (5, 0)
        assert R2.shape == (0, 0)
        assert ll == 0.0

    def test_estep_matches_a_per_class_loop(self):
        rng = np.random.default_rng(3)
        q = 3
        B = rng.normal(size=(q, q))
        F = B @ B.T
        counts = np.repeat([1, 2, 5], [4, 1, 3])  # sorted by size
        A = rng.normal(size=(len(counts), q))
        M, R2, ll = _kernels.estep_stats(A, np.array([1, 2, 5]), np.array([0, 4, 5, 8]),
                                         *_posterior_terms(F, [1, 2, 5]))
        want_R2, want_ll = np.zeros((q, q)), 0.0
        for i, n in enumerate(counts):
            P = np.eye(q) + n * F
            m = np.linalg.solve(P, A[i])
            np.testing.assert_allclose(M[i], m, rtol=1e-12, atol=1e-14)
            want_R2 += n * (np.linalg.inv(P) + np.outer(m, m))
            want_ll += -0.5 * np.linalg.slogdet(P)[1] + 0.5 * A[i] @ m
        np.testing.assert_allclose(R2, want_R2, rtol=1e-12)
        assert ll == pytest.approx(want_ll, rel=1e-12)


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
    return TrialSet.from_pairs(list(enroll), list(tests), [m for m, _ in pairs],
                               [t for _, t in pairs], rng.random(len(pairs)) < 0.3)


def _assert_matches_oracle(model, enroll, tests, trials):
    scores = score_from_dicts(model, enroll, trials, tests)
    assert scores.shape == (len(trials),)
    for (mid, tid), s in zip(trial_pairs(trials), scores):
        assert s == pytest.approx(dense_llr(model, enroll[mid], tests[tid]),
                                  rel=1e-9, abs=1e-9)


def _count_score_entries(monkeypatch):
    """Make _kernels.score_trials record the size of each score block its
    matrix products compute; returns the list the sizes go to."""
    sizes = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            if ufunc is np.matmul:
                sizes.append(out.size)
            return out

    score_trials = _kernels.score_trials

    def counted(alpha, U, cidx, AT, *rest):
        return score_trials(alpha, U, cidx, AT.view(Counted), *rest)

    monkeypatch.setattr(_kernels, "score_trials", counted)
    return sizes


class TestScoreTrialset:
    """score_trialset against the dense joint-Gaussian oracle."""

    def test_sparse_shuffled_key(self):
        rng, model, enroll, tests = _material(0)
        trials = _sparse_keyed(rng, enroll, tests)
        assert len({len(v) for v in enroll.values()}) > 1
        assert 0 < len(trials) < len(enroll) * len(tests)
        _assert_matches_oracle(model, enroll, tests, trials)

    def test_full_cross_product(self, monkeypatch):
        _, model, enroll, tests = _material(1, n_models=6, n_tests=8)
        test = Dataset(model.dim, tuple(
            UtteranceRecord(utt_id=t, conv_id="c", slot=0, global_spk=f"m{j % 6}",
                            vector=v)
            for j, (t, v) in enumerate(tests.items())
        ))
        trials = generate_trials(sorted(enroll), test)
        assert len(trials) == 48
        # chunks of two models, each scored against every test once
        monkeypatch.setattr(_kernels, "_BLOCK", 16)
        sizes = _count_score_entries(monkeypatch)
        _assert_matches_oracle(model, enroll, tests, trials)
        assert sizes == [16, 16, 16]

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
        assert score_from_dicts(model, enroll, trials, tests).shape == (0,)

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

    def test_sparse_key_memory_stays_far_below_the_full_block(self, monkeypatch):
        # a diagonal key over 4000 x 4000: the whole score block would be 128 MB,
        # and each chunk of models is scored against every test, one chunk of
        # full rows at a time
        n, d = 4000, 3
        rng = np.random.default_rng(5)
        model = random_model(rng, d, 2)
        enroll = {f"m{i}": rng.normal(size=(1, d)) for i in range(n)}
        tests = {f"t{i}": rng.normal(size=d) for i in range(n)}
        trials = TrialSet(list(enroll), list(tests), np.arange(n), np.arange(n),
                          np.ones(n, dtype=bool))
        sizes = _count_score_entries(monkeypatch)
        tracemalloc.start()
        try:
            scores = score_from_dicts(model, enroll, trials, tests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
        step = _kernels._BLOCK // n
        assert sizes == [min(step, n - a) * n for a in range(0, n, step)]
        for i in (0, 1234, n - 1):
            assert scores[i] == pytest.approx(
                dense_llr(model, enroll[f"m{i}"], tests[f"t{i}"]), rel=1e-9, abs=1e-9)


class TestKeyedGetsProductBits:
    """A keyed set over a product's own model and test lists gets, bit for
    bit, the product's score for every pair it holds, whatever share of the
    pairs it holds and in whatever order."""

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 12), st.sampled_from(["0", "1", "d"]),
           st.integers(1, 16), st.integers(1, 64), st.floats(0.01, 1.0),
           st.sampled_from(["T", "3T", "default"]), st.integers(0, 2**32 - 1))
    @example(2, "d", 4, 2, 0.5, "T", 0)  # one model per chunk, one of two tests
    # read back in order of first appearance, this key's models would swap
    # rows, and their scores would change bits
    @example(7, "1", 2, 1, 1.0, "T", 0)
    def test_sparse_keys(self, tmp_path, d, rank, n_models, n_tests, share, block, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, {"0": 0, "1": 1, "d": d}[rank])
        enroll = {f"m{i}": rng.normal(size=(int(rng.integers(1, 5)), d))
                  for i in range(n_models)}
        tests = {f"t{j}": rng.normal(size=d) for j in range(n_tests)}
        target = rng.random((n_models, n_tests)) < 0.3
        product = TrialSet.product(list(enroll), list(tests), target)
        held = rng.random((n_models, n_tests)) < share
        held[rng.random(n_models) < 0.25] = False  # models with no trials
        pm, pt = np.nonzero(held)
        order = rng.permutation(len(pm))
        pm, pt = pm[order], pt[order]
        keyed = TrialSet(product.model_ids, product.test_utt_ids, pm, pt, target[pm, pt])
        # the same pairs as a key file, whose shuffled rows are read back
        # over the product's id lists, not in the order tests first appear
        path = tmp_path / "key.csv"
        write_key(keyed, path)
        read = read_key(path, product.model_ids, product.test_utt_ids)
        with pytest.MonkeyPatch.context() as mp:
            if block != "default":
                mp.setattr(_kernels, "_BLOCK", {"T": 1, "3T": 3}[block] * n_tests)
            full = score_from_dicts(model, enroll, product, tests)
            got = score_from_dicts(model, enroll, keyed, tests)
            got_read = score_from_dicts(model, enroll, read, tests)
        want = full.reshape(n_models, n_tests)[pm, pt].tobytes()
        assert got.tobytes() == want
        assert got_read.tobytes() == want


def _keyed_copy(product):
    """The pairs of a model x test product as a keyed TrialSet in the same
    model-major order, with index arrays built by repeat and tile."""
    M, T = len(product.model_ids), len(product.test_utt_ids)
    return TrialSet(product.model_ids, product.test_utt_ids,
                    np.repeat(np.arange(M), T), np.tile(np.arange(T), M),
                    product.target)


class TestProductMatchesKeyed:
    """A product and the same pairs as a keyed set give the same bits."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 24),
           st.integers(0, 2**32 - 1))
    @example(0, 3, 8, 0)  # no models
    @example(3, 0, 8, 0)  # no tests
    @example(1, 5, 8, 0)
    @example(6, 1, 8, 0)
    @example(7, 2, 6, 0)  # three models per chunk, which does not divide 7
    @example(4, 5, 2, 0)  # more tests than _BLOCK: one model per chunk
    def test_scores_and_files(self, tmp_path, n_models, n_tests, block, seed):
        rng = np.random.default_rng(seed)
        d = 3
        model = random_model(rng, d, 2)
        enroll = {f"m{i}": rng.normal(size=(int(rng.integers(1, 4)), d))
                  for i in range(n_models)}
        test = Dataset(d, tuple(
            UtteranceRecord(utt_id=f"t{j}", conv_id="c", slot=0,
                            global_spk=f"m{rng.integers(0, n_models + 1)}",
                            vector=rng.normal(size=d))
            for j in range(n_tests)))
        tests = dict(zip(test.utt_ids, test.vectors()))
        product = generate_trials(sorted(enroll), test)
        keyed = _keyed_copy(product)
        assert product.is_product and not keyed.is_product
        assert len(product) == n_models * n_tests
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK", block)
            got = score_from_dicts(model, enroll, product, tests)
            want = score_from_dicts(model, enroll, keyed, tests)
        assert got.tobytes() == want.tobytes()

        files = {}
        for name, trials in (("product", product), ("keyed", keyed)):
            write_scores(trials, got, tmp_path / f"{name}.scores")
            write_key(trials, tmp_path / f"{name}.key")
            files[name] = [(tmp_path / f"{name}.{ext}").read_bytes()
                           for ext in ("scores", "key")]
        assert files["product"] == files["keyed"]

    def test_indices_match_the_keyed_set(self):
        test = Dataset(1, tuple(
            UtteranceRecord(utt_id=f"t{j}", conv_id="c", slot=0, global_spk="m1",
                            vector=np.zeros(1)) for j in range(3)))
        product = generate_trials(["m0", "m1"], test)
        keyed = _keyed_copy(product)
        for a, b in ((0, 6), (1, 5), (4, 4)):
            assert trial_indices(product, a, b) == trial_indices(keyed, a, b)
        assert trial_indices(product, 1, 5) == ([0, 0, 1, 1], [1, 2, 0, 1])
        assert product.target.tolist() == [False] * 3 + [True] * 3

    def test_product_target_mask_shape_is_checked(self):
        with pytest.raises(EvalError, match="target mask"):
            TrialSet.product(["m0"], ["t0", "t1"], np.zeros((2, 1), dtype=bool))
