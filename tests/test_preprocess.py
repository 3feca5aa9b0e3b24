import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plda_local.preprocess import (
    PreprocessError,
    Preprocessor,
    cosine_score,
    fit,
)


class TestFit:
    def test_requires_two_vectors(self):
        with pytest.raises(PreprocessError):
            fit(np.ones((1, 3)))

    def test_degenerate_sample_ridge(self):
        # identical vectors: covariance is pure ridge, whitener stays finite
        pp = fit(np.ones((5, 3)) * 2.0)
        assert np.all(np.isfinite(pp.whitener))

    def test_diagonal_covariance_closed_form(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200000, 2)) * np.array([2.0, 1.0])
        pp = fit(X)
        np.testing.assert_allclose(pp.whitener, np.diag([0.5, 1.0]), atol=0.02)

    def test_standard_normal_whitener_near_identity(self):
        rng = np.random.default_rng(1)
        pp = fit(rng.normal(size=(10000, 8)))
        assert np.linalg.norm(pp.whitener - np.eye(8)) < 0.1

    def test_self_sample_invariant(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 6)) @ rng.normal(size=(6, 6)) + rng.normal(size=6)
        pp = fit(X)
        W = pp.whitener
        Y = (X - pp.mean) @ W.T
        assert np.linalg.norm(Y.mean(axis=0)) < 1e-8
        C = np.cov(Y, rowvar=False, ddof=1)
        # the stabilizing ridge keeps this from being exact
        assert np.linalg.norm(C - np.eye(6)) / np.linalg.norm(np.eye(6)) < 0.01

    def test_whitener_symmetric(self):
        rng = np.random.default_rng(3)
        pp = fit(rng.normal(size=(100, 4)))
        rel = np.linalg.norm(pp.whitener - pp.whitener.T) / np.linalg.norm(pp.whitener)
        assert rel < 1e-10

    def test_no_whiten_gives_identity(self):
        rng = np.random.default_rng(4)
        pp = fit(rng.normal(size=(50, 3)), whiten=False)
        np.testing.assert_array_equal(pp.whitener, np.eye(3))


class TestLengthNormalize:
    def test_three_four_five(self):
        pp = Preprocessor.identity(2)
        np.testing.assert_allclose(
            pp.apply(np.array([3.0, 4.0])), [0.6, 0.8]
        )

    def test_mean_vector_is_degenerate(self):
        pp = Preprocessor(mean=np.array([1.0, 2.0]), whitener=np.eye(2), fitted_on=2)
        with pytest.raises(PreprocessError):
            pp.apply(np.array([1.0, 2.0]))

    def test_idempotent_direction(self):
        pp = Preprocessor.identity(3)
        v = pp.apply(np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(pp.apply(v), v, atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16))
    def test_unit_norm_property(self, comps):
        v = np.array(comps)
        pp = Preprocessor.identity(len(comps))
        if np.linalg.norm(v) < 1e-12:
            return
        assert abs(np.linalg.norm(pp.apply(v)) - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (0, 5), (2, 3, 4), ()])
    def test_wrong_dimension_rejected(self, shape):
        pp = Preprocessor.identity(4)
        with pytest.raises(PreprocessError, match="expected dimension 4"):
            pp.apply(np.ones(shape))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        pp = fit(rng.normal(size=(100, 4)))
        X = rng.normal(size=(10, 4))
        batch = pp.apply(X)
        for i in range(10):
            np.testing.assert_allclose(batch[i], pp.apply(X[i]), atol=1e-12)


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_score(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine_score([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(PreprocessError):
            cosine_score([0.0, 0.0], [1.0, 0.0])

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.floats(0.01, 100),
        st.floats(0.01, 100),
    )
    def test_symmetry_and_scale_invariance(self, a, b, sa, sb):
        a, b = np.array(a), np.array(b)
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        s = cosine_score(a, b)
        assert -1.0 <= s <= 1.0 + 1e-12
        assert cosine_score(b, a) == pytest.approx(s, abs=1e-12)
        assert cosine_score(sa * a, sb * b) == pytest.approx(s, abs=1e-9)
