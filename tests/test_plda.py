import numpy as np
import pytest
from scipy.stats import multivariate_normal, ortho_group

from plda_local.data_model import build_global_view
from plda_local.plda import (
    ModelFormatError,
    PldaError,
    PldaModel,
    TrainConfig,
    load_model,
    marginal_loglik,
    save_model,
    score_llr,
    score_trialset,
    speaker_posterior,
    train_em,
)
from plda_local.preprocess import Preprocessor
from plda_local.synth import SynthConfig, sample_conversations, sample_truth
from plda_local.eval_harness import generate_trials
from _helpers import corpus, dense_class_loglik, dense_llr, random_model


class TestModelValidation:
    def test_rejects_asymmetric_sigma(self):
        S = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(PldaError):
            PldaModel(u=np.zeros(2), V=np.zeros((2, 1)), Sigma=S)

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(PldaError):
            PldaModel(u=np.zeros(2), V=np.zeros((2, 1)), Sigma=np.diag([1.0, -1.0]))

    def test_rejects_q_above_d(self):
        with pytest.raises(PldaError):
            PldaModel(u=np.zeros(2), V=np.zeros((2, 3)), Sigma=np.eye(2))

    def test_derived_matrices_consistent(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 4, 2)
        assert np.linalg.norm(m.T - m.B - m.Sigma) < 1e-10 * np.linalg.norm(m.T)


class TestMarginalLoglik:
    def test_q0_single_vector_is_gaussian_density(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 3, 0)
        w = rng.normal(size=3)
        expected = multivariate_normal.logpdf(w, mean=m.u, cov=m.Sigma)
        assert marginal_loglik(m, [w[None, :]]) == pytest.approx(expected, abs=1e-10)

    def test_additive_over_singleton_classes(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 3, 2)
        a, b = rng.normal(size=(2, 3))
        total = marginal_loglik(m, [a[None, :], b[None, :]])
        assert total == pytest.approx(
            marginal_loglik(m, [a[None, :]]) + marginal_loglik(m, [b[None, :]]),
            abs=1e-10,
        )

    def test_matches_dense_joint_gaussian(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 2, 1)
        X = rng.normal(size=(3, 2))
        assert marginal_loglik(m, [X]) == pytest.approx(
            dense_class_loglik(m, X), abs=1e-8
        )

    def test_oracle_equivalence_all_small_shapes(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 3):
            for q in range(0, d + 1):
                m = random_model(rng, d, q)
                for n in (1, 2, 3, 4):
                    X = rng.normal(size=(n, d))
                    assert marginal_loglik(m, [X]) == pytest.approx(
                        dense_class_loglik(m, X), abs=1e-8
                    )


class TestScoreLlr:
    def test_zero_subspace_scores_zero(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 3, 0)
        for _ in range(5):
            assert score_llr(m, [rng.normal(size=3)], rng.normal(size=3)) == 0.0

    def test_single_enroll_symmetry(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4, 2)
        for _ in range(10):
            a, b = rng.normal(size=(2, 4))
            assert score_llr(m, [a], b) == pytest.approx(
                score_llr(m, [b], a), abs=1e-10
            )

    def test_scalar_closed_form(self):
        m = PldaModel(u=np.zeros(1), V=np.ones((1, 1)), Sigma=np.ones((1, 1)))
        llr = score_llr(m, [np.zeros(1)], np.zeros(1))
        assert llr == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-12)

    def test_matches_marginal_difference(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 3, 2)
        E = rng.normal(size=(2, 3))
        t = rng.normal(size=3)
        assert score_llr(m, E, t) == pytest.approx(dense_llr(m, E, t), abs=1e-8)

    def test_empty_enrollment_rejected(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 3, 1)
        with pytest.raises(PldaError):
            score_llr(m, np.empty((0, 3)), rng.normal(size=3))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, 5, 3)
        R = ortho_group.rvs(3, random_state=10)
        m_rot = PldaModel(u=m.u, V=m.V @ R, Sigma=m.Sigma)
        for _ in range(10):
            a, b = rng.normal(size=(2, 5))
            assert score_llr(m, [a], b) == pytest.approx(
                score_llr(m_rot, [a], b), abs=1e-9
            )

    def test_more_enrollment_raises_target_score(self):
        # mean same-speaker LLR with 3 enrollment vectors beats 1
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            m = random_model(rng, 6, 2)
            diffs = []
            for _ in range(1000):
                y = rng.normal(size=2)
                spk_mean = m.u + m.V @ y
                chol = np.linalg.cholesky(m.Sigma)
                draws = spk_mean + rng.normal(size=(5, 6)) @ chol.T
                test = draws[0]
                diffs.append(
                    score_llr(m, draws[1:4], test) - score_llr(m, draws[1:2], test)
                )
            assert np.mean(diffs) > 0


class TestSpeakerPosterior:
    def test_cov_shrinks_with_count(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, 4, 2)
        X = rng.normal(size=(5, 4))
        small = speaker_posterior(m, X[:2]).cov
        large = speaker_posterior(m, X).cov
        # large-count posterior covariance is dominated by the small-count one
        assert np.linalg.eigvalsh(small - large)[0] > -1e-12

    def test_spd(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 4, 2)
        post = speaker_posterior(m, rng.normal(size=(3, 4)))
        assert np.linalg.eigvalsh(post.cov)[0] > 0
        assert post.count == 3


class TestTrainEm:
    def test_q0_sigma_is_sample_covariance(self):
        data = corpus(seed=1, dim=4, q=2, nconv=30, slots=1, utts=3)
        view = build_global_view(data)
        model, lls = train_em(data, view, None, TrainConfig(latent_dim=0, iterations=1, seed=0))
        X = data.vectors()
        Xc = X - X.mean(axis=0)
        np.testing.assert_allclose(model.Sigma, Xc.T @ Xc / len(X), atol=1e-10)
        assert model.latent_dim == 0

    def test_monotone_loglik_random_corpora(self):
        for seed in range(5):
            data = corpus(seed=seed, dim=6, q=2, nconv=40, slots=1, utts=4)
            view = build_global_view(data)
            _, lls = train_em(
                data, view, None,
                TrainConfig(latent_dim=2, iterations=20, seed=seed, loglik_tol=0.0),
            )
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-8 * abs(a)

    def test_parameter_recovery(self):
        cfg = SynthConfig(dim=8, latent_dim=2, seed=1, n_conversations=1000,
                          slots_per_conversation=1, utts_per_slot=10)
        truth = sample_truth(cfg)
        data = sample_conversations(
            SynthConfig(**{**cfg.__dict__, "truth": truth})
        )
        view = build_global_view(data)
        model, _ = train_em(
            data, view, None,
            TrainConfig(latent_dim=2, iterations=50, seed=1, loglik_tol=0.0),
        )
        BB, BB_hat = truth.B, model.B
        assert np.linalg.norm(BB_hat - BB) / np.linalg.norm(BB) < 0.15
        assert (
            np.linalg.norm(model.Sigma - truth.Sigma) / np.linalg.norm(truth.Sigma)
            < 0.10
        )

    def test_needs_two_classes(self):
        data = corpus(seed=2, dim=3, q=1, nconv=1, slots=1, utts=5)
        view = build_global_view(data)
        with pytest.raises(PldaError):
            train_em(data, view, None, TrainConfig(latent_dim=1, iterations=5, seed=0))

    def test_q_above_d_rejected(self):
        data = corpus(seed=2, dim=3, q=1, nconv=10, slots=1, utts=2)
        view = build_global_view(data)
        with pytest.raises(PldaError):
            train_em(data, view, None, TrainConfig(latent_dim=4, iterations=5, seed=0))

    def test_early_stop(self):
        data = corpus(seed=3, dim=4, q=1, nconv=30, slots=1, utts=3)
        view = build_global_view(data)
        _, lls = train_em(
            data, view, None,
            TrainConfig(latent_dim=1, iterations=500, seed=0, loglik_tol=1e-5),
        )
        assert len(lls) < 500

    def test_preprocessed_training(self):
        from plda_local.preprocess import fit
        data = corpus(seed=4, dim=5, q=2, nconv=50, slots=1, utts=3)
        pp = fit(data.vectors())
        view = build_global_view(data)
        model, lls = train_em(data, view, pp,
                              TrainConfig(latent_dim=2, iterations=15, seed=0))
        # length-normalized training vectors live on the unit sphere
        assert np.linalg.norm(model.u) < 1.0
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-8 * abs(a)


class TestScoreBatch:
    """score_trialset over a cross product against looped score_llr."""

    def _setup(self, seed=0, n_models=10, n_tests=10):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 5, 2)
        enroll = {f"m{i}": rng.normal(size=(rng.integers(1, 4), 5))
                  for i in range(n_models)}
        from plda_local.data_model import Dataset, UtteranceRecord
        test = Dataset(5, tuple(
            UtteranceRecord(utt_id=f"t{i}", conv_id="c", slot=0,
                            global_spk=f"m{i % n_models}",
                            vector=rng.normal(size=5))
            for i in range(n_tests)
        ))
        key = {r.utt_id: r.global_spk for r in test.records}
        trials = generate_trials(sorted(enroll), test, key)
        test_vecs = {r.utt_id: r.vector for r in test.records}
        return m, enroll, trials, test_vecs

    def test_singleton_matches_score_llr(self):
        m, enroll, trials, test_vecs = self._setup(n_models=1, n_tests=1)
        scores = score_trialset(m, enroll, trials, test_vecs)
        assert len(scores) == 1
        [(mid, tid)] = trials.iter_trials()
        assert scores[0] == pytest.approx(
            score_llr(m, enroll[mid], test_vecs[tid]), abs=1e-12
        )

    def test_matches_looped_score_llr(self):
        m, enroll, trials, test_vecs = self._setup(seed=1, n_models=20, n_tests=20)
        scores = score_trialset(m, enroll, trials, test_vecs)
        for (mid, tid), s in zip(trials.iter_trials(), scores):
            assert s == pytest.approx(
                score_llr(m, enroll[mid], test_vecs[tid]), abs=1e-12
            )

    def test_unresolved_id(self):
        m, enroll, trials, test_vecs = self._setup()
        enroll.pop(sorted(enroll)[0])
        with pytest.raises(PldaError, match="m0"):
            score_trialset(m, enroll, trials, test_vecs)


class TestModelFile:
    def test_round_trip_scores(self, tmp_path):
        rng = np.random.default_rng(20)
        m = random_model(rng, 6, 3)
        pp = Preprocessor(mean=rng.normal(size=6),
                          whitener=np.eye(6) * 1.5, fitted_on=100)
        path = tmp_path / "m.plda"
        save_model(m, pp, path)
        m2, pp2 = load_model(path)
        for _ in range(10):
            a, b = rng.normal(size=(2, 6))
            assert score_llr(m, [a], b) == pytest.approx(
                score_llr(m2, [a], b), abs=1e-9
            )
        np.testing.assert_array_equal(pp.mean, pp2.mean)
        np.testing.assert_array_equal(pp.whitener, pp2.whitener)

    def test_truncated_file_names_section(self, tmp_path):
        rng = np.random.default_rng(21)
        m = random_model(rng, 3, 1)
        path = tmp_path / "m.plda"
        save_model(m, Preprocessor.identity(3), path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.plda").write_text("\n".join(lines[:6]) + "\n")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(tmp_path / "cut.plda")

    @pytest.mark.parametrize("header", ["#plda dim=-4 q=2", "#plda dim=4 q=-1",
                                        "#plda dim=0 q=0"])
    def test_bad_header_dimensions_rejected(self, tmp_path, header):
        path = tmp_path / "bad.plda"
        path.write_text(f"{header}\nu:\n")
        with pytest.raises(ModelFormatError, match="header needs"):
            load_model(path)

    def test_negative_sigma_eigenvalue_rejected(self, tmp_path):
        path = tmp_path / "bad.plda"
        path.write_text(
            "#plda dim=2 q=0\n"
            "u:\n0.0,0.0\n"
            "V:\n\n\n"
            "Sigma:\n1.0,0.0\n0.0,-1.0\n"
            "pp.mean:\n0.0,0.0\n"
            "pp.whitener:\n1.0,0.0\n0.0,1.0\n"
        )
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_q0_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        m = random_model(rng, 3, 0)
        path = tmp_path / "m.plda"
        save_model(m, Preprocessor.identity(3), path)
        m2, _ = load_model(path)
        assert m2.latent_dim == 0
        np.testing.assert_allclose(m2.Sigma, m.Sigma, atol=1e-12)
