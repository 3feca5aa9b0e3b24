import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from plda_local import eval_harness, plda
from plda_local.data_model import (
    Dataset,
    UtteranceRecord,
    build_global_view,
    build_local_view,
    build_pooled_view,
    merge_datasets,
)
from plda_local.plda import (
    ModelFormatError,
    PldaError,
    PldaModel,
    TrainConfig,
    load_model,
    save_model,
    score_llr,
    score_trialset,
    train_em,
)
from plda_local.preprocess import Preprocessor, PreprocessError
from plda_local.synth import SynthConfig, sample_conversations, sample_truth
from plda_local.eval_harness import TrialSet, generate_trials
from _helpers import (
    between_cov,
    classes,
    collect_classes_rows,
    corpus,
    dense_class_loglik,
    dense_llr,
    draw_partition,
    label_view,
    llr_longdouble,
    partition_by,
    random_model,
    score_from_dicts,
    trial_pairs,
)


def count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call of ``owner.name`` for
    the rest of the test."""
    calls = []
    f = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_eigh(monkeypatch):
    """Record every np.linalg.eigh call for the rest of the test."""
    return count_calls(monkeypatch, np.linalg, "eigh")


def pooled_material(seed, d, q):
    """(data, view) of a pooled view whose classes have 1, 2, 4 and 5
    members, three of each size in shuffled order, drawn from a random
    model: half of the classes are speakers with global labels, half are
    conversation slots without."""
    rng = np.random.default_rng(seed)
    truth = random_model(rng, d, q)
    L = np.linalg.cholesky(truth.Sigma)
    sizes = rng.permutation([1, 2, 4, 5] * 3)
    records = {True: [], False: []}  # keyed by whether the class has a label
    for c, n in enumerate(sizes.tolist()):
        labelled = c % 2 == 0
        spk = truth.u + truth.V @ rng.normal(size=q)
        records[labelled] += [UtteranceRecord(
            utt_id=f"u{c}_{j}", conv_id=f"c{c}", slot=0,
            global_spk=f"s{c}" if labelled else None,
            vector=spk + L @ rng.normal(size=d)) for j in range(n)]
    g, l = Dataset(d, tuple(records[True])), Dataset(d, tuple(records[False]))
    view = build_pooled_view(build_global_view(g), build_local_view(l))
    return merge_datasets(g, l), view


class TestModelValidation:
    def test_rejects_asymmetric_sigma(self):
        S = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(PldaError):
            PldaModel(u=np.zeros(2), V=np.zeros((2, 1)), Sigma=S)

    # unscaled, the Frobenius norms of these overflow
    @pytest.mark.parametrize("S, symmetric", [
        ([[1e300, 1e300], [-1e300, 1e300]], False),
        ([[1e308, 1e308], [-1e308, 1e308]], False),  # S - S' overflows
        ([[1e200, 1e190], [1e190 * (1 + 1e-12), 1e200]], True),  # relative 1e-22
    ])
    def test_symmetry_at_huge_scale(self, S, symmetric):
        if symmetric:
            PldaModel(u=np.zeros(2), V=np.zeros((2, 1)), Sigma=np.array(S))
        else:
            with pytest.raises(PldaError, match="Sigma asymmetric"):
                PldaModel(u=np.zeros(2), V=np.zeros((2, 1)), Sigma=np.array(S))

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(PldaError):
            PldaModel(u=np.zeros(2), V=np.zeros((2, 1)), Sigma=np.diag([1.0, -1.0]))

    def test_rejects_q_above_d(self):
        with pytest.raises(PldaError):
            PldaModel(u=np.zeros(2), V=np.zeros((2, 3)), Sigma=np.eye(2))

    def test_rejects_overflowing_derived_terms(self):
        # u, V and Sigma are finite, but V' Sigma^-1 V is 1e400; warnings are
        # ignored so that the overflow itself cannot raise
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PldaError, match="not finite"):
                PldaModel(u=np.zeros(2), V=np.array([[1e200], [0.0]]), Sigma=np.eye(2))

    def test_derived_matrices_consistent(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 4, 2)
        S_inv = np.linalg.inv(m.Sigma)
        assert m._logdet_sigma == pytest.approx(np.linalg.slogdet(m.Sigma)[1], abs=1e-12)
        np.testing.assert_allclose(m._G, m.V.T @ S_inv, atol=1e-12)
        np.testing.assert_allclose(m._F, m.V.T @ S_inv @ m.V, atol=1e-12)


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

    def test_mean_that_overflows_the_score_raises(self):
        # a finite mean of 1e308 passes the model checks; centering the
        # zero rows overflows
        rng = np.random.default_rng(12)
        m = random_model(rng, 3, 2)
        m = PldaModel(u=np.array([1e308, 0.0, 0.0]), V=m.V, Sigma=m.Sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PldaError, match="^non-finite score$"):
                score_llr(m, np.zeros((3, 3)), np.zeros(3))

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


class TestPosteriorTerms:
    @pytest.mark.parametrize("q", [0, 1, 3, 10])
    def test_bits_of_one_count_at_a_time(self, q):
        rng = np.random.default_rng(q)
        B = rng.normal(size=(q, q))
        F = B @ B.T
        ns = [1, 3, 3, 1, 250, 7, 250, 2]
        Q, L = plda._posterior_terms(F, ns)
        assert Q.shape == (len(ns), q, q) and L.shape == (len(ns),)
        for k, n in enumerate(ns):
            P = np.eye(q) + n * F
            assert Q[k].tobytes() == np.linalg.inv(P).tobytes()
            assert L[k].tobytes() == np.float64(np.linalg.slogdet(P)[1]).tobytes()

    @pytest.mark.parametrize("counts", [[179], [1, 179, 400], [400, 1000]])
    def test_score_llr_and_score_trialset_name_one_count(self, counts):
        # V' Sigma^-1 V is 1e306: I + n V' Sigma^-1 V overflows from n = 180
        model = PldaModel(u=np.zeros(2), V=np.array([[1e153], [0.0]]), Sigma=np.eye(2))
        rng = np.random.default_rng(0)
        enroll = [rng.normal(size=(n, 2)) for n in counts]
        test = rng.normal(size=2)
        named = {}
        for E in enroll:
            try:
                score_llr(model, E, test)
            except PldaError as e:
                named[int(str(e).split("n=")[1].split()[0])] = str(e)
        trials = TrialSet.product([f"m{i}" for i in range(len(counts))], ["t"],
                                  np.zeros((len(counts), 1), dtype=bool))
        with pytest.raises(PldaError) as e:
            score_trialset(model, np.concatenate(enroll), counts, trials, test[None])
        assert str(e.value) == named[min(named)]
        assert str(e.value).startswith("I + n V' Sigma^-1 V overflows at n=")


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
        BB, BB_hat = between_cov(truth), between_cov(model)
        assert np.linalg.norm(BB_hat - BB) / np.linalg.norm(BB) < 0.15
        assert (
            np.linalg.norm(model.Sigma - truth.Sigma) / np.linalg.norm(truth.Sigma)
            < 0.10
        )

    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(PldaError, match="seed"):
            TrainConfig(latent_dim=1, iterations=5, seed=seed)

    def test_needs_two_classes(self):
        data = corpus(seed=2, dim=3, q=1, nconv=1, slots=1, utts=5)
        view = build_global_view(data)
        with pytest.raises(PldaError):
            train_em(data, view, None, TrainConfig(latent_dim=1, iterations=5, seed=0))

    @pytest.mark.parametrize("rows", ["another_corpus", "a_subset", "reordered"])
    def test_refuses_a_view_over_other_rows(self, rows):
        data = corpus(seed=2, dim=3, q=1, nconv=10, slots=1, utts=2)
        other = {"another_corpus": lambda: corpus(seed=3, dim=3, q=1, nconv=10, slots=1, utts=2),
                 "a_subset": lambda: data.subset(data.utt_ids[:10]),
                 "reordered": lambda: Dataset(data.dim, data.records[::-1])}[rows]()
        view = build_global_view(other)
        assert view.n_classes >= 2
        with pytest.raises(PldaError, match="not over the rows"):
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

    def test_rank_deficient_scatter_clamps_every_iteration(self, monkeypatch):
        # 8 vectors of dimension 12 in 4 classes: the sample covariance and
        # every M-step Sigma have rank below d, so the floor must clamp each one
        clamped = []
        floor = plda._floor_spd

        def counting(S, d):
            out = floor(S, d)
            clamped.append(out is not S)
            return out

        monkeypatch.setattr(plda, "_floor_spd", counting)
        eighs = count_eigh(monkeypatch)
        data = corpus(seed=7, dim=12, q=2, nconv=4, slots=1, utts=2)
        model, lls = train_em(
            data, build_global_view(data), None,
            TrainConfig(latent_dim=2, iterations=10, seed=0, loglik_tol=0.0),
        )
        assert clamped == [True] * 11  # the initial Sigma and 10 M-steps
        assert len(eighs) == 11
        assert np.all(np.isfinite(lls))
        assert np.all(np.linalg.eigvalsh(model.Sigma) > 0)

    def test_well_conditioned_training_skips_eigh(self, monkeypatch):
        eighs = count_eigh(monkeypatch)
        eigvalshs = count_calls(monkeypatch, np.linalg, "eigvalsh")
        uniques = count_calls(monkeypatch, np, "unique")
        data = corpus(seed=1, dim=6, q=2, nconv=60, slots=1, utts=3)
        _, lls = train_em(data, build_global_view(data), None,
                          TrainConfig(latent_dim=2, iterations=20, seed=0))
        assert len(lls) > 1
        assert eighs == []
        assert eigvalshs == []
        assert len(uniques) <= 1

    def test_eigenvalue_within_twice_the_floor_goes_through_eigh(self, monkeypatch):
        d = 4
        # lam = 1.5 * floor, where floor = 1e-8 * (3 + lam) / d
        lam = 1.5e-8 * 3 / (d - 1.5e-8)
        Q = ortho_group.rvs(d, random_state=0)
        S = (Q * np.array([lam, 1.0, 1.0, 1.0])) @ Q.T
        S = 0.5 * (S + S.T)
        floor = 1e-8 * np.trace(S) / d
        assert floor <= np.linalg.eigh(S)[0][0] < 2 * floor
        eighs = count_eigh(monkeypatch)
        assert plda._floor_spd(S, d) is S
        assert len(eighs) == 1

    @settings(deadline=None, max_examples=300)
    @given(d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-6.0, 6.0),
           k=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3.0, 4.0)))
    @example(d=4, seed=0, scale=0.0, k=1.0)  # at the floor
    @example(d=4, seed=0, scale=0.0, k=1.5)  # between the floor and twice it
    @example(d=4, seed=0, scale=0.0, k=1.999999)
    def test_floor_keeps_s_exactly_when_eigh_would(self, d, seed, scale, k):
        # S has eigenvalues 10**scale * [0.1, 10] and a smallest one of k
        # floors, where floor = 1e-8 * trace(S) / d
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        others = 10.0 ** (scale + rng.uniform(-1.0, 1.0, size=d - 1))
        lam = k * 1e-8 * others.sum() / (d - k * 1e-8)
        S = (Q * np.concatenate([[lam], others])) @ Q.T
        S = 0.5 * (S + S.T)
        floor = 1e-8 * np.trace(S) / d
        evals, evecs = np.linalg.eigh(S)
        out = plda._floor_spd(S, d)
        assert (out is S) == (evals[0] >= floor)
        if out is not S:
            np.testing.assert_array_equal(out, (evecs * np.maximum(evals, floor)) @ evecs.T)

    @pytest.mark.parametrize("q", [0, 2, 5], ids=["q0", "q2", "q_equals_d"])
    def test_loglik_equals_the_dense_oracle(self, q):
        # the log-likelihood reported at iteration k is that of the model
        # after k M-steps, which is what a training of k iterations returns
        data, view = pooled_material(seed=q, d=5, q=q)
        sizes = [len(m) for m in classes(view).values()]
        assert sorted(set(sizes)) == [1, 2, 4, 5] and sizes != sorted(sizes)
        rows = dict(zip(data.utt_ids, data.vectors()))
        for k in (1, 4):
            model, _ = train_em(data, view, None, TrainConfig(
                latent_dim=q, iterations=k, seed=0, loglik_tol=0))
            _, lls = train_em(data, view, None, TrainConfig(
                latent_dim=q, iterations=k + 1, seed=0, loglik_tol=0))
            want = sum(dense_class_loglik(model, [rows[u] for u in members])
                       for members in classes(view).values())
            assert lls[-1] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("dim,q,utts", [(5, 2, 1), (4, 4, 3)],
                             ids=["singleton_classes", "q_equals_d"])
    def test_edge_shapes_stay_finite_and_monotone(self, dim, q, utts):
        for seed in range(3):
            data = corpus(seed=seed, dim=dim, q=2, nconv=40, slots=1, utts=utts)
            model, lls = train_em(
                data, build_global_view(data), None,
                TrainConfig(latent_dim=q, iterations=30, seed=seed, loglik_tol=0.0),
            )
            assert len(lls) == 30 and np.all(np.isfinite(lls))
            assert np.all(np.isfinite(model.V)) and model.latent_dim == q
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-8 * abs(a)

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

    def test_row_order_moves_only_rounding_and_rows_in_no_class_go_first(self):
        # the classes' rows interleave in a random order; one row, in no
        # class, is a zero vector, which the identity preprocessor refuses
        rng = np.random.default_rng(11)
        base = corpus(seed=4, dim=5, q=2, nconv=40, slots=1, utts=3)
        records = [base.records[i] for i in rng.permutation(len(base.records)).tolist()]
        zero = records[7]
        records[7] = UtteranceRecord(utt_id=zero.utt_id, conv_id=zero.conv_id, slot=zero.slot,
                                     global_spk=zero.global_spk, vector=np.zeros(5))
        data = Dataset(5, tuple(records))
        part = {k: tuple(u for u in m if u != zero.utt_id)
                for k, m in partition_by(data.global_spks, data.utt_ids).items()}
        pp = Preprocessor.identity(5)
        with pytest.raises(PreprocessError, match="norm 0.0"):
            pp.apply(data.vectors())
        shuffled = Dataset(5, tuple(records[i] for i in rng.permutation(len(records)).tolist()))
        cfg = TrainConfig(latent_dim=2, iterations=10, seed=0, loglik_tol=0.0)
        (m1, ll1), (m2, ll2) = (train_em(d, label_view("global", part, d.utt_ids), pp, cfg)
                                for d in (data, shuffled))
        # both sum the same rows, in two orders: they agree to rounding
        for a, b in ((m1.u, m2.u), (m1.V, m2.V), (m1.Sigma, m2.Sigma), (ll1, ll2)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestClassStats:
    """The statistics EM trains on, against statistics of the rows that a
    reference working on {class id: utt_ids} partitions gathers class by
    class."""

    @staticmethod
    def _dataset(rng, sizes, tag, labeled):
        """Classes of the given sizes with their rows shuffled: class k is a
        speaker when ``labeled``, else a conversation slot, and its id comes
        from a shuffled number, so that sorting ids reorders the classes."""
        number = rng.permutation(len(sizes))
        owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).tolist()
        return Dataset(2, tuple(UtteranceRecord(
            utt_id=f"{tag}u{i}", conv_id=f"{tag}c{number[k] // 2}", slot=int(number[k] % 2),
            global_spk=f"{tag}s{number[k]}" if labeled else None, vector=rng.normal(size=2))
            for i, k in enumerate(owner)))

    @settings(deadline=None, max_examples=200)
    @given(g_sizes=st.lists(st.integers(1, 3), max_size=8),
           l_sizes=st.lists(st.integers(1, 3), max_size=8),
           kind=st.sampled_from(["global", "local", "pooled", "some_rows"]),
           draws=st.tuples(st.integers(0, 8), st.integers(0, 8)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_reference(self, g_sizes, l_sizes, kind, draws, seed):
        rng = np.random.default_rng(seed)
        g = self._dataset(rng, g_sizes, "g", True)
        l = self._dataset(rng, l_sizes, "l", False)
        views = [build_global_view(g), build_local_view(l)]
        parts = [partition_by(g.global_spks, g.utt_ids),
                 partition_by([f"{c}:{k}" for c, k in zip(l.conv_ids, l.slots)], l.utt_ids)]
        if kind == "some_rows":
            # some of the classes, in the order drawn; other rows in no class
            part = draw_partition(rng, min(draws[0], len(parts[0])), parts[0])
            data, view = g, label_view("global", part, g.utt_ids)
        else:
            # a sweep cell's draw of each side, where it asks for fewer
            # classes than the side has
            for i, n in enumerate(draws):
                if n < len(parts[i]):
                    by_name = np.array(sorted(range(views[i].n_classes),
                                              key=views[i].names.__getitem__), dtype=np.int64)
                    views[i] = eval_harness._draw_classes(
                        np.random.default_rng([seed, i]), n, views[i], by_name)
                    parts[i] = draw_partition(np.random.default_rng([seed, i]), n, parts[i])
            if kind == "pooled":
                data, view = merge_datasets(g, l), build_pooled_view(*views)
                part = {**{f"g:{k}": m for k, m in parts[0].items()},
                        **{f"l:{k}": m for k, m in parts[1].items()}}
            else:
                i = kind == "local"
                data, view, part = (g, l)[i], views[i], parts[i]
        assert list(classes(view).items()) == list(part.items())
        if len(part) < 2:
            with pytest.raises(PldaError, match="at least 2 classes"):
                plda._class_stats(data, view, None)
            return
        u, S_total, sums, counts = plda._class_stats(data, view, None)
        X, want_counts = collect_classes_rows(data, part)
        want_u = X.mean(axis=0)
        Xc = X - want_u
        ends = np.cumsum(want_counts)
        want_sums = np.array([Xc[e - n:e].sum(axis=0) for e, n in zip(ends, want_counts)])
        np.testing.assert_array_equal(counts, want_counts)
        # each class sum is nearest the reference's class at its position:
        # the class order; the rows draw from a continuous distribution, so
        # no two classes share a sum
        nearest = np.linalg.norm(sums[:, None] - want_sums[None], axis=2).argmin(axis=1)
        np.testing.assert_array_equal(nearest, np.arange(len(counts)))
        # the same rows summed in another order: rounding only
        tight = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(u, want_u, **tight)
        np.testing.assert_allclose(S_total, Xc.T @ Xc, **tight)
        np.testing.assert_allclose(sums, want_sums, **tight)


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
        trials = generate_trials(sorted(enroll), test)
        test_vecs = {r.utt_id: r.vector for r in test.records}
        return m, enroll, trials, test_vecs

    def test_singleton_matches_score_llr(self):
        m, enroll, trials, test_vecs = self._setup(n_models=1, n_tests=1)
        scores = score_from_dicts(m, enroll, trials, test_vecs)
        assert len(scores) == 1
        [(mid, tid)] = trial_pairs(trials)
        assert scores[0] == pytest.approx(
            score_llr(m, enroll[mid], test_vecs[tid]), abs=1e-12
        )

    def test_matches_looped_score_llr(self):
        m, enroll, trials, test_vecs = self._setup(seed=1, n_models=20, n_tests=20)
        scores = score_from_dicts(m, enroll, trials, test_vecs)
        for (mid, tid), s in zip(trial_pairs(trials), scores):
            assert s == pytest.approx(
                score_llr(m, enroll[mid], test_vecs[tid]), abs=1e-12
            )


    def test_rows_must_match_the_trial_set(self):
        m, enroll, trials, test_vecs = self._setup(n_models=3, n_tests=4)
        E = np.concatenate([enroll[k] for k in trials.model_ids])
        counts = [len(enroll[k]) for k in trials.model_ids]
        T = np.stack([test_vecs[t] for t in trials.test_utt_ids])
        for e, c, t in ((E[1:], counts, T), (E, counts[1:], T), (E, counts, T[1:])):
            with pytest.raises(PldaError, match="do not match the trial set"):
                score_trialset(m, e, c, trials, t)
        with pytest.raises(PldaError, match="empty enrollment set"):
            score_trialset(m, E, [0, *counts[1:-1], counts[0] + counts[-1]], trials, T)


class TestLargeEnrollment:
    @pytest.mark.parametrize("n", [1, 1_000, 100_000])
    def test_matches_the_long_double_oracle(self, n):
        # The error grows with n, from the cancellation between the joint
        # and the enrollment quadratic forms. Over 12 seeds per n (d=20,
        # q=5, enrollment drawn from one speaker of the model) the largest
        # error / n read 5.6e-14, 3.3e-14 and 9.3e-15; the bound 1e-12 * n
        # leaves at least 18x headroom.
        rng = np.random.default_rng([0, n])
        d, q = 20, 5
        model = random_model(rng, d, q)
        L = np.linalg.cholesky(model.Sigma)
        spk = model.u + model.V @ rng.normal(size=q)
        enroll = spk + rng.normal(size=(n, d)) @ L.T
        tests = {"same": spk + L @ rng.normal(size=d),
                 "other": model.u + model.V @ rng.normal(size=q) + L @ rng.normal(size=d)}
        trials = TrialSet.product(["m"], list(tests), [[True, False]])
        scores = score_from_dicts(model, {"m": enroll}, trials, tests)
        want = np.array([llr_longdouble(model, enroll, v) for v in tests.values()])
        assert np.all(np.abs(scores.astype(np.longdouble) - want) <= 1e-12 * n)

    def test_long_double_oracle_matches_the_dense_oracle(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 6, 3)
        for n in (1, 3):
            enroll, test = rng.normal(size=(n, 6)), rng.normal(size=6)
            assert float(llr_longdouble(model, enroll, test)) == pytest.approx(
                dense_llr(model, enroll, test), rel=1e-9, abs=1e-9)


class TestModelFile:
    def test_round_trip_scores(self, tmp_path):
        rng = np.random.default_rng(20)
        m = random_model(rng, 6, 3)
        pp = Preprocessor(mean=rng.normal(size=6), whitener=np.eye(6) * 1.5)
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

    @pytest.mark.parametrize("extra", ["0.0\n", "\n", "pp.whitener:\n1.0,0.0\n"])
    def test_content_after_the_last_section_rejected(self, tmp_path, extra):
        path = tmp_path / "m.plda"
        save_model(random_model(np.random.default_rng(24), 2, 1),
                   Preprocessor.identity(2), path)
        assert len(path.read_text().splitlines()) == 3 * 2 + 8
        load_model(path)
        with open(path, "a") as fh:
            fh.write(extra)
        with pytest.raises(ModelFormatError, match="trailing content: a dim=2 model has 14 lines"):
            load_model(path)

    @pytest.mark.parametrize("header", ["#plda dim=-4 q=2", "#plda dim=4 q=-1",
                                        "#plda dim=0 q=0", "#plda dim=2 q=3"])
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
