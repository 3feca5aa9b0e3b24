import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plda_local import eval_harness
from plda_local.data_model import Dataset, UtteranceRecord, merge_datasets
from plda_local.eval_harness import (
    EvalError,
    EvalReport,
    StrategyConfig,
    SweepSpec,
    TrialSet,
    compute_eer,
    det_curve,
    generate_trials,
    read_key,
    read_scores,
    run_strategy,
    run_sweep,
    write_key,
    write_report,
    write_scores,
)
from plda_local.preprocess import cosine_score, fit
from plda_local.synth import split_eval
from _helpers import corpus, eer_oracle, scaled_truth


def tiny_test_set(n=4, dim=3, n_spk=2):
    rng = np.random.default_rng(0)
    return Dataset(dim, tuple(
        UtteranceRecord(utt_id=f"t{i}", conv_id="e", slot=0,
                        global_spk=f"m{i % n_spk}", vector=rng.normal(size=dim))
        for i in range(n)
    ))


class TestGenerateTrials:
    def test_cross_product_count(self):
        test = tiny_test_set(n=6, n_spk=3)
        key = {r.utt_id: r.global_spk for r in test.records}
        trials = generate_trials(["m0", "m1", "m2"], test, key)
        assert len(trials) == 18
        assert trials.n_target + trials.n_nontarget == 18

    def test_single_target_trial(self):
        test = tiny_test_set(n=1, n_spk=1)
        key = {r.utt_id: r.global_spk for r in test.records}
        trials = generate_trials(["m0"], test, key)
        assert len(trials) == 1
        assert trials.n_target == 1
        assert list(trials.iter_trials()) == [("m0", "t0")]
        assert trials.target.tolist() == [True]

    def test_unkeyable_utterance(self):
        test = tiny_test_set(n=2)
        with pytest.raises(EvalError, match="t1"):
            generate_trials(["m0"], test, {"t0": "m0"})

    def test_large_cross_product_counts(self):
        # 1236 models x 3708 tests and 1236 x 2472
        for n_test, expect in ((3708, 4_583_088), (2472, 3_055_392)):
            rng = np.random.default_rng(1)
            test = Dataset(1, tuple(
                UtteranceRecord(utt_id=f"t{i}", conv_id="e", slot=0,
                                global_spk=f"m{i % 1236}", vector=np.zeros(1))
                for i in range(n_test)
            ))
            key = {r.utt_id: r.global_spk for r in test.records}
            trials = generate_trials([f"m{i}" for i in range(1236)], test, key)
            assert len(trials) == expect


class TestComputeEer:
    def test_perfect_separation(self):
        eer, _ = compute_eer([3.0, 2.0, 1.5], [1.0, 0.0, -2.0])
        assert eer == 0.0

    def test_identical_distributions(self):
        scores = [0.3, -1.2, 2.0, 0.0, 5.5]
        eer, _ = compute_eer(scores, scores)
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_known_third(self):
        eer, thr = compute_eer([3.0, 2.0, 1.0], [2.5, 0.0, -1.0])
        assert eer == pytest.approx(1.0 / 3.0, abs=1e-12)
        o_eer, _ = eer_oracle([3.0, 2.0, 1.0], [2.5, 0.0, -1.0])
        assert eer == pytest.approx(o_eer, abs=1e-12)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            nt = rng.integers(1, 50)
            nn = rng.integers(1, 50)
            if rng.random() < 0.5:
                ts = rng.normal(1.0, 1.0, size=nt)
                ns = rng.normal(0.0, 1.0, size=nn)
            else:  # integer scores force ties
                ts = rng.integers(-3, 4, size=nt).astype(float)
                ns = rng.integers(-3, 4, size=nn).astype(float)
            eer, _ = compute_eer(ts, ns)
            o_eer, _ = eer_oracle(ts, ns)
            assert eer == pytest.approx(o_eer, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            compute_eer([], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(EvalError):
            compute_eer([np.inf], [1.0])

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(-500, 500), min_size=1, max_size=30),
        st.lists(st.integers(-500, 500), min_size=1, max_size=30),
    )
    def test_invariant_under_increasing_transform(self, ts, ns):
        # a 0.1 grid keeps distinct scores distinct through the transform
        ts = [x / 10.0 for x in ts]
        ns = [x / 10.0 for x in ns]
        eer, _ = compute_eer(ts, ns)
        f = lambda x: np.exp(0.1 * np.asarray(x)) + 3.0
        eer2, _ = compute_eer(f(ts), f(ns))
        assert eer == pytest.approx(eer2, abs=1e-9)

    def test_swap_and_negate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ts = rng.normal(1, 1, size=rng.integers(2, 30))
            ns = rng.normal(0, 1, size=rng.integers(2, 30))
            a, _ = compute_eer(ts, ns)
            b, _ = compute_eer(-ns, -ts)
            assert a == pytest.approx(b, abs=1e-12)

    def test_det_curve_monotone(self):
        rng = np.random.default_rng(4)
        ts = rng.normal(1, 1, size=40)
        ns = rng.normal(0, 1, size=40)
        _, far, frr = det_curve(ts, ns)
        assert np.all(np.diff(far) <= 0)
        assert np.all(np.diff(frr) >= 0)


class TestTrialSet:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(EvalError):
            TrialSet(["m0"], ["t0"], [0, 0], [0, 0], [True, True])

    def test_unsorted_duplicates_rejected(self):
        # the repeated pair (m1, t0) sits apart from itself in trial order
        mi, ti = [1, 0, 2, 1, 0], [0, 2, 1, 2, 1]
        TrialSet(["m0", "m1", "m2"], ["t0", "t1", "t2"], mi, ti, [False] * 5)
        with pytest.raises(EvalError, match="duplicate trial pairs"):
            TrialSet(["m0", "m1", "m2"], ["t0", "t1", "t2"],
                     mi + [1], ti + [0], [False] * 6)

    @pytest.mark.parametrize("mi, ti", [([0, 1], [2, 0]), ([-1, 1], [0, 0]),
                                        ([0, 2], [0, 0])])
    def test_index_out_of_range_rejected(self, mi, ti):
        # unchecked, (0, 2) and (1, 0) share a pair code over two tests, and
        # model index -1 aliases m1
        with pytest.raises(EvalError, match="out of range"):
            TrialSet(["m0", "m1"], ["t0", "t1"], mi, ti, [True, False])

    def test_empty_and_single_trial_sets(self):
        assert len(TrialSet(["m0"], ["t0"], [], [], [])) == 0
        assert len(TrialSet(["m0"], ["t0"], [0], [0], [True])) == 1

    def test_from_pairs_missing_key(self):
        with pytest.raises(EvalError):
            TrialSet.from_pairs([("m0", "t0")], {})

    def test_from_pairs_round_trip(self, tmp_path):
        test = tiny_test_set(n=4)
        key_src = {r.utt_id: r.global_spk for r in test.records}
        trials = generate_trials(["m0", "m1"], test, key_src)
        path = tmp_path / "key.csv"
        write_key(trials, path)
        pairs, key = read_key(path)
        back = TrialSet.from_pairs(pairs, key)
        assert list(back.iter_trials()) == list(trials.iter_trials())
        np.testing.assert_array_equal(back.target, trials.target)


def _strategy_fixture(seed, vscale=1.0, dim=8, q=2):
    truth = scaled_truth(seed, dim, q, vscale)
    g = corpus(1000 + seed, dim, q, nconv=60, slots=1, utts=4, truth=truth)
    l = corpus(2000 + seed, dim, q, nconv=60, slots=2, utts=2, rho=0.1, truth=truth)
    e = corpus(3000 + seed, dim, q, nconv=40, slots=1, utts=4, truth=truth)
    return g, l, split_eval(e, 1, 3, seed)


class TestRunStrategy:
    def test_cosine_needs_no_training(self):
        g, l, split = _strategy_fixture(0)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=0)
        rep = run_strategy("cosine", g, l, split.enroll, split.test, cfg)
        assert 0.0 <= rep.eer <= 1.0
        assert rep.n_target + rep.n_nontarget == 40 * 3 * 40

    def test_cosine_scores_the_mean_enrollment_direction(self, tmp_path):
        g, l, _ = _strategy_fixture(5)
        e = corpus(3005, 8, 2, nconv=15, slots=1, utts=4, truth=scaled_truth(5, 8, 2))
        split = split_eval(e, 3, 1, 5)
        path = tmp_path / "scores.csv"
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=5)
        run_strategy("cosine", g, l, split.enroll, split.test, cfg, scores_path=path)
        pp = fit(merge_datasets(g, l).vectors())
        tests = {r.utt_id: pp.apply(r.vector) for r in split.test.records}
        rows = read_scores(path)
        assert len(rows) == 15 * 15
        for m, t, s in rows:
            mean = pp.apply(np.stack([r.vector for r in split.enroll[m]])).mean(axis=0)
            want = cosine_score(mean / np.linalg.norm(mean), tests[t])
            assert s == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_all_strategies_beat_chance(self):
        g, l, split = _strategy_fixture(1)
        cfg = StrategyConfig(latent_dim=2, iterations=15, seed=1)
        for strat in ("GT", "LT", "Pool"):
            rep = run_strategy(strat, g, l, split.enroll, split.test, cfg)
            assert rep.eer < 0.5

    def test_missing_data_for_strategy(self):
        g, l, split = _strategy_fixture(2)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=2)
        with pytest.raises(EvalError):
            run_strategy("GT", None, l, split.enroll, split.test, cfg)
        with pytest.raises(EvalError):
            run_strategy("Pool", g, None, split.enroll, split.test, cfg)

    def test_lt_equals_gt_without_recurrence(self):
        # rho=0 on the same utterance set: partitions coincide, EERs match
        diffs = []
        for seed in range(5):
            truth = scaled_truth(seed, 6, 2)
            data = corpus(4000 + seed, 6, 2, nconv=80, slots=2, utts=2, truth=truth)
            e = corpus(5000 + seed, 6, 2, nconv=40, slots=1, utts=4, truth=truth)
            split = split_eval(e, 1, 3, seed)
            cfg = StrategyConfig(latent_dim=2, iterations=15, seed=seed)
            gt = run_strategy("GT", data, None, split.enroll, split.test, cfg)
            lt = run_strategy("LT", None, data, split.enroll, split.test, cfg)
            diffs.append(abs(gt.eer - lt.eer))
        assert max(diffs) < 0.002

    def test_scores_file(self, tmp_path):
        g, l, split = _strategy_fixture(3)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=3)
        path = tmp_path / "scores.csv"
        rep = run_strategy("GT", g, l, split.enroll, split.test, cfg,
                           scores_path=path)
        rows = read_scores(path)
        assert len(rows) == rep.n_target + rep.n_nontarget
        # recompute the EER from the emitted file
        key = {r.utt_id: r.global_spk for r in split.test.records}
        ts = [s for m, t, s in rows if key[t] == m]
        ns = [s for m, t, s in rows if key[t] != m]
        eer, _ = compute_eer(ts, ns)
        assert eer == pytest.approx(rep.eer, abs=1e-12)


class TestRunSweep:
    def test_zero_zero_rejected(self):
        g, l, split = _strategy_fixture(4)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=4)
        spec = SweepSpec(axis_global=(0,), axis_local=(0,), repeats=1, base_seed=0)
        with pytest.raises(EvalError):
            run_sweep(spec, g, l, split.enroll, split.test, cfg)

    def test_oversized_cell_rejected(self):
        g, l, split = _strategy_fixture(4)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=4)
        spec = SweepSpec(axis_global=(10**6,), axis_local=(0,), repeats=1, base_seed=0)
        with pytest.raises(EvalError):
            run_sweep(spec, g, l, split.enroll, split.test, cfg)

    def test_deterministic(self):
        g, l, split = _strategy_fixture(5)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=5)
        spec = SweepSpec(axis_global=(10,), axis_local=(0, 20), repeats=2, base_seed=9)
        a = run_sweep(spec, g, l, split.enroll, split.test, cfg)
        b = run_sweep(spec, g, l, split.enroll, split.test, cfg)
        for cell in a.cells:
            np.testing.assert_array_equal(a.cells[cell], b.cells[cell])

    def test_grid_shape(self):
        g, l, split = _strategy_fixture(6)
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=6)
        spec = SweepSpec(axis_global=(0, 10), axis_local=(10, 20), repeats=2, base_seed=1)
        grid = run_sweep(spec, g, l, split.enroll, split.test, cfg)
        assert set(grid.cells) == {(0, 10), (0, 20), (10, 10), (10, 20)}
        for arr in grid.cells.values():
            assert len(arr) == 2


class TestReportFiles:
    def test_eval_report_round_trip(self, tmp_path):
        rep = EvalReport(
            eer=0.0123456789012345,
            threshold=1.5,
            det_points=np.array([[1.0, 0.0], [0.5, 0.25], [0.0, 1.0]]),
            n_target=10,
            n_nontarget=90,
        )
        path = tmp_path / "rep.csv"
        write_report(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        vals = dict(l.split(",") for l in lines[1:5])
        assert float(vals["eer"]) == rep.eer
        assert float(vals["threshold"]) == rep.threshold
        det_start = lines.index("det_far,det_miss") + 1
        det = np.array([[float(x) for x in l.split(",")] for l in lines[det_start:]])
        np.testing.assert_array_equal(det, rep.det_points)

    def test_sweep_grid_round_trip(self, tmp_path):
        from plda_local.eval_harness import SweepGrid
        grid = SweepGrid(
            axis_global=(0, 5), axis_local=(10,), repeats=2,
            cells={(0, 10): np.array([0.1, 0.2]), (5, 10): np.array([0.05, 0.0625])},
        )
        path = tmp_path / "grid.csv"
        write_report(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n_global,n_local,seed,eer"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 4
        assert float(rows[3][3]) == 0.0625

    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = [("m0", "t0", 0.987654321098765), ("m1", "t1", -3.25)]
        trials = TrialSet.from_pairs([r[:2] for r in rows],
                                     {r[:2]: False for r in rows})
        write_scores(trials, [r[2] for r in rows], path)
        assert read_scores(path) == rows

    def test_scores_length_must_match_trials(self, tmp_path):
        path = tmp_path / "s.csv"
        trials = TrialSet(["m0"], ["t0", "t1"], [0, 0], [0, 1], [True, False])
        with pytest.raises(EvalError):
            write_scores(trials, [0.5], path)
        assert not path.exists()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        trials = TrialSet(["m0"], ["t0", "t1"], [0, 0], [0, 1], [True, False])
        write_scores(trials, [0.5, 0.25], path)
        before = path.read_bytes()
        # one row per chunk, and the second row's model index out of range:
        # the first chunk is written before formatting the second raises
        monkeypatch.setattr(eval_harness, "_CHUNK", 1)
        trials.model_idx = np.array([0, 7])
        with pytest.raises(IndexError):
            write_scores(trials, [1.5, 1.25], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
