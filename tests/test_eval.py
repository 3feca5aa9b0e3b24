import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plda_local import data_model, eval_harness
from plda_local.data_model import Dataset, UtteranceRecord, merge_datasets
from plda_local.eval_harness import (
    EvalError,
    StrategyConfig,
    SweepSpec,
    TrialSet,
    compute_eer,
    det_curve,
    eval_report,
    generate_trials,
    read_key,
    run_strategy,
    run_sweep,
    write_key,
    write_report,
    write_scores,
)
from plda_local.preprocess import fit
from plda_local.synth import split_eval
from _helpers import (
    corpus,
    cosine_score,
    det_curve_searchsorted,
    eer_crossing_scan,
    eer_oracle,
    read_key_rows,
    read_scores,
    report_with_det,
    scaled_truth,
    target_mask_pairwise,
    trial_pairs,
)


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
        trials = generate_trials(["m0", "m1", "m2"], test)
        assert len(trials) == 18
        assert trials.n_target + trials.n_nontarget == 18

    def test_single_target_trial(self):
        test = tiny_test_set(n=1, n_spk=1)
        trials = generate_trials(["m0"], test)
        assert len(trials) == 1
        assert trials.n_target == 1
        assert trial_pairs(trials) == [("m0", "t0")]
        assert trials.target.tolist() == [True]

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.sampled_from(["a", "b", "a\x00", "\x00", ""]), max_size=5),
           st.lists(st.sampled_from([None, "a", "b", "c", "a\x00", "\x00", ""]), max_size=6))
    @example(["a", "b", "a"], ["a", None, "c", "b"])  # a repeated model id
    @example(["a"], ["a\x00"])  # equal as numpy str, not as ids
    def test_mask_matches_pairwise_oracle(self, model_ids, speakers):
        # built from columns: a record would refuse the "" and NUL speakers
        n = len(speakers)
        test = Dataset._columns(1, tuple(f"t{j}" for j in range(n)), ("c",) * n, (0,) * n,
                                tuple(speakers), np.zeros((n, 1)))
        trials = generate_trials(model_ids, test)
        want = target_mask_pairwise(model_ids, speakers)
        assert trials.target.tolist() == want.ravel().tolist()

    def test_large_cross_product_counts(self):
        # 1236 models x 3708 tests and 1236 x 2472
        for n_test, expect in ((3708, 4_583_088), (2472, 3_055_392)):
            rng = np.random.default_rng(1)
            test = Dataset(1, tuple(
                UtteranceRecord(utt_id=f"t{i}", conv_id="e", slot=0,
                                global_spk=f"m{i % 1236}", vector=np.zeros(1))
                for i in range(n_test)
            ))
            trials = generate_trials([f"m{i}" for i in range(1236)], test)
            assert len(trials) == expect


# few distinct values, so ties across the two sides are common
DET_SCORES = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**53, -(2.0**53), 1e17, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
), min_size=1, max_size=12)


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

    def test_huge_scores_keep_the_last_segment(self):
        # 2e17 + 1.0 == 2e17, so the top sentinel repeats the last point
        assert compute_eer([1e17], [2e17]) == (1.0, 2e17)
        assert compute_eer([1.0], [2.0]) == (1.0, 2.0)
        thresholds, far, frr = det_curve([1e17], [2e17])
        assert thresholds.tolist() == [1e17, 1e17, 2e17, 2e17]
        assert far.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert frr.tolist() == [0.0, 0.0, 1.0, 1.0]

    @settings(deadline=None, max_examples=200)
    @given(DET_SCORES, DET_SCORES)
    @example([0.0], [-0.0])
    @example([-0.0, 1.0], [0.0, 1.0])
    @example([1e17], [2e17])
    @example([2.0**53, -(2.0**53)], [2.0**53 + 2.0])
    def test_det_curve_matches_searchsorted_oracle(self, ts, ns):
        # one-element sides, ties across the sides, signed zeros and
        # magnitudes where a sentinel collapses onto an extreme score
        thresholds, far, frr = det_curve(ts, ns)
        o_thresholds, o_far, o_frr = det_curve_searchsorted(ts, ns)
        assert np.array_equal(thresholds, o_thresholds)
        assert far.tobytes() == o_far.tobytes()
        assert frr.tobytes() == o_frr.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(DET_SCORES, DET_SCORES)
    @example([0.5, 0.5, 0.5], [0.5, 0.5])  # every score equal
    @example([1.0], [0.0, 2.0, 1.0])  # one target
    @example([0.0, 2.0, 1.0], [1.0])  # one nontarget
    @example([1e17], [2e17])
    @example([2.0**53, 2.0**53], [-(2.0**53), 2.0**53])
    @example([-1e17, 1e17], [1e17, 3e17, 3e17])
    def test_bisection_matches_the_scanned_curve(self, ts, ns):
        # where |score| >= 2**53 the top sentinel equals the highest score
        # and repeats its rates, so the last segment can be flat
        want = np.array(eer_crossing_scan(*det_curve_searchsorted(ts, ns)))
        assert np.array(compute_eer(ts, ns)).tobytes() == want.tobytes()
        report = eval_report(np.array(ts + ns, dtype=np.float64),
                             np.arange(len(ts) + len(ns)) < len(ts))
        assert np.array([report.eer, report.threshold]).tobytes() == want.tobytes()
        # the DET points the report counts when read are the curve's
        _, far, frr = det_curve(ts, ns)
        assert report.det_points.shape == (len(far), 2)
        assert report.det_points.tobytes() == np.column_stack([far, frr]).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(*[st.lists(st.one_of(st.integers(-3, 3), st.integers(-8000, 8000))
                      .map(lambda x: x / 8.0), min_size=1, max_size=12)] * 2)
    @example([0.5, 0.5, 0.5], [0.5, 0.5])
    @example([1.0], [0.0, 2.0, 1.0])
    @example([0.0, 2.0, 1.0], [1.0])
    def test_bisection_matches_the_exhaustive_oracle(self, ts, ns):
        # the oracle counts FAR as accepts / n, not 1 - rejects / n, so its
        # rates and EER can differ from these in the last bit; its midpoint
        # thresholds need scores on a grid, so that a midpoint never rounds
        # onto a score
        eer, _ = compute_eer(ts, ns)
        assert eer == pytest.approx(eer_oracle(ts, ns)[0], abs=1e-15)

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the sorted score copies until the collector
        # runs, and over a sweep's cells they pile up in the peak RSS
        rng = np.random.default_rng(5)
        ts, ns = rng.normal(1, 1, size=300), rng.normal(0, 1, size=900)
        gc.collect()
        gc.disable()
        try:
            compute_eer(ts, ns)
            compute_eer([1e17], [2e17])
            eval_report(np.concatenate([ts, ns]), np.arange(1200) < 300)
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_from_pairs_columns_must_have_one_length(self):
        with pytest.raises(EvalError, match="inconsistent lengths"):
            TrialSet.from_pairs(["m0", "m1"], ["t0"], ["m0", "m1"], ["t0"], [True, False])

    def test_from_pairs_round_trip(self, tmp_path):
        test = tiny_test_set(n=4)
        trials = generate_trials(["m0", "m1"], test)
        path = tmp_path / "key.csv"
        write_key(trials, path)
        back = read_key(path, ["m0", "m1"], test.utt_ids)
        assert trial_pairs(back) == trial_pairs(trials)
        np.testing.assert_array_equal(back.target, trials.target)


KEY_MODELS = ["m0", "m1", "m2", "", " m0"]
KEY_TESTS = ["t0", "t1", "t2", "t3", ""]
FAULTY_ROWS = ["m0,t0", "m0,t0,target,x", "m0,t0,maybe", "m0,t0,target ", "target",
               "m0,t0,Target", ",,", "m0,,t0,target", "m0;t0;target"]


@st.composite
def key_texts(draw):
    """Key file text: an optional header, rows over a few ids (empty and
    padded ones too), sometimes a repeated pair with an equal or a
    conflicting label, blank and whitespace lines, LF, CRLF or CR line
    ends, and sometimes a faulty row."""
    ids = st.tuples(st.sampled_from(KEY_MODELS), st.sampled_from(KEY_TESTS))
    pairs = draw(st.lists(ids, unique=True, max_size=10))
    rows = [f"{m},{t},{draw(st.sampled_from(['target', 'nontarget']))}"
            for m, t in pairs]
    if rows and draw(st.booleans()):
        m, t, _ = draw(st.sampled_from(rows)).split(",")
        label = draw(st.sampled_from(["target", "nontarget"]))
        rows.insert(draw(st.integers(0, len(rows))), f"{m},{t},{label}")
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["", " ", "\t", " \t "])))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(FAULTY_ROWS)))
    header = draw(st.sampled_from([None, "model_id,test_utt_id,key", "m0,t0", "a,b,c,d"]))
    lines = ([header] if header is not None else []) + rows
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestReadKey:
    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key_texts(), *(st.one_of(st.permutations(pool),
                                    st.lists(st.sampled_from(pool), unique=True))
                          for pool in (KEY_MODELS, KEY_TESTS)))
    def test_matches_the_row_at_a_time_reader(self, tmp_path, text, model_ids, test_ids):
        # the id lists come in any order, and may lack ids the key names
        path = tmp_path / "key.csv"
        path.write_bytes(text.encode())
        try:
            want = read_key_rows(path, model_ids, test_ids)
        except EvalError as e:
            with pytest.raises(EvalError) as got:
                read_key(path, model_ids, test_ids)
            assert str(got.value) == str(e)
            return
        trials = read_key(path, model_ids, test_ids)
        assert trials.model_ids == model_ids
        assert trials.test_utt_ids == test_ids
        assert trials.model_idx.tolist() == want[0]
        assert trials.test_idx.tolist() == want[1]
        assert trials.target.tolist() == want[2]

    def test_well_formed_keys_are_not_scanned_row_by_row(self, tmp_path, monkeypatch):
        calls = []
        scan = eval_harness._raise_first_faulty_row

        def counting(*args):
            calls.append(args)
            scan(*args)

        monkeypatch.setattr(eval_harness, "_raise_first_faulty_row", counting)
        rows = [f"m{i % 7},t{i},{'target' if i % 5 == 0 else 'nontarget'}"
                for i in range(1000)]
        path = tmp_path / "key.csv"
        path.write_text("model_id,test_utt_id,key\n" + "\n".join(rows) + "\n")
        ids = [f"m{i}" for i in range(7)], [f"t{i}" for i in range(1000)]
        assert len(read_key(path, *ids)) == 1000
        # CRLF line ends, no header, blank and whitespace lines
        path.write_bytes(("\r\n".join(rows[:500] + ["", " \t"] + rows[500:])).encode())
        assert len(read_key(path, *ids)) == 1000
        assert calls == []
        path.write_text("\n".join(rows + ["m0,t0,maybe"]) + "\n")
        with pytest.raises(EvalError, match="line 1001: malformed key row"):
            read_key(path, *ids)
        assert len(calls) == 1


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

    def test_counts_no_det_curve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("det_curve was called")

        monkeypatch.setattr(eval_harness, "det_curve", refuse)
        g, l, split = _strategy_fixture(0)
        cfg = StrategyConfig(latent_dim=2, iterations=2, seed=0)
        for strat in ("cosine", "GT", "LT", "Pool"):
            rep = run_strategy(strat, g, l, split.enroll, split.test, cfg)
            assert 0.0 <= rep.eer <= 1.0
        with pytest.raises(AssertionError, match="det_curve was called"):
            rep.det_points

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
    @pytest.mark.parametrize("seed", [-1, "0"])
    def test_base_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(EvalError, match="base_seed"):
            SweepSpec(axis_global=(0,), axis_local=(10,), repeats=1, base_seed=seed)

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

    @pytest.mark.parametrize("enroll", ["no shared speaker", "empty"])
    def test_empty_trial_side_fails_before_training(self, monkeypatch, enroll):
        calls = []
        train_em = eval_harness.train_em

        def counting(*args):
            calls.append(1)
            return train_em(*args)

        monkeypatch.setattr(eval_harness, "train_em", counting)
        g, l, split = _strategy_fixture(4)
        models = ({} if enroll == "empty"
                  else {f"x{m}": recs for m, recs in split.enroll.items()})
        cfg = StrategyConfig(latent_dim=2, iterations=5, seed=4)
        spec = SweepSpec(axis_global=(10,), axis_local=(0,), repeats=1, base_seed=0)
        with pytest.raises(EvalError, match="0 target"):
            run_sweep(spec, g, l, models, split.test, cfg)
        assert calls == []

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
        rep = report_with_det(
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

    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 0.5, 1 / 3, 1.0, 5e-324])] * 2),
                    min_size=1, max_size=30))
    def test_det_rows_match_a_row_at_a_time_writer(self, tmp_path, monkeypatch, det):
        # runs of equal values, 0.0 beside -0.0, and chunks of two rows,
        # so runs cross chunk boundaries
        monkeypatch.setattr(data_model, "_CHUNK", 2)
        rep = report_with_det(eer=0.25, threshold=0.0, det_points=np.array(det),
                              n_target=1, n_nontarget=1)
        path = tmp_path / "rep.csv"
        write_report(rep, path)
        det_text = path.read_text().split("det_far,det_miss\n")[1]
        assert det_text == "".join(f"{far!r},{miss!r}\n" for far, miss in det)

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
        trials = TrialSet.from_pairs(["m0", "m1"], ["t0", "t1"], [r[0] for r in rows],
                                     [r[1] for r in rows], [False] * len(rows))
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
        monkeypatch.setattr(data_model, "_CHUNK", 1)
        trials.model_idx = np.array([0, 7])
        with pytest.raises(IndexError):
            write_scores(trials, [1.5, 1.25], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
