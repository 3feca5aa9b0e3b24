"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line straight to the
terminal (bypassing capture, so the lines show under plain ``pytest -v``).
These are the release gate: numerical oracles, invariances, count arithmetic,
benchmark direction, and CLI determinism.
"""
import hashlib
import time

import numpy as np
import pytest
from scipy.stats import ortho_group

from plda_local import cli
from plda_local.data_model import (
    Dataset,
    UtteranceRecord,
    build_global_view,
    read_dataset,
    write_dataset,
)
from plda_local.eval_harness import (
    StrategyConfig,
    SweepSpec,
    compute_eer,
    generate_trials,
    run_strategy,
    run_sweep,
    write_key,
)
from plda_local.plda import PldaModel, TrainConfig, score_llr, train_em
from plda_local.synth import SynthConfig, sample_truth, split_eval
from _helpers import between_cov, corpus, dense_llr, eer_oracle, random_model, scaled_truth


class TestAcceptance:
    @pytest.fixture(autouse=True)
    def _capture(self, capsys):
        self._capsys = capsys

    def _report(self, num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with self._capsys.disabled():
            print(f"acceptance {num} {name}: {status}{suffix}", flush=True)
        assert ok, f"acceptance {num} {name} failed{suffix}"

    def test_01_em_monotonicity(self):
        t0 = time.time()
        worst = 0.0
        for seed in range(20):
            data = corpus(seed, dim=16, q=4, nconv=200, slots=1, utts=5)
            cfg = TrainConfig(latent_dim=4, iterations=50, seed=seed,
                              loglik_tol=0.0)
            _, lls = train_em(data, build_global_view(data), None, cfg)
            lls = np.asarray(lls)
            slack = 1e-8 * np.abs(lls[:-1])
            worst = max(worst, float(np.max(-(np.diff(lls) + slack), initial=0.0)))
        elapsed = time.time() - t0
        self._report(1, "EM monotonicity", worst <= 0.0 and elapsed < 60,
                f"worst slack violation {worst:.3g}, {elapsed:.1f}s")

    def test_02_parameter_recovery(self):
        t0 = time.time()
        errs = []
        for seed in (1, 2, 3):
            truth = scaled_truth(seed, 8, 2)
            data = corpus(100 + seed, dim=8, q=2, nconv=1000, slots=1,
                          utts=10, truth=truth)
            cfg = TrainConfig(latent_dim=2, iterations=200, seed=seed,
                              loglik_tol=0.0)
            model, _ = train_em(data, build_global_view(data), None, cfg)
            B = between_cov(truth)
            b_err = np.linalg.norm(between_cov(model) - B) / np.linalg.norm(B)
            s_err = (np.linalg.norm(model.Sigma - truth.Sigma)
                     / np.linalg.norm(truth.Sigma))
            errs.append((b_err, s_err))
        elapsed = time.time() - t0
        ok = all(b < 0.15 and s < 0.10 for b, s in errs) and elapsed < 60
        detail = ", ".join(f"seed{i + 1} B {b:.3f} S {s:.3f}"
                           for i, (b, s) in enumerate(errs))
        self._report(2, "parameter recovery", ok, f"{detail}, {elapsed:.1f}s")

    def test_03_scoring_oracle(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(1, 4))
            q = int(rng.integers(0, min(d, 2) + 1))
            model = random_model(rng, d, q)
            n = int(rng.integers(1, 3))
            enroll = rng.normal(size=(n, d))
            test = rng.normal(size=d)
            got = score_llr(model, enroll, test)
            want = dense_llr(model, enroll, test)
            worst = max(worst, abs(got - want))
        elapsed = time.time() - t0
        self._report(3, "scoring matches dense oracle",
                worst < 1e-8 and elapsed < 10,
                f"max |diff| {worst:.2e}, {elapsed:.1f}s")

    def test_04_rotation_invariance(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            d, q = 6, 3
            model = random_model(rng, d, q)
            R = ortho_group.rvs(q, random_state=rng)
            rotated = PldaModel(u=model.u, V=model.V @ R, Sigma=model.Sigma)
            n = int(rng.integers(1, 4))
            enroll = rng.normal(size=(n, d))
            test = rng.normal(size=d)
            worst = max(worst, abs(score_llr(model, enroll, test)
                                   - score_llr(rotated, enroll, test)))
        self._report(4, "rotation invariance", worst <= 1e-9,
                f"max |diff| {worst:.2e}")

    def test_05_eer_oracle(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(1000):
            nt = int(rng.integers(1, 201))
            nn = int(rng.integers(1, 201))
            if rng.random() < 0.5:
                ts = rng.normal(1.0, 1.0, size=nt)
                ns = rng.normal(0.0, 1.0, size=nn)
            else:  # integer grids force heavy ties
                ts = rng.integers(-4, 5, size=nt).astype(float)
                ns = rng.integers(-4, 5, size=nn).astype(float)
            got, _ = compute_eer(ts, ns)
            want, _ = eer_oracle(ts, ns)
            worst = max(worst, abs(got - want))
        sep, _ = compute_eer([5.0, 4.0], [1.0, 0.0])
        same, _ = compute_eer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        ok = worst < 1e-12 and sep == 0.0 and abs(same - 0.5) < 1e-12
        self._report(5, "EER matches exhaustive oracle", ok,
                f"max |diff| {worst:.2e}, sep {sep}, same {same}")

    def test_06_trial_arithmetic(self):
        counts = []
        for n_test, expect in ((3708, 4_583_088), (2472, 3_055_392)):
            test = Dataset(1, tuple(
                UtteranceRecord(utt_id=f"t{i}", conv_id="e", slot=0,
                                global_spk=f"m{i % 1236}", vector=np.zeros(1))
                for i in range(n_test)
            ))
            trials = generate_trials([f"m{i}" for i in range(1236)], test)
            counts.append((len(trials), expect))
        ok = all(got == want for got, want in counts)
        self._report(6, "trial count arithmetic", ok, str(counts))

    def test_07_strategy_ordering(self):
        t0 = time.time()
        eers = {"cosine": [], "LT": [], "GT": []}
        for seed in range(5):
            truth = scaled_truth(seed, 50, 10, vscale=0.35)
            g = corpus(10000 + seed, dim=50, q=10, nconv=500, slots=1,
                       utts=5, truth=truth)
            l = corpus(20000 + seed, dim=50, q=10, nconv=750, slots=2,
                       utts=2, rho=0.05, truth=truth)
            e = corpus(30000 + seed, dim=50, q=10, nconv=300, slots=1,
                       utts=4, truth=truth)
            split = split_eval(e, 1, 3, seed)
            cfg = StrategyConfig(latent_dim=10, iterations=25, seed=seed)
            for strat in eers:
                rep = run_strategy(strat, g, l, split.enroll, split.test, cfg)
                eers[strat].append(rep.eer)
        means = {k: float(np.mean(v)) for k, v in eers.items()}
        elapsed = time.time() - t0
        ok = (means["cosine"] - means["LT"] > 0.005
              and means["LT"] - means["GT"] > 0.005
              and elapsed < 300)
        self._report(7, "mean EER ordering cosine > LT > GT", ok,
                f"cosine {means['cosine']:.4f} LT {means['LT']:.4f} "
                f"GT {means['GT']:.4f}, {elapsed:.1f}s")

    def test_08_sweep_trends(self):
        t0 = time.time()
        base = SynthConfig(dim=50, latent_dim=10, seed=99, n_conversations=1)
        truth = sample_truth(base)
        g = corpus(111, dim=50, q=10, nconv=1000, slots=1, utts=4, truth=truth)
        l = corpus(222, dim=50, q=10, nconv=1000, slots=2, utts=2, rho=0.3,
                   truth=truth)
        e = corpus(333, dim=50, q=10, nconv=200, slots=1, utts=4, truth=truth)
        split = split_eval(e, 1, 3, 99)
        cfg = StrategyConfig(latent_dim=10, iterations=20, seed=0)

        def sweep(ax_g, ax_l):
            spec = SweepSpec(axis_global=ax_g, axis_local=ax_l, repeats=5,
                             base_seed=100)
            return run_sweep(spec, g, l, split.enroll, split.test, cfg)

        row = sweep((0,), (200, 800, 2000))
        local_row = [row.mean(0, x) for x in (200, 800, 2000)]
        a_ok = all(local_row[i + 1] <= local_row[i] + 0.005
                   for i in range(len(local_row) - 1))

        small_g = sweep((20,), (0, 200))
        b_gain = small_g.mean(20, 0) - small_g.mean(20, 200)
        b_ok = b_gain > 0.005

        big_g = sweep((1000,), (0, 2000))
        c_gain = big_g.mean(1000, 0) - big_g.mean(1000, 2000)
        c_ok = c_gain < 0.005

        elapsed = time.time() - t0
        ok = a_ok and b_ok and c_ok and elapsed < 600
        self._report(8, "sweep trends", ok,
                f"g=0 row {[round(x, 4) for x in local_row]}, "
                f"g=20 gain {b_gain:.4f}, g=1000 gain {c_gain:.4f}, "
                f"{elapsed:.1f}s")

    def test_09_cli_determinism(self, tmp_path):
        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        def run(*args):
            rc = cli.main([str(a) for a in args])
            assert rc == 0, f"command failed: {args}"

        hashes = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            run("synth", "--dim", 6, "--latent", 2, "--conversations", 40,
                "--slots", 2, "--utts", 2, "--recurrence", 0.2, "--seed", 3,
                "--out", d / "data.csv")
            run("synth", "--dim", 6, "--latent", 2, "--conversations", 25,
                "--utts", 4, "--seed", 4, "--out", d / "eval.csv")
            run("synth", "--dim", 6, "--latent", 2, "--conversations", 30,
                "--slots", 2, "--utts", 2, "--recurrence", 0.3, "--seed", 5,
                "--out", d / "local.csv")
            run("train", "--data", d / "data.csv", "--labels", "local",
                "--q", 2, "--iters", 8, "--seed", 0, "--model", d / "m.plda")

            ev = read_dataset(d / "eval.csv")
            by_spk = {}
            for r in ev.records:
                by_spk.setdefault(r.global_spk, []).append(r.utt_id)
            write_dataset(ev.subset([u[0] for u in by_spk.values()]),
                          d / "enroll.csv")
            write_dataset(
                ev.subset([x for u in by_spk.values() for x in u[1:]]),
                d / "test.csv",
            )
            test = read_dataset(d / "test.csv")
            trials = generate_trials(sorted(by_spk), test)
            write_key(trials, d / "key.csv")

            run("score", "--model", d / "m.plda", "--enroll", d / "enroll.csv",
                "--test", d / "test.csv", "--scores", d / "scores.csv")
            run("eval", "--model", d / "m.plda", "--enroll", d / "enroll.csv",
                "--test", d / "test.csv", "--key", d / "key.csv",
                "--report", d / "report.csv")
            run("sweep", "--data", f"{d / 'data.csv'},{d / 'local.csv'}",
                "--enroll", d / "enroll.csv", "--test", d / "test.csv",
                "--grid-global", "0,20", "--grid-local", "20", "--repeats", 2,
                "--q", 2, "--iters", 4, "--seed", 1,
                "--report", d / "grid.csv")

            hashes[tag] = {
                name: sha(d / name)
                for name in ("data.csv", "eval.csv", "m.plda", "scores.csv",
                             "report.csv", "grid.csv")
            }
        mismatched = [k for k in hashes["a"] if hashes["a"][k] != hashes["b"][k]]
        self._report(9, "CLI determinism", not mismatched,
                f"mismatched files: {mismatched or 'none'}")
