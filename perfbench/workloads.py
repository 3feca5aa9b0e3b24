"""The three workloads: how each builds its inputs, runs one pass, and checks it.

Every workload is driven by one closed-loop client (this process): one
operation at a time, the next started when the last returns. Inputs depend
only on the benchmark seed; the package sees only the generated inputs.

- ``strategy``: ``run_strategy`` for cosine, LT, GT and Pool on the
  acceptance-7 shapes. One pass is one data seed; passes cycle through five.
- ``sweep``: ``run_sweep`` over (0, 20, 1000) x (200, 2000) with 2 repeats on
  the acceptance-8 shapes. One pass is the whole grid.
- ``sre_cli``: the CLI commands synth, train, score and eval, each in its own
  subprocess, at SRE scale (1236 models x 3708 tests). One pass is the four
  commands in order; an untraced pass skips ``score`` unless its index is a
  multiple of SCORE_EVERY.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from plda_local import data_model, eval_harness, plda, synth
from plda_local.eval_harness import StrategyConfig, SweepSpec
from plda_local.plda import PldaModel
from plda_local.synth import SynthConfig

import tracing

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
STRATEGIES = ("cosine", "LT", "GT", "Pool")


def _corpus(seed, dim, q, nconv, slots=1, utts=1, rho=0.0, truth=None):
    return synth.sample_conversations(SynthConfig(
        dim=dim, latent_dim=q, seed=seed, n_conversations=nconv,
        slots_per_conversation=slots, utts_per_slot=utts, recurrence=rho,
        truth=truth))


def _truth(seed, dim, q, vscale=1.0):
    t = synth.sample_truth(SynthConfig(dim=dim, latent_dim=q, seed=seed,
                                       n_conversations=1))
    return t if vscale == 1.0 else PldaModel(u=t.u, V=t.V * vscale, Sigma=t.Sigma)


class Workload:
    """Shared bookkeeping: operations attempted and failed, and EER checks."""

    name = ""
    in_process = True
    min_passes = 1  # untraced passes an end-to-end run makes, however long they take

    def __init__(self, seed: int, toy: bool, root: Path, workdir: Path):
        self.seed = seed
        self.toy = toy
        self.workdir = workdir
        self.ops: list[dict] = []
        self.ref = REFERENCE[self.name]
        self.pinned = None if toy else self.ref["seeds"].get(str(seed))
        self.eers = {}  # EERs seen so far, to check that repeated passes agree

    def op(self, label: str, ok: bool, why: str = "") -> dict:
        rec = {"label": label, "ok": ok, "why": why}
        self.ops.append(rec)
        if not ok:
            print(f"FAILED {self.name} {label}: {why}", file=sys.stderr)
        return rec

    def eer_problem(self, key: str, eer: float) -> str:
        """'' when eer matches the pinned reference (or, for a seed without
        one, lies in the band the pinned seeds span); else the reason."""
        if not np.isfinite(eer) or not 0.0 <= eer <= 1.0:
            return f"{key}: EER {eer} out of range"
        if self.toy:
            return ""
        if self.pinned is not None:
            want = self.pinned[key]
            if abs(eer - want) > self.ref["tolerance"]:
                return f"{key}: EER {eer!r} vs pinned {want!r}"
            return ""
        lo, hi = self.ref["band"][key.split("/")[0]]
        return "" if lo <= eer <= hi else f"{key}: EER {eer!r} outside [{lo}, {hi}]"

    def covered(self, n_passes: int) -> bool:
        return n_passes >= 1

    def seed_record(self) -> dict:
        return {"bench": self.seed}

    def finish(self) -> None:
        """Checks that span passes; run once after the last pass."""

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss / 1024.0


class Strategy(Workload):
    name = "strategy"
    N_DATA_SEEDS = 5

    def setup(self):
        d, q, it = (10, 3, 5) if self.toy else (50, 10, 25)
        scale = 10 if self.toy else 1
        inputs, synth_s = [], 0.0
        for j in range(self.N_DATA_SEEDS):
            k = self.N_DATA_SEEDS * self.seed + j
            t0 = perf_counter()
            truth = _truth(k, d, q, vscale=0.35)
            g = _corpus(10000 + k, d, q, 500 // scale, utts=5, truth=truth)
            l = _corpus(20000 + k, d, q, 750 // scale, slots=2, utts=2, rho=0.05,
                        truth=truth)
            e = _corpus(30000 + k, d, q, 300 // scale, utts=4, truth=truth)
            synth_s += perf_counter() - t0
            split = synth.split_eval(e, 1, 3, k)
            cfg = StrategyConfig(latent_dim=q, iterations=it, seed=k)
            inputs.append((g, l, split, cfg))
        return inputs, synth_s

    def run_pass(self, inputs, i):
        j = i % self.N_DATA_SEEDS
        g, l, split, cfg = inputs[j]
        n_test, n_models = len(split.test), len(split.enroll)
        for strat in STRATEGIES:
            label = f"{strat}/{j}"
            try:
                rep = eval_harness.run_strategy(strat, g, l, split.enroll, split.test, cfg)
            except Exception as e:  # any raise is a failed operation
                self.op(label, False, repr(e))
                continue
            why = ""
            if (rep.n_target, rep.n_target + rep.n_nontarget) != (n_test, n_test * n_models):
                why = f"trial counts {rep.n_target}/{rep.n_nontarget}"
            prev = self.eers.setdefault(j, {}).get(strat)
            if prev is not None and abs(prev - rep.eer) > self.ref["tolerance"]:
                why = why or f"EER changed between passes: {prev!r} -> {rep.eer!r}"
            why = why or self.eer_problem(label, rep.eer)
            self.eers[j][strat] = rep.eer
            self.op(label, not why, why)

    def covered(self, n_passes):
        return n_passes >= self.N_DATA_SEEDS

    def seed_record(self):
        ks = [self.N_DATA_SEEDS * self.seed + j for j in range(self.N_DATA_SEEDS)]
        return {"bench": self.seed, "truth_and_split": ks,
                "global": [10000 + k for k in ks], "local": [20000 + k for k in ks],
                "eval": [30000 + k for k in ks]}

    def finish(self):
        if self.toy:
            return
        means = {s: float(np.mean([self.eers[j][s] for j in self.eers if s in self.eers[j]]))
                 for s in STRATEGIES}
        if not means["cosine"] > means["LT"] > means["GT"]:
            why = f"seed-mean EER ordering cosine > LT > GT broken: {means}"
            for rec in self.ops:
                rec["ok"] = False
            print(f"FAILED {self.name}: {why}", file=sys.stderr)


class Sweep(Workload):
    name = "sweep"

    def setup(self):
        d, q = (10, 3) if self.toy else (50, 10)
        axes = ((0, 5, 20), (10, 40)) if self.toy else ((0, 20, 1000), (200, 2000))
        scale = 25 if self.toy else 1
        o = 1000 * self.seed
        t0 = perf_counter()
        truth = _truth(99 + o, d, q)
        g = _corpus(111 + o, d, q, 1000 // scale, utts=4, truth=truth)
        l = _corpus(222 + o, d, q, 1000 // scale, slots=2, utts=2, rho=0.3, truth=truth)
        e = _corpus(333 + o, d, q, 200 // scale, utts=4, truth=truth)
        synth_s = perf_counter() - t0
        split = synth.split_eval(e, 1, 3, 99 + o)
        spec = SweepSpec(axis_global=axes[0], axis_local=axes[1], repeats=2,
                         base_seed=100 + o)
        cfg = StrategyConfig(latent_dim=q, iterations=5 if self.toy else 20, seed=self.seed)
        return (spec, g, l, split, cfg), synth_s

    def seed_record(self):
        o = 1000 * self.seed
        return {"bench": self.seed, "truth_and_split": 99 + o, "global": 111 + o,
                "local": 222 + o, "eval": 333 + o, "sweep_base": 100 + o}

    def run_pass(self, inputs, i):
        spec, g, l, split, cfg = inputs
        try:
            grid = eval_harness.run_sweep(spec, g, l, split.enroll, split.test, cfg)
        except Exception as e:  # any raise is a failed operation
            self.op("run_sweep", False, repr(e))
            return
        eers = {f"{gg},{ll}/{r}": float(v)
                for (gg, ll), vals in grid.cells.items() for r, v in enumerate(vals)}
        why = ""
        if len(eers) != len(spec.axis_global) * len(spec.axis_local) * spec.repeats:
            why = f"grid has {len(eers)} cell EERs"
        elif self.eers and max(
                abs(v - self.eers[k]) for k, v in eers.items()) > self.ref["tolerance"]:
            why = "EERs changed between passes"
        for key, eer in eers.items():
            why = why or self.eer_problem(key, eer)
        self.eers = eers
        self.op("run_sweep", not why, why)


@dataclass(frozen=True)
class CliShape:
    dim: int
    latent: int
    conversations: int  # training corpus: conversations x 2 slots x 2 utts
    models: int  # eval speakers: 1 enroll + 3 test utterances each
    iters: int


class SreCli(Workload):
    name = "sre_cli"
    in_process = False
    SAMPLED_ROWS = 1000
    NONTARGET_SHARE = 0.1
    SCORE_EVERY = 3
    # one `score` and three samples of each other command: one sample of a
    # few-second command swings by 30-40% on a busy host
    min_passes = SCORE_EVERY

    def __init__(self, seed, toy, root, workdir):
        super().__init__(seed, toy, root, workdir)
        self.shape = CliShape(10, 3, 100, 30, 5) if toy else CliShape(50, 10, 10000, 1236, 20)
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.paths = {k: workdir / f"{k}.csv"
                      for k in ("corpus", "enroll", "test", "key", "scores", "report")}
        self.paths["model"] = workdir / "model.plda"
        self.commands = self._commands()

    def _commands(self):
        s, p = self.shape, {k: str(v) for k, v in self.paths.items()}
        return [
            ("synth", ["synth", "--dim", str(s.dim), "--latent", str(s.latent),
                       "--conversations", str(s.conversations), "--slots", "2",
                       "--utts", "2", "--recurrence", "0.05",
                       "--seed", str(2 * self.seed), "--out", p["corpus"]]),
            ("train", ["train", "--data", p["corpus"], "--labels", "local",
                       "--q", str(s.latent), "--iters", str(s.iters),
                       "--seed", str(self.seed), "--model", p["model"]]),
            ("score", ["score", "--model", p["model"], "--enroll", p["enroll"],
                       "--test", p["test"], "--scores", p["scores"]]),
            ("eval", ["eval", "--model", p["model"], "--enroll", p["enroll"],
                      "--test", p["test"], "--key", p["key"], "--report", p["report"]]),
        ]

    def seed_record(self):
        return {"bench": self.seed, "synth_and_truth": 2 * self.seed,
                "eval": 2 * self.seed + 1, "train": self.seed, "split_and_key": self.seed}

    def setup(self):
        """Enroll and test files from the truth model `synth --seed 2*seed`
        draws, with new speakers, and a key of every target trial plus a
        random tenth of the nontargets."""
        s = self.shape
        t0 = perf_counter()
        truth = _truth(2 * self.seed, s.dim, s.latent)
        e = _corpus(2 * self.seed + 1, s.dim, s.latent, s.models, utts=4, truth=truth)
        synth_s = perf_counter() - t0
        split = synth.split_eval(e, 1, 3, self.seed)
        records = [r for m in sorted(split.enroll) for r in split.enroll[m]]
        data_model.write_dataset(data_model.Dataset(s.dim, tuple(records)),
                                 self.paths["enroll"])
        data_model.write_dataset(split.test, self.paths["test"])

        model_ids = sorted(split.enroll)
        test_ids = [r.utt_id for r in split.test.records]
        test_spk = np.array([r.global_spk for r in split.test.records])
        target = np.asarray(model_ids)[:, None] == test_spk[None, :]
        rng = np.random.default_rng([self.seed, 7])
        keep = target | (rng.random(target.shape) < self.NONTARGET_SHARE)
        mi, ti = np.nonzero(keep)
        with open(self.paths["key"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("model_id,test_utt_id,key\n")
            fh.write("".join(
                f"{model_ids[m]},{test_ids[t]},{'target' if target[m, t] else 'nontarget'}\n"
                for m, t in zip(mi.tolist(), ti.tolist())))
        self.expect = {
            "model_ids": model_ids, "test_ids": test_ids,
            "n_target": int(np.count_nonzero(target)),
            "n_nontarget": int(len(mi) - np.count_nonzero(target)),
            "enroll": {m: np.stack([r.vector for r in split.enroll[m]]) for m in model_ids},
            "test": {r.utt_id: r.vector for r in split.test.records},
        }
        return None, synth_s

    def run_command(self, args, spans_path=None):
        """Run one CLI command in a fresh interpreter, traced when given a
        spans path. Returns (wall seconds, '' or what went wrong)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "plda_local.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=90, check=False)
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, "timed out"
        wall = perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return wall, f"exit {proc.returncode}: {tail}"
        return wall, ""

    def run_pass(self, inputs, i, span_dir=None):
        """Run the commands in order, checking each output as it is written;
        returns each one's wall seconds and the span files written. ``score``
        runs in every SCORE_EVERY-th pass and in every traced pass: it takes
        as long as the other three commands together, so running it in every
        pass would double a run. A traced pass runs each command untraced
        first, as ``untraced.<command>``, then traced, so that the two are
        timed side by side on a host whose speed drifts."""
        run_score = span_dir is not None or i % self.SCORE_EVERY == 0
        runs = []
        for label, args in self.commands:
            if label == "score" and not run_score:
                continue
            if span_dir is not None:
                runs.append((f"untraced.{label}", label, args, None))
            spans = None if span_dir is None else span_dir / f"{label}.jsonl"
            runs.append((label, label, args, spans))
        walls, span_files = {}, []
        for key, label, args, spans in runs:
            walls[key], why = self.run_command(args, spans)
            if spans is not None and spans.exists():
                span_files.append(spans)
            self.op(key, *((False, why) if why else self._check(label)))
            if why:
                break
        for key, *_ in runs[len(walls):]:
            self.op(key, False, "not run: an earlier command failed")
        return walls, span_files

    def _check(self, label):
        """(ok, why) for the output of one command."""
        s, x, p = self.shape, self.expect, self.paths
        try:
            if label == "synth":
                n = tracing.count_lines(p["corpus"]) - 1
                want = s.conversations * 4
                return n == want, f"corpus has {n} records, want {want}"
            if label == "train":
                model, _ = plda.load_model(p["model"])
                ok = (model.dim, model.latent_dim) == (s.dim, s.latent)
                return ok, f"model shape {model.dim}x{model.latent_dim}"
            if label == "score":
                return self._check_scores()
            report = read_report(p["report"])
        except (OSError, ValueError, plda.PldaError) as e:
            return False, repr(e)
        got = (report["n_target"], report["n_nontarget"])
        if got != (x["n_target"], x["n_nontarget"]):
            return False, f"report counts {got} vs key {(x['n_target'], x['n_nontarget'])}"
        why = self.eer_problem("eer", report["eer"])
        return not why, why

    def _check_scores(self):
        """Row count is M x T; sampled rows equal score_llr recomputed from
        the saved model to 1e-9 relative (absolute below magnitude 1)."""
        x = self.expect
        M, T = len(x["model_ids"]), len(x["test_ids"])
        rng = np.random.default_rng([self.seed, 11])
        want = np.unique(rng.integers(0, M * T, size=min(self.SAMPLED_ROWS, M * T)))
        n_rows, rows = sample_rows(self.paths["scores"], want + 1)
        if n_rows - 1 != M * T:
            return False, f"score file has {n_rows - 1} rows, want {M * T}"
        model, pp = plda.load_model(self.paths["model"])
        for r in want.tolist():
            mid, tid, val = rows[r + 1].decode().split(",")
            if (mid, tid) != (x["model_ids"][r // T], x["test_ids"][r % T]):
                return False, f"row {r} is ({mid}, {tid})"
            ref = plda.score_llr(model, pp.apply(x["enroll"][mid]), pp.apply(x["test"][tid]))
            if abs(float(val) - ref) > 1e-9 * max(abs(ref), 1.0):
                return False, f"row {r}: score {val} vs score_llr {ref!r}"
        return True, ""


def sample_rows(path, wanted) -> tuple[int, dict]:
    """(line count, {line number: bytes}) for the sorted 0-based line numbers
    in ``wanted``, reading the file once in large chunks."""
    wanted = list(wanted)
    out, carry, base, w = {}, b"", 0, 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 23), b""):
            buf = carry + chunk
            cut = buf.rfind(b"\n") + 1
            n = buf.count(b"\n", 0, cut)
            if w < len(wanted) and wanted[w] < base + n:
                lines = buf[:cut].split(b"\n")
                while w < len(wanted) and wanted[w] < base + n:
                    out[wanted[w]] = lines[wanted[w] - base]
                    w += 1
            carry, base = buf[cut:], base + n
    return base + (1 if carry else 0), out


def read_report(path) -> dict:
    """metric,value rows then a det_far,det_miss section; raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["metric,value"] or "det_far,det_miss" not in lines:
        raise ValueError("report sections missing")
    cut = lines.index("det_far,det_miss")
    metrics = dict(line.split(",") for line in lines[1:cut])
    det = [tuple(float(v) for v in line.split(",")) for line in lines[cut + 1:]]
    if len(det) < 2 or any(len(row) != 2 for row in det):
        raise ValueError("malformed DET section")
    missing = {"eer", "n_target", "n_nontarget"} - metrics.keys()
    if missing:
        raise ValueError(f"report lacks rows {sorted(missing)}")
    return {"eer": float(metrics["eer"]), "n_target": int(metrics["n_target"]),
            "n_nontarget": int(metrics["n_nontarget"])}


WORKLOADS = {w.name: w for w in (Strategy, Sweep, SreCli)}
