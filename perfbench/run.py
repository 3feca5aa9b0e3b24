"""Pipeline benchmark for plda-local: one command per workload.

    python3 perfbench/run.py --workload {strategy,sweep,sre_cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. Human
readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
they are the per-layer ones from a traced run. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUPS = 5  # set-ups per end-to-end run; setup_s is their median
STAGES = ("synth_s", *tracing.STAGES)  # the end-to-end stage metrics


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["strategy", "sweep", "sre_cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "toy"], default="full",
                   help="toy: tiny inputs for the self-test; skips the pinned-EER checks")
    # one set-up and the fewest passes that cover the inputs; for the
    # single-thread BLAS run inside a traced run
    p.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_record(workload) -> dict:
    import numpy
    import scipy
    from plda_local import _kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset (library default)"),
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        # the path actually taken; PLDA_LOCAL_NO_NUMBA or a failed import turn numba off
        "kernels": "numba" if _kernels.HAS_NUMBA else "numpy",
        "workload": workload.name,
        "size": "toy" if workload.toy else "full",
        "seeds": workload.seed_record(),
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or ".mb_" in name:
        return "MB"
    return "count"


class Runner:
    """Closed loop over one workload: set-ups, a warm-up, then timed passes."""

    def __init__(self, w, seconds: float, n_setups: int, min_passes: int):
        self.w, self.seconds = w, seconds
        self.n_setups, self.min_passes = n_setups, min_passes
        self.inputs = None
        self.setup_times: list[float] = []
        self.synth_times: list[float] = []

    def setup(self, tracer=None) -> None:
        self.inputs = None
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            self.inputs, synth_s = self.w.setup()
        finally:
            self.setup_times.append(perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        self.synth_times.append(synth_s)

    def one_pass(self, i, tracer=None):
        """(wall seconds, stage seconds, span lists) of pass i."""
        if not self.w.in_process:
            span_dir = None
            if tracer is not None:
                span_dir = self.w.workdir / f"spans{i}"
                span_dir.mkdir()
            walls, files = self.w.run_pass(None, i, span_dir)
            stages = {f"{k}_s": v for k, v in walls.items()}
            return sum(walls.values()), stages, [tracing.load_spans(f) for f in files]
        tr = tracer or tracing.Tracer(tracing.STAGE_TARGETS)
        tr.install()
        t0 = perf_counter()
        try:
            self.w.run_pass(self.inputs, i)
        finally:
            wall = perf_counter() - t0
            tr.uninstall()
        spans = tr.take()
        return wall, tracing.stage_times(spans), [spans]

    def run(self, tracer=None):
        """Set up, warm up in-process workloads, then run untraced passes
        (alternating with traced ones when a tracer is given) until `seconds`
        have passed since the first set-up, the minimum pass count is reached
        and the workload's inputs are all covered; the run ends at the first
        pass boundary after that. A traced pass of a CLI workload times each
        command untraced as well, so it needs no untraced pass beside it.
        Further set-ups are spread over the run, because a shared host's speed
        drifts over seconds. Returns the two pass lists."""
        t_start = perf_counter()
        self.setup(tracer)
        if tracer is not None:
            self.setup_spans = tracer.take()
        i = 0
        if self.w.in_process:
            self.one_pass(i)  # the first pass in a process runs ~40% slower
            i += 1
        plain, traced = [], []
        while (len(plain) + len(traced) < self.min_passes
               or perf_counter() - t_start < self.seconds or not self.w.covered(i)):
            if tracer is None or self.w.in_process:
                plain.append(self.one_pass(i))
                i += 1
            if tracer is not None:
                traced.append(self.one_pass(i, tracer))
                i += 1
            due = len(self.setup_times) * self.seconds / self.n_setups
            if len(self.setup_times) < self.n_setups and perf_counter() - t_start >= due:
                self.setup()
        while len(self.setup_times) < self.n_setups:
            self.setup()
        self.w.finish()
        return plain, traced


def _median_stages(passes) -> dict:
    """Median of each stage over the passes that ran it."""
    out = {}
    for k in STAGES:
        xs = [p[1][k] for p in passes if k in p[1]]
        if xs:
            out[k] = float(statistics.median(xs))
    return out


def _pooled_stages(passes) -> dict:
    """Each stage's time summed over all passes, divided by the pass count:
    the in-process stage timers cover a fraction of a second per pass, so
    they are pooled rather than sampled pass by pass."""
    return {k: sum(p[1][k] for p in passes) / len(passes) for k in tracing.STAGES}


def end_to_end(runner) -> dict:
    w = runner.w
    plain, _ = runner.run()
    m = {"setup_s": float(statistics.median(runner.setup_times))}
    if w.in_process:
        m["wall_s"] = float(statistics.median(p[0] for p in plain))
        stages = _pooled_stages(plain)
        stages["synth_s"] = float(statistics.median(runner.synth_times))
    else:
        # not every pass runs `score`, so a pass is the sum of command medians
        stages = _median_stages(plain)
        m["wall_s"] = sum(stages.values())
    m.update((k, stages[k]) for k in STAGES)
    m["peak_rss_mb"] = w.peak_rss_mb()
    return m


def per_layer(runner, args) -> tuple[dict, list, dict]:
    tracer = tracing.Tracer()
    plain, traced = runner.run(tracer)
    setup_layer = tracing.layer_metrics([runner.setup_spans])
    pass_layers = [tracing.layer_metrics(p[2]) for p in traced]
    # median_low keeps counts whole; they repeat exactly from pass to pass
    m = {k: v + statistics.median_low(pl[k] for pl in pass_layers)
         for k, v in setup_layer.items()}
    if runner.w.in_process:
        m["trace.overhead_s"] = (statistics.median(p[0] for p in traced)
                                 - statistics.median(p[0] for p in plain))
    else:  # each traced command minus its untraced twin, run just before it
        m["trace.overhead_s"] = statistics.median(
            sum(v - st[f"untraced.{k}"] for k, v in st.items() if f"untraced.{k}" in st)
            for _, st, _ in traced)
    # the same workload with single-threaded BLAS, set for that process only
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--quick"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=100, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"single-thread BLAS run failed: {proc.stderr[-2000:]}")
    single = json.loads(lines[-1])
    m["blas1.wall_s"] = single["metrics"]["wall_s"]["value"]
    m["blas1.train_s"] = single["metrics"]["train_s"]["value"]
    spans = [("setup", runner.setup_spans)] + [
        (f"pass{i}.{j}", s) for i, p in enumerate(traced) for j, s in enumerate(p[2])]
    return m, spans, single


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "plda_local" / "__init__.py").is_file():
        print(f"error: no plda_local package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import plda_local

    if Path(plda_local.__file__).resolve().parent != (src / "plda_local").resolve():
        print(f"error: imported plda_local from {plda_local.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.size == "toy", ROOT, workdir)
        if args.quick or args.trace:
            runner = Runner(w, args.seconds, n_setups=1, min_passes=1)
        else:
            runner = Runner(w, args.seconds, n_setups=SETUPS, min_passes=w.min_passes)
        attempted = failed = 0
        if args.trace:
            metrics, spans, single = per_layer(runner, args)
            attempted, failed = single["attempted"], single["failed"]
            out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
            out.parent.mkdir(exist_ok=True)
            tracing.dump_spans(spans, out)
            print(f"spans written to {out}")
        else:
            metrics = end_to_end(runner)
        record = machine_record(w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += len(w.ops)
    failed += sum(not o["ok"] for o in w.ops)
    for k, v in metrics.items():
        print(f"{k:34s} {v:14.6f} {unit(k)}")
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"machine": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
