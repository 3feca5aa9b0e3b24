"""Regenerate perfbench/reference.json, the pinned EERs the benchmark checks.

    python3 perfbench/pin_reference.py

Run from the repository root. For each workload and each of the first SEEDS
benchmark seeds it computes every EER the workload reports, once with the
default OpenBLAS threading and once with OPENBLAS_NUM_THREADS=1, each in its
own process. The default-thread values are pinned. The tolerance is the largest
default-vs-single-thread difference seen, but at least MIN_TOLERANCE. A seed
without pinned values is checked against the band the pinned seeds span,
widened by its full width on each side.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_TOLERANCE = 1e-9
SEEDS = 20
WORKLOADS = ("strategy", "sweep", "sre_cli")


def child(workload: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = {}
    for seed in range(SEEDS):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
            w = workloads.WORKLOADS[workload](seed, False, ROOT, Path(tmp))
            w.eer_problem = lambda key, eer: ""  # nothing pinned yet
            inputs, _ = w.setup()
            if workload == "strategy":
                for i in range(w.N_DATA_SEEDS):
                    w.run_pass(inputs, i)
                eers = {f"{s}/{j}": v for j, row in w.eers.items() for s, v in row.items()}
            elif workload == "sweep":
                w.run_pass(inputs, 0)
                eers = w.eers
            else:
                for label, args in w.commands:
                    if label != "score":
                        _, err = w.run_command(args)
                        if err:
                            raise RuntimeError(f"{label}: {err}")
                eers = {"eer": workloads.read_report(w.paths["report"])["eer"]}
            if any(not o["ok"] for o in w.ops):
                raise RuntimeError(f"{workload} seed {seed}: {w.ops}")
        out[str(seed)] = eers
        print(f"{workload} seed {seed}: {len(eers)} EERs", file=sys.stderr)
    return out


def run_child(workload, single_thread):
    env = dict(os.environ)
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "pin_reference.py"), "--child", workload],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
        return 0

    path = HERE / "reference.json"
    ref = json.loads(path.read_text())
    for workload in WORKLOADS:
        default = run_child(workload, False)
        single = run_child(workload, True)
        spread = max(abs(default[s][k] - single[s][k]) for s in default for k in default[s])
        groups: dict[str, list[float]] = {}
        for eers in default.values():
            for k, v in eers.items():
                groups.setdefault(k.split("/")[0], []).append(v)
        band = {}
        for k, vs in groups.items():
            width = max(vs) - min(vs)
            band[k] = [max(0.0, min(vs) - width), min(1.0, max(vs) + width)]
        ref[workload] = {"tolerance": max(spread, MIN_TOLERANCE),
                         "max_thread_spread": spread, "band": band, "seeds": default}
        print(f"{workload}: thread spread {spread:.3g}", file=sys.stderr)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
