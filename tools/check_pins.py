"""Check every pinned EER of the benchmark before a merge.

    python3 tools/check_pins.py

Runs ``perfbench/run.py --workload W --seed S --seconds 0`` for the
workloads strategy, sweep and sre_cli and the seeds 0-19, which
``perfbench/reference.json`` pins, one run at a time, from the repository
root. A run passes when it exits 0 and the last line of its output is a
result whose ``"correct"`` is true; the benchmark sets that only if every
EER of the run equals its pin. The script prints one line per run, then
exits 1 naming every run that did not pass, or 0.

A change to the EM arithmetic can move a pinned EER on a seed that a
single benchmark run never reaches, so this covers all of them. It takes
about ten minutes on a 2-core machine, most of it in sre_cli.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("strategy", "sweep", "sre_cli")
SEEDS = range(20)


def verdict(returncode: int, stdout: str) -> str | None:
    """None if a run passed, else why it did not."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        return f"exit {returncode}, no result line"
    if returncode != 0:
        return f"exit {returncode}"
    if result["correct"] is not True:
        return (f'"correct": {json.dumps(result["correct"])}, '
                f'{result.get("failed")} of {result.get("attempted")} operations failed')
    return None


def main(argv=None) -> int:
    # no options: --help prints the usage, any argument exits 2
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args(argv)
    bad = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            why = verdict(proc.returncode, proc.stdout)
            print(f"{workload} seed {seed}: {why or 'ok'} ({perf_counter() - start:.0f} s)",
                  flush=True)
            if why:
                bad.append(f"{workload} seed {seed} ({why})")
    if bad:
        print(f"{len(bad)} run(s) failed: " + "; ".join(bad), file=sys.stderr)
        return 1
    print("every run correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
