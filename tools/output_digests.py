"""Print digests of every seed-0 benchmark output of one checkout.

    python3 tools/output_digests.py ROOT

ROOT is a checkout of this repository. The script imports the package from
ROOT/src and the benchmark's inputs from ROOT/perfbench/workloads.py, then
prints one JSON object:

- ``strategy/<strategy>/<j>``: the ``float.hex`` of the EER of each
  strategy on each of the five data seeds of the seed-0 ``strategy``
  workload;
- ``sweep/<g>,<l>/<r>``: the ``float.hex`` of each cell EER of the seed-0
  ``sweep`` grid;
- ``sre_cli/<file>``: the sha256 of each of the seven files the seed-0
  ``sre_cli`` workload leaves (corpus, model, enroll, test, key, scores and
  report) after its synth, train, score and eval commands.

Two checkouts whose outputs agree print identical objects, so comparing the
output for a change and for its parent checks that it moved no output bit.
The files are written to a temporary directory that is removed on exit. It
takes about ten seconds on a 2-core machine, most of it in sre_cli.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path


def digests(root: Path, toy: bool = False) -> dict:
    """The digests of the checkout at ``root``; ``toy`` runs the
    benchmark's toy-size inputs instead."""
    root = Path(root).resolve()
    for sub in ("perfbench", "src"):
        if str(root / sub) not in sys.path:
            sys.path.insert(0, str(root / sub))
    import plda_local
    import workloads
    from plda_local import eval_harness

    for module in (plda_local, workloads):
        if not Path(module.__file__).resolve().is_relative_to(root):
            raise RuntimeError(f"imported {module.__name__} from {module.__file__}, "
                               f"not from {root}")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.Strategy(0, toy, root, Path(tmp))
        inputs, _ = w.setup()
        for j, (g, l, split, cfg) in enumerate(inputs):
            for s in workloads.STRATEGIES:
                rep = eval_harness.run_strategy(s, g, l, split.enroll, split.test, cfg)
                out[f"strategy/{s}/{j}"] = rep.eer.hex()

        w = workloads.Sweep(0, toy, root, Path(tmp))
        (spec, g, l, split, cfg), _ = w.setup()
        grid = eval_harness.run_sweep(spec, g, l, split.enroll, split.test, cfg)
        for (gg, ll), eers in grid.cells.items():
            for r, eer in enumerate(eers.tolist()):
                out[f"sweep/{gg},{ll}/{r}"] = eer.hex()

        w = workloads.SreCli(0, toy, root, Path(tmp))
        w.setup()
        for label, args in w.commands:
            _, why = w.run_command(args)
            if why:
                raise RuntimeError(f"sre_cli {label}: {why}")
        for name, path in sorted(w.paths.items()):
            out[f"sre_cli/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(argv=None) -> int:
    # no options: --help prints the usage, anything but one ROOT exits 2
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("root", type=Path, help="the checkout to digest")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.root), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
