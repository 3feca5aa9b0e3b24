"""Command-line entry point: synth / train / score / eval / sweep.

Exit codes: 0 success, 1 usage error, 2 data or validation error. Diagnostics
go to stderr; data only to files.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import eval_harness, plda, preprocess, synth
from .data_model import (
    DataError,
    build_global_view,
    build_local_view,
    build_pooled_view,
    group_by_speaker,
    merge_datasets,
    read_dataset,
    write_dataset,
)
from .eval_harness import EvalError, StrategyConfig, SweepSpec
from .plda import PldaError, TrainConfig
from .preprocess import PreprocessError
from .synth import SynthConfig, SynthError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="plda-local", description=__doc__)
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("synth", help="generate a synthetic i-vector corpus")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--latent", type=int, required=True)
    sp.add_argument("--conversations", type=int, required=True)
    sp.add_argument("--slots", type=int, default=1)
    sp.add_argument("--utts", type=int, default=1)
    sp.add_argument("--recurrence", type=float, default=0.0)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)

    tp = sub.add_parser("train", help="train a PLDA model from a corpus")
    tp.add_argument("--data", required=True,
                    help="corpus file; for --labels pooled, optionally "
                         "'global.csv,local.csv'")
    tp.add_argument("--labels", choices=["global", "local", "pooled"], required=True)
    tp.add_argument("--q", type=int, default=None, help="latent dim (default d/2)")
    tp.add_argument("--iters", type=int, default=20)
    tp.add_argument("--seed", type=int, required=True)
    tp.add_argument("--model", required=True)
    tp.add_argument("--no-whiten", action="store_true")

    cp = sub.add_parser("score", help="score all enroll x test trials")
    cp.add_argument("--model", required=True)
    cp.add_argument("--enroll", required=True)
    cp.add_argument("--test", required=True)
    cp.add_argument("--scores", required=True)

    ep = sub.add_parser("eval", help="score trials and report EER")
    ep.add_argument("--model", required=True)
    ep.add_argument("--enroll", required=True)
    ep.add_argument("--test", required=True)
    ep.add_argument("--key", required=True)
    ep.add_argument("--report", required=True)
    ep.add_argument("--scores", default=None)

    wp = sub.add_parser("sweep", help="EER grid over training-set sizes")
    wp.add_argument("--data", required=True, help="'global.csv,local.csv'")
    wp.add_argument("--enroll", required=True)
    wp.add_argument("--test", required=True)
    wp.add_argument("--grid-global", required=True, help="comma-separated counts")
    wp.add_argument("--grid-local", required=True, help="comma-separated counts")
    wp.add_argument("--repeats", type=int, default=1)
    wp.add_argument("--q", type=int, default=None)
    wp.add_argument("--iters", type=int, default=20)
    wp.add_argument("--seed", type=int, required=True)
    wp.add_argument("--report", required=True)
    wp.add_argument("--no-whiten", action="store_true")
    return p


def _check_distinct(*paths):
    """Every path names a different file, however it is spelled."""
    real = [os.path.realpath(p) for p in paths if p]
    if len(set(real)) != len(real):
        raise UsageError("input and output paths must be distinct")


def _cmd_synth(ns) -> int:
    cfg = SynthConfig(
        dim=ns.dim,
        latent_dim=ns.latent,
        seed=ns.seed,
        n_conversations=ns.conversations,
        slots_per_conversation=ns.slots,
        utts_per_slot=ns.utts,
        recurrence=ns.recurrence,
    )
    truth = synth.sample_truth(cfg)
    data = synth.sample_conversations(
        SynthConfig(**{**cfg.__dict__, "truth": truth})
    )
    write_dataset(data, ns.out)
    try:
        plda.save_model(truth, preprocess.Preprocessor.identity(ns.dim),
                        f"{ns.out}.truth.plda")
    except OSError:
        os.remove(ns.out)
        raise
    print(f"wrote {len(data)} records to {ns.out}", file=sys.stderr)
    return 0


def _load_train_material(data_arg: str, labels: str):
    paths = data_arg.split(",")
    if labels == "pooled" and len(paths) == 2:
        g = read_dataset(paths[0])
        l = read_dataset(paths[1])
        view = build_pooled_view(build_global_view(g), build_local_view(l))
        return merge_datasets(g, l), view
    if len(paths) != 1:
        raise UsageError(f"--labels {labels} takes a single --data path")
    data = read_dataset(paths[0])
    if labels == "global":
        return data, build_global_view(data)
    if labels == "local":
        return data, build_local_view(data)
    # pooled from one file: globally labeled records form the global part,
    # unlabeled records the local part
    g_utts = [r.utt_id for r in data.records if r.global_spk is not None]
    l_utts = [r.utt_id for r in data.records if r.global_spk is None]
    if not g_utts or not l_utts:
        raise DataError(
            "pooled training from one file needs both labeled ('global_spk' set) "
            "and unlabeled ('-') records; pass two files otherwise"
        )
    view = build_pooled_view(
        build_global_view(data.subset(g_utts)),
        build_local_view(data.subset(l_utts)),
    )
    return data, view


def _cmd_train(ns) -> int:
    _check_distinct(*ns.data.split(","), ns.model)
    data, view = _load_train_material(ns.data, ns.labels)
    q = ns.q if ns.q is not None else data.dim // 2
    pp = preprocess.fit(data.vectors(), whiten=not ns.no_whiten)
    cfg = TrainConfig(latent_dim=q, iterations=ns.iters, seed=ns.seed)
    model, logliks = plda.train_em(data, view, pp, cfg)
    for i, ll in enumerate(logliks):
        print(f"iter {i}: loglik {ll:.6f}", file=sys.stderr)
    plda.save_model(model, pp, ns.model)
    return 0


def _cmd_score(ns) -> int:
    _check_distinct(ns.model, ns.enroll, ns.test, ns.scores)
    model, pp = plda.load_model(ns.model)
    enroll = group_by_speaker(read_dataset(ns.enroll))
    test = read_dataset(ns.test)
    enroll_vecs, test_vecs = eval_harness.preprocess_split(pp, enroll, test)
    trials = eval_harness.generate_trials(
        sorted(enroll), test, {r.utt_id: r.global_spk or "?" for r in test.records}
    )
    scores = plda.score_trialset(model, enroll_vecs, trials, test_vecs)
    eval_harness.write_scores(trials, scores, ns.scores)
    return 0


def _cmd_eval(ns) -> int:
    _check_distinct(ns.model, ns.enroll, ns.test, ns.key, ns.report, ns.scores)
    model, pp = plda.load_model(ns.model)
    enroll_vecs, test_vecs = eval_harness.preprocess_split(
        pp, group_by_speaker(read_dataset(ns.enroll)), read_dataset(ns.test))
    pairs, key = eval_harness.read_key(ns.key)
    trials = eval_harness.TrialSet.from_pairs(pairs, key)
    scores = plda.score_trialset(model, enroll_vecs, trials, test_vecs)
    # everything that can reject the data runs before the first output
    report = eval_harness.eval_report(scores, trials.target)
    if ns.scores:
        eval_harness.write_scores(trials, scores, ns.scores)
    try:
        eval_harness.write_report(report, ns.report)
    except OSError:
        if ns.scores:
            os.remove(ns.scores)
        raise
    print(f"eer {report.eer:.6f}", file=sys.stderr)
    return 0


def _parse_axis(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad axis list {text!r}") from None


def _cmd_sweep(ns) -> int:
    paths = ns.data.split(",")
    if len(paths) != 2:
        raise UsageError("sweep needs --data global.csv,local.csv")
    _check_distinct(*paths, ns.enroll, ns.test, ns.report)
    global_data = read_dataset(paths[0])
    local_data = read_dataset(paths[1])
    enroll = group_by_speaker(read_dataset(ns.enroll))
    test = read_dataset(ns.test)

    q = ns.q if ns.q is not None else global_data.dim // 2
    spec = SweepSpec(
        axis_global=_parse_axis(ns.grid_global),
        axis_local=_parse_axis(ns.grid_local),
        repeats=ns.repeats,
        base_seed=ns.seed,
    )
    cfg = StrategyConfig(
        latent_dim=q,
        iterations=ns.iters,
        seed=ns.seed,
        whiten=not ns.no_whiten,
    )
    grid = eval_harness.run_sweep(spec, global_data, local_data, enroll, test, cfg)
    eval_harness.write_report(grid, ns.report)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[ns.command](ns)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, PldaError, PreprocessError, SynthError, EvalError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
