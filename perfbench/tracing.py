"""Spans around calls into plda_local's public functions, installed from outside.

The package is not edited: ``Tracer.install`` replaces each target function,
in every ``plda_local`` module that binds it, with a wrapper that records a
span (name, start, end, parent) and optional counts, and ``uninstall`` puts
the originals back. Spans stay in memory until the caller writes them out.

The client is single-threaded (``threads=1`` everywhere), so one span stack
gives every span its parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """``attr`` of module ``module``; ``Cls.method`` names a method."""

    module: str
    attr: str
    counter: object = None  # (bound arguments, result) -> {name: number or callable}

    @property
    def span_name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


def count_lines(path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
    return n


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


# Everything the per-layer table needs. Counters that must read an output file
# return a callable, evaluated by ``Tracer.resolve`` after the traced work, so
# the file is not re-read inside any span.
FULL_TARGETS = (
    Target("plda_local.synth", "sample_truth"),
    Target("plda_local.synth", "sample_conversations"),
    Target("plda_local.data_model", "read_dataset",
           lambda a, r: {"records_read": len(r), "mb_read": _mb(a["path"])}),
    Target("plda_local.data_model", "write_dataset",
           lambda a, r: {"mb_written": _mb(a["path"])}),
    Target("plda_local.data_model", "build_global_view"),
    Target("plda_local.data_model", "build_local_view"),
    Target("plda_local.data_model", "build_pooled_view"),
    Target("plda_local.data_model", "merge_datasets"),
    Target("plda_local.data_model", "Dataset.subset"),
    Target("plda_local.preprocess", "fit"),
    Target("plda_local.preprocess", "Preprocessor.apply",
           lambda a, r: {"apply_calls": 1}),
    Target("plda_local.plda", "train_em",
           lambda a, r: {"em_iters": len(r[1])}),
    Target("plda_local.plda", "score_trialset",
           lambda a, r: {"trials_scored": len(a["trials"])}),
    Target("plda_local.plda", "save_model"),
    Target("plda_local.plda", "load_model"),
    Target("plda_local._kernels", "estep_stats"),
    Target("plda_local._kernels", "score_trials"),
    Target("plda_local.eval_harness", "generate_trials",
           lambda a, r: {"trials_built": len(r)}),
    Target("plda_local.eval_harness", "TrialSet.from_pairs",
           lambda a, r: {"trials_built": len(r)}),
    Target("plda_local.eval_harness", "read_key"),
    Target("plda_local.eval_harness", "compute_eer"),
    Target("plda_local.eval_harness", "det_curve"),
    Target("plda_local.eval_harness", "run_strategy"),
    Target("plda_local.eval_harness", "run_sweep"),
    Target("plda_local.eval_harness", "write_scores",
           lambda a, r: {"rows_written": lambda p=a["path"]: count_lines(p) - 1}),
    Target("plda_local.eval_harness", "write_report",
           lambda a, r: {"rows_written": lambda p=a["path"]: count_lines(p) - 2}),
    Target("plda_local.cli", "main"),
)

# The few coarse calls behind the untraced stage times of the in-process
# workloads; each is made at most a few dozen times per pass.
STAGE_TARGETS = tuple(
    t for t in FULL_TARGETS
    if t.span_name in {"plda.train_em", "eval_harness.generate_trials",
                       "plda.score_trialset", "eval_harness.compute_eer",
                       "eval_harness.det_curve"}
)

STAGES = {
    "train_s": ("plda.train_em",),
    "score_s": ("eval_harness.generate_trials", "plda.score_trialset"),
    "eval_s": ("eval_harness.compute_eer", "eval_harness.det_curve"),
}

# Per-layer metric -> span names whose time it sums (nested spans of the same
# group are counted once).
LAYER_TIMES = {
    "plda.train_em_s": ("plda.train_em",),
    "kernels.estep_s": ("_kernels.estep_stats",),
    "eval_harness.generate_trials_s": ("eval_harness.generate_trials",),
    "plda.score_trialset_s": ("plda.score_trialset",),
    "kernels.score_s": ("_kernels.score_trials",),
    "eval_harness.keyed_trials_s": ("eval_harness.read_key",
                                    "eval_harness.TrialSet.from_pairs"),
    "eval_harness.write_scores_s": ("eval_harness.write_scores",),
    "eval_harness.write_report_s": ("eval_harness.write_report",),
    "eval_harness.eer_s": ("eval_harness.compute_eer", "eval_harness.det_curve"),
    "data_model.read_dataset_s": ("data_model.read_dataset",),
    "data_model.write_dataset_s": ("data_model.write_dataset",),
    "data_model.views_s": ("data_model.build_global_view", "data_model.build_local_view",
                           "data_model.build_pooled_view", "data_model.merge_datasets",
                           "data_model.Dataset.subset"),
    "preprocess.fit_s": ("preprocess.fit",),
    "preprocess.apply_s": ("preprocess.Preprocessor.apply",),
    "synth.sample_s": ("synth.sample_truth", "synth.sample_conversations"),
    "plda.model_io_s": ("plda.save_model", "plda.load_model"),
}

# Per-layer metric -> spans whose self times it sums: the orchestrating calls,
# whose children are the layers above.
SELF_TIMES = {
    "plda.train_em_self_s": ("plda.train_em",),
    "eval_harness.self_s": ("eval_harness.run_strategy", "eval_harness.run_sweep"),
    "cli.self_s": ("cli.main",),
}

COUNTS = {
    "plda.em_iters": "em_iters",
    "eval_harness.trials_built": "trials_built",
    "plda.trials_scored": "trials_scored",
    "eval_harness.rows_written": "rows_written",
    "data_model.records_read": "records_read",
    "data_model.mb_read": "mb_read",
    "data_model.mb_written": "mb_written",
    "preprocess.apply_calls": "apply_calls",
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self, targets=FULL_TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for t in self.targets:
            owner = importlib.import_module(t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(t, raw.__func__))
                else:
                    new = self._wrap(t, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, t.attr)
            wrapper = self._wrap(t, orig)
            # rebind every `from .x import name` copy inside the package too
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "plda_local" or mod is None:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, target: Target, fn):
        spans, stack, name = self.spans, self._stack, target.span_name
        counter = target.counter
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts.update(counter(sig.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def resolve(self) -> None:
        """Evaluate counts that were deferred until the traced work ended."""
        for s in self.spans:
            for k, v in s.counts.items():
                if callable(v):
                    s.counts[k] = v()

    def take(self) -> list[Span]:
        """Resolve, return and forget the spans recorded so far."""
        self.resolve()
        out, self.spans[:] = list(self.spans), []
        return out


def dump_spans(labelled, path) -> None:
    """Write (label, spans) groups as JSON lines; ``parent`` indexes ``id``
    within the same label."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, spans in labelled:
            for i, s in enumerate(spans):
                fh.write(json.dumps({"group": label, "id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "counts": s.counts}) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["counts"]) for r in rows]


def group_time(spans, names) -> float:
    """Summed duration of spans named in ``names``, not counting a span whose
    ancestor is also in the group (compute_eer calls det_curve, for one)."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.dur
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.dur
    return out


def layer_metrics(span_sets) -> dict:
    """Per-layer metrics summed over several span lists (one per process)."""
    m = {k: 0.0 for k in (*LAYER_TIMES, *SELF_TIMES)}
    m.update({k: 0 for k in COUNTS})
    for spans in span_sets:
        for k, names in LAYER_TIMES.items():
            m[k] += group_time(spans, names)
        selfs = self_times(spans)
        for k, names in SELF_TIMES.items():
            m[k] += sum(t for s, t in zip(spans, selfs) if s.name in names)
        for k, key in COUNTS.items():
            m[k] += sum(s.counts.get(key, 0) for s in spans)
    return m


def stage_times(spans) -> dict:
    return {k: group_time(spans, names) for k, names in STAGES.items()}
