"""Utterance records, label views (global / local / pooled), and i-vector file I/O.

A "local" label discriminates speakers only within one conversation: the class
id is the composition ``conv_id:slot``, and the same human appearing in two
conversations lands in two classes. A "global" label is a corpus-wide speaker
identity. Pooled views take the disjoint union of one view of each kind.
"""
from __future__ import annotations

import os
import shutil
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np


class DataError(Exception):
    """Base class for dataset and label failures."""


class LabelingError(DataError):
    pass


class PoolingError(DataError):
    pass


class ParseError(DataError):
    pass


MISSING = "-"


def _check_id(name, value, forbid_colon=False):
    if not value:
        raise DataError(f"{name} must be a non-empty string")
    if "," in value or "\n" in value:
        raise DataError(f"{name} {value!r} may not contain ',' or newlines")
    if forbid_colon and ":" in value:
        raise DataError(f"{name} {value!r} may not contain ':'")


@dataclass(frozen=True)
class UtteranceRecord:
    """One i-vector with its identifiers.

    ``global_spk`` is None when the corpus-wide speaker identity is unknown
    (the situation local labels exist to work around).
    """

    utt_id: str
    conv_id: str
    slot: int
    global_spk: str | None
    vector: np.ndarray

    def __post_init__(self):
        _check_id("utt_id", self.utt_id)
        _check_id("conv_id", self.conv_id, forbid_colon=True)
        if self.slot < 0:
            raise DataError(f"slot must be non-negative, got {self.slot}")
        if self.global_spk is not None:
            _check_id("global_spk", self.global_spk)
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1:
            raise DataError(f"vector for {self.utt_id} must be 1-dimensional")
        if not np.all(np.isfinite(v)):
            raise DataError(f"vector for {self.utt_id} has non-finite components")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def local_class(self) -> str:
        return f"{self.conv_id}:{self.slot}"


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of utterance records sharing one dimension."""

    dim: int
    records: tuple[UtteranceRecord, ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise DataError(f"dim must be positive, got {self.dim}")
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for r in self.records:
            if r.vector.shape[0] != self.dim:
                raise DataError(
                    f"record {r.utt_id} has dimension {r.vector.shape[0]}, "
                    f"dataset declares {self.dim}"
                )
            if r.utt_id in seen:
                raise DataError(f"duplicate utt_id {r.utt_id}")
            seen.add(r.utt_id)

    def __len__(self):
        return len(self.records)

    def vectors(self) -> np.ndarray:
        """All vectors stacked into an (n, dim) array, in record order."""
        if not self.records:
            return np.empty((0, self.dim))
        return np.stack([r.vector for r in self.records])

    def by_utt(self) -> dict[str, UtteranceRecord]:
        return {r.utt_id: r for r in self.records}

    def subset(self, utt_ids) -> "Dataset":
        """Records whose utt_id is in ``utt_ids``, preserving dataset order."""
        wanted = set(utt_ids)
        return Dataset(self.dim, tuple(r for r in self.records if r.utt_id in wanted))


def merge_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets; utt_ids must be disjoint."""
    if a.dim != b.dim:
        raise DataError(f"dimension mismatch: {a.dim} vs {b.dim}")
    overlap = {r.utt_id for r in a.records} & {r.utt_id for r in b.records}
    if overlap:
        raise DataError(f"overlapping utt_ids: {sorted(overlap)[:5]}")
    return Dataset(a.dim, a.records + b.records)


@dataclass(frozen=True)
class LabelView:
    """A partition of (a subset of) a dataset's utterances into classes."""

    strategy: str  # "global" | "local" | "pooled"
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy not in ("global", "local", "pooled"):
            raise LabelingError(f"unknown strategy {self.strategy!r}")
        seen = set()
        for cid, members in self.classes.items():
            if not members:
                raise LabelingError(f"class {cid!r} is empty")
            for utt in members:
                if utt in seen:
                    raise LabelingError(f"utt_id {utt} appears in two classes")
                seen.add(utt)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def group_by_speaker(data: Dataset) -> dict[str, list[UtteranceRecord]]:
    """Records per global speaker id: speakers in order of first appearance,
    records in dataset order. A record without one raises LabelingError."""
    groups: dict[str, list[UtteranceRecord]] = {}
    for r in data.records:
        if r.global_spk is None:
            raise LabelingError(f"record {r.utt_id} has no global speaker label")
        groups.setdefault(r.global_spk, []).append(r)
    return groups


def build_global_view(data: Dataset) -> LabelView:
    """One class per distinct global speaker id."""
    return LabelView("global", {k: tuple(r.utt_id for r in v)
                                for k, v in group_by_speaker(data).items()})


def build_local_view(data: Dataset) -> LabelView:
    """One class per (conv_id, slot) pair; global labels are ignored."""
    classes: dict[str, list[str]] = {}
    for r in data.records:
        classes.setdefault(r.local_class, []).append(r.utt_id)
    return LabelView("local", {k: tuple(v) for k, v in classes.items()})


def build_pooled_view(global_part: LabelView, local_part: LabelView) -> LabelView:
    """Disjoint union of a global and a local view, class ids namespaced."""
    g_utts = {u for m in global_part.classes.values() for u in m}
    l_utts = {u for m in local_part.classes.values() for u in m}
    overlap = g_utts & l_utts
    if overlap:
        raise PoolingError(f"views share utt_ids: {sorted(overlap)[:5]}")
    classes = {f"g:{k}": v for k, v in global_part.classes.items()}
    classes.update({f"l:{k}": v for k, v in local_part.classes.items()})
    return LabelView("pooled", classes)


def format_float(x: float) -> str:
    """Shortest decimal that round-trips exactly (>= 12 significant digits)."""
    return repr(float(x))


@contextmanager
def _replacing(path):
    """Text file handle on a temporary file beside ``path`` that replaces
    ``path`` when the block succeeds and is removed when it raises, so a
    failed write never leaves a partial file. A symlinked ``path`` is
    written through, as opening it for writing would."""
    path = os.path.realpath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


_CHUNK = 1 << 16  # values formatted per write


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _write_chunked(fh, n, lines, width=1):
    """Write rows 0..n-1 of a ``_replacing`` handle in chunks of about
    _CHUNK values: lines(start, stop) yields the text of rows start..stop-1,
    a row holds ``width`` values, and each chunk is one "".join and one
    write, so no per-row Python object outlives its chunk.

    With several chunks and several usable cores, the chunks are split into
    one contiguous run per core. A forked worker formats each run after the
    first into a part file beside ``fh``'s file while this process formats
    the first run, then the parts are appended in order, so the bytes equal
    a one-process write. A worker only runs ``lines``, which must do nothing
    but Python formatting and numpy slicing or ``tolist``: never BLAS, whose
    thread pool does not survive ``fork``. A run whose worker failed, or
    could not be forked, is formatted here; formatting is deterministic, so
    a bad row raises what a one-process write raises. No worker and no part
    file outlives the call.
    """
    step = max(1, _CHUNK // width)
    starts = range(0, n, step)
    k = min(_usable_cores(), len(starts)) if hasattr(os, "fork") else 1

    def format_run(out, run):
        for a in run:
            out.write("".join(lines(a, min(a + step, n))))

    if k <= 1:
        format_run(fh, starts)
        return
    runs = [starts[i * len(starts) // k:(i + 1) * len(starts) // k] for i in range(k)]
    parts = [f"{fh.name}.{i}.part" for i in range(1, k)]
    pids = {}  # part -> pid of its worker, until reaped
    try:
        for part, run in zip(parts, runs[1:]):
            try:
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                code = 1
                try:
                    with open(part, "x", encoding="utf-8", newline="\n") as out:
                        format_run(out, run)
                    code = 0
                finally:
                    os._exit(code)
            pids[part] = pid
        format_run(fh, runs[0])
        for part, run in zip(parts, runs[1:]):
            ok = False
            if part in pids:
                ok = os.waitstatus_to_exitcode(os.waitpid(pids[part], 0)[1]) == 0
                del pids[part]
            if ok:
                fh.flush()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
            else:
                format_run(fh, run)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            with suppress(FileNotFoundError):
                os.remove(part)


def write_dataset(data: Dataset, path) -> None:
    records = data.records

    def lines(a, b):
        for r in records[a:b]:
            spk = r.global_spk if r.global_spk is not None else MISSING
            comps = ",".join(map(format_float, r.vector.tolist()))
            yield f"{r.utt_id},{r.conv_id},{r.slot},{spk},{comps}\n"

    with _replacing(path) as fh:
        fh.write(f"#dim={data.dim}\n")
        _write_chunked(fh, len(records), lines, width=data.dim)


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#dim="):
        raise ParseError(f"{path}: line 1: expected '#dim=<d>' header")
    try:
        dim = int(lines[0][len("#dim="):])
    except ValueError:
        raise ParseError(f"{path}: line 1: malformed dimension {lines[0]!r}") from None
    if dim <= 0:
        raise ParseError(f"{path}: line 1: dimension must be positive")

    records = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4 + dim:
            raise ParseError(
                f"{path}: line {lineno}: expected {4 + dim} fields, got {len(parts)}"
            )
        utt_id, conv_id, slot_s, spk = parts[:4]
        if utt_id in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate utt_id {utt_id}")
        seen.add(utt_id)
        try:
            slot = int(slot_s)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad slot {slot_s!r}") from None
        try:
            vec = np.array([float(x) for x in parts[4:]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric vector component") from None
        try:
            records.append(
                UtteranceRecord(
                    utt_id=utt_id,
                    conv_id=conv_id,
                    slot=slot,
                    global_spk=None if spk == MISSING else spk,
                    vector=vec,
                )
            )
        except DataError as e:
            raise ParseError(f"{path}: line {lineno}: {e}") from None
    return Dataset(dim, tuple(records))
