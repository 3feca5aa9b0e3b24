"""Utterance records, label views (global / local / pooled), and i-vector file I/O.

A "local" label discriminates speakers only within one conversation: the class
id is the composition ``conv_id:slot``, and the same human appearing in two
conversations lands in two classes. A "global" label is a corpus-wide speaker
identity. Pooled views take the disjoint union of one view of each kind.
"""
from __future__ import annotations

import mmap
import operator
import os
import shutil
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from itertools import repeat

import numpy as np


class DataError(Exception):
    """Base class for dataset and label failures."""


class LabelingError(DataError):
    pass


class ParseError(DataError):
    pass


MISSING = "-"


def _check_id(name, value, forbid_colon=False):
    if not value:
        raise DataError(f"{name} must be a non-empty string")
    # a corpus file splits rows with str.splitlines and fields on ','
    if "," in value or value.splitlines() != [value]:
        raise DataError(f"{name} {value!r} may not contain ',' or line breaks")
    if forbid_colon and ":" in value:
        raise DataError(f"{name} {value!r} may not contain ':'")


def _check_fields(utt_id, conv_id, slot, global_spk) -> int:
    """Check one record's identifiers and return its slot as an int."""
    _check_id("utt_id", utt_id)
    _check_id("conv_id", conv_id, forbid_colon=True)
    try:
        slot = operator.index(slot)
    except TypeError:
        raise DataError(f"slot must be an integer, got {slot!r}") from None
    if slot < 0:
        raise DataError(f"slot must be non-negative, got {slot}")
    if global_spk is not None:
        _check_id("global_spk", global_spk)
        if global_spk == MISSING:
            raise DataError(f"global_spk {MISSING!r} marks a record without one "
                            f"in a corpus file; pass None")
    return slot


def _is_seed(value) -> bool:
    """Whether ``value`` is an integer numpy's generators accept as a seed."""
    try:
        return operator.index(value) >= 0
    except TypeError:
        return False


def _check_finite(utt_id, vector):
    if not np.all(np.isfinite(vector)):
        raise DataError(f"vector for {utt_id} has non-finite components")


def _local_class(conv_id, slot) -> str:
    return f"{conv_id}:{slot}"


@dataclass(frozen=True)
class UtteranceRecord:
    """One i-vector with its identifiers.

    ``global_spk`` is None when the corpus-wide speaker identity is unknown
    (the situation local labels exist to work around). Identifiers may not
    contain ',' or a line break, and a ``global_spk`` of '-' is refused,
    because a corpus file could not give any of them back.
    """

    utt_id: str
    conv_id: str
    slot: int
    global_spk: str | None
    vector: np.ndarray

    def __post_init__(self):
        slot = _check_fields(self.utt_id, self.conv_id, self.slot, self.global_spk)
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1:
            raise DataError(f"vector for {self.utt_id} must be 1-dimensional")
        _check_finite(self.utt_id, v)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "slot", slot)
        object.__setattr__(self, "vector", v)

    @classmethod
    def _view(cls, utt_id, conv_id, slot, global_spk, vector):
        """A record over one row of a Dataset, whose fields are already
        checked; ``vector`` is the read-only matrix row, not a copy."""
        r = object.__new__(cls)
        r.__dict__.update(utt_id=utt_id, conv_id=conv_id, slot=slot,
                          global_spk=global_spk, vector=vector)
        return r


class Dataset:
    """An ordered collection of utterances sharing one dimension, held as
    columns.

    ``utt_ids``, ``conv_ids``, ``slots`` and ``global_spks`` (None where the
    speaker is unknown) are tuples in row order, and ``vectors()`` is one
    read-only (n, dim) float64 matrix. ``records`` gives the rows as
    UtteranceRecord views, built on first use.
    """

    def __init__(self, dim: int, records):
        if dim <= 0:
            raise DataError(f"dim must be positive, got {dim}")
        records = tuple(records)
        seen = set()
        for r in records:
            if r.vector.shape[0] != dim:
                raise DataError(
                    f"record {r.utt_id} has dimension {r.vector.shape[0]}, "
                    f"dataset declares {dim}"
                )
            if r.utt_id in seen:
                raise DataError(f"duplicate utt_id {r.utt_id}")
            seen.add(r.utt_id)
        self._assign(dim, tuple(r.utt_id for r in records),
                     tuple(r.conv_id for r in records), tuple(r.slot for r in records),
                     tuple(r.global_spk for r in records),
                     np.stack([r.vector for r in records]) if records
                     else np.empty((0, dim)))
        self._records = records

    @classmethod
    def _columns(cls, dim, utt_ids, conv_ids, slots, global_spks, vectors) -> "Dataset":
        """A dataset over columns the caller has checked: every field valid,
        utt_ids distinct, and ``vectors`` an (n, dim) float64 matrix."""
        data = cls.__new__(cls)
        data._assign(dim, utt_ids, conv_ids, slots, global_spks, vectors)
        data._records = None
        return data

    def _assign(self, dim, utt_ids, conv_ids, slots, global_spks, vectors):
        vectors.setflags(write=False)
        self.dim = dim
        self.utt_ids = utt_ids
        self.conv_ids = conv_ids
        self.slots = slots
        self.global_spks = global_spks
        self._vectors = vectors

    def __len__(self):
        return len(self.utt_ids)

    @property
    def records(self) -> tuple[UtteranceRecord, ...]:
        if self._records is None:
            self._records = tuple(map(UtteranceRecord._view, self.utt_ids,
                                      self.conv_ids, self.slots, self.global_spks,
                                      self._vectors))
        return self._records

    def vectors(self) -> np.ndarray:
        """All vectors as a read-only (n, dim) array, in row order."""
        return self._vectors

    def subset(self, utt_ids) -> "Dataset":
        """Rows whose utt_id is in ``utt_ids``, preserving dataset order."""
        wanted = set(utt_ids)
        return self._take([i for i, u in enumerate(self.utt_ids) if u in wanted])

    def _take(self, rows) -> "Dataset":
        """The rows at the given indices, in that order."""
        def take(col):
            return tuple(map(col.__getitem__, rows))

        return Dataset._columns(self.dim, take(self.utt_ids), take(self.conv_ids),
                                take(self.slots), take(self.global_spks),
                                self._vectors[rows])


def merge_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets; utt_ids must be disjoint."""
    if a.dim != b.dim:
        raise DataError(f"dimension mismatch: {a.dim} vs {b.dim}")
    overlap = set(a.utt_ids) & set(b.utt_ids)
    if overlap:
        raise DataError(f"overlapping utt_ids: {sorted(overlap)[:5]}")
    return Dataset._columns(a.dim, a.utt_ids + b.utt_ids, a.conv_ids + b.conv_ids,
                            a.slots + b.slots, a.global_spks + b.global_spks,
                            np.concatenate([a.vectors(), b.vectors()]))


@dataclass(frozen=True, eq=False)
class LabelView:
    """A class per row of one dataset: the row whose utt_id is ``utt_ids[i]``
    is in class ``codes[i]``, whose id is ``names[codes[i]]``, or in no
    class where ``codes[i]`` is -1."""

    strategy: str  # "global" | "local" | "pooled"
    utt_ids: tuple[str, ...]
    names: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self):
        if self.strategy not in ("global", "local", "pooled"):
            raise LabelingError(f"unknown strategy {self.strategy!r}")
        codes = np.array(self.codes, dtype=np.int64)
        if codes.shape != (len(self.utt_ids),):
            raise LabelingError(f"class codes of shape {codes.shape} for "
                                f"{len(self.utt_ids)} rows")
        if np.any((codes < -1) | (codes >= len(self.names))):
            raise LabelingError(f"class codes must lie in -1..{len(self.names) - 1}")
        empty = np.flatnonzero(np.bincount(codes + 1, minlength=len(self.names) + 1)[1:] == 0)
        if len(empty):
            raise LabelingError(f"class {self.names[empty[0]]!r} is empty")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "utt_ids", tuple(self.utt_ids))

    @property
    def n_classes(self) -> int:
        return len(self.names)


def _number(keys):
    """(names, codes): the distinct ``keys`` other than None, in order of
    first appearance, and each key's index among them, or -1 for None."""
    index: dict = {}
    codes = np.fromiter((-1 if k is None else index.setdefault(k, len(index)) for k in keys),
                        np.int64, len(keys))
    return tuple(index), codes


def _positions(ids, keys) -> np.ndarray:
    """Each key's index in ``ids``, the last one for a repeated id, or -1
    where no id equals the key."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.get, keys, repeat(-1)), np.int64, len(keys))


def _rows_by_class(view: LabelView) -> dict[str, np.ndarray]:
    """Each class id of a view with its rows, in dataset order."""
    order = np.argsort(view.codes, kind="stable")
    sizes = np.bincount(view.codes + 1, minlength=view.n_classes + 1)
    return dict(zip(view.names, np.split(order, np.cumsum(sizes)[:-1])[1:]))


def group_by_speaker(data: Dataset) -> dict[str, list[UtteranceRecord]]:
    """Records per global speaker id: speakers in order of first appearance,
    records in dataset order. A record without one raises LabelingError."""
    records = data.records
    return {spk: [records[i] for i in rows.tolist()]
            for spk, rows in _rows_by_class(build_global_view(data)).items()}


def build_global_view(data: Dataset) -> LabelView:
    """One class per distinct global speaker id."""
    if None in data.global_spks:
        utt = data.utt_ids[data.global_spks.index(None)]
        raise LabelingError(f"record {utt} has no global speaker label")
    return LabelView("global", data.utt_ids, *_number(data.global_spks))


def build_local_view(data: Dataset) -> LabelView:
    """One class per (conv_id, slot) pair; global labels are ignored."""
    return LabelView("local", data.utt_ids,
                     *_number(list(map(_local_class, data.conv_ids, data.slots))))


def _pooled_names(global_names, local_names) -> tuple[str, ...]:
    return (tuple(f"g:{k}" for k in global_names)
            + tuple(f"l:{k}" for k in local_names))


def build_pooled_view(global_part: LabelView, local_part: LabelView) -> LabelView:
    """The union of a global and a local view, over the rows of
    ``merge_datasets`` of their datasets: the local classes follow the
    global ones, and class ids are namespaced."""
    local = local_part.codes
    codes = np.concatenate([global_part.codes,
                            np.where(local < 0, -1, local + global_part.n_classes)])
    return LabelView("pooled", global_part.utt_ids + local_part.utt_ids,
                     _pooled_names(global_part.names, local_part.names), codes)


# Shortest round-trip formatting of float64 arrays: Schubfach (R. Giulietti,
# "The Schubfach way to render doubles", 2020, as in Java's DoubleToDecimal)
# picks the decimal, and the text follows repr(float). The arithmetic is
# elementwise on uint64 arrays, where it wraps, never on numpy scalars,
# where overflow warns.
_K_MIN, _K_MAX = -324, 292  # decimal exponents k that a float64 needs


def _flog2pow10(e):
    return (e * 913124641741) >> 38  # floor(e log2 10), |e| <= 1838394


def _g_table():
    """g = floor(10^-k 2^(125 - flog2pow10(-k))) + 1, in [2^125, 2^126], for
    each k from _K_MIN to _K_MAX, split into its high and low 63 bits."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, np.uint64), np.array(g0, np.uint64)


_G1, _G0 = _g_table()
_POW10 = np.array([10 ** i for i in range(18)], np.uint64)
_LOW32 = (1 << 32) - 1


def _rop(g1, g0, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0, its lowest bit set when
    the bits below, as Schubfach keeps them, are not all zero (rounded to
    odd). The 128-bit products come from 32-bit limbs: with g1, g0 < 2^63
    and cp < 2^61, no sum of partial products carries out of 64 bits."""
    c0, c1 = cp & _LOW32, cp >> 32

    def high(a):  # the high 64 bits of a cp
        a0, a1 = a & _LOW32, a >> 32
        return a1 * c1 + ((((a0 * c0) >> 32) + a0 * c1 + a1 * c0) >> 32)

    z = ((g1 * cp) >> 1) + high(g0)
    return (high(g1) + (z >> 63)) | ((z << 1) != 0)


def _shortest(bits):
    """(f, k) with f 10^k the decimal of each finite non-zero float64 (given
    as its uint64 bits) that repr(float) writes: of the decimals that round
    to the float, the shortest, then the closest, then the one with an even
    last digit. Other values give f = 0."""
    bq = (bits >> 52) & 0x7FF
    frac = bits & ((1 << 52) - 1)
    # the float is c 2^q; a zero takes c = 1, and its result is dropped
    c = np.where(bq != 0, frac | (1 << 52), np.maximum(frac, 1))
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # the float below a power of two is half as far away as the one above
    irregular = (frac == 0) & (bq > 1)
    # floor(log10) of the gap to the next float, 2^q, or 3/4 2^q when irregular
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    cb = c << 2
    # 4 10^-k times the float and the two ends of its rounding interval
    vbl, vb, vbr = _rop(g1, g0, np.stack([cb - 2 + irregular, cb, cb + 2]) << h)
    out = c & 1  # an odd significand's interval excludes its ends
    s = vb >> 2
    t = s + 1
    sp10 = (s // 10) * 10
    # at most one multiple of 10^(k+1) lies in the interval, and at least
    # one of s 10^k and t 10^k
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    mid = (s + t) << 1
    closer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    pick_t = ~((uin & ~win) | ((uin == win) & closer_s))
    f = np.where(upin != wpin, sp10 + np.uint64(10) * ~upin, s + pick_t)
    f[(bq == 0x7FF) | ((bq == 0) & (frac == 0))] = 0
    return f, k


# One value's layout: a column each for its sign, "0." and three zeros
# before a fraction below 0.001, the integer digits, the point, the fraction
# digits, a "0" for an empty fraction, "e", and the exponent's sign and three
# digits. Every digit column takes the 17-digit significand; _keep_table
# says which columns a value's text keeps.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"0e+000", np.uint8)
_WIDTH = len(_TEMPLATE)
_DECPT_MIN, _DECPT_MAX = -323, 309  # of a non-zero finite float64


def _layout_class(decpt):
    """Classes 0..23 of decimal-point positions whose values keep the same
    columns, given digit count and sign: decpt + 4 for decpt in -4..17, with
    lower positions in class 0 and higher ones in 21, but 22 for decpt <=
    -99 and 23 for decpt >= 101, whose exponents take three digits."""
    return np.clip(decpt, -4, 17) + 4 + 22 * (decpt <= -99) + 2 * (decpt >= 101)


_NONFINITE_ROW = 24 * 17 * 2  # the row of "nan" in _keep_table


@cache  # built on first use: importing the module runs no numpy arithmetic
def _keep_table():
    """The columns of the layout that repr's text keeps, for each (layout
    class, digit count, sign) at row (class * 17 + digits - 1) * 2 + sign,
    then for "nan", "inf" and "-inf". For value = +-0.d1d2..d_nd 10^decpt
    the text is fixed-point for decpt from -3 to 16, else d1.d2..d_nd, "e"
    and the exponent decpt - 1."""
    decpt = np.repeat(np.r_[-4:18, -99, 101], 34)  # one position of each class
    nd = np.tile(np.repeat(np.arange(1, 18), 2), 24)
    neg = np.tile([False, True], 24 * 17)
    exp = (decpt <= -4) | (decpt > 16)
    fixed = ~exp
    ilen = np.where(exp, 1, np.maximum(decpt, 0))[:, None]  # digits before the point
    j = np.arange(17)
    e = np.abs(decpt - 1)
    table = np.zeros((_NONFINITE_ROW + 3, _WIDTH), bool)
    table[:_NONFINITE_ROW] = np.column_stack([
        neg,
        fixed & (decpt <= 0), fixed & (decpt <= 0),
        j[:3] < np.where(fixed, -decpt, 0)[:, None],
        j < ilen,
        (ilen[:, 0] > 0) & (fixed | (nd > 1)),
        (j >= ilen) & (j < nd[:, None]),
        fixed & (nd <= ilen[:, 0]),
        exp, exp, exp & (e >= 100), exp, exp,
    ])
    table[_NONFINITE_ROW:, 6:9] = True
    table[-1, 0] = True
    return table


_EXPONENTS = np.array([f"{d - 1:+04d}".encode() for d in range(_DECPT_MIN, _DECPT_MAX + 1)],
                      "S4").view(np.uint8).reshape(-1, 4)


def _format_into(x, chars, keep):
    """Lay out repr(float(v)) of each value v of the (n, m) float64 array
    ``x`` in ``chars[i, j]``, of shape (n, m, _WIDTH), and set ``keep[i, j]``
    on the bytes of its text."""
    n, m = x.shape
    bits = np.ascontiguousarray(x, np.float64).reshape(-1).view(np.uint64)
    f, k = _shortest(bits)
    ndig = np.searchsorted(_POW10, f, side="right")
    sig = f * _POW10[17 - ndig]  # 17 digits, the last ones zero
    decpt = np.where(f == 0, 1, k + ndig)  # value = 0.d1d2... 10^decpt
    digits = np.empty((17, len(f)), np.uint8)
    for i in range(16, -1, -1):
        q = sig // 10
        digits[i] = sig - q * 10
        sig = q
    nd = np.maximum(np.max((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None],
                           axis=0), 1)
    digits += ord("0")
    row = (_layout_class(decpt) * 17 + nd - 1) * 2 + (bits >> 63).astype(np.intp)
    nonfinite = np.flatnonzero((bits >> 52) & 0x7FF == 0x7FF)
    if len(nonfinite):
        inf = (bits[nonfinite] & ((1 << 52) - 1)) == 0
        row[nonfinite] = _NONFINITE_ROW + inf * (1 + (bits[nonfinite] >> 63))
        digits[:3, nonfinite] = np.where(inf, np.frombuffer(b"inf", np.uint8)[:, None],
                                         np.frombuffer(b"nan", np.uint8)[:, None])
    chars[...] = _TEMPLATE
    chars[..., 6:23] = chars[..., 24:41] = digits.T.reshape(n, m, 17)
    chars[..., 43:] = np.take(_EXPONENTS, np.clip(decpt, _DECPT_MIN, _DECPT_MAX)
                              - _DECPT_MIN, axis=0).reshape(n, m, 4)
    keep[...] = np.take(_keep_table(), row, axis=0).reshape(n, m, _WIDTH)


_BLOCK = 1 << 13  # values per block: its arrays stay in cache


def _text_rows(values, *fields):
    """The text of rows i = 0..n-1, as a list of strings: the bytes of each
    of ``fields`` at row i, then the row of the (n, k) float64 ``values`` as
    repr writes each, joined by ",", then a line break. A field is a triple
    (bytes, keep, rows): the pair ``_byte_rows`` gives and, for each row of
    the text, the index of its row in them.

    Each block of rows holding about _BLOCK values is laid out as one byte
    matrix, padding included, and the padding is dropped with one mask: ids
    may hold any byte, NUL too.
    """
    n, k = values.shape
    at = sum(b.shape[1] for b, _, _ in fields)
    width = at + k * (1 + _WIDTH) + 1
    step = max(1, _BLOCK // max(1, k))
    out = []
    for a in range(0, n, step):
        z = min(n - a, step)
        chars = np.empty((z, width), np.uint8)
        keep = np.empty((z, width), bool)
        start = 0
        for b, kb, rows in fields:
            r = rows[a:a + z]
            chars[:, start:start + b.shape[1]] = np.take(b, r, axis=0)
            keep[:, start:start + b.shape[1]] = np.take(kb, r, axis=0)
            start += b.shape[1]
        # each value after the first is preceded by a ","
        vc = chars[:, at:-1].reshape(z, k, 1 + _WIDTH)
        vk = keep[:, at:-1].reshape(z, k, 1 + _WIDTH)
        vc[..., 0] = ord(",")
        vk[..., 0] = True
        vk[:, :1, 0] = False
        _format_into(values[a:a + z], vc[..., 1:], vk[..., 1:])
        chars[:, -1] = ord("\n")
        keep[:, -1] = True
        out.append(chars[keep].tobytes().decode())
    return out


def _byte_rows(texts):
    """(bytes, keep) for a list of strings: row i of the uint8 matrix
    ``bytes`` holds the UTF-8 text of texts[i], padded to the longest, and
    row i of ``keep`` marks its bytes."""
    enc = [t.encode() for t in texts]
    lengths = np.fromiter(map(len, enc), np.int64, len(enc))
    width = max(1, int(lengths.max(initial=0)))
    b = np.array(enc, dtype=f"S{width}").view(np.uint8).reshape(len(enc), width)
    return b, np.arange(width) < lengths[:, None]


def format_float(x: float) -> str:
    """repr(float(x)): the shortest decimal that reads back as the same
    float, as ``_text_rows`` writes every value."""
    return _text_rows(np.array([[float(x)]]))[0][:-1]


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


def _read_text(path, error) -> str:
    """The whole text of a UTF-8 file; other bytes raise ``error`` naming
    the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from None


_CHUNK = 1 << 16  # values formatted or parsed per chunk


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_runs(n, step):
    """The chunk starts 0, step, 2 step, ... below n, split into one
    contiguous run per usable core: one run without ``os.fork``."""
    starts = range(0, n, step)
    k = max(1, min(_usable_cores(), len(starts))) if hasattr(os, "fork") else 1
    return [starts[i * len(starts) // k:(i + 1) * len(starts) // k] for i in range(k)]


def _forked(runs, here, worker=None, done=None):
    """Do the first of ``runs`` here and each later one in a forked worker.

    here(run) does a run in this process, and a forked worker calls
    worker(run), here(run) by default. After the first run, each worker is
    waited for in order: done(run) is called when it exited cleanly, and
    here(run) when it failed or could not be forked. A run must be
    deterministic, so a fault raises here what a one-process pass raises,
    at the first run that has one. A worker may parse and format in Python
    and run elementwise numpy, integer arithmetic included, but never BLAS,
    whose thread pool does not survive ``fork``. No worker outlives the
    call.
    """
    pids = {}  # run index -> pid of its worker, until reaped
    try:
        for i in range(1, len(runs)):
            try:
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                code = 1
                try:
                    (worker or here)(runs[i])
                    code = 0
                finally:
                    os._exit(code)
            pids[i] = pid
        here(runs[0])
        for i in range(1, len(runs)):
            ok = False
            if i in pids:
                ok = os.waitstatus_to_exitcode(os.waitpid(pids[i], 0)[1]) == 0
                del pids[i]
            if not ok:
                here(runs[i])
            elif done is not None:
                done(runs[i])
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_chunked(fh, n, lines, width=1):
    """Write rows 0..n-1 of a ``_replacing`` handle in chunks of about
    _CHUNK values: lines(start, stop) yields the text of rows start..stop-1,
    a row holds ``width`` values, and each chunk is one "".join and one
    write, so no per-row Python object outlives its chunk.

    The chunks are split into one contiguous run per usable core
    (``_forked``). A worker formats its run into a part file beside
    ``fh``'s file while this process formats the first run, then the parts
    are appended in order, so the bytes equal a one-process write. No part
    file outlives the call.
    """
    step = max(1, _CHUNK // width)
    runs = _chunk_runs(n, step)

    def part(run):
        return f"{fh.name}.{run.start}.part"

    def format_run(out, run):
        for a in run:
            out.write("".join(lines(a, min(a + step, n))))

    def worker(run):
        with open(part(run), "x", encoding="utf-8", newline="\n") as out:
            format_run(out, run)

    def append(run):
        fh.flush()
        with open(part(run), "rb") as src:
            shutil.copyfileobj(src, fh.buffer)

    try:
        _forked(runs, lambda run: format_run(fh, run), worker, append)
    finally:
        for run in runs[1:]:
            with suppress(FileNotFoundError):
                os.remove(part(run))


def write_dataset(data: Dataset, path) -> None:
    columns = (data.utt_ids, data.conv_ids, data.slots, data.global_spks)
    X = data.vectors()

    def lines(a, b):
        ids = _byte_rows([f"{utt},{conv},{slot},{MISSING if spk is None else spk},"
                          for utt, conv, slot, spk in zip(*(c[a:b] for c in columns))])
        return _text_rows(X[a:b], (*ids, np.arange(b - a)))

    with _replacing(path) as fh:
        fh.write(f"#dim={data.dim}\n")
        _write_chunked(fh, len(data), lines, width=data.dim)


def _check_line(line, dim, seen):
    """Every check of one corpus row, in order: field count, duplicate
    utt_id (against ``seen``), integer slot, numeric components, the
    record's identifiers, finite components. Raises DataError."""
    parts = line.split(",")
    if len(parts) != 4 + dim:
        raise DataError(f"expected {4 + dim} fields, got {len(parts)}")
    utt_id, conv_id, slot, spk = parts[:4]
    if utt_id in seen:
        raise DataError(f"duplicate utt_id {utt_id}")
    try:
        slot = int(slot)
    except ValueError:
        raise DataError(f"bad slot {slot!r}") from None
    try:
        vector = [float(x) for x in parts[4:]]
    except ValueError:
        raise DataError("non-numeric vector component") from None
    _check_fields(utt_id, conv_id, slot, None if spk == MISSING else spk)
    _check_finite(utt_id, vector)


def read_dataset(path) -> Dataset:
    """Read a corpus file into a Dataset.

    A faulty file raises ParseError naming its first faulty line and, on
    that line, the first failed check in ``_check_line``'s order. The ids
    are split off each row here; the components are parsed on every usable
    core (``_forked``) into one shared matrix, a run of rows per core.
    """
    lines = _read_text(path, ParseError).splitlines()
    if not lines or not lines[0].startswith("#dim="):
        raise ParseError(f"{path}: line 1: expected '#dim=<d>' header")
    try:
        dim = int(lines[0][len("#dim="):])
    except ValueError:
        raise ParseError(f"{path}: line 1: malformed dimension {lines[0]!r}") from None
    if dim <= 0:
        raise ParseError(f"{path}: line 1: dimension must be positive")
    if dim > np.iinfo(np.intp).max // 8:
        raise ParseError(f"{path}: line 1: dimension {dim} too large")

    utt_ids, conv_ids, slots, spks = [], [], [], []
    where = []  # index in ``lines`` of each row
    seen = set()
    fault = None  # the first faulty row's error, raised once the rows before it parse
    for w in range(1, len(lines)):
        line = lines[w]
        if not line.strip():
            continue
        # a row is split here only up to its components, so the field count
        # is checked where they are parsed; fields split off a line hold no
        # ',' or line break, so these tests are the whole of _check_fields.
        # A row's 4 + dim fields are non-empty, so a shorter line is faulty,
        # and the matrix never holds more values than the text has characters
        try:
            utt, conv, slot, spk, _ = line.split(",", 4)
            slot = int(slot)
        except ValueError:  # too few fields or a bad slot, which _check_line names
            ok = False
        else:
            spk = None if spk == MISSING else spk
            ok = (utt not in seen and utt and conv and ":" not in conv and slot >= 0
                  and spk != "" and len(line) >= 2 * dim + 7)
        if not ok:
            try:
                _check_line(line, dim, seen)
            except DataError as e:
                fault = ParseError(f"{path}: line {w + 1}: {e}")
                break
        seen.add(utt)
        utt_ids.append(utt)
        conv_ids.append(conv)
        slots.append(slot)
        spks.append(spk)
        where.append(w)

    n = len(where)
    X = np.frombuffer(mmap.mmap(-1, 8 * max(1, n * dim)), np.float64,
                      n * dim).reshape(n, dim)
    step = max(1, _CHUNK // dim)

    def parse(run):
        for a in run:
            b = min(a + step, n)
            comps = [lines[w].split(",", 4)[4] for w in where[a:b]]
            ok = all(c.count(",") == dim - 1 for c in comps)
            if ok:
                try:
                    X[a:b] = np.fromiter(map(float, ",".join(comps).split(",")),
                                         np.float64, (b - a) * dim).reshape(b - a, dim)
                except ValueError:
                    ok = False
            if not (ok and np.isfinite(X[a:b]).all()):
                # rows before the first faulty one passed every other check
                for w in where[a:b]:
                    try:
                        _check_line(lines[w], dim, ())
                    except DataError as e:
                        raise ParseError(f"{path}: line {w + 1}: {e}") from None

    _forked(_chunk_runs(n, step), parse)
    if fault is not None:
        raise fault
    return Dataset._columns(dim, tuple(utt_ids), tuple(conv_ids), tuple(slots),
                            tuple(spks), X)
