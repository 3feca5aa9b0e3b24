"""Synthetic i-vector corpora from the PLDA generative model.

The conversation simulator fills participant slots with either a fresh speaker
or, with probability ``recurrence``, a previously used one. Local labels treat
every (conversation, slot) as a new class, so the recurrence rate is exactly
the rate at which local labels mislabel a returning speaker as new. True
speaker identities are always stored so evaluation keys stay exact even when
training supervision is noisy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, UtteranceRecord, _is_seed, _rows_by_class, build_global_view
from .plda import PldaModel


class SynthError(Exception):
    pass


_BLOCK_ROWS = 8192  # rows transformed per stacked matrix-vector product


@dataclass(frozen=True)
class SynthConfig:
    dim: int
    latent_dim: int
    seed: int
    n_conversations: int
    slots_per_conversation: int = 1
    utts_per_slot: int = 1
    recurrence: float = 0.0
    truth: PldaModel | None = field(default=None)

    def __post_init__(self):
        if not _is_seed(self.seed):
            raise SynthError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (0.0 <= self.recurrence <= 1.0):
            raise SynthError(f"recurrence must be in [0, 1], got {self.recurrence}")
        for name in ("dim", "n_conversations", "slots_per_conversation", "utts_per_slot"):
            if getattr(self, name) < 1:
                raise SynthError(f"{name} must be >= 1")
        if self.latent_dim < 0 or self.latent_dim > self.dim:
            raise SynthError("latent_dim must be in [0, dim]")


def sample_truth(cfg: SynthConfig) -> PldaModel:
    """Draw a ground-truth model: u = 0, SPD Sigma, unit between/within ratio.

    Sigma = A'A/d + 0.5 I keeps the smallest eigenvalue at or above 0.5;
    V is rescaled so trace(VV') equals trace(Sigma).
    """
    d, q = cfg.dim, cfg.latent_dim
    rng = np.random.default_rng([cfg.seed, 0])
    A = rng.standard_normal((d, d))
    Sigma = A.T @ A / d + 0.5 * np.eye(d)
    Sigma = 0.5 * (Sigma + Sigma.T)
    if q > 0:
        V = rng.normal(0.0, 1.0 / math.sqrt(q), size=(d, q))
        V *= math.sqrt(np.trace(Sigma) / np.trace(V @ V.T))
    else:
        V = np.zeros((d, 0))
    return PldaModel(u=np.zeros(d), V=V, Sigma=Sigma)


def sample_conversations(cfg: SynthConfig) -> Dataset:
    """Simulate conversations and emit one row per utterance.

    Within a conversation all slots hold distinct speakers; a recurrence draw
    that collides with a speaker already in the conversation is redrawn, with a
    fresh-speaker fallback after 100 attempts.

    Draw order, which fixes every output bit for a seed: slot by slot, one
    ``random()`` (once a speaker exists), up to 100 ``integers`` for a reuse,
    ``standard_normal(latent_dim)`` for a new speaker, then one
    ``standard_normal`` of the slot's (utts_per_slot, dim) noise. The noise is
    then transformed in blocks by stacked matrix-vector products, which give
    each row the bits of ``u + V @ y + chol @ z``; a matrix-matrix product
    would not.
    """
    truth = cfg.truth if cfg.truth is not None else sample_truth(cfg)
    if truth.dim != cfg.dim or truth.latent_dim != cfg.latent_dim:
        raise SynthError("truth model shape does not match config")
    rng = np.random.default_rng([cfg.seed, 1])
    chol = np.linalg.cholesky(truth.Sigma)
    C, S, U = cfg.n_conversations, cfg.slots_per_conversation, cfg.utts_per_slot

    X = np.empty((C * S * U, cfg.dim))  # noise now, vectors after the transform
    Y = np.empty((C * S, cfg.latent_dim))  # latent factor per speaker; at most one per slot
    slot_spk = np.empty(C * S, dtype=np.int64)
    n_spk = 0
    for c in range(C):
        in_conv: set[int] = set()
        for slot in range(S):
            k = c * S + slot
            spk = -1
            if n_spk and rng.random() < cfg.recurrence:
                for _ in range(100):
                    cand = int(rng.integers(n_spk))
                    if cand not in in_conv:
                        spk = cand
                        break
            if spk < 0:
                spk = n_spk
                n_spk += 1
                rng.standard_normal(out=Y[spk])
            in_conv.add(spk)
            slot_spk[k] = spk
            rng.standard_normal(out=X[k * U:(k + 1) * U])

    # u + V y is formed per row, block by block, so that no (speakers, dim)
    # array is held beside X; each row's gemv gives its speaker's bits
    row_spk = np.repeat(slot_spk, U)
    for a in range(0, len(X), _BLOCK_ROWS):
        block = X[a:a + _BLOCK_ROWS]
        base = np.matmul(truth.V, Y[row_spk[a:a + _BLOCK_ROWS], :, None])[..., 0]
        base += truth.u
        np.add(np.matmul(chol, block[:, :, None])[..., 0], base, out=block)

    # ids carry the seed so corpora drawn with different seeds can be merged
    tag = f"x{cfg.seed}"
    convs = [f"{tag}c{c:05d}" for c in range(C)]
    spks = [f"{tag}s{s:06d}" for s in range(n_spk)]
    return Dataset._columns(
        cfg.dim,
        tuple([f"{tag}u{i:07d}" for i in range(len(X))]),
        tuple(map(convs.__getitem__, np.repeat(np.arange(C), S * U).tolist())),
        tuple(np.tile(np.repeat(np.arange(S), U), C).tolist()),
        tuple(map(spks.__getitem__, row_spk.tolist())),
        X)


@dataclass(frozen=True)
class EvalSplit:
    """Disjoint enrollment/test split with a count of skipped speakers."""

    enroll: dict[str, tuple[UtteranceRecord, ...]]
    test: Dataset
    n_excluded: int


def split_eval(data: Dataset, n_enroll_per_spk: int, n_test_per_spk: int,
               seed: int) -> EvalSplit:
    """Per-speaker enroll/test split; speakers with too few utterances are
    excluded and counted."""
    if n_enroll_per_spk < 1 or n_test_per_spk < 1:
        raise SynthError("per-speaker counts must be >= 1")
    if not _is_seed(seed):
        raise SynthError(f"seed must be a non-negative integer, got {seed!r}")
    by_spk = _rows_by_class(build_global_view(data))
    records = data.records
    rng = np.random.default_rng(seed)
    enroll: dict[str, tuple[UtteranceRecord, ...]] = {}
    test_rows: list[int] = []
    excluded = 0
    need = n_enroll_per_spk + n_test_per_spk
    for spk in sorted(by_spk):
        rows = by_spk[spk]
        if len(rows) < need:
            excluded += 1
            continue
        rows = rows[rng.permutation(len(rows))].tolist()
        enroll[spk] = tuple(records[i] for i in rows[:n_enroll_per_spk])
        test_rows.extend(rows[n_enroll_per_spk:need])
    return EvalSplit(enroll=enroll, test=data._take(test_rows), n_excluded=excluded)
