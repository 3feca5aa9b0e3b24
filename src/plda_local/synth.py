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

from .data_model import Dataset, UtteranceRecord, group_by_speaker
from .plda import PldaModel


class SynthError(Exception):
    pass


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
    """Simulate conversations and emit one record per utterance.

    Within a conversation all slots hold distinct speakers; a recurrence draw
    that collides with a speaker already in the conversation is redrawn, with a
    fresh-speaker fallback after 100 attempts.
    """
    truth = cfg.truth if cfg.truth is not None else sample_truth(cfg)
    if truth.dim != cfg.dim or truth.latent_dim != cfg.latent_dim:
        raise SynthError("truth model shape does not match config")
    rng = np.random.default_rng([cfg.seed, 1])
    chol = np.linalg.cholesky(truth.Sigma)

    # ids carry the seed so corpora drawn with different seeds can be merged
    tag = f"x{cfg.seed}"
    speakers_y: list[np.ndarray] = []  # latent factor per speaker, by index
    records = []
    utt_counter = 0
    for c in range(cfg.n_conversations):
        conv_id = f"{tag}c{c:05d}"
        in_conv: set[int] = set()
        for slot in range(cfg.slots_per_conversation):
            reuse = speakers_y and rng.random() < cfg.recurrence
            spk = -1
            if reuse:
                for _ in range(100):
                    cand = int(rng.integers(len(speakers_y)))
                    if cand not in in_conv:
                        spk = cand
                        break
            if spk < 0:
                spk = len(speakers_y)
                if cfg.latent_dim > 0:
                    speakers_y.append(rng.standard_normal(cfg.latent_dim))
                else:
                    speakers_y.append(np.zeros(0))
            in_conv.add(spk)
            base = truth.u + truth.V @ speakers_y[spk]
            for j in range(cfg.utts_per_slot):
                z = chol @ rng.standard_normal(cfg.dim)
                records.append(
                    UtteranceRecord(
                        utt_id=f"{tag}u{utt_counter:07d}",
                        conv_id=conv_id,
                        slot=slot,
                        global_spk=f"{tag}s{spk:06d}",
                        vector=base + z,
                    )
                )
                utt_counter += 1
    return Dataset(cfg.dim, tuple(records))


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
    by_spk = group_by_speaker(data)
    rng = np.random.default_rng(seed)
    enroll: dict[str, tuple[UtteranceRecord, ...]] = {}
    test_records: list[UtteranceRecord] = []
    excluded = 0
    need = n_enroll_per_spk + n_test_per_spk
    for spk in sorted(by_spk):
        utts = by_spk[spk]
        if len(utts) < need:
            excluded += 1
            continue
        order = rng.permutation(len(utts))
        enroll[spk] = tuple(utts[i] for i in order[:n_enroll_per_spk])
        test_records.extend(
            utts[i] for i in order[n_enroll_per_spk:need]
        )
    return EvalSplit(
        enroll=enroll,
        test=Dataset(data.dim, tuple(test_records)),
        n_excluded=excluded,
    )
