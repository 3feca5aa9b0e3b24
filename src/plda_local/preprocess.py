"""I-vector conditioning: centering, whitening, length normalization, cosine.

The same fitted Preprocessor must be applied to training, enrollment, and test
vectors; mixing fits is a classic silent bug and the eval harness constructs
pipelines so it cannot happen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PreprocessError(Exception):
    pass


@dataclass(frozen=True)
class Preprocessor:
    """Fitted centering + whitening transform.

    ``whitener`` is the symmetric inverse principal square root of the
    (ridge-regularized) sample covariance, or the identity when whitening
    is disabled.
    """

    mean: np.ndarray
    whitener: np.ndarray
    fitted_on: int

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        W = np.asarray(self.whitener, dtype=np.float64)
        if not np.all(np.isfinite(W)) or not np.all(np.isfinite(m)):
            raise PreprocessError("non-finite preprocessor parameters")
        rel = np.linalg.norm(W - W.T) / max(np.linalg.norm(W), 1e-300)
        if rel > 1e-10:
            raise PreprocessError(f"whitener asymmetric (relative {rel:.2e})")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "whitener", W)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "Preprocessor":
        return cls(mean=np.zeros(dim), whitener=np.eye(dim), fitted_on=0)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Center, whiten and length-normalize one vector or a batch of row
        vectors."""
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise PreprocessError(
                f"vectors have shape {v.shape}, expected dimension {self.dim}")
        centered = (np.atleast_2d(v) - self.mean) @ self.whitener.T
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            bad = int(np.argmin(norms))
            raise PreprocessError(f"degenerate vector at batch index {bad}")
        out = centered / norms
        return out[0] if v.ndim == 1 else out


def fit(vectors, whiten: bool = True) -> Preprocessor:
    """Estimate the conditioning transform from a sample of vectors.

    The covariance gets a scale-aware ridge eps = 1e-6 * trace(Cov)/d so the
    inverse square root stays finite on rank-deficient samples.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise PreprocessError("need at least 2 vectors to fit a preprocessor")
    n, d = X.shape
    mean = X.mean(axis=0)
    if not whiten:
        return Preprocessor(mean=mean, whitener=np.eye(d), fitted_on=n)
    cov = np.cov(X, rowvar=False, ddof=1).reshape(d, d)
    eps = 1e-6 * np.trace(cov) / d
    if eps <= 0:
        eps = 1e-12
    evals, evecs = np.linalg.eigh(cov + eps * np.eye(d))
    if np.any(evals <= 0):
        raise PreprocessError("covariance not positive definite after ridge")
    W = (evecs / np.sqrt(evals)) @ evecs.T
    W = 0.5 * (W + W.T)
    return Preprocessor(mean=mean, whitener=W, fitted_on=n)


def cosine_score(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise PreprocessError("cosine score of a zero vector")
    return float(a @ b / (na * nb))
