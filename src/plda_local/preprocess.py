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


def _check_symmetric(M, name, error):
    """Raise ``error`` unless the finite matrix M is symmetric to 1e-10
    relative. M is scaled to a largest entry of 1, so that no norm
    overflows; a difference that overflows is asymmetry."""
    scale = np.max(np.abs(M)) or 1.0
    with np.errstate(over="ignore"):
        rel = np.linalg.norm((M - M.T) / scale) / max(np.linalg.norm(M / scale), 1e-300)
    if not rel <= 1e-10:
        raise error(f"{name} asymmetric (relative {rel:.2e})")


@dataclass(frozen=True)
class Preprocessor:
    """Fitted centering + whitening transform.

    ``whitener`` is the symmetric inverse principal square root of the
    (ridge-regularized) sample covariance, or the identity when whitening
    is disabled.
    """

    mean: np.ndarray
    whitener: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        W = np.asarray(self.whitener, dtype=np.float64)
        if not np.all(np.isfinite(W)) or not np.all(np.isfinite(m)):
            raise PreprocessError("non-finite preprocessor parameters")
        _check_symmetric(W, "whitener", PreprocessError)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "whitener", W)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "Preprocessor":
        return cls(mean=np.zeros(dim), whitener=np.eye(dim))

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Center, whiten and length-normalize one vector or a batch of row
        vectors."""
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise PreprocessError(
                f"vectors have shape {v.shape}, expected dimension {self.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            centered = (np.atleast_2d(v) - self.mean) @ self.whitener.T
            norms = np.linalg.norm(centered, axis=1, keepdims=True)
        usable = (norms >= 1e-12) & (norms < np.inf)  # NaN is neither
        if not usable.all():
            bad = int(np.argmin(usable))
            raise PreprocessError(f"vector at batch index {bad} has norm {norms[bad, 0]} "
                                  "after centering and whitening")
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
    d = X.shape[1]
    # finite vectors can still overflow a sum; what overflows is refused
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        if not whiten:
            return Preprocessor(mean=mean, whitener=np.eye(d))
        cov = np.cov(X, rowvar=False, ddof=1).reshape(d, d)
        eps = 1e-6 * np.trace(cov) / d
        ridged = cov + (eps if eps > 0 else 1e-12) * np.eye(d)
    if not np.all(np.isfinite(ridged)):
        raise PreprocessError("the sample covariance of the vectors overflows")
    evals, evecs = np.linalg.eigh(ridged)
    if np.any(evals <= 0):
        raise PreprocessError("covariance not positive definite after ridge")
    W = (evecs / np.sqrt(evals)) @ evecs.T
    W = 0.5 * (W + W.T)
    return Preprocessor(mean=mean, whitener=W)
