"""PLDA: EM training from a label view, marginal likelihoods, and LLR scoring.

Generative model per utterance vector w of speaker i:

    w = u + V y_i + z,   y_i ~ N(0, I_q),   z ~ N(0, Sigma)

The prior of y is fixed to the standard normal; any full-rank Gaussian prior
can be absorbed into u and V, and the convention makes V identifiable up to a
right-orthogonal rotation. All class-level likelihoods are computed in the
q-dimensional latent space (Woodbury), never materializing stacked covariances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import _kernels
from .data_model import Dataset, LabelView, _replacing, format_float
from .preprocess import Preprocessor

LOG_2PI = math.log(2.0 * math.pi)


class PldaError(Exception):
    pass


class ModelFormatError(PldaError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    latent_dim: int
    iterations: int
    seed: int
    min_class_size: int = 1
    loglik_tol: float = 1e-7

    def __post_init__(self):
        if self.iterations < 1:
            raise PldaError("iterations must be >= 1")
        if self.latent_dim < 0:
            raise PldaError("latent_dim must be >= 0")
        if self.min_class_size < 1:
            raise PldaError("min_class_size must be >= 1")


@dataclass(frozen=True)
class PldaModel:
    """Trained model parameters plus cached scoring matrices."""

    u: np.ndarray
    V: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        V = np.asarray(self.V, dtype=np.float64).reshape(u.shape[0], -1)
        S = np.asarray(self.Sigma, dtype=np.float64)
        d = u.shape[0]
        if V.shape[0] != d or S.shape != (d, d):
            raise PldaError("inconsistent parameter shapes")
        if V.shape[1] > d:
            raise PldaError(f"latent dimension {V.shape[1]} exceeds d={d}")
        for a in (u, V, S):
            if not np.all(np.isfinite(a)):
                raise PldaError("non-finite model parameters")
        rel = np.linalg.norm(S - S.T) / max(np.linalg.norm(S), 1e-300)
        if rel > 1e-10:
            raise PldaError(f"Sigma asymmetric (relative {rel:.2e})")
        S = 0.5 * (S + S.T)
        if np.linalg.eigvalsh(S)[0] <= 0:
            raise PldaError("Sigma is not positive definite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Sigma", S)

        chol = cho_factor(S, lower=True)
        logdet_sigma = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
        G = cho_solve(chol, V).T  # (q, d): G x = V' Sigma^-1 x
        F = G @ V
        F = 0.5 * (F + F.T)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_logdet_sigma", logdet_sigma)
        object.__setattr__(self, "_G", G)
        object.__setattr__(self, "_F", F)
        object.__setattr__(self, "_count_cache", {})

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.V.shape[1]

    @property
    def B(self) -> np.ndarray:
        """Across-class covariance V V'."""
        return self.V @ self.V.T

    @property
    def T(self) -> np.ndarray:
        """Total covariance B + Sigma."""
        return self.B + self.Sigma

    def count_terms(self, n: int):
        """(P_n^-1, logdet P_n) for the posterior precision P_n = I + n F."""
        hit = self._count_cache.get(n)
        if hit is not None:
            return hit
        q = self.latent_dim
        P = np.eye(q) + n * self._F
        Q = np.linalg.inv(P)
        logdet = float(np.linalg.slogdet(P)[1])
        self._count_cache[n] = (Q, logdet)
        return Q, logdet

    def project(self, centered: np.ndarray) -> np.ndarray:
        """a = V' Sigma^-1 x for a centered vector or batch of rows."""
        if centered.ndim == 1:
            return self._G @ centered
        return centered @ self._G.T


@dataclass(frozen=True)
class SpeakerPosterior:
    """Posterior of the latent speaker factor given enrollment vectors."""

    mean: np.ndarray
    cov: np.ndarray
    count: int


def speaker_posterior(model: PldaModel, vectors) -> SpeakerPosterior:
    X = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = X.shape[0]
    if n < 1:
        raise PldaError("posterior needs at least one vector")
    a = model.project(np.sum(X - model.u, axis=0))
    Q, _ = model.count_terms(n)
    return SpeakerPosterior(mean=Q @ a, cov=0.5 * (Q + Q.T), count=n)


def _class_loglik(model: PldaModel, X: np.ndarray) -> float:
    """Marginal log-density of one class of vectors (joint over the speaker)."""
    n, d = X.shape
    centered = X - model.u
    white = cho_solve(model._chol, centered.T)  # Sigma^-1 (w - u)
    maha = float(np.sum(centered.T * white))
    a = model.project(np.sum(centered, axis=0))
    Q, logdet_p = model.count_terms(n)
    return (
        -0.5 * n * d * LOG_2PI
        - 0.5 * n * model._logdet_sigma
        - 0.5 * maha
        - 0.5 * logdet_p
        + 0.5 * float(a @ Q @ a)
    )


def marginal_loglik(model: PldaModel, classes) -> float:
    """Sum of per-class marginal log-densities under the model."""
    total = 0.0
    for cls in classes:
        X = np.atleast_2d(np.asarray(cls, dtype=np.float64))
        if X.shape[1] != model.dim:
            raise PldaError(f"class vectors have dimension {X.shape[1]}, model {model.dim}")
        if not np.all(np.isfinite(X)):
            raise PldaError("non-finite vector in marginal_loglik")
        total += _class_loglik(model, X)
    return total


def score_llr(model: PldaModel, enroll, test) -> float:
    """Evidence ratio: same-speaker vs different-speaker log-likelihoods.

    Equals marginal_loglik(enroll + test) - marginal_loglik(enroll)
    - marginal_loglik(test); the shared Gaussian terms are cancelled
    analytically so batch and single scoring agree to the last bits.
    """
    E = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    t = np.asarray(test, dtype=np.float64)
    n = E.shape[0]
    if n < 1:
        raise PldaError("empty enrollment")
    if E.shape[1] != model.dim or t.shape != (model.dim,):
        raise PldaError("dimension mismatch in score_llr")
    a_e = model.project(np.sum(E - model.u, axis=0))
    a_t = model.project(t - model.u)
    Qn, Ln = model.count_terms(n)
    Qj, Lj = model.count_terms(n + 1)
    Q1, L1 = model.count_terms(1)
    joint = a_e + a_t
    return float(
        0.5 * (joint @ Qj @ joint - a_e @ Qn @ a_e - a_t @ Q1 @ a_t)
        - 0.5 * (Lj - Ln - L1)
    )


def score_trialset(model: PldaModel, enroll_models: dict, trials,
                   test_vectors: dict) -> np.ndarray:
    """Scores for every trial in a TrialSet, in trial order.

    enroll_models maps model id to its list of enrollment vectors;
    test_vectors maps test utt_id to its vector. All vectors must be
    preprocessed identically to training.
    """
    q = model.latent_dim
    model_ids = trials.model_ids
    test_ids = trials.test_utt_ids
    for mid in model_ids:
        if mid not in enroll_models:
            raise PldaError(f"unresolved enroll model id {mid!r}")
    for tid in test_ids:
        if tid not in test_vectors:
            raise PldaError(f"unresolved test utt_id {tid!r}")

    groups = [np.atleast_2d(np.asarray(enroll_models[m], dtype=np.float64))
              for m in model_ids]
    counts = np.array([len(g) for g in groups], dtype=np.int64)
    if np.any(counts < 1):
        raise PldaError("empty enrollment set")
    Mn, empty = len(model_ids), np.empty((0, model.dim))
    AE = model.project(np.stack([np.sum(g - model.u, axis=0) for g in groups])
                       if Mn else empty)
    AT = model.project((np.stack([test_vectors[t] for t in test_ids])
                        if test_ids else empty) - model.u)

    Q1, L1 = model.count_terms(1)
    distinct, cidx = np.unique(counts, return_inverse=True)
    alpha = np.empty(Mn)
    U = np.empty((Mn, q))
    beta = np.empty((len(distinct), AT.shape[0]))
    for i, n in enumerate(distinct.tolist()):
        Qn, Ln = model.count_terms(n)
        Qj, Lj = model.count_terms(n + 1)
        sel = cidx == i
        E = AE[sel]
        alpha[sel] = (
            0.5 * (np.einsum("mq,qr,mr->m", E, Qj, E)
                   - np.einsum("mq,qr,mr->m", E, Qn, E))
            - 0.5 * (Lj - Ln - L1)
        )
        U[sel] = E @ Qj.T
        beta[i] = 0.5 * np.einsum("tq,qr,tr->t", AT, Qj - Q1, AT)

    return _kernels.score_trials(alpha, U, cidx, AT, beta,
                                 trials.model_idx, trials.test_idx)


def _collect_classes(data: Dataset, view: LabelView, pp: Preprocessor | None,
                     min_class_size: int):
    by_utt = data.by_utt()
    rows = []
    counts = []
    for cid, members in view.classes.items():
        if len(members) < min_class_size:
            continue
        for utt in members:
            if utt not in by_utt:
                raise PldaError(f"label view references unknown utt_id {utt!r}")
            rows.append(by_utt[utt].vector)
        counts.append(len(members))
    if not rows:
        raise PldaError("no training vectors after class-size filtering")
    X = np.stack(rows)
    if pp is not None:
        X = pp.apply(X)
    return X, np.array(counts, dtype=np.int64)


def train_em(data: Dataset, view: LabelView, pp: Preprocessor | None,
             cfg: TrainConfig):
    """EM training; returns the model and per-iteration data log-likelihoods.

    The global mean u is the mean of all (preprocessed) training vectors and
    stays fixed; V and Sigma get the exact joint M-step, so the returned
    log-likelihood sequence is non-decreasing up to the Sigma eigenvalue floor.
    Pass pp=None to train on raw vectors.
    """
    X, counts = _collect_classes(data, view, pp, cfg.min_class_size)
    N, d = X.shape
    K = len(counts)
    q = cfg.latent_dim
    if K < 2:
        raise PldaError(f"need at least 2 classes, have {K}")
    if q > d:
        raise PldaError(f"latent_dim {q} exceeds data dimension {d}")

    u = X.mean(axis=0)
    Xc = X - u
    S_total = Xc.T @ Xc
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sums = np.add.reduceat(Xc, offsets, axis=0)  # (K, d) centered class sums

    rng = np.random.default_rng(cfg.seed)
    V = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, q))
    Sigma = S_total / N
    Sigma = _floor_spd(0.5 * (Sigma + Sigma.T), d)

    logliks: list[float] = []
    for it in range(cfg.iterations):
        chol = cho_factor(Sigma, lower=True)
        logdet_sigma = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
        G = cho_solve(chol, V).T
        F = G @ V
        F = 0.5 * (F + F.T)

        A = sums @ G.T
        M, R2, ll_lat = _kernels.estep_stats(A, counts, F)

        trace_term = float(np.trace(cho_solve(chol, S_total)))
        ll = -0.5 * N * d * LOG_2PI - 0.5 * N * logdet_sigma - 0.5 * trace_term + ll_lat
        if not math.isfinite(ll):
            raise PldaError(f"non-finite log-likelihood at iteration {it}")
        logliks.append(ll)
        # loglik_tol <= 0 disables early stopping
        if cfg.loglik_tol > 0 and len(logliks) >= 2:
            prev = logliks[-2]
            if ll - prev < cfg.loglik_tol * abs(prev):
                break

        # M-step (exact joint update of V and Sigma)
        R1 = sums.T @ M  # (d, q)
        if q > 0:
            V = np.linalg.solve(R2.T, R1.T).T
        Sigma = (S_total - V @ R1.T) / N
        Sigma = _floor_spd(0.5 * (Sigma + Sigma.T), d)
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(Sigma))):
            raise PldaError(f"non-finite parameter update at iteration {it}")

    return PldaModel(u=u, V=V, Sigma=Sigma), logliks


def _floor_spd(S: np.ndarray, d: int) -> np.ndarray:
    """Clamp eigenvalues below 1e-8 * trace/d to that floor."""
    floor = 1e-8 * np.trace(S) / d
    if floor <= 0:
        floor = 1e-12
    evals, evecs = np.linalg.eigh(S)
    if evals[0] >= floor:
        return S
    evals = np.maximum(evals, floor)
    return (evecs * evals) @ evecs.T


def _write_rows(fh, mat: np.ndarray):
    for row in np.atleast_2d(mat):
        fh.write(",".join(format_float(x) for x in row) + "\n")


def save_model(model: PldaModel, pp: Preprocessor, path) -> None:
    d, q = model.dim, model.latent_dim
    with _replacing(path) as fh:
        fh.write(f"#plda dim={d} q={q}\n")
        fh.write("u:\n")
        _write_rows(fh, model.u)
        fh.write("V:\n")
        _write_rows(fh, model.V.reshape(d, q))
        fh.write("Sigma:\n")
        _write_rows(fh, model.Sigma)
        fh.write("pp.mean:\n")
        _write_rows(fh, pp.mean)
        fh.write("pp.whitener:\n")
        _write_rows(fh, pp.whitener)


def _parse_rows(lines, start, n_rows, n_cols, path, section):
    vals = np.empty((n_rows, n_cols))
    for i in range(n_rows):
        idx = start + i
        if idx >= len(lines):
            raise ModelFormatError(f"{path}: section {section!r} truncated")
        parts = [p for p in lines[idx].split(",") if p != ""] if n_cols else []
        if n_cols == 0:
            if lines[idx].strip():
                raise ModelFormatError(f"{path}: section {section!r}: expected empty row")
            continue
        if len(parts) != n_cols:
            raise ModelFormatError(
                f"{path}: section {section!r} row {i}: expected {n_cols} values, "
                f"got {len(parts)}"
            )
        try:
            vals[i] = [float(p) for p in parts]
        except ValueError:
            raise ModelFormatError(
                f"{path}: section {section!r} row {i}: non-numeric value"
            ) from None
    return vals, start + n_rows


def load_model(path):
    """Read a model file; derived matrices are recomputed and re-validated."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#plda "):
        raise ModelFormatError(f"{path}: missing '#plda' header")
    try:
        fields = dict(kv.split("=") for kv in lines[0][len("#plda "):].split())
        d = int(fields["dim"])
        q = int(fields["q"])
    except (ValueError, KeyError):
        raise ModelFormatError(f"{path}: malformed header {lines[0]!r}") from None
    if d < 1 or q < 0:
        raise ModelFormatError(f"{path}: header needs dim >= 1 and q >= 0, "
                               f"got {lines[0]!r}")

    pos = 1
    arrays = {}
    for section, rows, cols in (
        ("u:", 1, d),
        ("V:", d, q),
        ("Sigma:", d, d),
        ("pp.mean:", 1, d),
        ("pp.whitener:", d, d),
    ):
        if pos >= len(lines) or lines[pos] != section:
            raise ModelFormatError(f"{path}: missing section {section!r}")
        arrays[section], pos = _parse_rows(lines, pos + 1, rows, cols, path, section)

    try:
        model = PldaModel(
            u=arrays["u:"][0],
            V=arrays["V:"].reshape(d, q),
            Sigma=arrays["Sigma:"],
        )
        pp = Preprocessor(
            mean=arrays["pp.mean:"][0],
            whitener=arrays["pp.whitener:"],
            fitted_on=0,
        )
    except Exception as e:
        raise ModelFormatError(f"{path}: {e}") from None
    return model, pp
