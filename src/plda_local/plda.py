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

from . import _kernels
from .data_model import Dataset, LabelView, _is_seed, _read_text, _replacing, _text_rows
from .preprocess import Preprocessor, _check_symmetric

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
    loglik_tol: float = 1e-7

    def __post_init__(self):
        if not _is_seed(self.seed):
            raise PldaError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.iterations < 1:
            raise PldaError("iterations must be >= 1")
        if self.latent_dim < 0:
            raise PldaError("latent_dim must be >= 0")


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
        _check_symmetric(S, "Sigma", PldaError)
        S = 0.5 * (S + S.T)
        with np.errstate(over="ignore", invalid="ignore"):
            logdet_sigma, _, G, F = _sigma_terms(S, V)
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(F))):
            raise PldaError("V' Sigma^-1 or V' Sigma^-1 V is not finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Sigma", S)
        object.__setattr__(self, "_logdet_sigma", logdet_sigma)
        object.__setattr__(self, "_G", G)
        object.__setattr__(self, "_F", F)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.V.shape[1]

    def project(self, centered: np.ndarray) -> np.ndarray:
        """a = V' Sigma^-1 x for a centered vector or batch of rows."""
        if centered.ndim == 1:
            return self._G @ centered
        return centered @ self._G.T


def _sigma_terms(Sigma: np.ndarray, V: np.ndarray):
    """(logdet Sigma, Sigma^-1, G = V' Sigma^-1, F = G V) for a symmetric
    Sigma, from its one Cholesky factor L: the factorization checks that
    Sigma is positive definite, its diagonal gives the log-determinant, and
    Sigma^-1 = L^-T L^-1 comes out symmetric."""
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise PldaError("Sigma is not positive definite") from None
    logdet_sigma = 2.0 * float(np.sum(np.log(np.diag(L))))
    L_inv = np.linalg.inv(L)
    Sigma_inv = L_inv.T @ L_inv
    G = V.T @ Sigma_inv  # (q, d): G x = V' Sigma^-1 x
    F = G @ V
    return logdet_sigma, Sigma_inv, G, 0.5 * (F + F.T)


def _posterior_terms(F: np.ndarray, ns):
    """(Q, L) for the posterior precisions P_n = I + n F of a latent factor
    given n utterances, one per count in ``ns``: the stacks Q[k] = P^-1 and
    L[k] = log det P. An overflowing P raises, naming its smallest count."""
    ns = np.asarray(ns, dtype=np.int64)
    with np.errstate(over="ignore"):
        P = np.eye(len(F)) + ns[:, None, None] * F
    # a finite P has eigenvalues >= 1, so a finite inverse and log-determinant
    finite = np.isfinite(P).all(axis=(1, 2))
    if not finite.all():
        raise PldaError(f"I + n V' Sigma^-1 V overflows at n={ns[~finite].min()} utterances")
    return np.linalg.inv(P), np.linalg.slogdet(P)[1]


def score_llr(model: PldaModel, enroll, test) -> float:
    """Evidence ratio: same-speaker vs different-speaker log-likelihoods.

    log p(enroll, test | one speaker) - log p(enroll) - log p(test) under
    the model's marginal densities. The Gaussian terms the three densities
    share cancel analytically, so only latent-space terms are computed.
    A score that is not finite raises.
    """
    E = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    t = np.asarray(test, dtype=np.float64)
    n = E.shape[0]
    if n < 1:
        raise PldaError("empty enrollment")
    if E.shape[1] != model.dim or t.shape != (model.dim,):
        raise PldaError("dimension mismatch in score_llr")
    (Qn, Qj, Q1), (Ln, Lj, L1) = _posterior_terms(model._F, [n, n + 1, 1])
    # finite rows and a finite model can still overflow; the score says so
    with np.errstate(over="ignore", invalid="ignore"):
        a_e = model.project(np.sum(E - model.u, axis=0))
        a_t = model.project(t - model.u)
        joint = a_e + a_t
        score = float(
            0.5 * (joint @ Qj @ joint - a_e @ Qn @ a_e - a_t @ Q1 @ a_t)
            - 0.5 * (Lj - Ln - L1)
        )
    if not math.isfinite(score):
        raise PldaError("non-finite score")
    return score


def score_trialset(model: PldaModel, enroll, counts, trials, test) -> np.ndarray:
    """Scores for every trial in a TrialSet, in trial order.

    ``enroll`` holds the enrollment rows model by model, ``counts[m]`` of
    them for trials.model_ids[m]; ``test`` holds one row per test of
    trials.test_utt_ids, in that order. All rows must be preprocessed
    identically to training. A score that is not finite raises.
    """
    q = model.latent_dim
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 1):
        raise PldaError("empty enrollment set")
    if (len(counts), counts.sum(), len(test)) != (
            len(trials.model_ids), len(enroll), len(trials.test_utt_ids)):
        raise PldaError("enrollment and test rows do not match the trial set's ids")
    Mn = len(counts)
    distinct, cidx = np.unique(counts, return_inverse=True)
    k = len(distinct)
    # one call for every count, so that an overflow names the smallest, as in score_llr
    Q, L = _posterior_terms(model._F, np.concatenate([distinct, distinct + 1, [1]]))
    Q1, L1 = Q[-1], L[-1]
    alpha = np.empty(Mn)
    U = np.empty((Mn, q))
    # finite rows and a finite model can still overflow; the scores say so
    with np.errstate(over="ignore", invalid="ignore"):
        AE = model.project(np.add.reduceat(enroll - model.u, np.cumsum(counts) - counts, axis=0))
        AT = model.project(test - model.u)
        beta = np.empty((k, AT.shape[0]))
        for i in range(k):
            Qn, Ln, Qj, Lj = Q[i], L[i], Q[k + i], L[k + i]
            sel = cidx == i
            E = AE[sel]
            alpha[sel] = (
                0.5 * (np.einsum("mq,qr,mr->m", E, Qj, E)
                       - np.einsum("mq,qr,mr->m", E, Qn, E))
                - 0.5 * (Lj - Ln - L1)
            )
            U[sel] = E @ Qj.T
            beta[i] = 0.5 * np.einsum("tq,qr,tr->t", AT, Qj - Q1, AT)
        scores = _kernels.score_trials(alpha, U, cidx, AT, beta, trials)
    if not np.isfinite(scores).all():
        raise PldaError("non-finite score")
    return scores


def _class_stats(data: Dataset, view: LabelView, pp: Preprocessor | None):
    """(u, S_total, sums, counts): the mean u of the (preprocessed) rows the
    view covers, the scatter S_total of those rows centered at u, and each
    class's centered sum and size, the classes in ascending order of size,
    ties in view order. Each class sum adds its rows in dataset order."""
    if view.utt_ids != data.utt_ids:
        raise PldaError("the label view is not over the rows of the training data")
    if view.n_classes < 2:
        raise PldaError(f"need at least 2 classes, have {view.n_classes}")
    X, codes = data.vectors(), view.codes
    covered = codes >= 0
    if not covered.all():  # rows in no class go, before the preprocessor sees them
        X, codes = X[covered], codes[covered]
    if pp is not None:
        X = pp.apply(X)
    u = X.mean(axis=0)
    Xc = X - u
    K = view.n_classes
    counts = np.bincount(codes, minlength=K)
    sums = np.stack([np.bincount(codes, weights=col, minlength=K) for col in Xc.T], axis=1)
    order = np.argsort(counts, kind="stable")
    return u, Xc.T @ Xc, sums[order], counts[order]


def train_em(data: Dataset, view: LabelView, pp: Preprocessor | None,
             cfg: TrainConfig):
    """EM training; returns the model and per-iteration data log-likelihoods.

    The global mean u is the mean of the (preprocessed) rows the view covers
    and stays fixed; V and Sigma get the exact joint M-step, so the returned
    log-likelihood sequence is non-decreasing up to the Sigma eigenvalue floor.
    Pass pp=None to train on raw vectors.
    """
    u, S_total, sums, counts = _class_stats(data, view, pp)
    N, d = int(counts.sum()), len(u)
    q = cfg.latent_dim
    if q > d:
        raise PldaError(f"latent_dim {q} exceeds data dimension {d}")

    # the classes come sorted by size: classes bounds[j]:bounds[j + 1] have
    # size sizes[j]
    bounds = np.flatnonzero(np.concatenate([[True], counts[1:] != counts[:-1], [True]]))
    sizes = counts[bounds[:-1]]

    rng = np.random.default_rng(cfg.seed)
    V = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, q))
    Sigma = S_total / N
    Sigma = _floor_spd(0.5 * (Sigma + Sigma.T), d)

    logliks: list[float] = []
    for it in range(cfg.iterations):
        logdet_sigma, Sigma_inv, G, F = _sigma_terms(Sigma, V)
        A = sums @ G.T
        M, R2, ll_lat = _kernels.estep_stats(A, sizes, bounds,
                                             *_posterior_terms(F, sizes))

        # trace(Sigma^-1 S_total), both matrices symmetric
        trace_term = float(np.vdot(Sigma_inv, S_total))
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
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(Sigma))):
            raise PldaError(f"non-finite parameter update at iteration {it}")
        Sigma = _floor_spd(0.5 * (Sigma + Sigma.T), d)

    return PldaModel(u=u, V=V, Sigma=Sigma), logliks


def _floor_spd(S: np.ndarray, d: int) -> np.ndarray:
    """Clamp eigenvalues below 1e-8 * trace/d to that floor."""
    floor = 1e-8 * np.trace(S) / d
    if floor <= 0:
        floor = 1e-12
    # Almost no Sigma clamps, and a Cholesky factorization costs a fraction
    # of eigh. When the factorization of A = S - 2 floor I runs to the end,
    # its factor is the exact one of A + E, where ||E||_2 <= d (d+1) u ||A + E||_2
    # and u = 2**-53 (Higham, "Accuracy and Stability of Numerical
    # Algorithms", Thm 10.3). A + E is positive definite, so ||A + E||_2 <=
    # trace(A + E) <= trace(S) + d ||E||_2 = 1e8 d floor + d ||E||_2, which
    # gives ||E||_2 <= 1.2e-8 d**2 (d+1) floor: under half a floor for d up
    # to 300. So the smallest eigenvalue of S is above 1.5 floor, eigh's
    # differs from it by about d u ||S||_2, and eigh would keep S too.
    try:
        np.linalg.cholesky(S - 2 * floor * np.eye(d))
        return S
    except np.linalg.LinAlgError:
        pass
    evals, evecs = np.linalg.eigh(S)
    if evals[0] >= floor:
        return S
    evals = np.maximum(evals, floor)
    return (evecs * evals) @ evecs.T


def _write_rows(fh, mat: np.ndarray):
    fh.writelines(_text_rows(np.atleast_2d(np.asarray(mat, dtype=np.float64))))


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
    """The matrix on lines start.., allocated once all its rows parse."""
    rows = []
    for i, line in enumerate(lines[start:start + n_rows]):
        if n_cols == 0 and line.strip():
            raise ModelFormatError(f"{path}: section {section!r}: expected empty row")
        parts = [p for p in line.split(",") if p != ""] if n_cols else []
        if len(parts) != n_cols:
            raise ModelFormatError(
                f"{path}: section {section!r} row {i}: expected {n_cols} values, "
                f"got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ModelFormatError(
                f"{path}: section {section!r} row {i}: non-numeric value"
            ) from None
    return np.array(rows, dtype=np.float64).reshape(n_rows, n_cols), start + n_rows


def load_model(path):
    """Read a model file; derived matrices are recomputed and re-validated."""
    lines = _read_text(path, ModelFormatError).splitlines()
    if not lines or not lines[0].startswith("#plda "):
        raise ModelFormatError(f"{path}: missing '#plda' header")
    try:
        fields = dict(kv.split("=") for kv in lines[0][len("#plda "):].split())
        d = int(fields["dim"])
        q = int(fields["q"])
    except (ValueError, KeyError):
        raise ModelFormatError(f"{path}: malformed header {lines[0]!r}") from None
    if d < 1 or not 0 <= q <= d:
        raise ModelFormatError(f"{path}: header needs dim >= 1 and 0 <= q <= dim, "
                               f"got {lines[0]!r}")

    # the header, five section names and 3d + 2 rows, counted before
    # anything is allocated from the header
    if len(lines) != 3 * d + 8:
        raise ModelFormatError(
            f"{path}: {'truncated' if len(lines) < 3 * d + 8 else 'trailing content'}: "
            f"a dim={d} model has {3 * d + 8} lines, this file {len(lines)}")

    pos = 1
    arrays = {}
    for section, rows, cols in (
        ("u:", 1, d),
        ("V:", d, q),
        ("Sigma:", d, d),
        ("pp.mean:", 1, d),
        ("pp.whitener:", d, d),
    ):
        if lines[pos] != section:
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
        )
    except Exception as e:
        raise ModelFormatError(f"{path}: {e}") from None
    return model, pp
