"""Hot numeric kernels: per-class E-step statistics and per-trial scoring.

estep_stats(A, counts, F) -> (M, R2, ll_lat)
    A:      (K, q) projected class sums, a_i = V' Sigma^-1 s_i
    counts: (K,)   class sizes n_i
    F:      (q, q) V' Sigma^-1 V
    M:      (K, q) posterior means m_i = (I + n_i F)^-1 a_i
    R2:     (q, q) sum_i n_i ((I + n_i F)^-1 + m_i m_i')
    ll_lat: scalar sum_i (-1/2 logdet(I + n_i F) + 1/2 a_i . m_i)

score_trials(alpha, U, cidx, AT, beta, pm, pt) -> scores
    scores[i] = alpha[m] + beta[cidx[m], t] + U[m] . AT[t],  m = pm[i], t = pt[i]
"""
from __future__ import annotations

import numpy as np

# There is one (numpy) implementation of each kernel; perfbench's machine
# record reads this flag to report the kernel path.
HAS_NUMBA = False

_BLOCK = 1 << 20  # model x test scores computed at once (8 MB of float64)


def estep_stats(A, counts, F):
    K, q = A.shape
    M = np.empty_like(A)
    R2 = np.zeros((q, q))
    ll_lat = 0.0
    eye = np.eye(q)
    # classes sharing a size share the posterior covariance
    for n in np.unique(counts):
        idx = np.nonzero(counts == n)[0]
        P = eye + n * F
        Pinv = np.linalg.inv(P)
        sign, logdet = np.linalg.slogdet(P)
        Mn = A[idx] @ Pinv.T
        M[idx] = Mn
        R2 += n * (len(idx) * Pinv + Mn.T @ Mn)
        ll_lat += -0.5 * len(idx) * logdet + 0.5 * float(np.sum(A[idx] * Mn))
    return M, R2, ll_lat


def score_trials(alpha, U, cidx, AT, beta, pm, pt):
    """Builds the model x test score block a chunk of models at a time (one
    GEMM each) and reads every trial's score from its model's chunk, so a
    sparse key over many models and tests never needs the whole block."""
    out = np.empty(len(pm))
    if not len(pm):
        return out
    n_models, n_tests = len(alpha), AT.shape[0]
    order = np.argsort(pm, kind="stable")
    # order[starts[m]:starts[m + 1]] are the trials of model m
    starts = np.concatenate([[0], np.cumsum(np.bincount(pm, minlength=n_models))])
    step = max(1, _BLOCK // n_tests)
    for a in range(0, n_models, step):
        b = min(a + step, n_models)
        sel = order[starts[a]:starts[b]]
        if not len(sel):
            continue
        block = beta[cidx[a:b]]
        block += alpha[a:b, None]
        block += U[a:b] @ AT.T
        out[sel] = block[pm[sel] - a, pt[sel]]
    return out
