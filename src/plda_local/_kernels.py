"""Hot numeric kernels: per-class E-step statistics and per-trial scoring.

estep_stats(A, sizes, bounds, Pinv, logdet) -> (M, R2, ll_lat)
    A:      (K, q) projected class sums, a_i = V' Sigma^-1 s_i, with the
                   classes sorted by size
    sizes:  (S,)   the distinct class sizes
    bounds: (S+1,) rows bounds[j]:bounds[j+1] of A are the classes of size
                   sizes[j]
    Pinv:   (S, q, q) (I + sizes[j] F)^-1, with F = V' Sigma^-1 V
    logdet: (S,)   logdet(I + sizes[j] F); ``plda._posterior_terms`` gives
                   both, as it does to scoring
    M:      (K, q) posterior means m_i = (I + n_i F)^-1 a_i
    R2:     (q, q) sum_i n_i ((I + n_i F)^-1 + m_i m_i')
    ll_lat: scalar sum_i (-1/2 logdet(I + n_i F) + 1/2 a_i . m_i)

score_trials(alpha, U, cidx, AT, beta, trials) -> scores
    scores[i] = alpha[m] + beta[cidx[m], t] + U[m] . AT[t]
    where trial i of the TrialSet pairs model m with test t
"""
from __future__ import annotations

import numpy as np

# There is one (numpy) implementation of each kernel; perfbench's machine
# record reads this flag to report the kernel path.
HAS_NUMBA = False

_BLOCK = 1 << 20  # model x test scores computed at once (8 MB of float64)


def estep_stats(A, sizes, bounds, Pinv, logdet):
    # classes sharing a size share the posterior covariance, and each size's
    # classes are one contiguous slice of A
    q = A.shape[1]
    M = np.empty_like(A)
    R2 = np.zeros((q, q))
    for n, Pn, a, b in zip(sizes.tolist(), Pinv, bounds[:-1].tolist(), bounds[1:].tolist()):
        Mn = np.matmul(A[a:b], Pn.T, out=M[a:b])
        R2 += n * ((b - a) * Pn + Mn.T @ Mn)
    ll_lat = -0.5 * float(np.diff(bounds) @ logdet) + 0.5 * float(np.vdot(A, M))
    return M, R2, ll_lat


def score_trials(alpha, U, cidx, AT, beta, trials):
    """Builds the model x test score block a chunk of models at a time, one
    GEMM of the chunk against every test each. A product's chunk is written
    straight into its rows of the output; a keyed set gathers its trials
    from its models' chunk and skips a chunk with none. Both fill a chunk
    the same way, so a keyed set over a product's model and test lists gets
    the product's bits for every pair it holds."""
    out = np.empty(len(trials))
    if not len(out):
        return out
    n_models, n_tests = len(alpha), AT.shape[0]
    step = max(1, _BLOCK // n_tests)
    if not trials.is_product:
        pm, pt = trials.model_idx, trials.test_idx
        order = np.argsort(pm, kind="stable")
        # order[starts[m]:starts[m + 1]] are the trials of model m
        starts = np.concatenate([[0], np.cumsum(np.bincount(pm, minlength=n_models))])
    for a in range(0, n_models, step):
        b = min(a + step, n_models)
        if trials.is_product:  # the chunk's rows of the output
            block = out[a * n_tests:b * n_tests].reshape(b - a, n_tests)
        else:
            sel = order[starts[a]:starts[b]]
            if not len(sel):
                continue
            block = np.empty((b - a, n_tests))
        np.take(beta, cidx[a:b], axis=0, out=block)
        block += alpha[a:b, None]
        block += U[a:b] @ AT.T
        if not trials.is_product:
            out[sel] = block[pm[sel] - a, pt[sel]]
    return out
