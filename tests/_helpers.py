"""Shared builders and independent oracles for the test suite.

Oracles here stay deliberately naive (dense covariances, exhaustive threshold
sweeps) so they cannot share a bug with the implementation paths they check.
"""
import numpy as np
from scipy.stats import multivariate_normal

from plda_local.data_model import (
    MISSING,
    DataError,
    Dataset,
    LabelView,
    ParseError,
    UtteranceRecord,
    _local_class,
)
from plda_local.eval_harness import EvalError, EvalReport
from plda_local.plda import PldaModel, score_trialset
from plda_local.synth import SynthConfig, sample_conversations, sample_truth


def random_model(rng, d, q, vscale=1.0):
    u = rng.normal(size=d)
    A = rng.normal(size=(d, d))
    Sigma = A @ A.T / d + 0.5 * np.eye(d)
    V = rng.normal(size=(d, q)) * vscale
    return PldaModel(u=u, V=V, Sigma=Sigma)


def corpus(seed, dim, q, nconv, slots=1, utts=1, rho=0.0, truth=None):
    cfg = SynthConfig(
        dim=dim,
        latent_dim=q,
        seed=seed,
        n_conversations=nconv,
        slots_per_conversation=slots,
        utts_per_slot=utts,
        recurrence=rho,
        truth=truth,
    )
    return sample_conversations(cfg)


def scaled_truth(seed, dim, q, vscale=1.0):
    t = sample_truth(SynthConfig(dim=dim, latent_dim=q, seed=seed, n_conversations=1))
    if vscale == 1.0:
        return t
    return PldaModel(u=t.u, V=t.V * vscale, Sigma=t.Sigma)


def sample_conversations_rows(cfg):
    """The conversation sampler written one utterance at a time: the
    reference for ``sample_conversations``'s draw order and bits. Returns
    (utt_ids, conv_ids, slots, speaker ids, vectors) as lists and a matrix."""
    truth = cfg.truth if cfg.truth is not None else sample_truth(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    chol = np.linalg.cholesky(truth.Sigma)
    tag = f"x{cfg.seed}"
    speakers_y = []
    rows, utt_ids, conv_ids, slots, spk_ids = [], [], [], [], []
    for c in range(cfg.n_conversations):
        in_conv = set()
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
                speakers_y.append(rng.standard_normal(cfg.latent_dim)
                                  if cfg.latent_dim > 0 else np.zeros(0))
            in_conv.add(spk)
            base = truth.u + truth.V @ speakers_y[spk]
            for _ in range(cfg.utts_per_slot):
                rows.append(base + chol @ rng.standard_normal(cfg.dim))
                utt_ids.append(f"{tag}u{len(utt_ids):07d}")
                conv_ids.append(f"{tag}c{c:05d}")
                slots.append(slot)
                spk_ids.append(f"{tag}s{spk:06d}")
    return utt_ids, conv_ids, slots, spk_ids, np.array(rows).reshape(-1, cfg.dim)


def local_class(record):
    """The local class id of a record, as ``build_local_view`` names it."""
    return _local_class(record.conv_id, record.slot)


def trial_indices(trials, start, stop):
    """Model and test indices of trials start..stop-1 of a TrialSet, as two
    lists."""
    mi, ti = trials._index_arrays(start, stop)
    return mi.tolist(), ti.tolist()


def trial_pairs(trials):
    """(model_id, test_utt_id) of every trial of a TrialSet, in trial order."""
    mi, ti = trial_indices(trials, 0, len(trials))
    return list(zip(map(trials.model_ids.__getitem__, mi),
                    map(trials.test_utt_ids.__getitem__, ti)))


def score_from_dicts(model, enroll, trials, tests):
    """``score_trialset`` over {model id: its rows} and {test id: its row},
    stacked in the trial set's id order."""
    groups = [np.atleast_2d(enroll[m]) for m in trials.model_ids]
    E = np.concatenate(groups) if groups else np.empty((0, model.dim))
    T = np.array([tests[t] for t in trials.test_utt_ids]).reshape(-1, model.dim)
    return score_trialset(model, E, [len(g) for g in groups], trials, T)


def read_scores(path):
    """(model_id, test_utt_id, score) rows of a scores file, in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline() == "model_id,test_utt_id,score\n"
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return [(mid, tid, float(s)) for mid, tid, s in rows]


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _trial_id_pairs(trials):
    """(model_id, test_utt_id) of every trial in trial order, enumerated
    from the set's own arrays: model-major for a product."""
    if trials.is_product:
        return [(m, t) for m in trials.model_ids for t in trials.test_utt_ids]
    return [(trials.model_ids[m], trials.test_utt_ids[t])
            for m, t in zip(trials.model_idx.tolist(), trials.test_idx.tolist())]


def write_scores_rows(trials, scores, path):
    """A scores file written one repr'd row at a time: the reference for
    ``write_scores``'s bytes."""
    _write_lines(path, ["model_id,test_utt_id,score\n"] + [
        f"{m},{t},{v!r}\n"
        for (m, t), v in zip(_trial_id_pairs(trials), np.asarray(scores, float).tolist())])


def write_key_rows(trials, path):
    """The reference for ``write_key``'s bytes."""
    _write_lines(path, ["model_id,test_utt_id,key\n"] + [
        f"{m},{t},{'target' if y else 'nontarget'}\n"
        for (m, t), y in zip(_trial_id_pairs(trials), trials.target.tolist())])


def write_dataset_rows(data, path):
    """The reference for ``write_dataset``'s bytes."""
    _write_lines(path, [f"#dim={data.dim}\n"] + [
        f"{r.utt_id},{r.conv_id},{r.slot},{MISSING if r.global_spk is None else r.global_spk},"
        + ",".join(map(repr, r.vector.tolist())) + "\n"
        for r in data.records])


def report_with_det(eer, threshold, det_points, n_target, n_nontarget):
    """An EvalReport of n_target and n_nontarget zero scores that reads and
    writes the given DET points in place of the curve its scores give: a
    cached property returns the value already in the instance dict."""
    report = EvalReport(eer=eer, threshold=threshold, target_scores=np.zeros(n_target),
                        nontarget_scores=np.zeros(n_nontarget))
    report.__dict__["det_points"] = np.asarray(det_points)
    return report


def write_report_rows(report, path):
    """The reference for ``write_report``'s bytes for an EvalReport."""
    det = np.asarray(report.det_points, dtype=np.float64)
    _write_lines(path, [
        "metric,value\n",
        f"eer,{float(report.eer)!r}\n",
        f"threshold,{float(report.threshold)!r}\n",
        f"n_target,{report.n_target}\n",
        f"n_nontarget,{report.n_nontarget}\n",
        "det_far,det_miss\n",
    ] + [f"{far!r},{miss!r}\n" for far, miss in det.tolist()])


def save_model_rows(model, pp, path):
    """The reference for ``save_model``'s bytes."""
    d, q = model.dim, model.latent_dim
    lines = [f"#plda dim={d} q={q}\n"]
    for name, mat in (("u", model.u), ("V", model.V.reshape(d, q)), ("Sigma", model.Sigma),
                      ("pp.mean", pp.mean), ("pp.whitener", pp.whitener)):
        lines.append(f"{name}:\n")
        lines += [",".join(map(repr, row)) + "\n" for row in np.atleast_2d(mat).tolist()]
    _write_lines(path, lines)


def read_dataset_rows(path):
    """A corpus file read one row at a time into records, each checked as
    it is built: the reference for ``read_dataset``'s values and errors."""
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


def read_key_rows(path, model_ids, test_ids):
    """A key file read one row at a time, the reference for ``read_key``:
    (model index, test index, target) with ids numbered by their places in
    ``model_ids`` and ``test_ids``, or the EvalError it raises."""
    labels = ("target", "nontarget")
    pairs = []
    key = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(",")
            if lineno == 1 and parts[-1] not in labels:
                continue  # header
            if len(parts) != 3 or parts[2] not in labels:
                raise EvalError(f"{path}: line {lineno}: malformed key row")
            pairs.append((parts[0], parts[1]))
            key[(parts[0], parts[1])] = parts[2] == "target"
    for side, ids, what in ((0, model_ids, "enroll model id"), (1, test_ids, "test utt_id")):
        for pair in pairs:
            if pair[side] not in ids:
                raise EvalError(f"unresolved {what} {pair[side]!r}")
    if len(set(pairs)) != len(pairs):
        raise EvalError("duplicate trial pairs")
    return ([model_ids.index(m) for m, _ in pairs], [test_ids.index(t) for _, t in pairs],
            [key[p] for p in pairs])


def label_view(strategy, classes, utt_ids=None):
    """The LabelView of a {class id: member utt_ids} partition over the rows
    ``utt_ids``, by default the members class by class; a row in no class
    gets code -1."""
    if utt_ids is None:
        utt_ids = tuple(u for members in classes.values() for u in members)
    row = {u: i for i, u in enumerate(utt_ids)}
    codes = [-1] * len(utt_ids)
    for k, members in enumerate(classes.values()):
        for u in members:
            codes[row[u]] = k
    return LabelView(strategy, tuple(utt_ids), tuple(classes), np.array(codes, dtype=np.int64))


def classes(view):
    """A label view as {class id: member utt_ids}, classes in view order and
    members in row order."""
    members = {k: [] for k in range(view.n_classes)}
    for u, k in zip(view.utt_ids, view.codes.tolist()):
        if k >= 0:
            members[k].append(u)
    return {view.names[k]: tuple(m) for k, m in members.items()}


def member_count(view):
    """Utterances a label view assigns to some class."""
    return sum(len(m) for m in classes(view).values())


def partition(view):
    """A label view's class memberships as an id-free set partition."""
    return {frozenset(m) for m in classes(view).values()}


def partition_by(keys, utt_ids):
    """{key: utt_ids of its rows}, keys in order of first appearance."""
    out = {}
    for key, u in zip(keys, utt_ids):
        out.setdefault(key, []).append(u)
    return {k: tuple(v) for k, v in out.items()}


def draw_partition(rng, n, classes):
    """n classes of a {class id: members} partition, drawn without
    replacement from its sorted class ids, in the order drawn: the
    reference for a sweep cell's draw."""
    names = sorted(classes)
    return {names[i]: classes[names[i]] for i in rng.choice(len(names), size=n, replace=False)}


def collect_classes_rows(data, classes):
    """(X, counts) that EM trains on under a {class id: member utt_ids}
    partition: classes in a stable sort of their sizes in partition order,
    members in partition order. The reference for ``_class_stats``, which
    reduces these rows to statistics."""
    row = {u: i for i, u in enumerate(data.utt_ids)}
    members = list(classes.values())
    counts = np.array([len(m) for m in members], dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    rows = [row[u] for i in order.tolist() for u in members[i]]
    return data.vectors()[rows], counts[order]


def between_cov(model):
    """A model's across-class covariance V V'."""
    return model.V @ model.V.T


def _solve_longdouble(A, B):
    """(A^-1 B, log|det A|) by Gauss-Jordan elimination with partial
    pivoting, in np.longdouble."""
    A = np.array(A, dtype=np.longdouble)
    B = np.array(B, dtype=np.longdouble).reshape(len(A), -1)
    logdet = np.longdouble(0)
    for j in range(len(A)):
        p = j + int(np.argmax(np.abs(A[j:, j])))
        A[[j, p]], B[[j, p]] = A[[p, j]], B[[p, j]]
        logdet += np.log(np.abs(A[j, j]))
        B[j] /= A[j, j]
        A[j] /= A[j, j]
        for i in range(len(A)):
            if i != j:
                B[i] -= A[i, j] * B[j]
                A[i] -= A[i, j] * A[j]
    return B, logdet


def llr_longdouble(model, enroll, test):
    """score_llr's latent-space formula in np.longdouble: with G = V'
    Sigma^-1, a_e = G sum(e - u), a_t = G (t - u) and P_n = I + n G V,
    score = 1/2 (j' P_{n+1}^-1 j - a_e' P_n^-1 a_e - a_t' P_1^-1 a_t)
          - 1/2 (log|P_{n+1}| - log|P_n| - log|P_1|),  j = a_e + a_t."""
    E = np.atleast_2d(np.asarray(enroll)).astype(np.longdouble)
    t = np.asarray(test).astype(np.longdouble)
    u = model.u.astype(np.longdouble)
    V = model.V.astype(np.longdouble)
    G = _solve_longdouble(model.Sigma, V)[0].T
    F = G @ V
    n = len(E)
    a_e = G @ (E.sum(axis=0) - n * u)
    a_t = G @ (t - u)
    eye = np.eye(len(F), dtype=np.longdouble)
    quad, logdets = [], []
    for k, a in ((n + 1, a_e + a_t), (n, a_e), (1, a_t)):
        x, logdet = _solve_longdouble(eye + k * F, a)
        quad.append(a @ x[:, 0])
        logdets.append(logdet)
    return (0.5 * (quad[0] - quad[1] - quad[2])
            - 0.5 * (logdets[0] - logdets[1] - logdets[2]))


def dense_class_loglik(model, X):
    """Marginal log-density of one class via the explicit stacked Gaussian."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    B = model.V @ model.V.T
    cov = np.kron(np.ones((n, n)), B) + np.kron(np.eye(n), model.Sigma)
    return float(
        multivariate_normal.logpdf(X.ravel(), mean=np.tile(model.u, n), cov=cov)
    )


def dense_llr(model, enroll, test):
    E = np.atleast_2d(np.asarray(enroll, dtype=float))
    t = np.asarray(test, dtype=float)
    joint = np.vstack([E, t])
    return (
        dense_class_loglik(model, joint)
        - dense_class_loglik(model, E)
        - dense_class_loglik(model, t[None, :])
    )


def cosine_score(a, b) -> float:
    """Cosine of the angle between two non-zero vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise ValueError("cosine score of a zero vector")
    return float(a @ b / (na * nb))


def target_mask_pairwise(model_ids, test_speakers):
    """The (models, tests) mask of target trials, one ``==`` per model id
    and test speaker: the reference for ``generate_trials``' mask."""
    return np.array([[m == s for s in test_speakers] for m in model_ids],
                    dtype=bool).reshape(len(model_ids), len(test_speakers))


def det_curve_searchsorted(target_scores, nontarget_scores):
    """(thresholds, FAR, FRR) with each rate counted by a binary search of
    every distinct score in its sorted side: the reference for
    ``det_curve``, sentinels included."""
    ts = np.sort(np.asarray(target_scores, dtype=np.float64))
    ns = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    uniq = np.unique(np.concatenate([ts, ns]))
    thresholds = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    far = 1.0 - np.searchsorted(ns, thresholds, side="left") / len(ns)
    frr = np.searchsorted(ts, thresholds, side="left") / len(ts)
    return thresholds, far, frr


def eer_crossing_scan(thresholds, far, frr):
    """(eer, threshold) of a DET curve found by a scan of every point: the
    last point before the final one where FAR - FRR >= 0, interpolated
    linearly to the point after it. The reference for the bisection that
    ``compute_eer`` and ``eval_report`` run."""
    diff = far - frr
    k = int(np.nonzero(diff[:-1] >= 0)[0][-1])
    denom = diff[k] - diff[k + 1]
    alpha = 0.0 if denom == 0 else diff[k] / denom
    return (float(far[k] + alpha * (far[k + 1] - far[k])),
            float(thresholds[k] + alpha * (thresholds[k + 1] - thresholds[k])))


def eer_oracle(target_scores, nontarget_scores):
    """Exhaustive midpoint-threshold sweep with the same interpolation rule.

    Candidate thresholds sit strictly between consecutive distinct scores
    (plus sentinels outside the range); a score exactly at the threshold
    counts as an accept.
    """
    ts = np.asarray(target_scores, dtype=float)
    ns = np.asarray(nontarget_scores, dtype=float)
    uniq = np.unique(np.concatenate([ts, ns]))
    cands = np.concatenate([
        [uniq[0] - 1.0],
        (uniq[:-1] + uniq[1:]) / 2.0,
        [uniq[-1] + 1.0],
    ])
    far = (ns[None, :] >= cands[:, None]).mean(axis=1)
    frr = (ts[None, :] < cands[:, None]).mean(axis=1)
    diff = far - frr
    for k in range(len(cands) - 1):
        if diff[k] >= 0 and diff[k + 1] <= 0:
            denom = diff[k] - diff[k + 1]
            alpha = 0.0 if denom == 0 else diff[k] / denom
            return (
                float(far[k] + alpha * (far[k + 1] - far[k])),
                float(cands[k] + alpha * (cands[k + 1] - cands[k])),
            )
    raise AssertionError("no FAR/FRR crossing found")
