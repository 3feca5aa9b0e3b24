"""Trial construction, EER computation, strategy comparison, and sweeps.

Strategies mirror the training regimes under comparison: GT (global labels),
LT (local labels), Pool (disjoint union of both), and a cosine baseline that
skips PLDA training entirely. Every comparison scores one fixed trial set so
differences are purely training-side.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, plda, preprocess
from .data_model import (
    Dataset,
    LabelView,
    build_global_view,
    build_local_view,
    build_pooled_view,
    _replacing,
    format_float,
    merge_datasets,
)
from .plda import TrainConfig, train_em


class EvalError(Exception):
    pass


class TrialSet:
    """Ordered (model_id, test_utt_id) trials with target/nontarget keys.

    Stored as index arrays into the model and test id lists so that
    million-trial cross products stay cheap.
    """

    def __init__(self, model_ids, test_utt_ids, model_idx, test_idx, target):
        self.model_ids = list(model_ids)
        self.test_utt_ids = list(test_utt_ids)
        self.model_idx = np.asarray(model_idx, dtype=np.int64)
        self.test_idx = np.asarray(test_idx, dtype=np.int64)
        self.target = np.asarray(target, dtype=bool)
        if not (len(self.model_idx) == len(self.test_idx) == len(self.target)):
            raise EvalError("trial arrays have inconsistent lengths")
        for idx, ids in ((self.model_idx, self.model_ids),
                         (self.test_idx, self.test_utt_ids)):
            if len(idx) and not (0 <= idx.min() and idx.max() < len(ids)):
                raise EvalError("trial index out of range")
        codes = self.model_idx * len(self.test_utt_ids) + self.test_idx
        codes.sort()
        if np.any(codes[1:] == codes[:-1]):
            raise EvalError("duplicate trial pairs")

    def __len__(self):
        return len(self.model_idx)

    @property
    def n_target(self) -> int:
        return int(np.count_nonzero(self.target))

    @property
    def n_nontarget(self) -> int:
        return len(self) - self.n_target

    def iter_trials(self):
        return zip(map(self.model_ids.__getitem__, self.model_idx.tolist()),
                   map(self.test_utt_ids.__getitem__, self.test_idx.tolist()))

    @classmethod
    def from_pairs(cls, trials, key) -> "TrialSet":
        """Build from an explicit trial list and a (model, utt) -> bool key."""
        model_ids, test_ids = [], []
        mpos, tpos = {}, {}
        mi, ti, tg = [], [], []
        for m, t in trials:
            if m not in mpos:
                mpos[m] = len(model_ids)
                model_ids.append(m)
            if t not in tpos:
                tpos[t] = len(test_ids)
                test_ids.append(t)
            if (m, t) not in key:
                raise EvalError(f"trial ({m}, {t}) has no key entry")
            mi.append(mpos[m])
            ti.append(tpos[t])
            tg.append(bool(key[(m, t)]))
        return cls(model_ids, test_ids, mi, ti, tg)


def generate_trials(enroll_ids, test: Dataset, key_source: dict) -> TrialSet:
    """Full cross product of enroll models and test utterances, model-major.

    A trial is target iff the test utterance's true speaker (key_source)
    equals the enroll model's speaker id.
    """
    model_ids = list(enroll_ids)
    test_ids = [r.utt_id for r in test.records]
    for tid in test_ids:
        if tid not in key_source:
            raise EvalError(f"test utterance {tid!r} has no true-speaker key")
    spk = np.array([key_source[t] for t in test_ids])
    M, T = len(model_ids), len(test_ids)
    model_idx = np.repeat(np.arange(M, dtype=np.int64), T)
    test_idx = np.tile(np.arange(T, dtype=np.int64), M)
    target = (np.asarray(model_ids)[:, None] == spk[None, :]).ravel()
    return TrialSet(model_ids, test_ids, model_idx, test_idx, target)


def det_curve(target_scores, nontarget_scores):
    """(thresholds, FAR, FRR) staircase over all observed score values.

    FAR(t) = fraction of nontarget scores >= t (score at threshold accepts);
    FRR(t) = fraction of target scores < t. Sentinel thresholds below and
    above all scores bracket the curve at (1, 0) and (0, 1).
    """
    ts = np.sort(np.asarray(target_scores, dtype=np.float64))
    ns = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if len(ts) == 0 or len(ns) == 0:
        raise EvalError("both score lists must be non-empty")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ns))):
        raise EvalError("non-finite score")
    uniq = np.unique(np.concatenate([ts, ns]))
    thresholds = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    far = 1.0 - np.searchsorted(ns, thresholds, side="left") / len(ns)
    frr = np.searchsorted(ts, thresholds, side="left") / len(ts)
    return thresholds, far, frr


def compute_eer(target_scores, nontarget_scores):
    """EER and threshold via linear interpolation at the FAR/FRR crossing."""
    return _eer_crossing(*det_curve(target_scores, nontarget_scores))


def _eer_crossing(thresholds, far, frr):
    diff = far - frr  # monotone non-increasing, from +1 to -1
    k = int(np.nonzero(diff >= 0)[0][-1])
    denom = diff[k] - diff[k + 1]
    alpha = 0.0 if denom == 0 else diff[k] / denom
    eer = far[k] + alpha * (far[k + 1] - far[k])
    thr = thresholds[k] + alpha * (thresholds[k + 1] - thresholds[k])
    return float(eer), float(thr)


@dataclass(frozen=True)
class EvalReport:
    eer: float
    threshold: float
    det_points: np.ndarray  # (K, 2) columns (false-alarm rate, miss rate)
    n_target: int
    n_nontarget: int


def eval_report(scores, target) -> EvalReport:
    """EER, threshold and DET points of per-trial scores under a target mask,
    all read off one DET curve."""
    thresholds, far, frr = det_curve(scores[target], scores[~target])
    eer, thr = _eer_crossing(thresholds, far, frr)
    n_target = int(np.count_nonzero(target))
    return EvalReport(
        eer=eer,
        threshold=thr,
        det_points=np.column_stack([far, frr]),
        n_target=n_target,
        n_nontarget=len(scores) - n_target,
    )


@dataclass(frozen=True)
class StrategyConfig:
    latent_dim: int
    iterations: int
    seed: int
    whiten: bool = True
    min_class_size: int = 1
    loglik_tol: float = 1e-7

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            latent_dim=self.latent_dim,
            iterations=self.iterations,
            seed=self.seed,
            min_class_size=self.min_class_size,
            loglik_tol=self.loglik_tol,
        )


STRATEGIES = ("cosine", "GT", "LT", "Pool")


def _training_material(strategy, global_data, local_data):
    if strategy == "GT":
        if global_data is None:
            raise EvalError("GT strategy needs globally labeled data")
        return global_data, build_global_view(global_data)
    if strategy == "LT":
        if local_data is None:
            raise EvalError("LT strategy needs locally labeled data")
        return local_data, build_local_view(local_data)
    if strategy == "Pool":
        if global_data is None or local_data is None:
            raise EvalError("Pool strategy needs both datasets")
        view = build_pooled_view(
            build_global_view(global_data), build_local_view(local_data)
        )
        return merge_datasets(global_data, local_data), view
    if strategy == "cosine":
        if global_data is not None and local_data is not None:
            return merge_datasets(global_data, local_data), None
        data = global_data if global_data is not None else local_data
        if data is None:
            raise EvalError("cosine strategy needs at least one dataset")
        return data, None
    raise EvalError(f"unknown strategy {strategy!r}")


def preprocess_split(pp, enroll: dict, test: Dataset):
    """An enrollment/test split's vectors after one ``pp.apply`` per side.

    ``enroll`` maps model id to its records. Returns ``score_trialset``'s
    inputs: {model id: its rows}, in sorted model order, and {test utt_id:
    its row}.
    """
    model_ids = sorted(enroll)
    rows = [r.vector for m in model_ids for r in enroll[m]]
    E = pp.apply(np.stack(rows) if rows else np.empty((0, pp.dim)))
    T = pp.apply(test.vectors())
    cuts = np.cumsum([len(enroll[m]) for m in model_ids[:-1]], dtype=np.int64)
    return (dict(zip(model_ids, np.split(E, cuts))),
            dict(zip([r.utt_id for r in test.records], T)))


def _train_and_score(train_data, view, cfg: StrategyConfig, eval_enroll, eval_test,
                     trials: TrialSet) -> np.ndarray:
    """Fit the preprocessor on train_data, train PLDA under the label view
    and score the trials of the enroll/test split; a view of None scores
    cosines instead of training."""
    pp = preprocess.fit(train_data.vectors(), whiten=cfg.whiten)
    model = (None if view is None
             else train_em(train_data, view, pp, cfg.train_config())[0])
    enroll_vecs, test_vecs = preprocess_split(pp, eval_enroll, eval_test)
    if model is not None:
        return plda.score_trialset(model, enroll_vecs, trials, test_vecs)
    # cosine of the mean enrollment direction and the test vector: the PLDA
    # score kernel with zero offsets
    U = np.stack([enroll_vecs[m].mean(axis=0) for m in trials.model_ids])
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    AT = np.stack([test_vecs[t] for t in trials.test_utt_ids])
    M = len(U)
    return _kernels.score_trials(np.zeros(M), U, np.zeros(M, dtype=np.int64), AT,
                                 np.zeros((1, len(AT))), trials.model_idx,
                                 trials.test_idx)


def run_strategy(strategy, global_data, local_data, eval_enroll, eval_test,
                 cfg: StrategyConfig, scores_path=None) -> EvalReport:
    """Train under one strategy and evaluate on the enroll/test split.

    eval_enroll maps speaker id to its enrollment records; eval_test records
    carry true speakers for the trial key. Returns the EvalReport; per-trial
    scores are written to scores_path when given.
    """
    train_data, view = _training_material(strategy, global_data, local_data)
    key_source = {r.utt_id: r.global_spk for r in eval_test.records}
    trials = generate_trials(sorted(eval_enroll), eval_test, key_source)
    scores = _train_and_score(train_data, view, cfg, eval_enroll, eval_test, trials)
    report = eval_report(scores, trials.target)
    if scores_path is not None:
        write_scores(trials, scores, scores_path)
    return report


@dataclass(frozen=True)
class SweepSpec:
    axis_global: tuple[int, ...]
    axis_local: tuple[int, ...]
    repeats: int
    base_seed: int

    def __post_init__(self):
        if any(g < 0 for g in self.axis_global) or any(l < 0 for l in self.axis_local):
            raise EvalError("axis values must be non-negative")
        if self.repeats < 1:
            raise EvalError("repeats must be >= 1")


@dataclass(frozen=True)
class SweepGrid:
    axis_global: tuple[int, ...]
    axis_local: tuple[int, ...]
    repeats: int
    cells: dict = field(default_factory=dict)  # (g, l) -> per-seed EER array

    def mean(self, g: int, l: int) -> float:
        return float(np.mean(self.cells[(g, l)]))


def run_sweep(spec: SweepSpec, global_data, local_data, eval_enroll, eval_test,
              cfg: StrategyConfig) -> SweepGrid:
    """Grid of pooled trainings over (global speaker count, local slot count).

    Each cell subsamples whole classes (never utterances within a class),
    trains, and scores the one fixed TrialSet. g=0 is pure local training,
    l=0 pure global; (0, 0) is rejected. A cell that cannot train raises.
    """
    g_view = build_global_view(global_data) if global_data is not None else None
    l_view = build_local_view(local_data) if local_data is not None else None
    g_classes = sorted(g_view.classes) if g_view else []
    l_classes = sorted(l_view.classes) if l_view else []
    sides = ((global_data, g_view, g_classes), (local_data, l_view, l_classes))

    key_source = {r.utt_id: r.global_spk for r in eval_test.records}
    trials = generate_trials(sorted(eval_enroll), eval_test, key_source)

    cells = {}
    for g in spec.axis_global:
        for l in spec.axis_local:
            if g == 0 and l == 0:
                raise EvalError("cell (0, 0) has no training data")
            if g > len(g_classes):
                raise EvalError(f"cell asks for {g} global speakers, have {len(g_classes)}")
            if l > len(l_classes):
                raise EvalError(f"cell asks for {l} local slots, have {len(l_classes)}")
            eers = []
            for rep in range(spec.repeats):
                seed = spec.base_seed + rep
                rng = np.random.default_rng([seed, g, l])
                parts = [_draw_classes(rng, n, *side)
                         for n, side in zip((g, l), sides) if n > 0]
                if len(parts) == 2:
                    train_data = merge_datasets(parts[0][0], parts[1][0])
                    view = build_pooled_view(parts[0][1], parts[1][1])
                else:
                    train_data, view = parts[0]
                scores = _train_and_score(train_data, view, replace(cfg, seed=seed),
                                          eval_enroll, eval_test, trials)
                eer, _ = compute_eer(scores[trials.target], scores[~trials.target])
                eers.append(eer)
                del scores  # not held while the next cell trains
            cells[(g, l)] = np.array(eers)
    return SweepGrid(
        axis_global=tuple(spec.axis_global),
        axis_local=tuple(spec.axis_local),
        repeats=spec.repeats,
        cells=cells,
    )


def _draw_classes(rng, n, data, view, names):
    """n of the view's classes, drawn without replacement from its sorted
    class ``names``: their records and their sub-view."""
    chosen = [names[i] for i in rng.choice(len(names), size=n, replace=False)]
    sub = LabelView(view.strategy, {c: view.classes[c] for c in chosen})
    return data.subset([u for c in chosen for u in sub.classes[c]]), sub


_CHUNK = 1 << 16  # rows formatted per write


def _write_chunked(fh, n, lines):
    """Write rows 0..n-1, _CHUNK rows at a time: lines(start, stop) yields
    the text of rows start..stop-1, and each chunk is one "".join and one
    write, so no per-row Python object outlives its chunk."""
    for a in range(0, n, _CHUNK):
        fh.write("".join(lines(a, min(a + _CHUNK, n))))


def _id_columns(trials: TrialSet):
    """Model and test ids with the separating comma already appended."""
    return ([m + "," for m in trials.model_ids],
            [t + "," for t in trials.test_utt_ids])


def write_scores(trials: TrialSet, scores, path) -> None:
    """model_id,test_utt_id,score rows, one per trial in trial order."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(trials),):
        raise EvalError(f"{scores.size} scores for {len(trials)} trials")
    mids, tids = _id_columns(trials)
    mi, ti = trials.model_idx, trials.test_idx
    with _replacing(path) as fh:
        fh.write("model_id,test_utt_id,score\n")
        _write_chunked(fh, len(trials), lambda a, b: (
            f"{mids[m]}{tids[t]}{v!r}\n"
            for m, t, v in zip(mi[a:b].tolist(), ti[a:b].tolist(), scores[a:b].tolist())))


def read_scores(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("model_id,"):
            raise EvalError(f"{path}: missing scores header")
        for line in fh:
            if not line.strip():
                continue
            mid, tid, s = line.rstrip("\n").split(",")
            out.append((mid, tid, float(s)))
    return out


def write_key(trials: TrialSet, path) -> None:
    mids, tids = _id_columns(trials)
    mi, ti, tg = trials.model_idx, trials.test_idx, trials.target
    with _replacing(path) as fh:
        fh.write("model_id,test_utt_id,key\n")
        _write_chunked(fh, len(trials), lambda a, b: (
            f"{mids[m]}{tids[t]}{'target' if y else 'nontarget'}\n"
            for m, t, y in zip(mi[a:b].tolist(), ti[a:b].tolist(), tg[a:b].tolist())))


def read_key(path):
    """Key file rows model_id,test_utt_id,target|nontarget; header optional."""
    pairs = []
    key = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(",")
            if lineno == 1 and parts[-1] not in ("target", "nontarget"):
                continue  # header
            if len(parts) != 3 or parts[2] not in ("target", "nontarget"):
                raise EvalError(f"{path}: line {lineno}: malformed key row")
            pairs.append((parts[0], parts[1]))
            key[(parts[0], parts[1])] = parts[2] == "target"
    return pairs, key


def write_report(obj, path) -> None:
    """EvalReport -> metric,value CSV plus DET section; SweepGrid -> long form."""
    with _replacing(path) as fh:
        if isinstance(obj, EvalReport):
            fh.write("metric,value\n")
            fh.write(f"eer,{format_float(obj.eer)}\n")
            fh.write(f"threshold,{format_float(obj.threshold)}\n")
            fh.write(f"n_target,{obj.n_target}\n")
            fh.write(f"n_nontarget,{obj.n_nontarget}\n")
            fh.write("det_far,det_miss\n")
            det = np.asarray(obj.det_points, dtype=np.float64)
            _write_chunked(fh, len(det), lambda a, b: (
                f"{far!r},{miss!r}\n" for far, miss in det[a:b].tolist()))
        elif isinstance(obj, SweepGrid):
            fh.write("n_global,n_local,seed,eer\n")
            for g in obj.axis_global:
                for l in obj.axis_local:
                    if (g, l) not in obj.cells:
                        continue
                    for rep, eer in enumerate(obj.cells[(g, l)]):
                        fh.write(f"{g},{l},{rep},{format_float(eer)}\n")
        else:
            raise EvalError(f"cannot write report for {type(obj).__name__}")
