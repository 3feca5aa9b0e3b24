"""Trial construction, EER computation, strategy comparison, and sweeps.

Strategies mirror the training regimes under comparison: GT (global labels),
LT (local labels), Pool (disjoint union of both), and a cosine baseline that
skips PLDA training entirely. Every comparison scores one fixed trial set so
differences are purely training-side.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _kernels, plda, preprocess
from .data_model import (
    Dataset,
    LabelView,
    build_global_view,
    build_local_view,
    build_pooled_view,
    _byte_rows,
    _is_seed,
    _positions,
    _read_text,
    _replacing,
    _text_rows,
    _write_chunked,
    format_float,
    merge_datasets,
)
from .plda import TrainConfig, train_em


class EvalError(Exception):
    pass


class TrialSet:
    """Ordered (model_id, test_utt_id) trials with target/nontarget keys.

    A keyed set holds index arrays into the model and test id lists. A
    product (``TrialSet.product``) is every model against every test,
    model-major, and holds only its target mask: trial i pairs model
    i // T with test i % T, so a million-trial cross product needs no
    per-trial index arrays.
    """

    is_product = False

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
        # ordered trials (a model-major cross product) are distinct as they
        # stand; any other order is sorted to bring repeats together
        if not np.all(codes[1:] > codes[:-1]):
            codes.sort()
            if np.any(codes[1:] == codes[:-1]):
                raise EvalError("duplicate trial pairs")

    @classmethod
    def product(cls, model_ids, test_utt_ids, target) -> "TrialSet":
        """Every model against every test, model-major; ``target`` is the
        (models, tests) mask of target pairs."""
        self = cls.__new__(cls)
        self.model_ids = list(model_ids)
        self.test_utt_ids = list(test_utt_ids)
        target = np.asarray(target, dtype=bool)
        if target.shape != (len(self.model_ids), len(self.test_utt_ids)):
            raise EvalError(f"a {target.shape} target mask for "
                            f"{len(self.model_ids)} models x {len(self.test_utt_ids)} tests")
        self.target = target.ravel()
        self.is_product = True
        return self

    def __len__(self):
        return len(self.target)

    @property
    def n_target(self) -> int:
        return int(np.count_nonzero(self.target))

    @property
    def n_nontarget(self) -> int:
        return len(self) - self.n_target

    def _index_arrays(self, start, stop):
        """Model and test indices of trials start..stop-1, as two arrays."""
        if self.is_product:
            return np.divmod(np.arange(start, stop), len(self.test_utt_ids))
        return self.model_idx[start:stop], self.test_idx[start:stop]

    @classmethod
    def from_pairs(cls, model_ids, test_utt_ids, pair_models, pair_tests,
                   target) -> "TrialSet":
        """Build over the id lists ``model_ids`` and ``test_utt_ids`` from
        parallel columns: trial i pairs pair_models[i] with pair_tests[i] and
        is a target trial where target[i] is true. An id in no list raises."""
        idx = []
        for ids, col, what in ((model_ids, pair_models, "enroll model id"),
                               (test_utt_ids, pair_tests, "test utt_id")):
            idx.append(_positions(ids, col))
            if len(col) and idx[-1].min() < 0:
                raise EvalError(f"unresolved {what} {col[int(np.argmin(idx[-1]))]!r}")
        return cls(model_ids, test_utt_ids, *idx, target)


def generate_trials(model_ids, test: Dataset) -> TrialSet:
    """Full cross product of enroll models and test utterances, model-major.

    A trial is target iff the test utterance's global speaker equals the
    model id.
    """
    model_ids = list(model_ids)
    # each distinct model id gets one code, a repeated id its last row's;
    # a speaker who is no model id, None among them, gets -1, which no
    # model row has
    codes = _positions(model_ids, model_ids)
    spk_codes = _positions(model_ids, test.global_spks)
    return TrialSet.product(model_ids, test.utt_ids, codes[:, None] == spk_codes[None, :])


def _score_sides(target_scores, nontarget_scores):
    ts = np.asarray(target_scores, dtype=np.float64)
    ns = np.asarray(nontarget_scores, dtype=np.float64)
    if len(ts) == 0 or len(ns) == 0:
        raise EvalError("both score lists must be non-empty")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ns))):
        raise EvalError("non-finite score")
    return ts, ns


def _rates(n_below, t_below, n_nontarget, n_target):
    """(FAR, FRR) at thresholds with ``n_below`` nontarget and ``t_below``
    target scores below them, for counts or arrays of counts."""
    return 1.0 - n_below / n_nontarget, t_below / n_target


def det_curve(target_scores, nontarget_scores):
    """(thresholds, FAR, FRR) staircase over all observed score values.

    FAR(t) = fraction of nontarget scores >= t (score at threshold accepts);
    FRR(t) = fraction of target scores < t. Sentinel thresholds at the lowest
    score minus 1.0 and the highest plus 1.0 bracket the curve at (1, 0) and
    (0, 1). Where |score| >= 2**53 that addition rounds back to the score
    itself, so a sentinel equals an extreme score: the bottom one still
    takes (1, 0), and the top one takes the rates of the highest score.
    """
    ts, ns = _score_sides(target_scores, nontarget_scores)
    pooled = np.concatenate([ts, ns])
    pooled.sort()
    new_run = np.empty(len(pooled), dtype=bool)
    new_run[0] = True
    np.not_equal(pooled[1:], pooled[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)  # scores below each run's first value
    k = len(starts)
    thresholds = np.empty(k + 2)
    thresholds[0] = pooled[0] - 1.0
    thresholds[1:-1] = pooled[starts]
    thresholds[-1] = pooled[-1] + 1.0
    # a target lies below every threshold from the run after its own on
    below = np.bincount(np.searchsorted(pooled, ts, side="right"),
                        minlength=len(pooled) + 1)
    t_below = np.cumsum(below, out=below)[starts]
    n_below = np.subtract(starts, t_below, out=starts)
    far = np.empty(k + 2)
    frr = np.empty(k + 2)
    far[0], frr[0] = 1.0, 0.0
    far[1:-1], frr[1:-1] = _rates(n_below, t_below, len(ns), len(ts))
    if thresholds[-1] > pooled[-1]:
        far[-1], frr[-1] = 0.0, 1.0
    else:
        far[-1], frr[-1] = far[-2], frr[-2]
    return thresholds, far, frr


def compute_eer(target_scores, nontarget_scores):
    """EER and threshold via linear interpolation at the FAR/FRR crossing
    of ``det_curve``'s points, found by bisection without building them.

    The EER is interpolated from the last point where FAR - FRR >= 0 to the
    point after it. FAR - FRR does not rise from point to point (the rates
    are rounded monotone functions of counts) and is +1 at the bottom
    sentinel, so bisection over the sorted scores finds that point, with
    each point's rates counted by two binary searches.
    """
    ts, ns = _score_sides(target_scores, nontarget_scores)
    pooled = np.concatenate([ts, ns])
    pooled.sort()
    ts = np.sort(ts)
    n = len(pooled)

    def point(i):
        """det_curve's point at the run of pooled[i], or at its top
        sentinel for i = n: that one takes the last run's rates when
        adding 1.0 leaves the highest score as it is."""
        v = pooled[min(i, n - 1)]
        if i == n and v + 1.0 > v:
            return v + 1.0, 0.0, 1.0
        below = int(np.searchsorted(pooled, v, side="left"))
        t_below = int(np.searchsorted(ts, v, side="left"))
        return (v, *_rates(below - t_below, t_below, len(ns), len(ts)))

    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        _, far, frr = point(mid)
        if far - frr >= 0:
            lo = mid
        else:
            hi = mid
    (t0, far0, frr0), (t1, far1, frr1) = point(lo), point(lo + 1)
    # the last segment may end at a top sentinel that equals the highest
    # score and repeats its rates, so diff1 can be 0 as well
    diff0, diff1 = far0 - frr0, far1 - frr1
    denom = diff0 - diff1
    alpha = 0.0 if denom == 0 else diff0 / denom
    return float(far0 + alpha * (far1 - far0)), float(t0 + alpha * (t1 - t0))


@dataclass(frozen=True)
class EvalReport:
    """EER, threshold and trial counts of the target and nontarget scores
    it keeps. Its DET points are counted from those scores the first time
    they are read, so only a report that is written pays for its curve."""

    eer: float
    threshold: float
    target_scores: np.ndarray = field(repr=False)
    nontarget_scores: np.ndarray = field(repr=False)

    @property
    def n_target(self) -> int:
        return len(self.target_scores)

    @property
    def n_nontarget(self) -> int:
        return len(self.nontarget_scores)

    @cached_property
    def det_points(self) -> np.ndarray:
        """(K, 2) columns (false-alarm rate, miss rate) of ``det_curve``."""
        _, far, frr = det_curve(self.target_scores, self.nontarget_scores)
        return np.column_stack([far, frr])


def eval_report(scores, target) -> EvalReport:
    """The EER and threshold of per-trial scores under a target mask, from
    ``compute_eer``, in a report that keeps the scores of either side."""
    ts, ns = scores[target], scores[~target]
    eer, thr = compute_eer(ts, ns)
    return EvalReport(eer=eer, threshold=thr, target_scores=ts, nontarget_scores=ns)


@dataclass(frozen=True)
class StrategyConfig:
    latent_dim: int
    iterations: int
    seed: int
    whiten: bool = True

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            latent_dim=self.latent_dim,
            iterations=self.iterations,
            seed=self.seed,
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
    inputs: the enrollment rows model by model in sorted model order, each
    model's row count, and the test rows in corpus order.
    """
    model_ids = sorted(enroll)
    counts = np.array([len(enroll[m]) for m in model_ids], dtype=np.int64)
    rows = [r.vector for m in model_ids for r in enroll[m]]
    E = pp.apply(np.stack(rows) if rows else np.empty((0, pp.dim)))
    return E, counts, pp.apply(test.vectors())


def _train_and_score(train_data, view, cfg: StrategyConfig, eval_enroll, eval_test,
                     trials: TrialSet) -> np.ndarray:
    """Fit the preprocessor on the rows of train_data that the label view
    covers, train PLDA under the view and score the trials of the
    enroll/test split; a view of None fits on every row and scores cosines
    instead of training."""
    X = train_data.vectors()
    pp = preprocess.fit(X if view is None else X[view.codes >= 0], whiten=cfg.whiten)
    model = (None if view is None
             else train_em(train_data, view, pp, cfg.train_config())[0])
    E, counts, T = preprocess_split(pp, eval_enroll, eval_test)
    if model is not None:
        return plda.score_trialset(model, E, counts, trials, T)
    # cosine of the mean enrollment direction and the test vector: the PLDA
    # score kernel with zero offsets
    U = np.add.reduceat(E, np.cumsum(counts) - counts, axis=0) / counts[:, None]
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    M = len(U)
    return _kernels.score_trials(np.zeros(M), U, np.zeros(M, dtype=np.int64), T,
                                 np.zeros((1, len(T))), trials)


def run_strategy(strategy, global_data, local_data, eval_enroll, eval_test,
                 cfg: StrategyConfig, scores_path=None) -> EvalReport:
    """Train under one strategy and evaluate on the enroll/test split.

    eval_enroll maps speaker id to its enrollment records; eval_test records
    carry true speakers for the trial key. Returns the EvalReport; per-trial
    scores are written to scores_path when given.
    """
    train_data, view = _training_material(strategy, global_data, local_data)
    trials = generate_trials(sorted(eval_enroll), eval_test)
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
        if not _is_seed(self.base_seed):
            raise EvalError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")


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
    # checked before the first cell trains, not when it is scored
    dims = {data.dim for data in (global_data, local_data, eval_test) if data is not None}
    dims.update(r.vector.shape[0] for recs in eval_enroll.values() for r in recs)
    if len(dims) > 1:
        raise EvalError(f"training and evaluation vectors differ in dimension: "
                        f"{sorted(dims)}")
    views = (build_global_view(global_data) if global_data is not None else None,
             build_local_view(local_data) if local_data is not None else None)
    # each view's class indices in the order of their ids, which a cell draws from
    by_name = [np.array(sorted(range(v.n_classes), key=v.names.__getitem__) if v else [],
                        dtype=np.int64) for v in views]
    # every cell trains on the rows its view selects from this one dataset
    pool = (merge_datasets(global_data, local_data)
            if global_data is not None and local_data is not None
            else global_data if global_data is not None else local_data)

    trials = generate_trials(sorted(eval_enroll), eval_test)
    if trials.n_target == 0 or trials.n_nontarget == 0:
        raise EvalError(f"the trial set has {trials.n_target} target and "
                        f"{trials.n_nontarget} nontarget trials; both must be non-zero")

    cells = {}
    for g in spec.axis_global:
        for l in spec.axis_local:
            if g == 0 and l == 0:
                raise EvalError("cell (0, 0) has no training data")
            if g > len(by_name[0]):
                raise EvalError(f"cell asks for {g} global speakers, have {len(by_name[0])}")
            if l > len(by_name[1]):
                raise EvalError(f"cell asks for {l} local slots, have {len(by_name[1])}")
            eers = []
            for rep in range(spec.repeats):
                seed = spec.base_seed + rep
                rng = np.random.default_rng([seed, g, l])
                # a side that draws no class gives an empty view and
                # leaves the generator as it was
                drawn = [_draw_classes(rng, n, v, order)
                         for n, v, order in zip((g, l), views, by_name) if v is not None]
                view = build_pooled_view(*drawn) if len(drawn) == 2 else drawn[0]
                scores = _train_and_score(pool, view, replace(cfg, seed=seed),
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


def _draw_classes(rng, n, view, by_name):
    """The sub-view of n of the view's classes, drawn without replacement
    from its class indices ``by_name``, in the order drawn."""
    chosen = by_name[rng.choice(len(by_name), size=n, replace=False)]
    remap = np.full(view.n_classes + 1, -1)  # its last entry maps code -1
    remap[chosen] = np.arange(n)
    return LabelView(view.strategy, view.utt_ids,
                     tuple(map(view.names.__getitem__, chosen.tolist())), remap[view.codes])


def _write_trial_rows(trials: TrialSet, header, path, values, *fields):
    """header, then one row per trial: its model id, its test id, each of
    ``fields`` (a ``_text_rows`` field whose rows are indexed by trial) and
    its row of the (trials, k) ``values``."""
    mids = _byte_rows([m + "," for m in trials.model_ids])
    tids = _byte_rows([t + "," for t in trials.test_utt_ids])

    def rows(a, b):
        mi, ti = trials._index_arrays(a, b)
        return _text_rows(values[a:b], (*mids, mi), (*tids, ti),
                          *((text, keep, at[a:b]) for text, keep, at in fields))

    with _replacing(path) as fh:
        fh.write(header)
        _write_chunked(fh, len(trials), rows)


def write_scores(trials: TrialSet, scores, path) -> None:
    """model_id,test_utt_id,score rows, one per trial in trial order."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(trials),):
        raise EvalError(f"{scores.size} scores for {len(trials)} trials")
    _write_trial_rows(trials, "model_id,test_utt_id,score\n", path, scores[:, None])


def write_key(trials: TrialSet, path) -> None:
    labels = _byte_rows(_LABELS[::-1])  # row 1 for a target
    _write_trial_rows(trials, "model_id,test_utt_id,key\n", path,
                      np.empty((len(trials), 0)), (*labels, trials.target.view(np.uint8)))


_LABELS = ("target", "nontarget")
# every byte but the two separators; "," and "\n" are one byte in UTF-8
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b",\n")


def _one_row_per_line(rows: str) -> bool:
    """Every line of ``rows`` holds exactly two commas, so three fields."""
    seps = rows.encode().translate(None, _NOT_SEPARATOR)
    return seps == b",,\n" * rows.count("\n") + b",,"


def read_key(path, model_ids, test_utt_ids) -> TrialSet:
    """The TrialSet of a key file, rows model_id,test_utt_id,target|nontarget,
    numbered over the enrollment's ``model_ids`` and the test corpus's
    ``test_utt_ids``, as ``generate_trials`` numbers a product.

    A first line whose last field is not a label is a header, and blank
    lines are skipped. The rows are checked and split as columns; a faulty
    file is then scanned row by row for the error naming its first faulty
    line. A model or test id missing from its list, and repeated pairs,
    are refused by TrialSet.
    """
    text = _read_text(path, EvalError)
    end = text.find("\n")  # of the first line
    end = len(text) if end < 0 else end
    start = end + 1 if text[:end].split(",")[-1] not in _LABELS else 0  # a header, or blank
    rows = text[start:len(text) - text.endswith("\n")]
    if rows and not _one_row_per_line(rows):
        rows = "\n".join(filter(str.strip, rows.split("\n")))  # drop blank lines
        if rows and not _one_row_per_line(rows):
            _raise_first_faulty_row(path, text)
    fields = rows.replace("\n", ",").split(",") if rows else []
    labels = fields[2::3]
    if labels.count("target") + labels.count("nontarget") != len(labels):
        _raise_first_faulty_row(path, text)
    target = np.fromiter(map(_LABELS[0].__eq__, labels), bool, len(labels))
    return TrialSet.from_pairs(model_ids, test_utt_ids, fields[0::3], fields[1::3], target)


def _raise_first_faulty_row(path, text):
    """Raise the error of the first faulty row of a key file's text."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if lineno == 1 and parts[-1] not in _LABELS:
            continue  # header
        if len(parts) != 3 or parts[2] not in _LABELS:
            raise EvalError(f"{path}: line {lineno}: malformed key row")
    raise AssertionError("a key file with no faulty row was scanned")


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
            _write_chunked(fh, len(det), lambda a, b: _text_rows(det[a:b]), width=2)
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
