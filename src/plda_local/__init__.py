"""PLDA training and speaker-verification scoring with global, local, and
pooled labels, plus a synthetic corpus generator and evaluation harness."""

from .data_model import (
    Dataset,
    LabelView,
    UtteranceRecord,
    build_global_view,
    build_local_view,
    build_pooled_view,
    merge_datasets,
    read_dataset,
    write_dataset,
)
from .eval_harness import (
    EvalReport,
    StrategyConfig,
    SweepGrid,
    SweepSpec,
    TrialSet,
    compute_eer,
    generate_trials,
    run_strategy,
    run_sweep,
    write_report,
)
from .plda import (
    PldaModel,
    SpeakerPosterior,
    TrainConfig,
    load_model,
    marginal_loglik,
    save_model,
    score_llr,
    speaker_posterior,
    train_em,
)
from .preprocess import Preprocessor, cosine_score, fit
from .synth import EvalSplit, SynthConfig, sample_conversations, sample_truth, split_eval

__version__ = "0.1.0"
