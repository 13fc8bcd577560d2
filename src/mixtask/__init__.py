"""Mixture-ratio multi-task training, multi-source ensembling, and
answer-ranking evaluation for text-pair tasks."""

from .corpus import (
    apply_qa_modified_scores,
    cv_folds,
    gold_binary_label,
    mednli_merge_dev,
    medquad_negative_sample,
    qa_dev_reshuffle,
    qa_modified_score,
    random_split,
    rqe_shuffle_split,
)
from .data import Dataset, SamplePair, TaskKind, load_dataset, read_manifest
from .experiment import run_multisource_experiment
from .featurize import SourceSpec, featurize
from .inference import (
    PredictionSet,
    combine_predictions,
    ensemble_classify,
    ensemble_regress,
    mednli_constrained_decode,
    rank_answers,
    select_members,
)
from .metrics import (
    EvalReport,
    accuracy,
    mrr,
    precision_positive,
    rank_correlation,
    spearman_on_positives,
)
from .model import Checkpoint, ToyModel, grad_step
from .pipeline import PipelineConfig, run_pipeline
from .scheduler import EpochPlan, MiniBatch, MixtureConfig, build_epoch, partition_batches
from .training import TaskData, TrainConfig, fine_tune_task, train_multitask

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SamplePair",
    "TaskKind",
    "load_dataset",
    "read_manifest",
    "qa_modified_score",
    "apply_qa_modified_scores",
    "medquad_negative_sample",
    "mednli_merge_dev",
    "rqe_shuffle_split",
    "qa_dev_reshuffle",
    "random_split",
    "cv_folds",
    "gold_binary_label",
    "MiniBatch",
    "EpochPlan",
    "MixtureConfig",
    "partition_batches",
    "build_epoch",
    "SourceSpec",
    "featurize",
    "ToyModel",
    "Checkpoint",
    "grad_step",
    "TaskData",
    "TrainConfig",
    "train_multitask",
    "fine_tune_task",
    "PredictionSet",
    "ensemble_classify",
    "ensemble_regress",
    "rank_answers",
    "mednli_constrained_decode",
    "select_members",
    "combine_predictions",
    "EvalReport",
    "accuracy",
    "precision_positive",
    "mrr",
    "spearman_on_positives",
    "rank_correlation",
    "PipelineConfig",
    "run_pipeline",
    "run_multisource_experiment",
]
