"""Multi-task training with mixture-ratio epoch plans, plus per-task
fine-tuning, both run by one loop (_fit).

One run is sequential and fully deterministic given (data, config): both
loops seed from config.mixture.seed, never from a checkpoint.
After every epoch the dev sets are evaluated; the checkpoint returned is the
one maximizing the selection metric (unweighted mean of per-dataset dev
metrics: accuracy for classification, sign-accuracy for regression).
Multi-task training never returns the untrained model; fine-tuning keeps its
input model as an epoch-0 candidate, returned unless an epoch beats it.

Each dataset's features are one matrix in sample order, taken from the
caller's FeatureCache, and its gold (labels or targets) one array; a
mini-batch is a row selection of both. _fit resolves each train split to its
matrix, gold array and head group once per fit, so a step costs only its two
row selections: grad_step takes those arrays and the head group, whose kind
picks the loss. A step that diverges fails naming the batch's dataset.
The trainer runs the plans of build_member_epoch_plan, the same planner the
schedule stage writes to disk for audit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .corpus import gold_binary_label
from .data import Dataset
from .featurize import FeatureCache, SourceSpec
from .model import Checkpoint, ToyModel, grad_step
from .scheduler import EpochPlan, MiniBatch, MixtureConfig, build_epoch, partition_batches
from .seeding import derive_seed


@dataclass
class TaskData:
    """One task's training split plus optional development split."""

    train: Dataset
    dev: Optional[Dataset] = None

    @property
    def name(self) -> str:
        return self.train.name


@dataclass
class TrainConfig:
    lr_multitask: float = 5e-5
    lr_finetune: float = 5e-6
    epochs_finetune: int = 6
    mixture: MixtureConfig = field(default_factory=MixtureConfig)
    hidden_dim: int = 32

    def __post_init__(self):
        for name in ("lr_multitask", "lr_finetune"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"{name} must be finite and > 0, not {lr}")
        if self.epochs_finetune < 0:
            raise ValueError("epochs_finetune must be >= 0")


@dataclass
class TrainResult:
    best: Checkpoint
    history: list[dict]
    initial_metrics: dict


def dev_gold(dataset: Dataset) -> np.ndarray:
    """The classes dev_metric compares predictions with, in sample order:
    labels for classification, gold_binary_label for regression."""
    if dataset.task_kind.is_classification:
        return np.array([s.label for s in dataset])
    return np.array([gold_binary_label(s) for s in dataset])


def dev_metric(model: ToyModel, dataset: Dataset, features: np.ndarray, gold: np.ndarray) -> float:
    """Accuracy for classification, sign-accuracy for regression, in [0, 1].

    features is the dataset's feature matrix, one row per sample in order,
    and gold its dev_gold array; callers that evaluate one dataset often
    build gold once.
    """
    if dataset.task_kind.is_classification:
        probs = model.class_probs(features, dataset.head_group)
        predicted = probs.argmax(axis=1)
    else:
        scores = model.reg_scores(features, dataset.head_group)
        predicted = (scores >= 0).astype(int)
    return float((predicted == gold).mean())


def _head_specs(tasks: list[TaskData]) -> dict:
    specs = {}
    for task in tasks:
        group = task.train.head_group
        kind = task.train.task_kind
        if group in specs and specs[group] != kind:
            raise ValueError(
                f"head group {group!r} is shared by tasks with different kinds: "
                f"{specs[group]} vs {kind}"
            )
        specs[group] = kind
    return specs


def build_member_epoch_plan(
    tasks: list[TaskData], train_cfg: TrainConfig, epoch: int
) -> EpochPlan:
    """The mini-batch sequence the trainer executes in this epoch.

    Every dataset is re-divided into fresh shuffled mini-batches; in-domain
    batches all run, external ones are sampled by the mixture ratio.
    """
    run_seed = train_cfg.mixture.seed
    partition_seed = derive_seed(run_seed, "epoch-shuffle", epoch)
    in_batches: list[MiniBatch] = []
    ext_pool: list[MiniBatch] = []
    for task in tasks:
        batches = partition_batches(task.train, train_cfg.mixture.batch_size, partition_seed)
        (in_batches if task.train.role == "in_domain" else ext_pool).extend(batches)
    return build_epoch(
        in_batches, ext_pool, train_cfg.mixture.alpha, seed=run_seed, epoch_index=epoch
    )


def _supervision(dataset: Dataset) -> np.ndarray:
    """Labels (classification) or target scores (regression), in sample order."""
    if dataset.task_kind.is_classification:
        return np.array([s.label for s in dataset])
    return np.array([s.target_score for s in dataset], dtype=np.float64)


def _eval_dev(model, dev_sets: list[tuple[str, Dataset, np.ndarray, np.ndarray]]):
    """Each dev set's metric, and their mean: the selection metric."""
    metrics = {name: dev_metric(model, dev, feats, gold) for name, dev, feats, gold in dev_sets}
    return metrics, float(np.mean(list(metrics.values())))


def _fit(model: ToyModel, tasks: list[TaskData], dev_tasks: list[TaskData], epochs: int,
         batches_of: Callable[[int], list[MiniBatch]], lr: float,
         cache: Optional[FeatureCache], keep_input: bool) -> TrainResult:
    """The one training loop: train model in place and return its best epoch.

    Each epoch takes one grad_step per batch of batches_of(epoch) (rows of
    tasks' train splits), then scores the dev split of each of dev_tasks.
    The best epoch has the highest mean dev metric, the first one on ties;
    the input model is an epoch-0 candidate only when keep_input is true.
    """
    for task in dev_tasks:
        if len(task.dev) == 0:
            raise ValueError(f"task {task.name!r} has an empty dev split")
    source = model.source
    cache = cache or FeatureCache([source])
    train_sets = {
        t.name: (cache.lookup(t.train, source), _supervision(t.train), t.train.head_group)
        for t in tasks
    }
    dev_sets = [(t.name, t.dev, cache.lookup(t.dev, source), dev_gold(t.dev)) for t in dev_tasks]
    initial_metrics, selection = _eval_dev(model, dev_sets)
    best = Checkpoint(model.copy(), epoch=0, dev_metrics=initial_metrics,
                      selection_value=selection) if keep_input else None
    history: list[dict] = []
    for epoch in range(1, epochs + 1):
        batches = batches_of(epoch)
        epoch_loss = 0.0
        for batch in batches:
            features, gold, group = train_sets[batch.dataset.name]
            try:
                epoch_loss += grad_step(model, features[batch.rows], gold[batch.rows], group, lr)
            except FloatingPointError as exc:
                raise FloatingPointError(f"dataset {batch.dataset.name!r}: {exc}") from exc
        metrics, selection = _eval_dev(model, dev_sets)
        history.append({"epoch": epoch, "train_loss": epoch_loss, "plan_length": len(batches),
                        "dev_metrics": metrics, "selection": selection})
        if best is None or selection > best.selection_value:
            best = Checkpoint(model.copy(), epoch=epoch, dev_metrics=metrics,
                              selection_value=selection)
    return TrainResult(best=best, history=history, initial_metrics=initial_metrics)


def train_multitask(
    tasks: list[TaskData],
    source: SourceSpec,
    config: TrainConfig,
    cache: Optional[FeatureCache] = None,
) -> TrainResult:
    """Run the full mixture-ratio loop and return the best checkpoint.

    Each epoch re-divides every dataset into fresh shuffled mini-batches,
    executes the epoch plan (all in-domain batches plus the sampled external
    ones), then evaluates every in-domain dev set. Requires at least one
    in-domain task with a dev split. The untrained model is never returned.
    """
    in_domain = [t for t in tasks if t.train.role == "in_domain"]
    if not in_domain:
        raise ValueError("need at least one in-domain task")
    if not any(t.dev is not None for t in in_domain):
        raise ValueError("need at least one in-domain task with a dev split")

    model = ToyModel.create(source, _head_specs(tasks), config.hidden_dim, config.mixture.seed)
    result = _fit(
        model, tasks, [t for t in in_domain if t.dev is not None], config.mixture.max_epoch,
        lambda epoch: build_member_epoch_plan(tasks, config, epoch).batches,
        config.lr_multitask, cache, keep_input=False,
    )
    result.best = replace(result.best, stage="multitask")
    return result


def fine_tune_task(
    checkpoint: Checkpoint,
    task: TaskData,
    config: TrainConfig,
    cache: Optional[FeatureCache] = None,
) -> Checkpoint:
    """Continue training on one task only, returning this stage's best dev
    checkpoint.

    The input checkpoint is always a selection candidate, so the returned
    dev metric never drops below the input's; zero epochs returns the input
    unchanged. Each epoch's batches are shuffled from config.mixture.seed.
    """
    if task.train.head_group not in checkpoint.model.heads:
        raise ValueError(
            f"checkpoint has no head for group {task.train.head_group!r} (task {task.name!r})"
        )
    if task.dev is None:
        raise ValueError(f"fine-tuning {task.name!r} requires a dev split")

    best = _fit(
        checkpoint.model.copy(), [task], [task], config.epochs_finetune,
        lambda epoch: partition_batches(
            task.train, config.mixture.batch_size,
            derive_seed(config.mixture.seed, "finetune", task.name, epoch)),
        config.lr_finetune, cache, keep_input=True,
    ).best
    return replace(best, stage=f"finetune:{task.name}")
