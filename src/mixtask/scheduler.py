"""Epoch planning: mix all in-domain mini-batches with a ratio-controlled
sample of external mini-batches.

Given in-domain batch count N and mixture ratio alpha, an epoch consists of
every in-domain batch exactly once plus floor(alpha * N) external batches
drawn without replacement from the pooled external datasets, the whole
sequence shuffled. alpha = 0 reduces to plain in-domain training.

A mini-batch is its dataset and its row positions in it; the trainer reads
only those. Its sample ids are built from the dataset when read, which only
save_plan's audit file does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, write_jsonl
from .seeding import derive_rng


class MiniBatch:
    """An ordered selection of one dataset's rows.

    rows holds the samples' positions in the dataset, so a batch's features
    are a row selection of the dataset's feature matrix. Its name, task kind
    and head group are the dataset's; its sample ids are looked up in the
    dataset on each read, which only save_plan does.
    """

    __slots__ = ("dataset", "rows")

    def __init__(self, dataset: Dataset, rows: np.ndarray):
        if len(rows) == 0:
            raise ValueError("mini-batch must be non-empty")
        self.dataset = dataset
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dataset_name(self) -> str:
        return self.dataset.name

    @property
    def sample_ids(self) -> tuple[str, ...]:
        samples = self.dataset.samples
        return tuple(samples[i].id for i in self.rows.tolist())


BATCH_SIZE = 16

# Largest mixture ratio. An epoch holds alpha external batches per in-domain
# batch, so at 100 the in-domain task is under 1% of every epoch: no useful
# ratio lies above it (the recipe uses 0.5). The bound keeps an epoch at
# most 101 times its in-domain batch count, so a value such as 1e300 fails
# at parse time instead of planning an epoch that never ends.
MAX_ALPHA = 100


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, not {alpha}")
    if alpha > MAX_ALPHA:
        raise ValueError(f"alpha must be <= {MAX_ALPHA}, not {alpha}")


@dataclass(frozen=True)
class MixtureConfig:
    """Knobs of the epoch planner. batch_size applies to every dataset."""

    alpha: float = 0.5
    batch_size: int = BATCH_SIZE
    max_epoch: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.max_epoch < 1:
            raise ValueError("max_epoch must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def batch_size_for(self, dataset_name: str) -> int:
        """The batch size of dataset_name: batch_size, as for every dataset."""
        return self.batch_size


@dataclass
class EpochPlan:
    """The ordered mini-batch sequence of one training epoch."""

    batches: list[MiniBatch]
    n_in_domain: int = 0
    n_external: int = 0

    def __post_init__(self):
        if len(self.batches) != self.n_in_domain + self.n_external:
            raise ValueError(
                f"plan length {len(self.batches)} != "
                f"{self.n_in_domain} in-domain + {self.n_external} external"
            )

    def __len__(self) -> int:
        return len(self.batches)


def partition_batches(dataset: Dataset, batch_size: int, seed: int = 0) -> list[MiniBatch]:
    """Shuffle a dataset's samples and chunk them into mini-batches.

    Each batch holds its samples' positions in the dataset. Batch count is
    ceil(|D| / batch_size); the final partial batch is kept. Deterministic
    given seed.
    """
    if len(dataset) == 0:
        raise ValueError(f"cannot partition empty dataset {dataset.name!r}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = derive_rng(seed, "partition", dataset.name)
    order = rng.permutation(len(dataset))
    return [
        MiniBatch(dataset, order[start : start + batch_size])
        for start in range(0, len(order), batch_size)
    ]


def _sample_external(pool: list[MiniBatch], count: int, rng) -> list[MiniBatch]:
    """Draw count batches without replacement, reshuffling the pool on each
    full pass when count exceeds the pool size."""
    if count == 0 or not pool:
        return []
    picked: list[MiniBatch] = []
    while len(picked) < count:
        take = min(count - len(picked), len(pool))
        order = rng.permutation(len(pool))
        picked.extend(pool[int(i)] for i in order[:take])
    return picked


def build_epoch(
    in_domain_batches: list[MiniBatch],
    external_batches: list[MiniBatch],
    alpha: float,
    seed: int = 0,
    epoch_index: int = 0,
) -> EpochPlan:
    """Assemble one epoch: all in-domain batches plus floor(alpha*N) external
    batches from the pooled external datasets, in a random order.

    External picks are without replacement within an epoch; if the request
    exceeds the pool, the pool is cycled with a fresh shuffle per pass. An
    empty external pool yields an in-domain-only plan.
    """
    if not in_domain_batches:
        raise ValueError("in-domain batch list must be non-empty")
    _check_alpha(alpha)
    n = len(in_domain_batches)
    n_external = math.floor(alpha * n) if external_batches else 0
    rng = derive_rng(seed, "epoch", epoch_index)
    chosen = _sample_external(list(external_batches), n_external, rng)
    combined = list(in_domain_batches) + chosen
    order = rng.permutation(len(combined))
    batches = [combined[int(i)] for i in order]
    return EpochPlan(batches=batches, n_in_domain=n, n_external=n_external)


def save_plan(plan: EpochPlan, path: str | Path) -> None:
    """Write a plan as JSON-Lines: one batch per line with its position."""
    write_jsonl(path, (
        {"position": i, "dataset": batch.dataset_name, "sample_ids": list(batch.sample_ids)}
        for i, batch in enumerate(plan.batches)
    ))

