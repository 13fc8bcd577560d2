"""The trainable scorer: a shared tanh encoder over hashed pair features,
with one answer head per head group.

Classification heads produce probability vectors via softmax and train with
cross-entropy; regression heads produce a scalar score and train with
squared error. Datasets that share a head group literally share the same
head parameters. Gradients are computed analytically and updates are plain
SGD on the summed batch loss.

A model owns one flat float64 gradient buffer per head group, created on the
group's first step and laid out [d_enc_w | d_enc_b | d_head_w | d_head_b];
backprop writes the four gradients into views of it and reuses its
activation arrays in place. A step checks the whole buffer for non-finite
values once, scales it by the learning rate once, then subtracts each view
from its parameter.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .data import CLASSIFICATION, REGRESSION, TaskKind
from .featurize import SourceSpec
from .seeding import derive_rng

LOG_EPS = 1e-12  # probability clamp inside log losses
HEAD_INIT_SCALE = 0.05  # answer heads start uniform in [-scale, scale]


def cross_entropy_loss(probs: np.ndarray, label: int) -> float:
    """-log p[label] with the probability clamped at LOG_EPS."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[-1]:
        raise ValueError(f"label {label} out of range for {probs.shape[-1]} classes")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -float(np.log(max(float(probs[label]), LOG_EPS)))


def mse_loss(score: float, target: float) -> float:
    """(target - score)^2."""
    if not (np.isfinite(score) and np.isfinite(target)):
        raise ValueError("mse_loss requires finite inputs")
    return float((target - score) ** 2)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class Head:
    """One answer module: h x C softmax head or h x 1 linear head."""

    kind: str  # CLASSIFICATION | REGRESSION
    weights: np.ndarray  # (hidden, C) or (hidden, 1)
    bias: np.ndarray  # (C,) or (1,)

    @property
    def num_classes(self) -> Optional[int]:
        return self.weights.shape[1] if self.kind == CLASSIFICATION else None

    def copy(self) -> "Head":
        return Head(self.kind, self.weights.copy(), self.bias.copy())


@dataclass
class TrainingBatch:
    """Featurized mini-batch ready for a gradient step."""

    features: np.ndarray  # (B, dim)
    head_group: str
    task_kind: TaskKind
    labels: Optional[np.ndarray] = None  # (B,) int, classification
    targets: Optional[np.ndarray] = None  # (B,) float, regression
    dataset_name: str = ""
    sample_ids: tuple[str, ...] = ()  # ids of the rows, for audit

    def __len__(self) -> int:
        return self.features.shape[0]


class ToyModel:
    """Shared encoder + per-head-group answer layers.

    The encoder (dim x hidden linear layer + tanh) is initialized
    deterministically from the source's featurizer seed, standing in for
    pretrained weights; answer heads are initialized uniform in
    [-HEAD_INIT_SCALE, HEAD_INIT_SCALE] from the run seed.
    """

    def __init__(
        self,
        source: SourceSpec,
        hidden: int,
        enc_weights: np.ndarray,
        enc_bias: np.ndarray,
        heads: dict[str, Head],
    ):
        self.source = source
        self.hidden = hidden
        self.enc_weights = enc_weights
        self.enc_bias = enc_bias
        self.heads = heads
        # head group -> (flat gradient buffer, its four gradient views)
        self._grads: dict[str, tuple[np.ndarray, tuple[np.ndarray, ...]]] = {}

    @classmethod
    def create(
        cls,
        source: SourceSpec,
        head_specs: dict[str, TaskKind],
        hidden: int = 32,
        run_seed: int = 0,
    ) -> "ToyModel":
        # Inputs are L2-normalized, so Var(x @ W) = sigma^2; unit sigma keeps
        # the tanh layer in its active range.
        enc_rng = derive_rng(source.featurizer_seed, "encoder", source.name, hidden)
        enc_weights = enc_rng.normal(0.0, 1.0, size=(source.dim, hidden))
        enc_bias = enc_rng.normal(0.0, 0.01, size=hidden)
        heads = {}
        for group, kind in head_specs.items():
            out_dim = kind.num_classes if kind.is_classification else 1
            head_rng = derive_rng(run_seed, "head", group)
            heads[group] = Head(
                kind=kind.kind,
                weights=head_rng.uniform(-HEAD_INIT_SCALE, HEAD_INIT_SCALE, size=(hidden, out_dim)),
                bias=head_rng.uniform(-HEAD_INIT_SCALE, HEAD_INIT_SCALE, size=out_dim),
            )
        return cls(source, hidden, enc_weights, enc_bias, heads)

    # -- forward ------------------------------------------------------------

    def encode(self, features: np.ndarray) -> np.ndarray:
        return np.tanh(features @ self.enc_weights + self.enc_bias)

    def _head(self, head_group: str) -> Head:
        if head_group not in self.heads:
            raise KeyError(f"model has no head for group {head_group!r}")
        return self.heads[head_group]

    def class_probs(self, features: np.ndarray, head_group: str) -> np.ndarray:
        """(B, C) probability matrix; rows sum to 1."""
        head = self._head(head_group)
        if head.kind != CLASSIFICATION:
            raise ValueError(f"head {head_group!r} is not a classification head")
        hidden = self.encode(np.atleast_2d(features))
        return softmax(hidden @ head.weights + head.bias)

    def reg_scores(self, features: np.ndarray, head_group: str) -> np.ndarray:
        """(B,) scalar scores."""
        head = self._head(head_group)
        if head.kind != REGRESSION:
            raise ValueError(f"head {head_group!r} is not a regression head")
        hidden = self.encode(np.atleast_2d(features))
        return (hidden @ head.weights + head.bias)[:, 0]

    # -- training -----------------------------------------------------------

    def batch_loss(self, batch: TrainingBatch) -> float:
        """Summed loss over the batch, no gradient."""
        if batch.task_kind.is_classification:
            probs = self.class_probs(batch.features, batch.head_group)
            picked = probs[np.arange(len(batch)), batch.labels]
            return float(-np.log(np.maximum(picked, LOG_EPS)).sum())
        scores = self.reg_scores(batch.features, batch.head_group)
        return float(((batch.targets - scores) ** 2).sum())

    def _grad_buffer(self, head_group: str) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The head group's flat gradient buffer and its views
        (d_enc_w, d_enc_b, d_head_w, d_head_b), made on first use."""
        entry = self._grads.get(head_group)
        if entry is None:
            head = self._head(head_group)
            shapes = [p.shape for p in (self.enc_weights, self.enc_bias, head.weights, head.bias)]
            sizes = [math.prod(shape) for shape in shapes]
            buffer = np.empty(sum(sizes), dtype=np.float64)
            views, start = [], 0
            for shape, size in zip(shapes, sizes):
                views.append(buffer[start : start + size].reshape(shape))
                start += size
            entry = self._grads[head_group] = (buffer, tuple(views))
        return entry

    def loss_and_grads(self, batch: TrainingBatch):
        """Summed batch loss plus gradients for the encoder and the batch's head.

        Backprop through tanh encoder and softmax / linear head:
          classification  dU = P - onehot(y)
          regression      dS = 2 (s - y)
        then dHead = A^T dU, dA = dU W_head^T, dZ = dA (1 - A^2),
        dEnc = X^T dZ.

        The gradients returned are views of the head group's gradient buffer:
        they stay valid until the next step on that head group overwrites
        them.
        """
        head = self._head(batch.head_group)
        _, (d_enc_w, d_enc_b, d_head_w, d_head_b) = self._grad_buffer(batch.head_group)
        X = batch.features
        # Non-finite values surface as the explicit checks in grad_step, not
        # as numpy warnings mid-backprop.
        with np.errstate(over="ignore", invalid="ignore"):
            A = X @ self.enc_weights
            A += self.enc_bias
            np.tanh(A, out=A)
            dU = A @ head.weights
            dU += head.bias
            if batch.task_kind.is_classification:
                # softmax in place, then P - onehot(y) in place
                dU -= dU.max(axis=1, keepdims=True)
                np.exp(dU, out=dU)
                dU /= dU.sum(axis=1, keepdims=True)
                rows = np.arange(len(batch))
                picked = dU[rows, batch.labels]
                np.maximum(picked, LOG_EPS, out=picked)
                loss = -float(np.log(picked, out=picked).sum())
                dU[rows, batch.labels] -= 1.0
            else:
                dS = dU[:, 0]
                dS -= batch.targets
                loss = float(np.square(dS).sum())
                dU *= 2.0
            np.matmul(A.T, dU, out=d_head_w)
            dU.sum(axis=0, out=d_head_b)
            dZ = dU @ head.weights.T
            np.multiply(A, A, out=A)
            np.subtract(1.0, A, out=A)
            dZ *= A
            np.matmul(X.T, dZ, out=d_enc_w)
            dZ.sum(axis=0, out=d_enc_b)
        return loss, d_enc_w, d_enc_b, d_head_w, d_head_b

    def copy(self) -> "ToyModel":
        return ToyModel(
            source=self.source,
            hidden=self.hidden,
            enc_weights=self.enc_weights.copy(),
            enc_bias=self.enc_bias.copy(),
            heads={g: h.copy() for g, h in self.heads.items()},
        )


def grad_step(model: ToyModel, batch: TrainingBatch, learning_rate: float) -> float:
    """One SGD step on the summed batch loss, in place.

    Only the encoder and the batch's head group change. Returns the
    pre-step batch loss. The loss, then the head group's whole gradient
    buffer, is checked for non-finite values before any parameter changes;
    the step aborts on either. The buffer is then scaled by the learning
    rate once and each gradient view subtracted from its parameter.
    """
    loss, d_enc_w, d_enc_b, d_head_w, d_head_b = model.loss_and_grads(batch)
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite loss {loss} on dataset {batch.dataset_name!r} "
            f"(head {batch.head_group!r}, batch of {len(batch)})"
        )
    buffer, _ = model._grad_buffer(batch.head_group)
    if not np.isfinite(buffer).all():
        raise FloatingPointError(
            f"non-finite gradient on dataset {batch.dataset_name!r} "
            f"(head {batch.head_group!r})"
        )
    buffer *= learning_rate
    head = model.heads[batch.head_group]
    model.enc_weights -= d_enc_w
    model.enc_bias -= d_enc_b
    head.weights -= d_head_w
    head.bias -= d_head_b
    return loss


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_SCHEMA = 1


@dataclass
class Checkpoint:
    """A model snapshot plus its training provenance."""

    model: ToyModel
    stage: str = ""
    epoch: int = 0
    dev_metrics: dict = field(default_factory=dict)
    selection_value: float = float("-inf")
    config_hash: str = ""
    seeds: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    model = ckpt.model
    payload = {
        "schema_version": CHECKPOINT_SCHEMA,
        "source": {
            "name": model.source.name,
            "featurizer_seed": model.source.featurizer_seed,
            "dim": model.source.dim,
        },
        "hidden": model.hidden,
        "encoder": {
            "weights": model.enc_weights.tolist(),
            "bias": model.enc_bias.tolist(),
        },
        "heads": {
            group: {
                "kind": head.kind,
                "weights": head.weights.tolist(),
                "bias": head.bias.tolist(),
            }
            for group, head in sorted(model.heads.items())
        },
        "provenance": {
            "stage": ckpt.stage,
            "epoch": ckpt.epoch,
            "dev_metrics": ckpt.dev_metrics,
            "selection_value": ckpt.selection_value,
            "config_hash": ckpt.config_hash,
            "seeds": ckpt.seeds,
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> Checkpoint:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema_version") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema: {payload.get('schema_version')}")
    src = payload["source"]
    source = SourceSpec(src["name"], src["featurizer_seed"], src["dim"])
    heads = {
        group: Head(
            kind=rec["kind"],
            weights=np.asarray(rec["weights"], dtype=np.float64),
            bias=np.asarray(rec["bias"], dtype=np.float64),
        )
        for group, rec in payload["heads"].items()
    }
    model = ToyModel(
        source=source,
        hidden=payload["hidden"],
        enc_weights=np.asarray(payload["encoder"]["weights"], dtype=np.float64),
        enc_bias=np.asarray(payload["encoder"]["bias"], dtype=np.float64),
        heads=heads,
    )
    prov = payload["provenance"]
    return Checkpoint(
        model=model,
        stage=prov["stage"],
        epoch=prov["epoch"],
        dev_metrics=prov["dev_metrics"],
        selection_value=prov["selection_value"],
        config_hash=prov["config_hash"],
        seeds=prov["seeds"],
    )
