"""The trainable scorer: a shared tanh encoder over hashed pair features,
with one answer head per head group.

Classification heads produce probability vectors via softmax and train with
cross-entropy; regression heads produce a scalar score and train with
squared error. Datasets that share a head group literally share the same
head parameters. Gradients are computed analytically and updates are plain
SGD on the summed batch loss. A step takes a head group and two arrays, the
batch's feature rows and their gold (int labels or float targets), and the
head's kind picks the loss; the model never sees a dataset, and its only
task kinds are the head specs given to ToyModel.create.

A model keeps all its parameters in one contiguous float64 vector, laid out
[enc_w | enc_b | head_w | head_b per head group, groups in sorted order].
enc_weights, enc_bias and each head's weights and bias are views of it that
can be updated in place but never rebound, so they cannot detach from the
vector. A copy is one copy of the vector, and a checkpoint is the vector as
one .npy file; its layout (source, hidden size, head kinds and shapes) and
its provenance (stage, selected epoch, its dev metrics and selection value)
live in the stage index entry that lists the file.

A model also owns one step context per head group, built on the group's
first step: the head's views, the classification flag, a flat float64
gradient buffer laid out [d_enc_w | d_enc_b | d_head_w | d_head_b] with its
four gradient views and its encoder and head parts, and the two matching
contiguous slices of the parameter vector. Backprop writes the four
gradients into the buffer's views and reuses its activation arrays in
place. A step checks the whole buffer for non-finite values once, scales it
by the learning rate once, then subtracts its encoder part and its head
part from the two parameter slices. A copy or a loaded checkpoint starts
with no step context, so no model holds views of another's vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .data import CLASSIFICATION, FILE_NAME, FINITE, NATURAL, POSITIVE, REGRESSION, TaskKind
from .featurize import SourceSpec
from .seeding import derive_rng

LOG_EPS = 1e-12  # probability clamp inside log losses
HEAD_INIT_SCALE = 0.05  # answer heads start uniform in [-scale, scale]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _views(vector: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of a flat vector, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[start : start + size].reshape(shape))
        start += size
    return views


class _FixedViews:
    """The attributes named in _fixed are bound once. Rebinding one raises;
    in-place updates (a[...] = x, a -= x) are fine."""

    _fixed: frozenset = frozenset()

    def __setattr__(self, name, value):
        current = self.__dict__.get(name)
        if name in self._fixed and current is not None and value is not current:
            raise AttributeError(
                f"{name} is a view of the model's parameter vector; update it in place"
            )
        object.__setattr__(self, name, value)


class Head(_FixedViews):
    """One answer module: h x C softmax head or h x 1 linear head. weights
    and bias are views of the model's parameter vector; span is their slice
    of it."""

    _fixed = frozenset({"weights", "bias"})

    def __init__(self, kind: str, weights: np.ndarray, bias: np.ndarray, span: slice):
        self.kind = kind  # CLASSIFICATION | REGRESSION
        self.weights = weights  # (hidden, C) or (hidden, 1)
        self.bias = bias  # (C,) or (1,)
        self.span = span


class _StepContext(NamedTuple):
    """What a step on one head group reads: the head's views, its kind, the
    gradient buffer with its four views and its encoder and head parts, and
    the parameter slices those two parts update."""

    head_weights: np.ndarray
    head_bias: np.ndarray
    classification: bool
    buffer: np.ndarray
    d_enc_w: np.ndarray
    d_enc_b: np.ndarray
    d_head_w: np.ndarray
    d_head_b: np.ndarray
    enc_grad: np.ndarray  # buffer[:enc]
    head_grad: np.ndarray  # buffer[enc:]
    enc_params: np.ndarray  # params[:enc]
    head_params: np.ndarray  # params[head span]


class ToyModel(_FixedViews):
    """Shared encoder + per-head-group answer layers.

    The encoder (dim x hidden linear layer + tanh) is initialized
    deterministically from the source's featurizer seed, standing in for
    pretrained weights; answer heads are initialized uniform in
    [-HEAD_INIT_SCALE, HEAD_INIT_SCALE] from the run seed.

    head_outputs maps each head group to (kind, output count); params is the
    flat parameter vector in layout order, which the model then owns (a new,
    uninitialized one when None).
    """

    _fixed = frozenset({"params", "enc_weights", "enc_bias"})

    def __init__(
        self,
        source: SourceSpec,
        hidden: int,
        head_outputs: dict[str, tuple[str, int]],
        params: Optional[np.ndarray] = None,
    ):
        groups = sorted(head_outputs)
        shapes = [(source.dim, hidden), (hidden,)]
        for group in groups:
            outputs = head_outputs[group][1]
            shapes += [(hidden, outputs), (outputs,)]
        size = sum(math.prod(shape) for shape in shapes)
        if params is None:
            params = np.empty(size)
        if params.dtype != np.float64 or params.shape != (size,):
            raise ValueError(
                f"parameter vector is {params.dtype} {params.shape}; the layout needs "
                f"float64 ({size},)"
            )
        self.source = source
        self.hidden = hidden
        self.params = params
        self._head_outputs = head_outputs
        views = _views(params, shapes)
        self.enc_weights, self.enc_bias = views[:2]
        self._enc_size = self.enc_weights.size + self.enc_bias.size
        self.heads = {}
        start = self._enc_size
        for i, group in enumerate(groups, start=1):
            weights, bias = views[2 * i], views[2 * i + 1]
            stop = start + weights.size + bias.size
            self.heads[group] = Head(head_outputs[group][0], weights, bias, slice(start, stop))
            start = stop
        # head group -> its step context, made on the group's first step
        self._steps: dict[str, _StepContext] = {}

    @classmethod
    def create(
        cls,
        source: SourceSpec,
        head_specs: dict[str, TaskKind],
        hidden: int = 32,
        run_seed: int = 0,
    ) -> "ToyModel":
        head_outputs = {
            group: (kind.kind, kind.num_classes if kind.is_classification else 1)
            for group, kind in head_specs.items()
        }
        model = cls(source, hidden, head_outputs)
        # Inputs are L2-normalized, so Var(x @ W) = sigma^2; unit sigma keeps
        # the tanh layer in its active range.
        enc_rng = derive_rng(source.featurizer_seed, "encoder", source.name, hidden)
        model.enc_weights[...] = enc_rng.normal(0.0, 1.0, size=(source.dim, hidden))
        model.enc_bias[...] = enc_rng.normal(0.0, 0.01, size=hidden)
        for group, head in model.heads.items():
            head_rng = derive_rng(run_seed, "head", group)
            for arr in (head.weights, head.bias):
                arr[...] = head_rng.uniform(-HEAD_INIT_SCALE, HEAD_INIT_SCALE, size=arr.shape)
        return model

    @property
    def layout(self) -> dict:
        """What a checkpoint's index entry records to rebuild the model
        around its parameter vector."""
        return {
            "schema_version": CHECKPOINT_SCHEMA,
            "source": {
                "name": self.source.name,
                "featurizer_seed": self.source.featurizer_seed,
                "dim": self.source.dim,
            },
            "hidden": self.hidden,
            "heads": {
                group: {"kind": head.kind, "weights": list(head.weights.shape),
                        "bias": list(head.bias.shape)}
                for group, head in sorted(self.heads.items())
            },
        }

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

    def _step_context(self, head_group: str) -> _StepContext:
        """The head group's step context, made on first use."""
        step = self._steps.get(head_group)
        if step is None:
            head = self._head(head_group)
            shapes = [p.shape for p in (self.enc_weights, self.enc_bias, head.weights, head.bias)]
            buffer = np.empty(sum(math.prod(shape) for shape in shapes))
            enc = self._enc_size
            step = self._steps[head_group] = _StepContext(
                head.weights, head.bias, head.kind == CLASSIFICATION, buffer,
                *_views(buffer, shapes), buffer[:enc], buffer[enc:],
                self.params[:enc], self.params[head.span],
            )
        return step

    def loss_and_grads(self, features: np.ndarray, gold: np.ndarray, head_group: str):
        """Summed batch loss plus gradients for the encoder and the head group.

        features holds the batch's feature rows and gold their int labels
        (classification head) or float targets (regression head).

        Backprop through tanh encoder and softmax / linear head:
          classification  dU = P - onehot(y)
          regression      dS = 2 (s - y)
        then dHead = A^T dU, dA = dU W_head^T, dZ = dA (1 - A^2),
        dEnc = X^T dZ.

        The gradients returned are views of the head group's gradient buffer:
        they stay valid until the next step on that head group overwrites
        them.
        """
        (head_w, head_b, classification, _, d_enc_w, d_enc_b, d_head_w, d_head_b,
         *_) = self._step_context(head_group)
        X = features
        # Non-finite values surface as the explicit checks in grad_step, not
        # as numpy warnings mid-backprop.
        with np.errstate(over="ignore", invalid="ignore"):
            A = X @ self.enc_weights
            A += self.enc_bias
            np.tanh(A, out=A)
            dU = A @ head_w
            dU += head_b
            if classification:
                # softmax in place, then P - onehot(y) in place
                dU -= dU.max(axis=1, keepdims=True)
                np.exp(dU, out=dU)
                dU /= dU.sum(axis=1, keepdims=True)
                rows = np.arange(len(gold))
                picked = dU[rows, gold]
                np.maximum(picked, LOG_EPS, out=picked)
                loss = -float(np.log(picked, out=picked).sum())
                dU[rows, gold] -= 1.0
            else:
                dS = dU[:, 0]
                dS -= gold
                loss = float(np.square(dS).sum())
                dU *= 2.0
            np.matmul(A.T, dU, out=d_head_w)
            dU.sum(axis=0, out=d_head_b)
            dZ = dU @ head_w.T
            np.multiply(A, A, out=A)
            np.subtract(1.0, A, out=A)
            dZ *= A
            np.matmul(X.T, dZ, out=d_enc_w)
            dZ.sum(axis=0, out=d_enc_b)
        return loss, d_enc_w, d_enc_b, d_head_w, d_head_b

    def copy(self) -> "ToyModel":
        return ToyModel(self.source, self.hidden, self._head_outputs, self.params.copy())


def grad_step(model: ToyModel, features: np.ndarray, gold: np.ndarray, head_group: str,
              learning_rate: float) -> float:
    """One SGD step on the summed loss of a batch of one head group, in place.

    features holds the batch's feature rows and gold their labels or
    targets; the head's kind picks the loss. Only the encoder and that head
    change. Returns the pre-step batch loss. The loss, then the head group's
    whole gradient buffer, is checked for non-finite values before any
    parameter changes; the step aborts on either. The buffer is then scaled
    by the learning rate once; its encoder part and its head part are
    subtracted from the matching slices of the parameter vector.
    """
    loss = model.loss_and_grads(features, gold, head_group)[0]
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite loss {loss} on head {head_group!r} (batch of {len(gold)})"
        )
    step = model._step_context(head_group)
    if not np.isfinite(step.buffer).all():
        raise FloatingPointError(f"non-finite gradient on head {head_group!r}")
    np.multiply(step.buffer, learning_rate, out=step.buffer)
    np.subtract(step.enc_params, step.enc_grad, out=step.enc_params)
    np.subtract(step.head_params, step.head_grad, out=step.head_params)
    return loss


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_SCHEMA = 2

# The index entry save_checkpoint returns, as a data.check_shape shape.
CHECKPOINT_SHAPE = {
    "checkpoint": FILE_NAME,
    "layout": {
        "schema_version": int,
        "source": {"name": str, "featurizer_seed": NATURAL, "dim": POSITIVE},
        "hidden": POSITIVE,
        "heads": {str: {"kind": str, "weights": [POSITIVE], "bias": [POSITIVE]}},
    },
    "provenance": {"stage": str, "epoch": NATURAL, "dev_metrics": {str: FINITE},
                   "selection_value": FINITE},
}


@dataclass
class Checkpoint:
    """A model snapshot plus its training provenance."""

    model: ToyModel
    stage: str = ""
    epoch: int = 0
    dev_metrics: dict = field(default_factory=dict)
    selection_value: float = float("-inf")


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> dict:
    """Write the model's parameter vector to path as one .npy file and
    return the index entry that lists it, of CHECKPOINT_SHAPE: the file name,
    the model's layout and the checkpoint's provenance."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        np.save(fh, ckpt.model.params)
    return {
        "checkpoint": path.name,
        "layout": ckpt.model.layout,
        "provenance": {f.name: getattr(ckpt, f.name) for f in fields(ckpt) if f.name != "model"},
    }


def load_checkpoint(path: str | Path, entry: dict) -> Checkpoint:
    """Rebuild a checkpoint from its .npy file and the index entry that lists
    it, an entry of CHECKPOINT_SHAPE. Raises ValueError when the layout is of
    another schema, names a head kind other than classification or
    regression, or is inconsistent, or the vector does not fit it, and
    OSError, EOFError or ValueError when the file is missing or truncated."""
    layout = entry["layout"]
    if layout["schema_version"] != CHECKPOINT_SCHEMA:
        raise ValueError(f"the index entry has no schema-{CHECKPOINT_SCHEMA} checkpoint layout")
    heads = {}
    for group, rec in layout["heads"].items():
        if rec["kind"] not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"head {group!r} has kind {rec['kind']!r}, not "
                             f"{CLASSIFICATION} or {REGRESSION}")
        (outputs,) = rec["bias"]  # a ValueError unless the bias shape is [outputs]
        heads[group] = (rec["kind"], outputs)
    src = layout["source"]
    model = ToyModel(
        SourceSpec(src["name"], src["featurizer_seed"], src["dim"]),
        layout["hidden"],
        heads,
        np.load(path, allow_pickle=False),
    )
    if model.layout != layout:
        raise ValueError("the index entry's checkpoint layout is inconsistent")
    return Checkpoint(model=model, **entry["provenance"])
