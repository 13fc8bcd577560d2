"""In-memory span tracing around the library's public functions.

`instrument` wraps each target function at every name a `mixtask` module
looks it up by (its defining module and each module that imported it), and
each target method on its class, so calls made inside the library are traced
without editing it. A span is (name, start, end, parent, n): `name` is
"<layer>.<function>" with the layer taken from the defining module, `parent`
indexes the enclosing span (-1 at the top), and `n` is a count taken from the
call (rows or bytes) where the target defines one.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from mixtask import corpus, data, inference, metrics, model, scheduler, toydata, training
from mixtask.pipeline import STAGES

# The package re-exports the function `featurize` under its module's name.
featurize = importlib.import_module("mixtask.featurize")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    n: int = 0


Count = Optional[Callable[[tuple, object], int]]


class Tracer:
    """Records spans in start order; a span keeps its index once opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # placeholder until the span closes
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, span: Span) -> None:
        self._stack.pop()
        self.spans[index] = span

    def call(self, name: str, fn, args: tuple, kwargs: dict, count: Count = None):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        index, parent = self._open()
        start = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index, Span(name, start, self._clock(), parent))
        if count is not None:
            self.spans[index] = self.spans[index]._replace(n=count(args, result))
        return result

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index, parent = self._open()
        start = self._clock()
        try:
            yield
        finally:
            self._close(index, Span(name, start, self._clock(), parent))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# -- what gets wrapped -----------------------------------------------------------


def _rows_returned(args, result) -> int:
    return len(result)


def _rows_of_arg(position: int) -> Callable[[tuple, object], int]:
    return lambda args, result: len(args[position])


def _bytes_of_file_arg(position: int) -> Callable[[tuple, object], int]:
    return lambda args, result: os.path.getsize(args[position])


# (owner, attribute, count). A module-level function is wrapped wherever a
# mixtask module holds it; a method is wrapped on its class.
PIPELINE_TARGETS = [
    (data, "load_dataset", _rows_returned),
    (data, "load_manifest_datasets", None),
    (data, "save_samples", None),
    (corpus, "apply_qa_modified_scores", None),
    (corpus, "medquad_negative_sample", None),
    (corpus, "mednli_merge_dev", None),
    (corpus, "rqe_shuffle_split", None),
    (corpus, "qa_dev_reshuffle", None),
    (corpus, "random_split", None),
    (corpus, "cv_folds", None),
    (scheduler, "partition_batches", None),
    (scheduler, "build_epoch", None),
    (scheduler, "save_plan", None),
    (featurize, "featurize", None),
    (featurize.FeatureCache, "lookup", _rows_of_arg(1)),
    (training, "train_multitask", None),
    (training, "fine_tune_task", None),
    (training, "dev_metric", None),
    (model, "grad_step", _rows_of_arg(1)),
    (model.ToyModel, "class_probs", None),
    (model.ToyModel, "reg_scores", None),
    (model, "save_checkpoint", _bytes_of_file_arg(1)),
    (model, "load_checkpoint", _bytes_of_file_arg(0)),
    (inference, "save_prediction_set", None),
    (inference, "load_prediction_set", None),
    (inference, "save_ensemble_outputs", None),
    (inference, "select_members", None),
    (inference, "combine_predictions", None),
    (inference, "mednli_constrained_decode", None),
    (inference, "rank_answers", None),
    (metrics, "build_ranking_report", None),
    (metrics, "accuracy", None),
    (metrics, "precision_positive", None),
]

TOYDATA_TARGETS = [
    (toydata, name, None) for name in ("make_nli", "make_rqe", "make_qa", "make_pages")
]


def _wrap(tracer: Tracer, name: str, fn, count: Count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


@contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap every target for the duration of the block, then restore them."""
    namespaces = [vars(m) for n, m in list(sys.modules.items()) if n.split(".")[0] == "mixtask"]
    patched = []
    try:
        for owner, attr, count in targets:
            fn = getattr(owner, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            traced = _wrap(tracer, f"{layer}.{attr}", fn, count)
            if isinstance(owner, type):
                patched.append((owner, attr, fn))
                setattr(owner, attr, traced)
                continue
            for namespace in namespaces:
                if namespace.get(attr) is fn:
                    patched.append((namespace, attr, fn))
                    namespace[attr] = traced
        yield
    finally:
        for owner, attr, fn in reversed(patched):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON array per line: [name, start, end, parent, n]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")


# -- per-layer metrics ---------------------------------------------------------

LAYERS = (
    "pipeline", "data", "featurize", "scheduler", "training", "model", "corpus",
    "inference", "metrics",
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took run_s; stage spans are
    "pipeline.<stage>". `corpus.s` and `metrics.s` equal those layers' self_s."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    self_of: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        counted[span.name] += span.n
        self_of[span.name] += own
        layer_self[span.name.split(".", 1)[0]] += own

    uncached = sum(
        1 for s in spans if s.name == "featurize.featurize" and s.parent >= 0
        and spans[s.parent].name == "featurize.lookup"
    )
    requested = counted["featurize.lookup"]
    steps = [(s.end - s.start) * 1e6 for s in spans if s.name == "model.grad_step"]
    rows = counted["model.grad_step"]
    train_s = total["training.train_multitask"] + total["training.fine_tune_task"]

    out = {f"pipeline.{stage}.s": total[f"pipeline.{stage}"] for stage in STAGES}
    out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    out.update({
        "data.load_dataset.calls": calls["data.load_dataset"],
        "data.load_dataset.rows": counted["data.load_dataset"],
        "data.load_dataset.s": total["data.load_dataset"],
        "data.save_samples.s": total["data.save_samples"],
        "featurize.featurize.calls": calls["featurize.featurize"],
        "featurize.featurize.s": total["featurize.featurize"],
        "featurize.cache.hit_ratio": 1.0 - uncached / requested if requested else 0.0,
        "scheduler.partition_batches.s": total["scheduler.partition_batches"],
        "scheduler.build_epoch.s": total["scheduler.build_epoch"],
        "training.train_multitask.self_s": self_of["training.train_multitask"],
        "training.fine_tune_task.self_s": self_of["training.fine_tune_task"],
        "training.dev_metric.s": total["training.dev_metric"],
        "training.us_per_sample_epoch": train_s / rows * 1e6 if rows else 0.0,
        "model.grad_step.calls": calls["model.grad_step"],
        "model.grad_step.rows": rows,
        "model.grad_step.s": total["model.grad_step"],
        "model.grad_step.p50_us": _percentile(steps, 50) if steps else 0.0,
        "model.grad_step.p99_us": _percentile(steps, 99) if steps else 0.0,
        "model.forward.s": total["model.class_probs"] + total["model.reg_scores"],
        "model.checkpoint_io.s": total["model.save_checkpoint"] + total["model.load_checkpoint"],
        "model.checkpoint_io.bytes": counted["model.save_checkpoint"]
        + counted["model.load_checkpoint"],
        "corpus.s": layer_self["corpus"],
        "inference.prediction_io.s": total["inference.save_prediction_set"]
        + total["inference.load_prediction_set"] + total["inference.save_ensemble_outputs"],
        "inference.combine.s": total["inference.select_members"]
        + total["inference.combine_predictions"] + total["inference.mednli_constrained_decode"],
        "inference.rank_answers.s": total["inference.rank_answers"],
        "metrics.s": layer_self["metrics"],
        "trace.unaccounted_s": run_s - sum(selfs),
    })
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
