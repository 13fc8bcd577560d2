"""Per-sample prediction, ensemble combiners, constrained triple decoding,
answer ranking, and ensemble-member selection.

Combination is by majority vote rather than probability averaging, so a
single overconfident member cannot dominate the ensemble. Ties are resolved
by summed prediction probabilities (classification) or the sign of the mean
score (regression).
A prediction file holds only rows; the predict index that lists it records
the set's member, task and dev metric, and its kind is its task's.
An answer is an (answer id, label, score) triple from the ensemble row to
the evaluation report: rank_answers sorts one question's triples, and
save_rankings writes (question id, triples) pairs as rank rows.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .data import Dataset, TaskKind, is_finite_number, read_jsonl, write_jsonl
from .model import LOG_EPS, ToyModel

PROB_SUM_TOL = 1e-6


@dataclass
class PredictionSet:
    """One model's predictions over a sample set.

    Classification: sample id -> probability vector (sums to 1 within
    PROB_SUM_TOL). Regression: sample id -> scalar score. dev_metric is the
    member's development accuracy in percent, used for member selection.
    """

    model_id: str
    kind: str  # classification | regression
    predictions: dict[str, object] = field(default_factory=dict)
    dev_metric: Optional[float] = None


def predict_dataset(model: ToyModel, dataset: Dataset, features: np.ndarray) -> dict[str, object]:
    """Per-sample predictions from the dataset's feature matrix (rows in sample
    order): probability vectors for classification, scores for regression."""
    if dataset.task_kind.is_classification:
        probs = model.class_probs(features, dataset.head_group)
        return {s.id: probs[i] for i, s in enumerate(dataset)}
    scores = model.reg_scores(features, dataset.head_group)
    return {s.id: float(scores[i]) for i, s in enumerate(dataset)}


def ensemble_classify(prob_vectors: Sequence[Sequence[float]]) -> int:
    """Majority vote over per-model argmax predictions, ties resolved by the
    class whose summed probability across models is largest.

    Argmax ties and summed-probability ties both break to the lowest class
    index.
    """
    if len(prob_vectors) == 0:
        raise ValueError("need at least one model")
    mat = np.asarray(prob_vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("prediction vectors must share one class dimension")
    votes = mat.argmax(axis=1)
    counts = np.bincount(votes, minlength=mat.shape[1])
    majority = np.flatnonzero(counts == counts.max())
    sums = mat.sum(axis=0)
    return int(majority[np.argmax(sums[majority])])


def ensemble_regress(scores: Sequence[float]) -> tuple[int, float]:
    """Majority vote over per-model signs, the mean score breaking ties.

    Each model votes positive when its score is >= 0; the ensemble predicts
    1 when votes exceed half, 0 when below half, and falls back to
    I(mean > 0) on an exact tie. The >= 0 vote versus > 0 tie-break
    asymmetry at exactly zero is deliberate and preserved.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one model")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    mean = float(arr.mean())
    votes = int((arr >= 0).sum())
    m = arr.size
    if votes * 2 > m:
        label = 1
    elif votes * 2 < m:
        label = 0
    else:
        label = int(mean > 0)
    return label, mean


def rank_answers(outputs: Iterable[tuple[str, int, float]]) -> list[tuple[str, int, float]]:
    """One question's (answer id, label, score) triples in rank order:
    predicted positives by score descending, then predicted negatives by
    score descending; ties break by answer id ascending."""
    ranked = sorted(((a, int(label), float(score)) for a, label, score in outputs),
                    key=lambda t: (0 if t[1] == 1 else 1, -t[2], t[0]))
    if not ranked:
        raise ValueError("need at least one answer")
    return ranked


def mednli_constrained_decode(prob_matrix: Sequence[Sequence[float]]) -> tuple[int, int, int]:
    """Assign the three hypotheses of one premise exactly one label each.

    Input: 3x3 row-stochastic matrix, rows = the premise group's samples in
    order, columns = class indices. Returns the permutation p (p[row] ->
    class) maximizing the joint log-likelihood, probabilities clamped at
    LOG_EPS; ties go to the first permutation in lexicographic order.
    """
    mat = np.asarray(prob_matrix, dtype=np.float64)
    if mat.shape != (3, 3):
        raise ValueError(f"premise group must be 3 samples x 3 classes, got {mat.shape}")
    for row in mat:
        if abs(float(row.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError("each row must sum to 1")
    log_mat = np.log(np.maximum(mat, LOG_EPS))
    best_perm = None
    best_value = -math.inf
    for perm in itertools.permutations(range(3)):
        value = float(log_mat[0, perm[0]] + log_mat[1, perm[1]] + log_mat[2, perm[2]])
        if value > best_value:
            best_value = value
            best_perm = perm
    return best_perm


def select_members(
    prediction_sets: Sequence[PredictionSet], threshold: float
) -> list[PredictionSet]:
    """Keep prediction sets whose dev metric is strictly above the threshold."""
    for ps in prediction_sets:
        if ps.dev_metric is None:
            raise ValueError(f"prediction set {ps.model_id!r} lacks a dev metric")
    survivors = [ps for ps in prediction_sets if ps.dev_metric > threshold]
    if not survivors:
        best = max((ps.dev_metric for ps in prediction_sets), default=float("nan"))
        raise ValueError(
            f"no members exceed threshold {threshold} (best dev metric: {best}); "
            "lower the threshold for this task"
        )
    return survivors


@dataclass
class EnsembleOutput:
    sample_id: str
    label: int
    score: float
    question_id: Optional[str] = None


def combine_predictions(members: Sequence[PredictionSet]) -> dict[str, EnsembleOutput]:
    """Apply the task-matching combiner to every sample; every member must
    cover the same samples.

    Classification outputs carry the summed probability of the chosen class
    as their score; regression outputs carry the mean score.
    """
    if not members:
        raise ValueError("need at least one member")
    kinds = {ps.kind for ps in members}
    if len(kinds) != 1:
        raise ValueError(f"members disagree on task kind: {sorted(kinds)}")
    kind = kinds.pop()
    ids = members[0].predictions.keys()
    if any(ps.predictions.keys() != ids for ps in members):
        raise ValueError(f"members {[ps.model_id for ps in members]} cover different samples")
    outputs = {}
    for sample_id in sorted(ids):
        if kind == "classification":
            vectors = [np.asarray(ps.predictions[sample_id], dtype=np.float64) for ps in members]
            label = ensemble_classify(vectors)
            score = float(sum(v[label] for v in vectors))
        else:
            scores = [float(ps.predictions[sample_id]) for ps in members]
            label, score = ensemble_regress(scores)
        outputs[sample_id] = EnsembleOutput(sample_id=sample_id, label=label, score=score)
    return outputs


def constrained_triples_pass(
    outputs: dict[str, EnsembleOutput],
    members: list[PredictionSet],
    eval_set: Dataset,
) -> dict[str, EnsembleOutput]:
    """Re-decode complete premise triples from mean member probabilities so
    each group gets one label of each kind."""
    groups: dict[str, list] = {}
    for s in eval_set:
        if s.premise_group is not None:
            groups.setdefault(s.premise_group, []).append(s.id)
    for group_ids in groups.values():
        if len(group_ids) != 3:
            continue
        mean_probs = np.stack(
            [np.mean([np.asarray(ps.predictions[i]) for ps in members], axis=0) for i in group_ids]
        )
        mean_probs /= mean_probs.sum(axis=1, keepdims=True)
        assignment = mednli_constrained_decode(mean_probs)
        for row, sample_id in enumerate(group_ids):
            outputs[sample_id] = replace(outputs[sample_id], label=int(assignment[row]))
    return outputs


# -- file formats --------------------------------------------------------------


def save_prediction_set(ps: PredictionSet, path: str | Path) -> None:
    """JSON-Lines: one record per sample, sorted by sample id, with its
    probs (classification) or score (regression) and nothing else."""
    if ps.kind == "classification":
        key, value = "probs", lambda v: [float(p) for p in v]
    else:
        key, value = "score", float
    write_jsonl(path, ({"sample_id": i, key: value(ps.predictions[i])}
                       for i in sorted(ps.predictions)))


def load_prediction_set(path: str | Path, model_id: str, task_kind: TaskKind,
                        dev_metric: Optional[float]) -> PredictionSet:
    """Read a file save_prediction_set wrote, under the metadata the caller
    got from the predict index. Raises ValueError naming path:line on a
    repeated sample id, a record without the value its task kind needs, a
    score that is not a finite number, or probs that are not one finite
    number per class summing to 1 within PROB_SUM_TOL."""
    kind, num_classes = task_kind.kind, task_kind.num_classes
    key = "probs" if task_kind.is_classification else "score"
    ps = PredictionSet(model_id=model_id, kind=kind, dev_metric=dev_metric)
    for line_no, rec in read_jsonl(path):
        sample_id = rec.get("sample_id")
        if sample_id in ps.predictions:
            raise ValueError(f"{path}:{line_no}: sample id {sample_id!r} repeats")
        if sample_id is None or key not in rec:
            raise ValueError(f"{path}:{line_no}: a {kind} record needs sample_id and {key}")
        value = rec[key]
        if key == "score":
            if not is_finite_number(value):
                raise ValueError(f"{path}:{line_no}: score must be a finite number, "
                                 f"got {json.dumps(value)}")
            ps.predictions[sample_id] = float(value)
            continue
        if not (type(value) is list and len(value) == num_classes
                and all(map(is_finite_number, value))):
            raise ValueError(f"{path}:{line_no}: probs must be a list of {num_classes} finite "
                             f"numbers, got {json.dumps(value)}")
        probs = np.array(value, dtype=np.float64)
        total = float(np.sum(probs))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"{path}:{line_no}: probabilities sum to {total}")
        ps.predictions[sample_id] = probs
    return ps


def save_ensemble_outputs(outputs: Iterable[EnsembleOutput], path: str | Path) -> None:
    write_jsonl(path, (
        {"sample_id": out.sample_id, "label": out.label, "score": out.score,
         "question_id": out.question_id}
        for out in outputs
    ))


def save_rankings(ranked: Iterable[tuple[str, list[tuple[str, int, float]]]],
                  path: str | Path) -> None:
    """JSON-Lines from (question id, ranked triples) pairs: one record per
    answer, questions in the given order and each question's answers in rank
    order, rank counting from 1."""
    write_jsonl(path, (
        {"question_id": question_id, "sample_id": answer_id, "label": label,
         "score": score, "rank": position}
        for question_id, answers in ranked
        for position, (answer_id, label, score) in enumerate(answers, start=1)
    ))
