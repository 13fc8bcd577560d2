"""Ensemble combiners, constrained triple decoding, answer ranking, and
ensemble-member selection.

Combination is by majority vote rather than probability averaging, so a
single overconfident member cannot dominate the ensemble. Ties are resolved
by summed prediction probabilities (classification) or the sign of the mean
score (regression).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import LOG_EPS

PROB_SUM_TOL = 1e-6


@dataclass
class PredictionSet:
    """One model's predictions over a sample set.

    Classification: sample id -> probability vector (sums to 1 within
    PROB_SUM_TOL). Regression: sample id -> scalar score. dev_metric is the
    member's development accuracy in percent, used for member selection.
    """

    model_id: str
    task: str
    kind: str  # classification | regression
    predictions: dict[str, object] = field(default_factory=dict)
    dev_metric: Optional[float] = None

    def validate(self) -> None:
        for sample_id, value in self.predictions.items():
            if self.kind == "classification":
                total = float(np.sum(value))
                if abs(total - 1.0) > PROB_SUM_TOL:
                    raise ValueError(
                        f"model {self.model_id!r} sample {sample_id!r}: "
                        f"probabilities sum to {total}"
                    )
            elif not math.isfinite(float(value)):
                raise ValueError(f"model {self.model_id!r} sample {sample_id!r}: non-finite score")


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


@dataclass(frozen=True)
class RankedAnswer:
    answer_id: str
    label: int
    score: float


@dataclass
class RankedAnswerList:
    """Per-question answer ordering: predicted positives first."""

    question_id: str
    answers: list[RankedAnswer]

    def __post_init__(self):
        labels = [a.label for a in self.answers]
        if any(l == 0 for l in labels) and any(l == 1 for l in labels):
            first_negative = labels.index(0)
            if any(l == 1 for l in labels[first_negative:]):
                raise ValueError("positives must precede negatives")

    def __len__(self) -> int:
        return len(self.answers)

    @property
    def answer_ids(self) -> list[str]:
        return [a.answer_id for a in self.answers]


def rank_answers(question_id: str, outputs: Iterable[tuple[str, int, float]]) -> RankedAnswerList:
    """Order one question's answers: predicted positives by score descending,
    then predicted negatives by score descending; ties break by answer id
    ascending."""
    answers = [RankedAnswer(a, int(label), float(score)) for a, label, score in outputs]
    if not answers:
        raise ValueError("need at least one answer")
    answers.sort(key=lambda a: (0 if a.label == 1 else 1, -a.score, a.answer_id))
    return RankedAnswerList(question_id=question_id, answers=answers)


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
    """Apply the task-matching combiner to every sample covered by all members.

    Classification outputs carry the summed probability of the chosen class
    as their score; regression outputs carry the mean score.
    """
    if not members:
        raise ValueError("need at least one member")
    kinds = {ps.kind for ps in members}
    if len(kinds) != 1:
        raise ValueError(f"members disagree on task kind: {sorted(kinds)}")
    kind = kinds.pop()
    common = set(members[0].predictions)
    for ps in members[1:]:
        common &= set(ps.predictions)
    outputs = {}
    for sample_id in sorted(common):
        if kind == "classification":
            vectors = [np.asarray(ps.predictions[sample_id], dtype=np.float64) for ps in members]
            label = ensemble_classify(vectors)
            score = float(sum(v[label] for v in vectors))
        else:
            scores = [float(ps.predictions[sample_id]) for ps in members]
            label, score = ensemble_regress(scores)
        outputs[sample_id] = EnsembleOutput(sample_id=sample_id, label=label, score=score)
    return outputs


# -- file formats --------------------------------------------------------------


def save_prediction_set(ps: PredictionSet, path: str | Path) -> None:
    """JSON-Lines: one record per sample with model_id and probs or score."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "model_id": ps.model_id,
            "task": ps.task,
            "kind": ps.kind,
            "dev_metric": ps.dev_metric,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for sample_id in sorted(ps.predictions):
            rec = {"model_id": ps.model_id, "sample_id": sample_id}
            if ps.kind == "classification":
                rec["probs"] = [float(p) for p in ps.predictions[sample_id]]
            else:
                rec["score"] = float(ps.predictions[sample_id])
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_prediction_set(path: str | Path) -> PredictionSet:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty prediction file")
    header = lines[0]
    ps = PredictionSet(
        model_id=header["model_id"],
        task=header["task"],
        kind=header["kind"],
        dev_metric=header.get("dev_metric"),
    )
    for rec in lines[1:]:
        if "probs" in rec:
            ps.predictions[rec["sample_id"]] = np.asarray(rec["probs"], dtype=np.float64)
        else:
            ps.predictions[rec["sample_id"]] = float(rec["score"])
    ps.validate()
    return ps


def save_ensemble_outputs(outputs: Iterable[EnsembleOutput], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for out in outputs:
            fh.write(
                json.dumps(
                    {
                        "sample_id": out.sample_id,
                        "label": out.label,
                        "score": out.score,
                        "question_id": out.question_id,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
