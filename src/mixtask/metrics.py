"""Evaluation metrics: accuracy, positive-class precision, MRR, and the
rank correlation restricted to predicted-positive answers.

Undefined metrics are reported as None, never silently zeroed. The
restricted rank correlation is known to be gameable (predicting no
positives removes a question from the average), so reports always carry the
count of questions that actually qualified.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import gold_binary_label
from .data import SamplePair


def accuracy(predicted: Sequence[int], gold: Sequence[int]) -> float:
    """Fraction of exact matches."""
    if len(predicted) != len(gold):
        raise ValueError(f"length mismatch: {len(predicted)} predictions vs {len(gold)} gold")
    if len(gold) == 0:
        raise ValueError("need at least one label")
    return float(np.mean(np.asarray(predicted) == np.asarray(gold)))


def precision_positive(predicted: Sequence[int], gold: Sequence[int]) -> Optional[float]:
    """TP / (TP + FP) for the positive class; None when nothing is predicted
    positive."""
    if len(predicted) != len(gold):
        raise ValueError(f"length mismatch: {len(predicted)} predictions vs {len(gold)} gold")
    pred = np.asarray(predicted)
    g = np.asarray(gold)
    for arr, name in ((pred, "predicted"), (g, "gold")):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} labels must be binary")
    n_pred_pos = int((pred == 1).sum())
    if n_pred_pos == 0:
        return None
    tp = int(((pred == 1) & (g == 1)).sum())
    return tp / n_pred_pos


def mrr(
    rankings: Mapping[str, Sequence[str]], gold_correct: Mapping[str, set]
) -> float:
    """Mean over questions of 1 / rank of the first gold-correct answer.

    Questions whose ranking contains no correct answer contribute 0.
    """
    if not rankings:
        raise ValueError("need at least one question")
    total = 0.0
    for question_id, answer_ids in rankings.items():
        if len(answer_ids) == 0:
            raise ValueError(f"question {question_id!r} has no answers")
        correct = gold_correct.get(question_id, set())
        for position, answer_id in enumerate(answer_ids, start=1):
            if answer_id in correct:
                total += 1.0 / position
                break
    return total / len(rankings)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in ascending value order, ties getting the group mean."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_correlation(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Tie-corrected rank correlation: Pearson correlation of average ranks.

    None when either side has no rank variance (correlation undefined).
    """
    rx = _average_ranks(np.asarray(x, dtype=np.float64))
    ry = _average_ranks(np.asarray(y, dtype=np.float64))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    if denom == 0.0:
        return None
    return float((rx * ry).sum()) / denom


def spearman_on_positives(
    scored_answers: Mapping[str, Sequence[tuple[str, int, float]]],
    gold_positions: Mapping[str, Mapping[str, int]],
) -> tuple[Optional[float], int]:
    """Per-question rank correlation between system scores and gold order,
    restricted to predicted-positive answers.

    scored_answers: question id -> [(answer_id, predicted_label, score)].
    gold_positions: question id -> answer id -> gold position (1 = best).
    Questions qualify with >= 2 predicted positives and defined correlation;
    returns (mean over qualifying questions or None, qualifying count).
    """
    per_question = []
    for question_id, answers in scored_answers.items():
        positives = [(a, score) for a, label, score in answers if label == 1]
        if len(positives) < 2:
            continue
        gold = gold_positions[question_id]
        scores = [score for _, score in positives]
        # Negate gold positions so both sequences are higher-is-better.
        goodness = [-gold[a] for a, _ in positives]
        rho = rank_correlation(scores, goodness)
        if rho is not None:
            per_question.append(rho)
    if not per_question:
        return None, 0
    return float(np.mean(per_question)), len(per_question)


@dataclass
class EvalReport:
    """Aggregated metrics for one task, plus per-question detail."""

    task: str
    accuracy: Optional[float] = None
    precision: Optional[float] = None
    mrr: Optional[float] = None
    spearman: Optional[float] = None
    spearman_question_count: int = 0
    n_samples: int = 0
    n_questions: int = 0
    per_question: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        """Human-readable two-column summary."""
        def fmt(v):
            return "undefined" if v is None else f"{v:.4f}"

        rows = [
            ("task", self.task),
            ("samples", str(self.n_samples)),
            ("accuracy", fmt(self.accuracy)),
            ("precision", fmt(self.precision)),
            ("mrr", fmt(self.mrr)),
            ("spearman", fmt(self.spearman)),
            ("spearman questions", str(self.spearman_question_count)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def ranking_gold(samples: Iterable[SamplePair]) -> tuple[dict, dict, dict]:
    """build_ranking_report's gold arguments for a ranking task's samples:
    (gold_correct, gold_positions, gold_labels). gold_labels holds each
    answer's gold_binary_label, gold_correct each question's correct answer
    ids, and gold_positions the total gold order per question: by relevance
    descending, then rank, over the answers that carry both."""
    gold_correct, gold_labels, ranked = {}, {}, {}
    for s in samples:
        label = gold_binary_label(s)
        gold_labels.setdefault(s.question_id, {})[s.id] = label
        if label:
            gold_correct.setdefault(s.question_id, set()).add(s.id)
        if s.question_id is not None and s.gold_relevance is not None and s.gold_rank is not None:
            ranked.setdefault(s.question_id, []).append(s)
    gold_positions = {}
    for question_id, answers in ranked.items():
        answers.sort(key=lambda s: (-s.gold_relevance, s.gold_rank))
        gold_positions[question_id] = {s.id: pos for pos, s in enumerate(answers, start=1)}
    return gold_correct, gold_positions, gold_labels


def build_ranking_report(
    task: str,
    scored_answers: Mapping[str, Sequence[tuple[str, int, float]]],
    gold_correct: Mapping[str, set],
    gold_positions: Mapping[str, Mapping[str, int]],
    gold_labels: Mapping[str, Mapping[str, int]],
) -> EvalReport:
    """Full report for an answer-ranking task.

    scored_answers lists each question's answers in system rank order.
    gold_labels: question id -> answer id -> binary correctness.
    """
    predicted, gold = [], []
    per_question = {}
    rankings = {}
    for question_id, answers in scored_answers.items():
        rankings[question_id] = [a for a, _, _ in answers]
        first_correct = None
        n_pos = 0
        for position, (answer_id, label, _) in enumerate(answers, start=1):
            predicted.append(label)
            gold.append(gold_labels[question_id][answer_id])
            n_pos += int(label == 1)
            if first_correct is None and answer_id in gold_correct.get(question_id, set()):
                first_correct = position
        per_question[question_id] = {
            "n_answers": len(answers),
            "n_predicted_positive": n_pos,
            "first_correct_rank": first_correct,
            "reciprocal_rank": 0.0 if first_correct is None else 1.0 / first_correct,
        }
    spearman, qualifying = spearman_on_positives(scored_answers, gold_positions)
    return EvalReport(
        task=task,
        accuracy=accuracy(predicted, gold),
        precision=precision_positive(predicted, gold),
        mrr=mrr(rankings, gold_correct),
        spearman=spearman,
        spearman_question_count=qualifying,
        n_samples=len(predicted),
        n_questions=len(scored_answers),
        per_question=per_question,
    )
