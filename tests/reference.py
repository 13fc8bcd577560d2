"""Reference code the tests check the library against: loss oracles, the
summed loss of a batch, a reader of the schedule stage's plan files, a
sample's JSON record and dense feature rows."""
import numpy as np

from mixtask.data import CLASSIFICATION, read_jsonl
from mixtask.featurize import featurize
from mixtask.model import LOG_EPS


def cross_entropy_loss(probs, label: int) -> float:
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


def batch_loss(model, features, gold, head_group: str) -> float:
    """A model's summed loss over a batch, no gradient."""
    if model.heads[head_group].kind == CLASSIFICATION:
        picked = model.class_probs(features, head_group)[np.arange(len(gold)), gold]
        return float(-np.log(np.maximum(picked, LOG_EPS)).sum())
    return float(((gold - model.reg_scores(features, head_group)) ** 2).sum())


def load_plan(path) -> list[dict]:
    """A plan file of the schedule stage as a list of {position, dataset,
    sample_ids}, in position order."""
    return sorted((rec for _, rec in read_jsonl(path)), key=lambda r: r["position"])


def record(sample) -> dict:
    """A sample's JSON record: its id and texts, and every other field that
    is not None."""
    return {key: value for key, value in sample.__dict__.items()
            if value is not None or key in ("id", "text_a", "text_b")}


def featurize_dense(pairs, sources, codes=None) -> list[np.ndarray]:
    """One dense (len(pairs), dim) matrix per source: featurize's rows, made dense."""
    every = np.arange(len(pairs))
    return [rows.dense(source.dim, every)
            for source, rows in zip(sources, featurize(pairs, sources, codes=codes))]
