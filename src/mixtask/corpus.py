"""Dataset construction: score transforms, negative sampling, splits, CV folds.

All procedures are pure functions of (inputs, seed); rerunning with the same
seed is byte-identical. Split recipes never create or lose samples: outputs
are disjoint and their union is the input.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .data import Dataset, SamplePair
from .seeding import derive_rng, derive_seed

if TYPE_CHECKING:  # config imports training, which imports this module
    from .config import PipelineConfig


def qa_modified_score(s: int, i: int, m: int) -> float:
    """Relevance-and-rank blended target for one ranked answer.

    Within the group of m answers sharing relevance s (1..4), the i-th most
    relevant gets s - (i-1)/m, spacing the group evenly across (s-1, s];
    the whole scale is then shifted by -2 so that the sign of the result
    encodes answer correctness. The returned value lies in (s-3, s-2].

    Note the boundary: (s=2, i=1) maps to exactly 0.0. Gold correctness is
    defined from relevance (s >= 3), never from the sign of this score, so
    the boundary cannot flip a gold label.
    """
    if s not in (1, 2, 3, 4):
        raise ValueError(f"relevance must be in 1..4, got {s}")
    if m < 1:
        raise ValueError(f"group size must be >= 1, got {m}")
    if not 1 <= i <= m:
        raise ValueError(f"rank must be in 1..{m}, got {i}")
    return (s - (i - 1) / m) - 2.0


def gold_binary_label(sample: SamplePair) -> int:
    """1 if the pair counts as a correct answer, else 0.

    Uses relevance metadata when present (relevance >= 3), otherwise the
    sign of the target score.
    """
    if sample.gold_relevance is not None:
        return int(sample.gold_relevance >= 3)
    if sample.target_score is not None:
        return int(sample.target_score > 0)
    raise ValueError(f"sample {sample.id!r} has neither gold_relevance nor target_score")


def apply_qa_modified_scores(dataset: Dataset) -> Dataset:
    """Recompute every sample's target_score from its relevance group.

    Samples are grouped by (question_id, gold_relevance); within a group of
    size m the gold_rank values must form a permutation of 1..m.
    """
    groups: dict[tuple, list[SamplePair]] = OrderedDict()
    for s in dataset:
        if s.gold_relevance is None or s.gold_rank is None:
            raise ValueError(f"sample {s.id!r} lacks gold_relevance/gold_rank; cannot rescore")
        groups.setdefault((s.question_id, s.gold_relevance), []).append(s)

    rescored: dict[str, float] = {}
    for (question_id, relevance), members in groups.items():
        m = len(members)
        ranks = sorted(s.gold_rank for s in members)
        if ranks != list(range(1, m + 1)):
            raise ValueError(
                f"question {question_id!r} relevance {relevance}: gold_rank values "
                f"{ranks} are not a permutation of 1..{m}"
            )
        for s in members:
            rescored[s.id] = qa_modified_score(relevance, s.gold_rank, m)

    return dataset.with_samples(s.copy(target_score=rescored[s.id]) for s in dataset)


@dataclass
class NegativeSampleResult:
    dataset: Dataset
    n_positives: int
    n_negatives: int
    deficient_pages: int  # pages that could not supply k negatives per positive


def medquad_negative_sample(positives: Dataset, k: int = 2, seed: int = 0) -> NegativeSampleResult:
    """Pair each positive's question with k other answers from the same page.

    Every positive is kept; its negatives draw uniformly without replacement
    from the distinct other answer texts on the same page, so a page with A
    distinct answers yields min(k, A-1) negatives per positive. Positives
    keep their target score when relevance metadata exists, else +1.0;
    negatives get -1.0. Deterministic given seed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    for s in positives:
        if s.page_id is None:
            raise ValueError(f"sample {s.id!r} lacks page_id; cannot sample negatives")

    pages: dict[str, list[SamplePair]] = OrderedDict()
    for s in positives:
        pages.setdefault(s.page_id, []).append(s)

    out: list[SamplePair] = []
    n_neg = 0
    deficient = set()
    for page_id, members in pages.items():
        # Candidate pool per positive: distinct answer texts on the page, own answer excluded.
        distinct = list(OrderedDict.fromkeys(s.text_a for s in members))
        for s in members:
            target = s.target_score if s.gold_relevance is not None else 1.0
            out.append(s.copy(target_score=target))
            candidates = [a for a in distinct if a != s.text_a]
            take = min(k, len(candidates))
            if take < k:
                deficient.add(page_id)
            if take == 0:
                continue
            rng = derive_rng(seed, "medquad-neg", page_id, s.id)
            picks = rng.choice(len(candidates), size=take, replace=False)
            for j, pick in enumerate(sorted(int(p) for p in picks)):
                out.append(
                    s.copy(
                        id=f"{s.id}__neg{j + 1}",
                        text_a=candidates[pick],
                        target_score=-1.0,
                        gold_relevance=None,
                        gold_rank=None,
                    )
                )
                n_neg += 1

    result = positives.with_samples(out)
    return NegativeSampleResult(
        dataset=result,
        n_positives=len(positives),
        n_negatives=n_neg,
        deficient_pages=len(deficient),
    )


def mednli_merge_dev(train: Dataset, dev: Dataset) -> Dataset:
    """Fold the development split into training, order train-then-dev."""
    return train.with_samples(list(train.samples) + list(dev.samples))


def rqe_shuffle_split(train: Dataset, eval_set: Dataset, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Move a random half of the evaluation data into training.

    floor(|eval|/2) samples, chosen uniformly, append to train in their
    original order; the remainder (original order) is the new evaluation
    set. Deterministic given seed.
    """
    n = len(eval_set)
    rng = derive_rng(seed, "rqe-shuffle", eval_set.name)
    perm = rng.permutation(n)
    moved = set(int(i) for i in perm[: n // 2])
    moved_samples = [s for i, s in enumerate(eval_set) if i in moved]
    kept_samples = [s for i, s in enumerate(eval_set) if i not in moved]
    new_train = train.with_samples(list(train.samples) + moved_samples)
    new_eval = eval_set.with_samples(kept_samples)
    return new_train, new_eval


def _question_order(samples: list[SamplePair]) -> list[str]:
    """Question ids in order of first appearance."""
    seen = OrderedDict()
    for s in samples:
        if s.question_id is None:
            raise ValueError(f"sample {s.id!r} lacks question_id")
        seen.setdefault(s.question_id, None)
    return list(seen)


def qa_dev_reshuffle(
    train: Dataset,
    dev: Dataset,
    n_dev_questions: int = 25,
    n_alexa_questions: int = 25,
    alexa_tag: str = "alexa",
) -> tuple[Dataset, Dataset]:
    """Rebuild the dev split from the tail questions of both input splits.

    The new dev set is: all pairs of the last n_dev_questions questions of
    the original dev set, followed by all pairs of the last n_alexa_questions
    train questions whose samples carry source_tag == alexa_tag. Everything
    else, train remainder first, becomes the new training set. A count of 0
    moves no question; a negative count, or a new dev set with no pairs, is
    a ValueError.
    """
    if n_dev_questions < 0 or n_alexa_questions < 0:
        raise ValueError("question counts must be >= 0")
    dev_questions = _question_order(dev.samples)
    if len(dev_questions) < n_dev_questions:
        raise ValueError(
            f"dev split has {len(dev_questions)} questions, needs >= {n_dev_questions}"
        )
    dev_moved = set(dev_questions[len(dev_questions) - n_dev_questions :])

    train_questions = _question_order(train.samples)
    tagged = {s.question_id for s in train if s.source_tag == alexa_tag}
    alexa_questions = [q for q in train_questions if q in tagged]
    if len(alexa_questions) < n_alexa_questions:
        raise ValueError(
            f"train split has {len(alexa_questions)} {alexa_tag!r}-tagged questions, "
            f"needs >= {n_alexa_questions}"
        )
    alexa_moved = set(alexa_questions[len(alexa_questions) - n_alexa_questions :])

    new_dev = [s for s in dev if s.question_id in dev_moved] + [
        s for s in train if s.question_id in alexa_moved
    ]
    if not new_dev:
        raise ValueError("the dev reshuffle moves no question, so the dev split would be empty")
    new_train = [s for s in train if s.question_id not in alexa_moved] + [
        s for s in dev if s.question_id not in dev_moved
    ]
    return train.with_samples(new_train), dev.with_samples(new_dev)


def random_split(dataset: Dataset, eval_count: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Randomly divide a dataset into (train, eval) with |eval| = eval_count."""
    n = len(dataset)
    if not 0 <= eval_count <= n:
        raise ValueError(f"eval_count {eval_count} out of range for {n} samples")
    rng = derive_rng(seed, "random-split", dataset.name)
    perm = rng.permutation(n)
    eval_idx = set(int(i) for i in perm[:eval_count])
    train_samples = [s for i, s in enumerate(dataset) if i not in eval_idx]
    eval_samples = [s for i, s in enumerate(dataset) if i in eval_idx]
    return dataset.with_samples(train_samples), dataset.with_samples(eval_samples)


def apply_split_recipe(
    cfg: PipelineConfig, name: str, bundle: dict[str, Dataset]
) -> dict[str, Dataset]:
    """A dataset's splits after the recipe `cfg.split_recipes` names for it, if
    any. A recipe adds no eval split: a dataset without one is evaluated on dev."""
    recipe = cfg.split_recipes.get(name, "none")
    if recipe == "none":
        return bundle
    if recipe == "merge_dev":
        if "dev" not in bundle or "eval" not in bundle:
            raise ValueError(f"{name!r}: merge_dev needs dev and eval splits")
        merged = mednli_merge_dev(bundle["train"], bundle["dev"])
        return {"train": merged, "dev": bundle["eval"]}
    if recipe == "shuffle_half_eval":
        if "dev" not in bundle:
            raise ValueError(f"{name!r}: shuffle_half_eval needs a dev split")
        seed = derive_seed(cfg.master_seed, "split", "shuffle-half", name)
        train, dev = rqe_shuffle_split(bundle["train"], bundle["dev"], seed)
        return {**bundle, "train": train, "dev": dev}
    if recipe == "reshuffle_dev":
        if "dev" not in bundle:
            raise ValueError(f"{name!r}: reshuffle_dev needs a dev split")
        train, dev = qa_dev_reshuffle(
            bundle["train"],
            bundle["dev"],
            n_dev_questions=cfg.reshuffle_dev_questions,
            n_alexa_questions=cfg.reshuffle_tagged_questions,
            alexa_tag=cfg.reshuffle_tag,
        )
        return {**bundle, "train": train, "dev": dev}
    if recipe == "random_split":
        counts = cfg.random_split_counts.get(name, {})
        eval_count = int(counts.get("eval_count", max(1, len(bundle["train"]) // 10)))
        seed = derive_seed(cfg.master_seed, "split", "random", name)
        train, dev = random_split(bundle["train"], eval_count, seed)
        return {**bundle, "train": train, "dev": dev}
    raise ValueError(f"unknown split recipe {recipe!r} for {name!r}")


def cv_folds(dataset: Dataset, k: int = 5) -> list[tuple[Dataset, Dataset]]:
    """K cross-validation splits over contiguous, balanced slices of the pairs.

    Slices partition the samples in input order with sizes differing by at
    most 1; fold j trains on every slice except j and validates on slice j.
    """
    n = len(dataset)
    if k < 2:
        raise ValueError("fold count must be >= 2")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    base, extra = divmod(n, k)
    slices: list[list[SamplePair]] = []
    start = 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        slices.append(dataset.samples[start : start + size])
        start += size
    folds = []
    for j in range(k):
        train_samples = [s for idx, sl in enumerate(slices) if idx != j for s in sl]
        folds.append((dataset.with_samples(train_samples), dataset.with_samples(slices[j])))
    return folds
