import json

import numpy as np
import pytest

from mixtask.corpus import (
    apply_qa_modified_scores,
    cv_folds,
    gold_binary_label,
    mednli_merge_dev,
    medquad_negative_sample,
    qa_dev_reshuffle,
    qa_modified_score,
    random_split,
    rqe_shuffle_split,
)
from mixtask.data import Dataset, SamplePair, TaskKind

from conftest import make_dataset, make_pairs
from reference import record


# -- score transform ------------------------------------------------------------


def test_modified_score_spot_values():
    assert qa_modified_score(4, 1, 25) == 2.0
    assert qa_modified_score(3, 4, 4) == 0.25
    assert qa_modified_score(2, 1, 5) == 0.0  # documented boundary


def test_modified_score_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qa_modified_score(5, 1, 1)
    with pytest.raises(ValueError):
        qa_modified_score(3, 0, 4)
    with pytest.raises(ValueError):
        qa_modified_score(3, 5, 4)


def test_modified_score_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        s = int(rng.integers(1, 5))
        m = int(rng.integers(1, 60))
        i = int(rng.integers(1, m + 1))
        value = qa_modified_score(s, i, m)
        assert s - 3 < value <= s - 2
        if i < m:
            assert value > qa_modified_score(s, i + 1, m)  # strictly decreasing in rank
        if s > 1:
            m2 = int(rng.integers(1, 60))
            i2 = int(rng.integers(1, m2 + 1))
            assert value > qa_modified_score(s - 1, i2, m2)  # level separation


def test_apply_modified_scores_groups_by_question_and_level():
    pairs = [
        SamplePair(id="a", text_a="x", text_b="q", target_score=0.0, question_id="q1",
                   gold_relevance=4, gold_rank=2),
        SamplePair(id="b", text_a="y", text_b="q", target_score=0.0, question_id="q1",
                   gold_relevance=4, gold_rank=1),
        SamplePair(id="c", text_a="z", text_b="q", target_score=0.0, question_id="q1",
                   gold_relevance=2, gold_rank=1),
    ]
    ds = Dataset(name="qa", task_kind=TaskKind.parse("regression"), samples=pairs)
    out = apply_qa_modified_scores(ds)
    by_id = {s.id: s.target_score for s in out}
    assert by_id["b"] == qa_modified_score(4, 1, 2) == 2.0
    assert by_id["a"] == qa_modified_score(4, 2, 2) == 1.5
    assert by_id["c"] == 0.0


def test_apply_modified_scores_requires_rank_permutation():
    pairs = [
        SamplePair(id="a", text_a="x", text_b="q", target_score=0.0, question_id="q1",
                   gold_relevance=4, gold_rank=3),
        SamplePair(id="b", text_a="y", text_b="q", target_score=0.0, question_id="q1",
                   gold_relevance=4, gold_rank=1),
    ]
    ds = Dataset(name="qa", task_kind=TaskKind.parse("regression"), samples=pairs)
    with pytest.raises(ValueError, match="permutation"):
        apply_qa_modified_scores(ds)


def test_gold_binary_label_uses_relevance_over_sign():
    boundary = SamplePair(id="a", text_a="x", text_b="y", target_score=0.0,
                          gold_relevance=2, gold_rank=1)
    assert gold_binary_label(boundary) == 0  # relevance 2 is incorrect despite score 0.0
    assert gold_binary_label(SamplePair(id="b", text_a="x", text_b="y", target_score=0.0,
                                        gold_relevance=3, gold_rank=1)) == 1
    assert gold_binary_label(SamplePair(id="c", text_a="x", text_b="y", target_score=-1.0)) == 0
    assert gold_binary_label(SamplePair(id="d", text_a="x", text_b="y", target_score=1.0)) == 1


# -- negative sampling ----------------------------------------------------------


def pages_dataset(spec, name="pages"):
    """spec: {page_id: n_answers}; every answer text distinct."""
    pairs = []
    for page, n in spec.items():
        for i in range(n):
            pairs.append(
                SamplePair(
                    id=f"{page}-a{i}", text_a=f"answer {page} {i}", text_b=f"question {page} {i}",
                    target_score=1.0, page_id=page,
                )
            )
    return Dataset(name=name, task_kind=TaskKind.parse("regression"), samples=pairs)


def test_negatives_fixture_three_pages():
    ds = pages_dataset({"p1": 3, "p2": 3, "p3": 3})
    result = medquad_negative_sample(ds, k=2, seed=9)
    assert result.n_positives == 9
    assert result.n_negatives == 18
    assert len(result.dataset) == 27
    assert result.deficient_pages == 0
    gold = {s.text_b: s.text_a for s in ds}
    for s in result.dataset:
        if s.target_score == -1.0:
            assert s.text_a != gold[s.text_b]  # negative never repeats the gold answer
            assert s.page_id is not None


def test_negatives_single_answer_page_yields_none():
    ds = pages_dataset({"solo": 1})
    result = medquad_negative_sample(ds, k=2, seed=9)
    assert result.n_negatives == 0
    assert result.deficient_pages == 1
    assert len(result.dataset) == 1


def test_negatives_size_formula_random_pages():
    rng = np.random.default_rng(4)
    for trial in range(30):
        spec = {f"p{j}": int(rng.integers(1, 7)) for j in range(int(rng.integers(1, 9)))}
        k = int(rng.integers(0, 4))
        ds = pages_dataset(spec)
        result = medquad_negative_sample(ds, k=k, seed=trial)
        expected = sum(n * (1 + min(k, n - 1)) for n in spec.values())
        assert len(result.dataset) == expected


def test_negatives_deterministic_given_seed():
    ds = pages_dataset({"p1": 5, "p2": 4})
    a = medquad_negative_sample(ds, k=2, seed=77).dataset
    b = medquad_negative_sample(ds, k=2, seed=77).dataset
    assert [record(s) for s in a] == [record(s) for s in b]
    c = medquad_negative_sample(ds, k=2, seed=78).dataset
    assert [record(s) for s in a] != [record(s) for s in c]


def test_negatives_keep_positive_targets():
    # relevance-scored positives keep their score; unscored ones become +1
    pairs = [
        SamplePair(id="a", text_a="ans a", text_b="q a", target_score=1.75, page_id="p",
                   question_id="q1", gold_relevance=4, gold_rank=1),
        SamplePair(id="b", text_a="ans b", text_b="q b", target_score=123.0, page_id="p"),
    ]
    ds = Dataset(name="pg", task_kind=TaskKind.parse("regression"), samples=pairs)
    out = {s.id: s for s in medquad_negative_sample(ds, k=1, seed=0).dataset}
    assert out["a"].target_score == 1.75
    assert out["b"].target_score == 1.0
    assert out["a__neg1"].target_score == -1.0


# -- split recipes ---------------------------------------------------------------


def test_merge_dev_concatenates_in_order():
    train = make_dataset(100, name="nli", seed=1)
    dev = make_dataset(20, name="nli", seed=2)
    for i, s in enumerate(dev.samples):
        s.id = f"dev{i:04d}"
    merged = mednli_merge_dev(train, dev)
    assert len(merged) == 120
    assert merged.sample_ids == train.sample_ids + dev.sample_ids


def test_rqe_shuffle_split_moves_floor_half():
    train = make_dataset(40, name="rqe", seed=1)
    eval_set = make_dataset(21, name="rqe", seed=2)
    for i, s in enumerate(eval_set.samples):
        s.id = f"ev{i:04d}"
    new_train, new_eval = rqe_shuffle_split(train, eval_set, seed=5)
    assert len(new_train) == 40 + 10  # floor(21/2)
    assert len(new_eval) == 11
    # disjoint, union preserved
    moved = set(new_train.sample_ids) - set(train.sample_ids)
    assert moved | set(new_eval.sample_ids) == set(eval_set.sample_ids)
    assert moved.isdisjoint(new_eval.sample_ids)
    # deterministic
    again_train, again_eval = rqe_shuffle_split(train, eval_set, seed=5)
    assert again_train.sample_ids == new_train.sample_ids
    assert again_eval.sample_ids == new_eval.sample_ids


def qa_corpus(question_sizes, tag=None, prefix="q", name="qa"):
    """question_sizes: list of pair counts, one question each."""
    pairs = []
    for qi, size in enumerate(question_sizes):
        for ai in range(size):
            pairs.append(
                SamplePair(
                    id=f"{prefix}{qi:04d}-a{ai}", text_a=f"ans {prefix}{qi} {ai}",
                    text_b=f"question {prefix}{qi}", target_score=1.0,
                    question_id=f"{prefix}{qi:04d}",
                    source_tag=tag(qi) if callable(tag) else tag,
                )
            )
    return Dataset(name=name, task_kind=TaskKind.parse("regression"), samples=pairs)


def test_qa_dev_reshuffle_moves_tail_questions():
    train = qa_corpus([2] * 30, tag=lambda qi: "alexa" if qi % 2 else "live", prefix="tr")
    dev = qa_corpus([3] * 27, prefix="dv")
    new_train, new_dev = qa_dev_reshuffle(train, dev, n_dev_questions=25, n_alexa_questions=10)
    # moved: last 25 dev questions (75 pairs) + last 10 alexa train questions (20 pairs)
    assert len(new_dev) == 75 + 20
    assert len(new_train) == len(train) + len(dev) - len(new_dev)
    dev_qids = [s.question_id for s in new_dev]
    assert dev_qids[:75] == [f"dv{qi:04d}" for qi in range(2, 27) for _ in range(3)]
    # union preserved
    assert set(new_train.sample_ids) | set(new_dev.sample_ids) == set(train.sample_ids) | set(
        dev.sample_ids
    )
    assert set(new_train.sample_ids).isdisjoint(new_dev.sample_ids)


def test_qa_dev_reshuffle_of_zero_questions_moves_none():
    train = qa_corpus([2] * 30, tag=lambda qi: "alexa" if qi % 2 else "live", prefix="tr")
    dev = qa_corpus([3] * 27, prefix="dv")
    new_train, new_dev = qa_dev_reshuffle(train, dev, n_dev_questions=0, n_alexa_questions=3)
    assert [s.question_id for s in new_dev] == [f"tr{qi:04d}" for qi in (25, 27, 29) for _ in range(2)]
    assert new_train.sample_ids == [s.id for s in train if s.question_id not in
                                    {"tr0025", "tr0027", "tr0029"}] + dev.sample_ids
    _, new_dev = qa_dev_reshuffle(train, dev, n_dev_questions=2, n_alexa_questions=0)
    assert [s.question_id for s in new_dev] == [f"dv{qi:04d}" for qi in (25, 26) for _ in range(3)]
    with pytest.raises(ValueError, match="dev split would be empty"):
        qa_dev_reshuffle(train, dev, n_dev_questions=0, n_alexa_questions=0)
    for counts in ((-5, 3), (3, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            qa_dev_reshuffle(train, dev, *counts)


def test_qa_dev_reshuffle_requires_enough_questions():
    train = qa_corpus([2] * 30, tag="alexa", prefix="tr")
    dev = qa_corpus([3] * 10, prefix="dv")
    with pytest.raises(ValueError, match="questions"):
        qa_dev_reshuffle(train, dev, n_dev_questions=25, n_alexa_questions=10)
    with pytest.raises(ValueError, match="alexa"):
        qa_dev_reshuffle(qa_corpus([2] * 30, tag="live", prefix="tr"), qa_corpus([3] * 30, prefix="dv"),
                         n_dev_questions=25, n_alexa_questions=10)


def test_random_split_counts_and_determinism():
    ds = make_dataset(50, kind="regression", name="pg", seed=3)
    train, eval_set = random_split(ds, eval_count=7, seed=13)
    assert len(train) == 43 and len(eval_set) == 7
    assert set(train.sample_ids) | set(eval_set.sample_ids) == set(ds.sample_ids)
    train2, eval2 = random_split(ds, eval_count=7, seed=13)
    assert train2.sample_ids == train.sample_ids and eval2.sample_ids == eval_set.sample_ids


def test_cv_fold_sizes_balanced():
    ds = make_dataset(13, name="qa", seed=3)
    folds = cv_folds(ds, k=5)
    sizes = sorted((len(dev) for _, dev in folds), reverse=True)
    assert sizes == [3, 3, 3, 2, 2]
    for train, dev in folds:
        assert len(train) + len(dev) == 13
        assert set(train.sample_ids).isdisjoint(dev.sample_ids)


def test_cv_each_pair_validates_once():
    ds = make_dataset(23, name="qa", seed=3)
    folds = cv_folds(ds, k=5)
    val_counts = {sid: 0 for sid in ds.sample_ids}
    train_counts = {sid: 0 for sid in ds.sample_ids}
    for train, dev in folds:
        for sid in dev.sample_ids:
            val_counts[sid] += 1
        for sid in train.sample_ids:
            train_counts[sid] += 1
    assert all(c == 1 for c in val_counts.values())
    assert all(c == 4 for c in train_counts.values())


def test_cv_rejects_bad_k():
    ds = make_dataset(4, name="qa")
    with pytest.raises(ValueError):
        cv_folds(ds, k=1)
    with pytest.raises(ValueError):
        cv_folds(ds, k=5)
