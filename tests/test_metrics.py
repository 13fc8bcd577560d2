import numpy as np
import pytest
from scipy import stats

from mixtask.metrics import (
    EvalReport,
    accuracy,
    build_ranking_report,
    mrr,
    precision_positive,
    rank_correlation,
    ranking_gold,
    spearman_on_positives,
)


def test_accuracy_fixtures():
    assert accuracy([1, 0, 1, 1], [1, 0, 1, 0]) == 0.75
    assert accuracy([2, 1, 0], [2, 1, 0]) == 1.0
    assert accuracy([0, 0], [1, 1]) == 0.0
    with pytest.raises(ValueError):
        accuracy([1], [1, 0])
    with pytest.raises(ValueError):
        accuracy([], [])


def test_precision_fixtures():
    # TP=2, FP=1
    assert precision_positive([1, 1, 1, 0], [1, 1, 0, 0]) == pytest.approx(2 / 3)
    assert precision_positive([0, 0, 0], [1, 0, 1]) is None
    assert precision_positive([1, 1, 1, 1], [1, 1, 0, 0]) == 0.5
    with pytest.raises(ValueError, match="binary"):
        precision_positive([2, 0], [1, 0])


def test_mrr_fixtures():
    rankings = {"q1": ["a", "b"], "q2": ["c", "d"]}
    gold = {"q1": {"a"}, "q2": {"d"}}
    assert mrr(rankings, gold) == 0.75
    assert mrr(rankings, {"q1": {"a"}, "q2": {"c"}}) == 1.0
    assert mrr(rankings, {"q1": set(), "q2": set()}) == 0.0  # no correct answers


def independent_mrr(rankings, gold):
    # direct restatement: average the reciprocal position of the first hit
    total = 0.0
    for q, answers in rankings.items():
        rr = 0.0
        for pos, a in enumerate(answers, start=1):
            if a in gold.get(q, set()):
                rr = 1.0 / pos
                break
        total += rr
    return total / len(rankings)


def test_mrr_matches_independent_oracle_on_random_fixtures():
    rng = np.random.default_rng(31)
    for _ in range(100):
        rankings, gold = {}, {}
        for q in range(int(rng.integers(1, 8))):
            n = int(rng.integers(1, 10))
            answers = [f"q{q}a{i}" for i in range(n)]
            rankings[f"q{q}"] = answers
            gold[f"q{q}"] = {a for a in answers if rng.random() < 0.3}
        assert mrr(rankings, gold) == pytest.approx(independent_mrr(rankings, gold), abs=1e-15)


def test_mrr_invariant_below_first_correct():
    rankings = {"q": ["a", "b", "c", "d"]}
    gold = {"q": {"b"}}
    base = mrr(rankings, gold)
    assert mrr({"q": ["a", "b", "d", "c"]}, gold) == base


def test_rank_correlation_perfect_and_reversed():
    assert rank_correlation([3.0, 2.0, 1.0], [30, 20, 10]) == pytest.approx(1.0)
    assert rank_correlation([1.0, 2.0, 3.0], [30, 20, 10]) == pytest.approx(-1.0)
    assert rank_correlation([1.0, 1.0], [1.0, 2.0]) is None  # zero variance


def test_rank_correlation_matches_scipy_with_ties():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 15))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if rng.random() < 0.5:  # inject ties
            x[rng.integers(0, n)] = x[rng.integers(0, n)]
            y[rng.integers(0, n)] = y[rng.integers(0, n)]
        expected = stats.spearmanr(x, y).statistic
        got = rank_correlation(x, y)
        if np.isnan(expected):
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-9)
            checked += 1
    assert checked > 250


def scored_fixture(rng, n_questions=6):
    scored, gold_pos = {}, {}
    for q in range(n_questions):
        n = int(rng.integers(2, 9))
        answers = []
        order = rng.permutation(n)
        for i in range(n):
            answers.append((f"q{q}a{i}", int(rng.random() < 0.7), float(rng.normal())))
        scored[f"q{q}"] = answers
        gold_pos[f"q{q}"] = {f"q{q}a{i}": int(order[i]) + 1 for i in range(n)}
    return scored, gold_pos


def test_spearman_on_positives_perfect_and_reversed():
    scored = {"q": [("a", 1, 3.0), ("b", 1, 2.0), ("c", 1, 1.0)]}
    gold = {"q": {"a": 1, "b": 2, "c": 3}}
    value, count = spearman_on_positives(scored, gold)
    assert value == pytest.approx(1.0) and count == 1
    reversed_gold = {"q": {"a": 3, "b": 2, "c": 1}}
    value, _ = spearman_on_positives(scored, reversed_gold)
    assert value == pytest.approx(-1.0)


def test_spearman_on_positives_restricts_to_predicted_positives():
    scored = {"q": [("a", 1, 3.0), ("x", 0, 2.5), ("b", 1, 2.0)]}
    gold = {"q": {"a": 1, "x": 2, "b": 3}}
    value, count = spearman_on_positives(scored, gold)
    assert value == pytest.approx(1.0) and count == 1  # "x" is ignored


def test_spearman_on_positives_undefined_cases():
    # fewer than 2 predicted positives -> no qualifying questions
    scored = {"q": [("a", 1, 1.0), ("b", 0, 0.5)]}
    gold = {"q": {"a": 1, "b": 2}}
    assert spearman_on_positives(scored, gold) == (None, 0)
    # constant scores -> correlation undefined, question excluded
    scored = {"q": [("a", 1, 1.0), ("b", 1, 1.0)]}
    assert spearman_on_positives(scored, gold) == (None, 0)


def test_spearman_on_positives_matches_scipy_mean():
    rng = np.random.default_rng(33)
    for _ in range(50):
        scored, gold_pos = scored_fixture(rng)
        got, count = spearman_on_positives(scored, gold_pos)
        per_question = []
        for q, answers in scored.items():
            positives = [(a, s) for a, label, s in answers if label == 1]
            if len(positives) < 2:
                continue
            rho = stats.spearmanr(
                [s for _, s in positives], [-gold_pos[q][a] for a, _ in positives]
            ).statistic
            if not np.isnan(rho):
                per_question.append(rho)
        if not per_question:
            assert got is None and count == 0
        else:
            assert count == len(per_question)
            assert got == pytest.approx(float(np.mean(per_question)), abs=1e-9)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(34)
    for _ in range(100):
        scored, gold_pos = scored_fixture(rng, n_questions=4)
        base, base_count = spearman_on_positives(scored, gold_pos)
        transformed = {
            q: [(a, label, float(np.exp(0.5 * s) + 3.0)) for a, label, s in answers]
            for q, answers in scored.items()
        }
        got, count = spearman_on_positives(transformed, gold_pos)
        assert count == base_count
        if base is None:
            assert got is None
        else:
            assert got == pytest.approx(base, abs=1e-12)


def test_metrics_invariant_under_question_relabeling():
    rankings = {"q1": ["a", "b"], "q2": ["c"]}
    gold = {"q1": {"b"}, "q2": {"c"}}
    renamed = {"zzz": rankings["q1"], "yyy": rankings["q2"]}
    renamed_gold = {"zzz": gold["q1"], "yyy": gold["q2"]}
    assert mrr(rankings, gold) == mrr(renamed, renamed_gold)


def test_build_ranking_report_shapes():
    scored = {
        "q1": [("a", 1, 2.0), ("b", 1, 1.0), ("c", 0, -1.0)],
        "q2": [("d", 0, -0.5), ("e", 0, -0.7)],
    }
    gold_labels = {"q1": {"a": 1, "b": 0, "c": 0}, "q2": {"d": 1, "e": 0}}
    gold_correct = {"q1": {"a"}, "q2": {"d"}}
    gold_pos = {"q1": {"a": 1, "b": 2, "c": 3}, "q2": {"d": 1, "e": 2}}
    report = build_ranking_report("t", scored, gold_correct, gold_pos, gold_labels)
    assert report.n_samples == 5 and report.n_questions == 2
    # correct: a (1/1), c (0/0), e (0/0); wrong: b (1/0), d (0/1)
    assert report.accuracy == pytest.approx(3 / 5)
    assert report.mrr == pytest.approx(1.0)  # both first answers correct
    assert report.per_question["q1"]["first_correct_rank"] == 1
    assert report.per_question["q2"]["n_predicted_positive"] == 0
    assert report.spearman_question_count == 1
    payload = report.to_dict()
    assert set(payload) >= {"accuracy", "precision", "mrr", "spearman", "per_question"}
    assert "undefined" not in (payload["accuracy"], payload["mrr"])
    table = report.table()
    assert "accuracy" in table and "spearman" in table


def test_ranking_gold_orders_answers_by_relevance_then_rank():
    from mixtask.data import SamplePair

    def answer(sample_id, question_id, relevance, rank):
        return SamplePair(id=sample_id, text_a="q", text_b="a", target_score=0.0,
                          question_id=question_id, gold_relevance=relevance, gold_rank=rank)

    samples = [answer("a", "q1", 2, 1), answer("b", "q1", 4, 2), answer("c", "q1", 4, 1),
               answer("d", "q2", 3, 1), answer("e", "q2", None, None)]
    gold_correct, gold_positions, gold_labels = ranking_gold(samples)
    assert gold_correct == {"q1": {"b", "c"}, "q2": {"d"}}
    assert gold_positions == {"q1": {"c": 1, "b": 2, "a": 3}, "q2": {"d": 1}}
    assert gold_labels == {"q1": {"a": 0, "b": 1, "c": 1}, "q2": {"d": 1, "e": 0}}


def test_report_carries_undefined_explicitly():
    report = EvalReport(task="t", accuracy=0.5)
    assert report.precision is None and report.spearman is None
    assert "undefined" in report.table()
