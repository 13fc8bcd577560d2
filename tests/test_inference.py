import itertools
import json
import re

import numpy as np
import pytest

from mixtask.data import TaskKind
from mixtask.inference import (
    PredictionSet,
    combine_predictions,
    ensemble_classify,
    ensemble_regress,
    load_prediction_set,
    mednli_constrained_decode,
    rank_answers,
    save_prediction_set,
    select_members,
)


# -- independent oracles (plain-python re-statements of the voting rules) --------


def brute_classify(vectors):
    votes = []
    for p in vectors:
        best_c, best_v = 0, p[0]
        for c, v in enumerate(p):
            if v > best_v:
                best_c, best_v = c, v
        votes.append(best_c)
    counts = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    majority = sorted(c for c, n in counts.items() if n == top)
    best_c, best_sum = None, None
    for c in majority:
        total = sum(p[c] for p in vectors)
        if best_sum is None or total > best_sum:
            best_c, best_sum = c, total
    return best_c


def brute_regress(scores):
    votes = sum(1 for s in scores if s >= 0)
    mean = sum(scores) / len(scores)
    if votes > len(scores) / 2:
        return 1, mean
    if votes < len(scores) / 2:
        return 0, mean
    return (1 if mean > 0 else 0), mean


def brute_decode(matrix):
    best_perm, best_product = None, None
    for perm in itertools.permutations(range(3)):
        product = matrix[0][perm[0]] * matrix[1][perm[1]] * matrix[2][perm[2]]
        if best_product is None or product > best_product:
            best_perm, best_product = perm, product
    return best_perm


# -- classification voting ---------------------------------------------------------


def test_classify_strict_majority():
    assert ensemble_classify([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]]) == 0


def test_classify_tie_resolved_by_probability_sum():
    # votes split 1-1; sums 0.8 vs 1.2 pick class 1
    assert ensemble_classify([[0.6, 0.4], [0.2, 0.8]]) == 1


def test_classify_single_model_is_argmax():
    assert ensemble_classify([[0.2, 0.5, 0.3]]) == 1


def test_classify_exact_tie_breaks_to_lowest_class():
    assert ensemble_classify([[0.5, 0.5]]) == 0
    assert ensemble_classify([[0.4, 0.4, 0.2], [0.4, 0.4, 0.2]]) == 0


def test_classify_permutation_invariant():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        vectors = rng.dirichlet(np.ones(c), size=m)
        base = ensemble_classify(vectors)
        perm = rng.permutation(m)
        assert ensemble_classify(vectors[perm]) == base


def random_classification_instances(n, seed):
    """Mix of smooth random instances and crafted tie-prone ones."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        m, c = int(rng.integers(1, 8)), int(rng.integers(2, 5))
        if i % 5 == 0:  # duplicated vectors force vote and sum ties
            base = rng.dirichlet(np.ones(c))
            vectors = np.tile(base, (m, 1))
        elif i % 7 == 0:  # uniform rows tie every argmax
            vectors = np.full((m, c), 1.0 / c)
        else:
            vectors = rng.dirichlet(np.ones(c), size=m)
        instances.append(vectors)
    return instances


def test_classify_matches_bruteforce_on_1000_instances():
    for vectors in random_classification_instances(1000, seed=22):
        assert ensemble_classify(vectors) == brute_classify([list(v) for v in vectors])


def test_classify_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ensemble_classify([])
    with pytest.raises(ValueError):
        ensemble_classify([[0.5, 0.5], [0.2, 0.3, 0.5]])


# -- regression voting --------------------------------------------------------------


def test_regress_strict_majority():
    assert ensemble_regress([0.5, -0.1, 0.2]) == (1, pytest.approx(0.2))


def test_regress_tie_uses_mean_sign():
    label, mean = ensemble_regress([0.5, -0.3])
    assert (label, mean) == (1, pytest.approx(0.1))


def test_regress_zero_counts_as_positive_vote():
    # vote I(0 >= 0) = 1 wins outright, even though the tie-break I(mean > 0)
    # would have said 0
    assert ensemble_regress([0.0]) == (1, 0.0)


def test_regress_exact_tie_at_zero_mean_predicts_zero():
    label, mean = ensemble_regress([0.5, -0.5])
    assert mean == 0.0 and label == 0  # I(0 > 0) = 0 on the tie branch


def test_regress_minority_magnitudes_do_not_matter():
    base, _ = ensemble_regress([1.0, 2.0, -0.5])
    loud, _ = ensemble_regress([1.0, 2.0, -500.0])
    assert base == loud == 1


def test_regress_matches_bruteforce_on_1000_instances():
    rng = np.random.default_rng(23)
    for i in range(1000):
        m = int(rng.integers(1, 8))
        scores = rng.normal(0, 1, size=m)
        if i % 4 == 0:  # exercise the >= 0 vote boundary
            scores[rng.integers(0, m)] = 0.0
        if i % 6 == 0 and m % 2 == 0:  # force vote ties
            scores = np.abs(scores)
            scores[: m // 2] *= -1
        expected = brute_regress(list(scores))
        got = ensemble_regress(scores)
        assert got[0] == expected[0]
        assert got[1] == expected[1]


def test_regress_permutation_invariant():
    rng = np.random.default_rng(24)
    for _ in range(200):
        scores = rng.normal(size=int(rng.integers(1, 7)))
        base_label, base_mean = ensemble_regress(scores)
        perm_label, perm_mean = ensemble_regress(rng.permutation(scores))
        assert perm_label == base_label
        assert perm_mean == pytest.approx(base_mean, abs=1e-12)  # float sum order


# -- ranking -------------------------------------------------------------------------


def test_rank_positives_first():
    ranked = rank_answers([("a", 1, 1.2), ("b", 0, -0.3), ("c", 1, 0.4)])
    assert [a for a, _, _ in ranked] == ["a", "c", "b"]


def test_rank_all_negative_by_score():
    ranked = rank_answers([("x", 0, -0.1), ("y", 0, -0.5)])
    assert [a for a, _, _ in ranked] == ["x", "y"]


def test_rank_ties_break_by_answer_id():
    ranked = rank_answers([("q2", 1, 0.5), ("q1", 1, 0.5)])
    assert [a for a, _, _ in ranked] == ["q1", "q2"]


def test_rank_output_is_permutation_and_partitioned():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        answers = [(f"a{i}", int(rng.integers(0, 2)), float(rng.normal())) for i in range(n)]
        ranked = rank_answers(answers)
        assert sorted(a for a, _, _ in ranked) == sorted(a for a, _, _ in answers)
        labels = [label for _, label, _ in ranked]
        assert labels == sorted(labels, reverse=True)


# -- constrained triple decoding ------------------------------------------------------


def test_decode_diagonal_dominant_is_identity():
    matrix = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]
    assert mednli_constrained_decode(matrix) == (0, 1, 2)


def test_decode_beats_greedy_assignment():
    matrix = [[0.5, 0.45, 0.05], [0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]
    assignment = mednli_constrained_decode(matrix)
    assert assignment == (1, 0, 2)
    chosen = matrix[0][1] * matrix[1][0] * matrix[2][2]
    greedy = matrix[0][0] * matrix[1][1] * matrix[2][2]  # row-wise argmax with removal
    assert chosen == pytest.approx(0.162)
    assert greedy == pytest.approx(0.09)
    assert chosen > greedy


def test_decode_uniform_matrix_ties_to_first_permutation():
    third = 1.0 / 3.0
    assert mednli_constrained_decode([[third] * 3] * 3) == (0, 1, 2)


def test_decode_matches_bruteforce_on_500_matrices():
    rng = np.random.default_rng(26)
    for _ in range(500):
        matrix = rng.dirichlet(np.ones(3), size=3)
        got = mednli_constrained_decode(matrix)
        assert sorted(got) == [0, 1, 2]  # always a bijection
        assert got == brute_decode([list(r) for r in matrix])


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        mednli_constrained_decode([[0.5, 0.5]])
    with pytest.raises(ValueError):
        mednli_constrained_decode([[0.9, 0.9, 0.9]] * 3)


# -- member selection ------------------------------------------------------------------


def pset(model_id, metric):
    return PredictionSet(model_id=model_id, kind="regression",
                         predictions={"s": 0.5}, dev_metric=metric)


def test_select_members_strictly_above_threshold():
    sets = [pset("a", 88.6), pset("b", 87.7), pset("c", 87.2)]
    kept = select_members(sets, 87.7)
    assert [ps.model_id for ps in kept] == ["a"]


def test_select_members_empty_survivors_is_an_error():
    with pytest.raises(ValueError, match="threshold"):
        select_members([pset("a", 10.0)], 50.0)


def test_select_members_requires_dev_metric():
    bad = PredictionSet(model_id="x", kind="regression", predictions={})
    with pytest.raises(ValueError, match="dev metric"):
        select_members([bad], 0.0)


# -- combination and file formats --------------------------------------------------------


def test_combine_classification_outputs():
    a = PredictionSet("m1", "classification",
                      {"s1": np.array([0.9, 0.1]), "s2": np.array([0.2, 0.8])}, 90.0)
    b = PredictionSet("m2", "classification",
                      {"s1": np.array([0.6, 0.4]), "s2": np.array([0.3, 0.7])}, 91.0)
    out = combine_predictions([a, b])
    assert out["s1"].label == 0 and out["s2"].label == 1
    assert out["s1"].score == pytest.approx(1.5)  # summed probability of the winner


def test_combine_regression_outputs():
    a = PredictionSet("m1", "regression", {"s1": 0.5, "s2": -0.4}, 90.0)
    b = PredictionSet("m2", "regression", {"s1": 0.1, "s2": -0.2}, 91.0)
    out = combine_predictions([a, b])
    assert out["s1"].label == 1 and out["s1"].score == pytest.approx(0.3)
    assert out["s2"].label == 0


def test_combine_rejects_members_that_cover_different_samples():
    a = PredictionSet("m1", "regression", {"s1": 0.5, "s2": -0.4}, 90.0)
    b = PredictionSet("m2", "regression", {"s1": 0.1}, 91.0)
    with pytest.raises(ValueError, match=r"^members \['m1', 'm2'\] cover different samples$"):
        combine_predictions([a, b])


def test_combine_rejects_mixed_kinds():
    a = PredictionSet("m1", "regression", {"s1": 0.5}, 90.0)
    b = PredictionSet("m2", "classification", {"s1": np.array([0.5, 0.5])}, 91.0)
    with pytest.raises(ValueError):
        combine_predictions([a, b])


def test_prediction_set_round_trip(tmp_path):
    """A prediction file holds one row per sample, sorted by id, with only
    the sample id and the value its kind needs; the metadata comes from the
    caller."""
    ps = PredictionSet("m1", "classification",
                       {"s1": np.array([0.25, 0.75]), "s0": np.array([0.5, 0.5])}, 88.25)
    save_prediction_set(ps, tmp_path / "p.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "p.jsonl").read_text().splitlines()]
    assert rows == [{"sample_id": "s0", "probs": [0.5, 0.5]},
                    {"sample_id": "s1", "probs": [0.25, 0.75]}]
    loaded = load_prediction_set(tmp_path / "p.jsonl", "m1", TaskKind.parse("classification:2"),
                                 88.25)
    assert loaded.model_id == "m1" and loaded.dev_metric == 88.25
    assert loaded.kind == "classification" and loaded.predictions.keys() == ps.predictions.keys()
    assert np.array_equal(loaded.predictions["s1"], ps.predictions["s1"])

    reg = PredictionSet("m2", "regression", {"s1": -0.125}, 70.0)
    save_prediction_set(reg, tmp_path / "r.jsonl")
    assert (tmp_path / "r.jsonl").read_text() == '{"sample_id": "s1", "score": -0.125}\n'
    assert load_prediction_set(tmp_path / "r.jsonl", "m2", TaskKind.parse("regression"),
                               70.0).predictions["s1"] == -0.125


@pytest.mark.parametrize("kind, row, problem", [
    ("classification", {"sample_id": "s1", "score": 0.5}, "needs sample_id and probs"),
    ("regression", {"sample_id": "s1", "probs": [0.5, 0.5]}, "needs sample_id and score"),
    ("regression", {"score": 0.5}, "needs sample_id and score"),
    ("regression", {"sample_id": "s0", "score": 0.5}, "sample id 's0' repeats"),
])
def test_a_prediction_row_without_its_kinds_value_is_refused(tmp_path, kind, row, problem):
    path = tmp_path / "p.jsonl"
    path.write_text('{"sample_id": "s0", "score": 0.1, "probs": [0.5, 0.5]}\n'
                    + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: .*{re.escape(problem)}$"):
        load_prediction_set(path, "m", TaskKind.parse("classification:2" if kind == "classification"
                                                      else kind), 1.0)


@pytest.mark.parametrize("kind, value, problem", [
    ("regression", [0.5], "score must be a finite number, got [0.5]"),
    ("regression", True, "score must be a finite number, got true"),
    ("regression", "0.5", 'score must be a finite number, got "0.5"'),
    ("classification:2", [0.5, "0.5"], 'probs must be a list of 2 finite numbers, got [0.5, "0.5"]'),
    ("classification:2", [1.0], "probs must be a list of 2 finite numbers, got [1.0]"),
    ("classification:2", 1.0, "probs must be a list of 2 finite numbers, got 1.0"),
])
def test_a_prediction_row_with_a_wrong_value_is_refused(tmp_path, kind, value, problem):
    key = "score" if kind == "regression" else "probs"
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"sample_id": "s0", key: value}) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: {re.escape(problem)}$"):
        load_prediction_set(path, "m", TaskKind.parse(kind), 1.0)


def test_prediction_set_validates_probability_sums(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"sample_id": "s0", "probs": [0.25, 0.75]}\n'
                    '{"sample_id": "s1", "probs": [0.7, 0.7]}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: probabilities sum to"):
        load_prediction_set(path, "m", TaskKind.parse("classification:2"), 1.0)
