"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see the
lines live.
"""
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from mixtask.corpus import medquad_negative_sample, qa_dev_reshuffle, qa_modified_score, random_split
from mixtask.data import Dataset, SamplePair, TaskKind
from mixtask.experiment import NoiseModelConfig, run_noise_model_experiment, synthesize_family_predictions
from mixtask.inference import ensemble_classify, ensemble_regress, mednli_constrained_decode
from mixtask.metrics import accuracy, mrr, precision_positive, spearman_on_positives
from mixtask.model import ToyModel, TrainingBatch
from mixtask.featurize import SourceSpec
from mixtask.pipeline import PipelineConfig, run_pipeline
from mixtask.scheduler import MiniBatch, build_epoch
from mixtask.toydata import write_toy_corpus

from test_inference import brute_classify, brute_decode, brute_regress
from test_model import numeric_gradients, random_batch, random_model


@contextmanager
def criterion(number, summary):
    started = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {summary}", flush=True)
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS - {summary} ({elapsed:.1f}s)", flush=True)


REG = TaskKind.parse("regression")


def test_criterion_1_page_qa_construction_counts():
    with criterion(1, "10,109 positives -> 30,327 pairs, split 27,391/2,936, < 5 s"):
        started = time.monotonic()
        pairs = []
        page_sizes = [3] * 3367 + [8]
        for p, size in enumerate(page_sizes):
            for a in range(size):
                pairs.append(
                    SamplePair(
                        id=f"p{p:05d}-a{a}", text_a=f"answer {p} {a}", text_b=f"question {p} {a}",
                        target_score=1.0, page_id=f"p{p:05d}",
                    )
                )
        positives = Dataset(name="pages", task_kind=REG, samples=pairs)
        assert len(positives) == 10109
        result = medquad_negative_sample(positives, k=2, seed=42)
        assert len(result.dataset) == 30327
        assert result.deficient_pages == 0
        train, eval_set = random_split(result.dataset, eval_count=2936, seed=42)
        assert len(train) == 27391 and len(eval_set) == 2936
        assert time.monotonic() - started < 5.0


def _reshuffle_shape_corpus():
    """Question/pair structure arithmetic that lands on 1,504 / 431."""
    train_pairs, dev_pairs = [], []

    def add(bucket, prefix, qi, size, tag):
        for a in range(size):
            bucket.append(
                SamplePair(
                    id=f"{prefix}{qi:04d}-a{a}", text_a=f"ans {prefix}{qi} {a}",
                    text_b=f"question {prefix}{qi}", target_score=1.0,
                    question_id=f"{prefix}{qi:04d}", source_tag=tag,
                )
            )

    # train: 41 untagged questions x 35 pairs interleaved with 30 tagged x 8 pairs
    tagged_sizes = [8] * 30
    untagged_sizes = [35] * 41
    qi = 0
    while tagged_sizes or untagged_sizes:
        if untagged_sizes:
            add(train_pairs, "tr", qi, untagged_sizes.pop(), None)
            qi += 1
        if tagged_sizes:
            add(train_pairs, "tr", qi, tagged_sizes.pop(), "alexa")
            qi += 1
    # dev: one 29-pair question, then 24 x 9 and one 15 (last 25 total 231)
    add(dev_pairs, "dv", 0, 29, None)
    for qj in range(1, 25):
        add(dev_pairs, "dv", qj, 9, None)
    add(dev_pairs, "dv", 25, 15, None)
    train = Dataset(name="qa", task_kind=REG, samples=train_pairs)
    dev = Dataset(name="qa", task_kind=REG, samples=dev_pairs)
    assert len(train) == 1675 and len(dev) == 260
    return train, dev


def test_criterion_2_dev_reshuffle_counts():
    with criterion(2, "dev reshuffle yields exactly 1,504 train / 431 validation pairs"):
        train, dev = _reshuffle_shape_corpus()
        new_train, new_dev = qa_dev_reshuffle(train, dev, n_dev_questions=25, n_alexa_questions=25)
        assert len(new_train) == 1504
        assert len(new_dev) == 431


def test_criterion_3_scheduler_plans():
    with criterion(3, "1,000 random plans: exact length, in-domain once, externals distinct, < 10 s"):
        started = time.monotonic()
        rng = np.random.default_rng(7)
        kind = TaskKind.parse("classification:2")

        def batches(n, name):
            return [
                MiniBatch(dataset_name=name, sample_ids=(f"{name}{i}",), task_kind=kind,
                          head_group=name, rows=np.array([i]))
                for i in range(n)
            ]

        for trial in range(1000):
            n = int(rng.integers(1, 40))
            pool_size = int(rng.integers(0, 60))
            alpha = float(rng.uniform(0, 3))
            plan = build_epoch(batches(n, "in"), batches(pool_size, "ext"), alpha, seed=trial)
            expected = math.floor(alpha * n) if pool_size else 0
            assert len(plan) == n + expected
            from collections import Counter

            in_counts = Counter(b.sample_ids[0] for b in plan.batches if b.dataset_name == "in")
            assert in_counts == Counter(f"in{i}" for i in range(n))
            ext_counts = Counter(b.sample_ids[0] for b in plan.batches if b.dataset_name == "ext")
            if expected <= pool_size:
                assert all(c == 1 for c in ext_counts.values())
        assert time.monotonic() - started < 10.0


def test_criterion_4_ensemble_oracle_equivalence():
    with criterion(4, "2,000 voting instances match brute force, incl. the score-0 boundary"):
        rng = np.random.default_rng(17)
        for i in range(1000):
            m, c = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            if i % 5 == 0:
                vectors = np.tile(rng.dirichlet(np.ones(c)), (m, 1))
            elif i % 7 == 0:
                vectors = np.full((m, c), 1.0 / c)
            else:
                vectors = rng.dirichlet(np.ones(c), size=m)
            assert ensemble_classify(vectors) == brute_classify([list(v) for v in vectors])
        boundary_hits = 0
        for i in range(1000):
            m = int(rng.integers(1, 8))
            scores = rng.normal(0, 1, size=m)
            if i % 3 == 0:
                scores[int(rng.integers(0, m))] = 0.0
            if i % 6 == 0 and m % 2 == 0:
                half = np.abs(rng.normal(0, 1, size=m))
                half[: m // 2] *= -1
                scores = half
            label, mean = ensemble_regress(scores)
            expected_label, expected_mean = brute_regress(list(scores))
            assert label == expected_label and mean == expected_mean
            boundary_hits += int((scores == 0.0).any())
        assert boundary_hits > 200
        assert ensemble_regress([0.0]) == (1, 0.0)  # >=0 votes positive
        assert ensemble_regress([0.5, -0.5])[0] == 0  # tie at mean 0 resolves by > 0


def test_criterion_5_constrained_decoding():
    with criterion(5, "500 random triples: bijective, equals exhaustive maximization"):
        rng = np.random.default_rng(19)
        for _ in range(500):
            matrix = rng.dirichlet(np.ones(3), size=3)
            got = mednli_constrained_decode(matrix)
            assert sorted(got) == [0, 1, 2]
            assert got == brute_decode([list(r) for r in matrix])
        # the documented case where greedy decoding loses
        fixture = [[0.5, 0.45, 0.05], [0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]
        assert mednli_constrained_decode(fixture) == (1, 0, 2)
        optimal = fixture[0][1] * fixture[1][0] * fixture[2][2]
        greedy = fixture[0][0] * fixture[1][1] * fixture[2][2]
        assert optimal == pytest.approx(0.162) and greedy == pytest.approx(0.09)


def test_criterion_6_score_transform_properties():
    with criterion(6, "10,000 modified scores in range, monotone, level-separated; spot values"):
        rng = np.random.default_rng(23)
        for _ in range(10000):
            s = int(rng.integers(1, 5))
            m = int(rng.integers(1, 80))
            i = int(rng.integers(1, m + 1))
            value = qa_modified_score(s, i, m)
            assert s - 3 < value <= s - 2
            if i < m:
                assert value > qa_modified_score(s, i + 1, m)
            if s > 1:
                m2 = int(rng.integers(1, 80))
                assert value > qa_modified_score(s - 1, int(rng.integers(1, m2 + 1)), m2)
        assert qa_modified_score(4, 1, 25) == 2.0
        assert qa_modified_score(3, 4, 4) == 0.25
        assert qa_modified_score(2, 1, 5) == 0.0


def test_criterion_7_gradient_correctness():
    with criterion(7, "analytic gradients match finite differences on 100 configs, < 30 s"):
        started = time.monotonic()
        rng = np.random.default_rng(29)
        for trial in range(100):
            model = random_model(rng, dim=int(rng.integers(4, 10)),
                                 hidden=int(rng.integers(2, 6)),
                                 n_classes=int(rng.integers(2, 5)))
            kind = "cls" if trial % 2 == 0 else "reg"
            batch = random_batch(rng, model, kind, batch_size=int(rng.integers(1, 5)))
            _, *analytic = model.loss_and_grads(batch)
            numeric = numeric_gradients(model, batch)
            for a, n in zip(analytic, numeric):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
                assert np.max(np.abs(a - n) / denom) < 1e-4
        assert time.monotonic() - started < 30.0


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "toy pipeline twice: byte-identical predictions, reports and indexes, < 2 min/run"):
        corpus = tmp_path / "corpus"
        write_toy_corpus(corpus, seed=7)
        cfg = PipelineConfig.from_file(corpus / "config.yaml")
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            started = time.monotonic()
            run_pipeline(cfg, out, quiet=True)
            assert time.monotonic() - started < 120.0
            runs.append(out)

        def tree_bytes(root, subdirs):
            blobs = {}
            for sub in subdirs:
                for path in sorted((root / sub).rglob("*")):
                    if path.is_file():
                        blobs[str(path.relative_to(root))] = path.read_bytes()
            return blobs

        watched = ("predict", "ensemble", "rank", "evaluate")
        assert tree_bytes(runs[0], watched) == tree_bytes(runs[1], watched)
        features = tree_bytes(runs[0], ("train/features",))
        assert features and features == tree_bytes(runs[1], ("train/features",))

        def indexes(root):
            return {str(path.relative_to(root)): path.read_bytes()
                    for path in root.glob("*/index.json")}

        recorded = indexes(runs[0])
        assert len(recorded) == 10 and recorded == indexes(runs[1])


def test_criterion_9_multisource_advantage():
    with criterion(9, "mixed-source ensembles beat member average in >= 18/20 seeded trials"):
        config = NoiseModelConfig()  # documented model: 2 families x 3 members, acc in [0.75, 0.92]
        report = run_noise_model_experiment(config, n_trials=20, master_seed=0)
        assert report.mixed_wins >= 18
        assert report.mean_mixed_improvement > report.mean_single_improvement
        gold, families = synthesize_family_predictions(config, trial_seed=1234)
        ids = sorted(gold)
        for members in families.values():
            for ps in members:
                predicted = [int(np.argmax(ps.predictions[i])) for i in ids]
                acc = float(np.mean([p == gold[i] for p, i in zip(predicted, ids)]))
                assert 0.75 <= acc <= 0.92


def test_criterion_10_metric_fixtures_and_oracles():
    with criterion(10, "metric fixtures exact; rank correlation matches oracle to 1e-9"):
        assert accuracy([1, 0, 1, 1], [1, 0, 1, 0]) == 0.75
        assert precision_positive([1, 1, 1, 0], [1, 1, 0, 0]) == pytest.approx(2 / 3)
        assert precision_positive([0, 0], [1, 0]) is None
        assert mrr({"a": ["x", "y"], "b": ["p", "q"]}, {"a": {"x"}, "b": {"q"}}) == 0.75

        rng = np.random.default_rng(31)
        for _ in range(100):
            scored, gold_pos = {}, {}
            for q in range(4):
                n = int(rng.integers(2, 9))
                order = rng.permutation(n)
                scored[f"q{q}"] = [
                    (f"q{q}a{i}", int(rng.random() < 0.7), float(rng.normal())) for i in range(n)
                ]
                gold_pos[f"q{q}"] = {f"q{q}a{i}": int(order[i]) + 1 for i in range(n)}
            got, count = spearman_on_positives(scored, gold_pos)
            reference = []
            for q, answers in scored.items():
                positives = [(a, s) for a, label, s in answers if label == 1]
                if len(positives) < 2:
                    continue
                rho = stats.spearmanr(
                    [s for _, s in positives], [-gold_pos[q][a] for a, _ in positives]
                ).statistic
                if not np.isnan(rho):
                    reference.append(rho)
            if reference:
                assert count == len(reference)
                assert got == pytest.approx(float(np.mean(reference)), abs=1e-9)
            else:
                assert got is None
            # monotone transform of system scores leaves the metric unchanged
            transformed = {
                q: [(a, label, float(np.expm1(s / 3) * 2 + 5)) for a, label, s in answers]
                for q, answers in scored.items()
            }
            got_t, count_t = spearman_on_positives(transformed, gold_pos)
            assert count_t == count
            if got is None:
                assert got_t is None
            else:
                assert got_t == pytest.approx(got, abs=1e-12)
