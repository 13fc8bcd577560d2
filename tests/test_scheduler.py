import math
from collections import Counter

import numpy as np
import pytest

from mixtask.data import TaskKind
from mixtask.scheduler import (
    EpochPlan,
    MiniBatch,
    MixtureConfig,
    build_epoch,
    load_plan,
    partition_batches,
    save_plan,
)

from conftest import make_dataset


def batch_fixtures(n, dataset="ext", kind="classification:3"):
    return [
        MiniBatch(
            dataset_name=dataset,
            sample_ids=(f"{dataset}-b{i}",),
            task_kind=TaskKind.parse(kind),
            head_group=dataset,
            rows=np.array([i]),
        )
        for i in range(n)
    ]


def test_partition_counts_and_final_partial_batch():
    ds = make_dataset(100, name="d")
    batches = partition_batches(ds, 16, seed=1)
    assert len(batches) == 7
    assert [len(b) for b in batches] == [16] * 6 + [4]
    assert sorted(i for b in batches for i in b.sample_ids) == sorted(ds.sample_ids)


def test_partition_single_batch():
    ds = make_dataset(16, name="d")
    assert len(partition_batches(ds, 16, seed=1)) == 1


def test_partition_deterministic():
    ds = make_dataset(64, name="d")
    a = partition_batches(ds, 10, seed=4)
    b = partition_batches(ds, 10, seed=4)
    assert [x.sample_ids for x in a] == [x.sample_ids for x in b]
    c = partition_batches(ds, 10, seed=5)
    assert [x.sample_ids for x in a] != [x.sample_ids for x in c]


def test_partition_rejects_empty():
    ds = make_dataset(1, name="d")
    ds.samples = []
    with pytest.raises(ValueError):
        partition_batches(ds, 16, seed=0)


def test_epoch_length_examples():
    in_dom = batch_fixtures(10, "in")
    pool = batch_fixtures(30, "ext")
    assert len(build_epoch(in_dom, pool, 0.5, seed=0)) == 15
    assert len(build_epoch(batch_fixtures(7, "in"), pool, 0.5, seed=0)) == 10  # floor(3.5) = 3


def test_alpha_zero_reduces_to_in_domain_only():
    in_dom = batch_fixtures(10, "in")
    pool = batch_fixtures(30, "ext")
    plan = build_epoch(in_dom, pool, 0.0, seed=0)
    assert len(plan) == 10
    assert all(b.dataset_name == "in" for b in plan.batches)
    assert Counter(b.sample_ids for b in plan.batches) == Counter(b.sample_ids for b in in_dom)


def test_empty_external_pool_is_fine():
    plan = build_epoch(batch_fixtures(5, "in"), [], 2.0, seed=0)
    assert len(plan) == 5 and plan.n_external == 0


def test_in_domain_multiset_always_preserved():
    in_dom = batch_fixtures(9, "in")
    pool = batch_fixtures(4, "ext")
    plan = build_epoch(in_dom, pool, 1.5, seed=3)
    in_plan = [b for b in plan.batches if b.dataset_name == "in"]
    assert Counter(b.sample_ids for b in in_plan) == Counter(b.sample_ids for b in in_dom)


def test_full_pool_coverage_each_external_once():
    in_dom = batch_fixtures(10, "in")
    pool = batch_fixtures(5, "ext")
    plan = build_epoch(in_dom, pool, 0.5, seed=2)  # floor(0.5 * 10) = pool size
    ext = [b.sample_ids for b in plan.batches if b.dataset_name == "ext"]
    assert Counter(ext) == Counter(b.sample_ids for b in pool)


def test_cycling_balances_external_counts():
    in_dom = batch_fixtures(20, "in")
    pool = batch_fixtures(4, "ext")
    plan = build_epoch(in_dom, pool, 0.9, seed=2)  # 18 external from a pool of 4
    counts = Counter(b.sample_ids for b in plan.batches if b.dataset_name == "ext")
    assert sum(counts.values()) == 18
    assert set(counts.values()) <= {4, 5}  # 18 = 4 full passes of 4 + partial 2


def test_distinct_epoch_indices_give_distinct_orders():
    in_dom = batch_fixtures(12, "in")
    pool = batch_fixtures(9, "ext")
    p1 = build_epoch(in_dom, pool, 0.5, seed=7, epoch_index=1)
    p2 = build_epoch(in_dom, pool, 0.5, seed=7, epoch_index=2)
    assert [b.sample_ids for b in p1.batches] != [b.sample_ids for b in p2.batches]
    again = build_epoch(in_dom, pool, 0.5, seed=7, epoch_index=1)
    assert [b.sample_ids for b in again.batches] == [b.sample_ids for b in p1.batches]


def test_random_configurations_property():
    rng = np.random.default_rng(99)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        pool_size = int(rng.integers(0, 40))
        alpha = float(rng.uniform(0, 2.5))
        in_dom = batch_fixtures(n, "in")
        pool = batch_fixtures(pool_size, "ext")
        plan = build_epoch(in_dom, pool, alpha, seed=trial)
        expected_ext = math.floor(alpha * n) if pool_size else 0
        assert len(plan) == n + expected_ext
        in_plan = Counter(b.sample_ids for b in plan.batches if b.dataset_name == "in")
        assert in_plan == Counter(b.sample_ids for b in in_dom)
        ext_counts = Counter(b.sample_ids for b in plan.batches if b.dataset_name == "ext")
        if expected_ext <= pool_size:
            assert all(c == 1 for c in ext_counts.values())


def test_plan_round_trip(tmp_path):
    in_dom = batch_fixtures(6, "in")
    plan = build_epoch(in_dom, batch_fixtures(4, "ext"), 0.5, seed=1)
    save_plan(plan, tmp_path / "plan.jsonl")
    rows = load_plan(tmp_path / "plan.jsonl")
    assert [r["position"] for r in rows] == list(range(len(plan)))
    assert [tuple(r["sample_ids"]) for r in rows] == [b.sample_ids for b in plan.batches]


def test_mixture_config_validation():
    with pytest.raises(ValueError):
        MixtureConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        MixtureConfig(max_epoch=0)
    with pytest.raises(ValueError):
        MixtureConfig(batch_size=0)


def test_epoch_plan_length_invariant():
    with pytest.raises(ValueError):
        EpochPlan(batches=batch_fixtures(3, "in"), n_in_domain=3, n_external=1)
