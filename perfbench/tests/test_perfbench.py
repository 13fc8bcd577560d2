"""Tests of the benchmark's own logic: span arithmetic, the sample-epoch
derivation, the corpus writer, and a tiny-size pass of every workload."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for entry in (BENCH_DIR, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from checks import derive_sample_epochs, load_split_bundles  # noqa: E402
from harness import REFERENCE_S, SetUp, _end_to_end, run_benchmark  # noqa: E402
from mixtask import training  # noqa: E402
from mixtask.pipeline import STAGES, PipelineConfig, run_stage  # noqa: E402
from mixtask.toydata import write_toy_corpus  # noqa: E402
from tracing import (  # noqa: E402
    LAYERS,
    PIPELINE_TARGETS,
    Span,
    Tracer,
    instrument,
    layer_metrics,
    self_times,
)
from workloads import WORKLOADS, workload, write_corpus  # noqa: E402


def _spec_metrics(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def test_self_times_subtract_nested_and_clip_children():
    spans = [
        Span("pipeline.train", 0.0, 10.0, -1),
        Span("training.train_multitask", 1.0, 4.0, 0),
        Span("model.grad_step", 2.0, 3.0, 1),
        Span("featurize.lookup", 5.0, 6.0, 0),
        Span("data.load_dataset", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 1, 2.0, 1.0, 1.0, 3.0])


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("pipeline.predict", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parents_in_start_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("pipeline.train"):
        tracer.call("outer", lambda: tracer.call("inner", len, ("ab",), {}, None), (), {}, None)
        tracer.call("counted", lambda rows: rows, ([1, 2, 3],), {}, lambda a, r: len(r))
    assert [(s.name, s.parent, s.n) for s in tracer.spans] == [
        ("pipeline.train", -1, 0),
        ("outer", 0, 0),
        ("inner", 1, 0),
        ("counted", 0, 3),
    ]
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_toy_counts_reproduce_the_shipped_toy_corpus(tmp_path):
    shipped = tmp_path / "shipped"
    write_toy_corpus(shipped, seed=7)
    config_path, rows = write_corpus(tmp_path / "bench", 7, workload("toy-full"))
    for path in shipped.glob("*.jsonl"):
        assert (tmp_path / "bench" / path.name).read_bytes() == path.read_bytes(), path.name
    assert rows["toy_qa"] == {"train": 180, "dev": 108, "eval": 40}
    assert PipelineConfig.from_file(config_path).raw == PipelineConfig.from_file(
        shipped / "config.yaml"
    ).raw


def test_times_are_rescaled_to_the_reference_host_speed():
    # The second set-up and pass ran on a host half as fast: same rescaled time.
    setup = SetUp(None, {}, [0.2, 0.4], [REFERENCE_S, 2 * REFERENCE_S], [])
    passes = [
        {"run_s": 2.0 * k, "reference_s": k * REFERENCE_S, "quality": (0.9, 0.8),
         "stage_s": {"train": 1.0 * k, "finetune": 0.5 * k}}
        for k in (1, 2)
    ]
    metrics = {k: v["value"] for k, v in _end_to_end(setup, 300, passes).items()}
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["run_s"] == pytest.approx(2.0)
    assert metrics["train_sample_epochs_per_s"] == pytest.approx(200.0)
    assert (metrics["eval_accuracy_mean"], metrics["rank_mrr"]) == (0.9, 0.8)


def _tiny_split(tmp_path, edits):
    spec = workload("toy-full", tiny=True)
    spec = type(spec)(spec.name, spec.counts, {**spec.edits, **edits})
    cfg = PipelineConfig.from_file(write_corpus(tmp_path / "corpus", 3, spec)[0])
    out = tmp_path / "run"
    for stage in ("ingest", "transform", "split"):
        run_stage(stage, cfg, out)
    return cfg, out


def test_sample_epochs_without_external_batches_is_a_row_count(tmp_path):
    cfg, out = _tiny_split(tmp_path, {"mixture.alpha": 0.0, "cv.enabled": False,
                                      "mixture.max_epoch": 3, "train.epochs_finetune": 2})
    bundles = load_split_bundles(out)
    in_domain = [b for b in bundles.values() if b["train"].role == "in_domain"]
    multitask = sum(len(b["train"]) for b in in_domain)
    finetune = sum(len(b["train"]) for b in in_domain if "dev" in b)
    members = len(cfg.member_plan())
    assert members == 2
    assert derive_sample_epochs(cfg, out, ("train",)) == members * 3 * multitask
    assert derive_sample_epochs(cfg, out, ("finetune",)) == members * 2 * finetune
    assert derive_sample_epochs(cfg, out, ("predict",)) == 0


def test_sample_epochs_match_the_rows_grad_step_receives(tmp_path):
    cfg, out = _tiny_split(tmp_path, {"mixture.max_epoch": 2})  # CV and external on
    tracer = Tracer()
    original = training.grad_step
    with instrument(tracer, [t for t in PIPELINE_TARGETS if t[1] == "grad_step"]):
        assert training.grad_step is not original
        for stage in ("schedule", "train", "finetune"):
            run_stage(stage, cfg, out)
    assert training.grad_step is original
    rows = layer_metrics(tracer.spans, 0.0)["model.grad_step.rows"]
    assert rows > 0
    assert rows == derive_sample_epochs(cfg, out, ("train", "finetune"))


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_pass_of_each_workload(name, tmp_path):
    traced = run_benchmark(name, seed=5, seconds=0, trace=True, work=tmp_path / "t", tiny=True)
    assert traced["failed"] == 0, [p["failures"] for p in traced["passes"]]
    assert [p["traced"] for p in traced["passes"]] == [False, True]
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(layers) == _spec_metrics("per_layer")
    assert abs(layers["trace.unaccounted_s"]) < 0.05 * layers["trace.run_s"]
    assert sum(layers[f"pipeline.{s}.s"] for s in STAGES) == pytest.approx(
        sum(layers[f"{layer}.self_s"] for layer in LAYERS), rel=1e-6
    )

    plain = run_benchmark(name, seed=5, seconds=0, trace=False, work=tmp_path / "u", tiny=True)
    assert plain["failed"] == 0 and plain["digest"] == traced["digest"]
    metrics = {k: v["value"] for k, v in plain["metrics"].items()}
    assert set(metrics) == _spec_metrics("end_to_end") | {"fail_ratio"}
    assert metrics["fail_ratio"] == 0
    assert all(metrics[k] > 0 for k in _spec_metrics("end_to_end"))
