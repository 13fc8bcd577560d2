"""Set-up, timed passes, checks and metric aggregation for one benchmark run.

A run sets the workload up several times (corpus generation and config
parse) and keeps the last set-up. It then repeats timed passes of the ten
stages, one `run_stage` call per stage, until the time budget is spent.
Untraced runs report the end-to-end metrics; traced runs alternate untraced
and traced passes and report per-layer metrics plus the tracing overhead.

End-to-end times are rescaled to a fixed host speed. On a shared host the
same code runs up to 1.8x slower for stretches from seconds to minutes, often
longer than a whole run, so neither the median nor the fastest pass of a run
is steady between runs. A fixed reference loop, independent of the library,
is timed right before and right after every pass (and around the set-ups);
each time is multiplied by REFERENCE_S over the loop's mean time around it.
The result reads as seconds on a host where the loop takes REFERENCE_S, and
moves with the program, not with the neighbours. Raw wall times stay in the
report.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from mixtask.pipeline import STAGES, PipelineConfig, run_stage

from checks import artifact_digest, check_outputs, derive_sample_epochs, dir_bytes, quality
from tracing import (
    PIPELINE_TARGETS,
    TOYDATA_TARGETS,
    Tracer,
    instrument,
    layer_metrics,
    median_metrics,
    write_spans,
)
from workloads import Workload, workload, write_corpus

MIN_SETUPS = 5
MAX_SETUPS = 20
SETUP_MIN_TOTAL_S = 1.5  # cheap set-ups repeat until they add up to this
TRAIN_STAGES = ("train", "finetune")
REFERENCE_S = 0.08  # the reference loop's time on the quiet 2-core reference VM
REFERENCE_ITERATIONS = 5000
_REFERENCE_MATRIX = np.random.default_rng(0).random((32, 32))

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_sample_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "eval_accuracy_mean": "ratio",
    "rank_mrr": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".rows", "count"), (".bytes", "bytes"),
                         ("bytes_out", "bytes"), ("_us", "us"), ("us_per_sample_epoch", "us"),
                         ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "s"


def reference_loop() -> float:
    """Seconds a fixed mix of small matrix products, dict building and JSON
    encoding takes now: the host's current speed for code like the library's."""
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        _REFERENCE_MATRIX @ _REFERENCE_MATRIX
        json.dumps({j: str(j) for j in range(30)})
    return time.perf_counter() - start


def _run_stages(cfg, out_dir: Path, tracer: Tracer | None) -> dict[str, float]:
    """Run the ten stages in order; returns seconds per stage."""
    times = {}
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        for stage in STAGES:
            start = time.perf_counter()
            if tracer is None:
                run_stage(stage, cfg, out_dir)
            else:
                with tracer.span(f"pipeline.{stage}"):
                    run_stage(stage, cfg, out_dir)
            times[stage] = time.perf_counter() - start
    return times


@dataclass
class SetUp:
    """The kept set-up plus the timings of every repetition."""

    cfg: PipelineConfig
    corpus_rows: dict
    seconds: list[float]
    reference_s: list[float]  # reference-loop time around each set-up
    toydata_seconds: list[float]


def set_up(spec: Workload, seed: int, work: Path, trace: bool) -> SetUp:
    """Set the workload up repeatedly in one directory; the last one stays."""
    seconds, toydata_seconds = [], []
    where = work / "setup"
    references = [reference_loop()]  # set-up i lies between references i and i + 1
    while len(seconds) < MIN_SETUPS or (
        sum(seconds) < SETUP_MIN_TOTAL_S and len(seconds) < MAX_SETUPS
    ):
        shutil.rmtree(where, ignore_errors=True)
        tracer = Tracer() if trace else None
        gc.collect()
        start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(instrument(tracer, TOYDATA_TARGETS))
            config_path, rows = write_corpus(where / "corpus", seed, spec)
        cfg = PipelineConfig.from_file(config_path)
        seconds.append(time.perf_counter() - start)
        references.append(reference_loop())
        if tracer is not None:  # only the generators are wrapped during set-up
            toydata_seconds.append(sum(s.end - s.start for s in tracer.spans))
    reference_s = [(a + b) / 2 for a, b in zip(references, references[1:])]
    return SetUp(cfg, rows, seconds, reference_s, toydata_seconds)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path,
                  spans_path: Path | None = None, tiny: bool = False) -> dict:
    """One benchmark run; returns the full report (see README.md)."""
    spec = workload(name, tiny)
    reference_loop()  # warm-up
    setup = set_up(spec, seed, work, trace)
    cfg = setup.cfg
    out_dir = work / "pass"

    passes: list[dict] = []
    traced_spans = []
    reference_digest = None
    timed_rows = None
    budget_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        record = {"traced": trace and len(passes) % 2 == 1}
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = Tracer() if record["traced"] else None
        gc.collect()
        try:
            reference_before = reference_loop()
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(instrument(tracer, PIPELINE_TARGETS))
                run_start = time.perf_counter()
                record["stage_s"] = _run_stages(cfg, out_dir, tracer)
                record["run_s"] = time.perf_counter() - run_start
            record["reference_s"] = (reference_before + reference_loop()) / 2
            failures = check_outputs(cfg, out_dir)
            digest = artifact_digest(out_dir)
            reference_digest = reference_digest or digest
            if digest != reference_digest:
                failures.append(f"artifact digest {digest} differs from first pass")
            if timed_rows is None:
                timed_rows = derive_sample_epochs(cfg, out_dir, TRAIN_STAGES)
            record["quality"] = quality(cfg, out_dir)
            record["bytes_out"] = sum(dir_bytes(out_dir / s) for s in STAGES)
            if tracer is not None:
                layers = layer_metrics(tracer.spans, record["run_s"])
                if layers["model.grad_step.rows"] != timed_rows:
                    failures.append(
                        f"traced grad_step rows {layers['model.grad_step.rows']} != "
                        f"derived sample-epochs {timed_rows}"
                    )
                layers["pipeline.bytes_out"] = record["bytes_out"]
                record["layers"] = layers
                traced_spans.extend(tracer.spans)
        except Exception:  # a failed pass is counted, reported, and the run goes on
            failures = [traceback.format_exc()]
        record["failures"] = failures
        passes.append(record)
        now = time.perf_counter()
        if len(passes) >= (2 if trace else 1) and now - budget_start + now - pass_start > seconds:
            break
    if spans_path is not None and traced_spans:
        write_spans(traced_spans, spans_path)

    ok = [p for p in passes if not p["failures"]]
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "corpus_rows": setup.corpus_rows,
        "sample_epochs": timed_rows,
        "digest": reference_digest,
        "attempted": len(passes),
        "failed": len(passes) - len(ok),
        "fail_ratio": (len(passes) - len(ok)) / len(passes),
        "passes": passes,
        "metrics": None,
    }
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if untraced and (traced or not trace):
        if trace:
            report["metrics"] = _per_layer(setup, untraced, traced)
        else:
            report["metrics"] = _end_to_end(setup, timed_rows, untraced)
            report["metrics"]["fail_ratio"] = {
                "value": report["fail_ratio"], "unit": "ratio", "samples": len(passes)
            }
            report["wall"] = {  # the same times before rescaling
                "setup_s": statistics.median(setup.seconds),
                "run_s": statistics.median(p["run_s"] for p in untraced),
                "run_s_min": min(p["run_s"] for p in untraced),
                "reference_s": statistics.median(p["reference_s"] for p in untraced),
            }
    return report


def _end_to_end(setup: SetUp, timed_rows: int, passes: list[dict]) -> dict:
    """End-to-end metrics, times rescaled to REFERENCE_S host speed."""
    scale = [REFERENCE_S / p["reference_s"] for p in passes]
    run_s = [p["run_s"] * f for p, f in zip(passes, scale)]
    throughput = [timed_rows / (sum(p["stage_s"][s] for s in TRAIN_STAGES) * f)
                  for p, f in zip(passes, scale)]
    accuracy, mrr = passes[0]["quality"]  # equal on every pass: the digest check
    setup_s = statistics.median(
        t * REFERENCE_S / ref for t, ref in zip(setup.seconds, setup.reference_s)
    )
    values = {
        "setup_s": (setup_s, len(setup.seconds)),
        "run_s": (statistics.median(run_s), len(passes)),
        "train_sample_epochs_per_s": (statistics.median(throughput), len(throughput)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "eval_accuracy_mean": (accuracy, 1),
        "rank_mrr": (mrr, 1),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n}
            for k, (v, n) in values.items()}


def _per_layer(setup: SetUp, untraced: list[dict], traced: list[dict]) -> dict:
    layers = median_metrics([p["layers"] for p in traced])
    layers["toydata.s"] = statistics.median(setup.toydata_seconds)
    layers["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
    layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(
        p["run_s"] for p in untraced
    )
    return {k: {"value": v, "unit": layer_unit(k), "samples": len(traced)}
            for k, v in layers.items()}
