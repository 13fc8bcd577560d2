"""Correctness checks on a pass's artifacts, the output digest, quality
metrics, and the sample-epoch count derived from split artifacts and config.

Everything here reads the artifacts the stages wrote; nothing is taken from
the library's in-memory state.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from mixtask.data import Dataset, TaskKind, load_dataset
from mixtask.pipeline import PipelineConfig
from mixtask.scheduler import MixtureConfig, build_epoch, partition_batches
from mixtask.seeding import derive_seed

# Stage directories whose bytes must not change between passes of one seed.
DIGESTED_STAGES = ("predict", "ensemble", "rank", "evaluate")


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over the relative path and bytes of every digested artifact."""
    h = hashlib.sha256()
    for stage in DIGESTED_STAGES:
        for path in sorted((out_dir / stage).rglob("*")):
            if path.is_file():
                h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
                h.update(path.read_bytes())
                h.update(b"\0")
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_split_bundles(out_dir: Path) -> dict[str, dict[str, Dataset]]:
    """The split stage's datasets, by name and split."""
    index = _read_json(out_dir / "split" / "index.json")
    bundles = {}
    for name, entry in index["datasets"].items():
        kind = TaskKind.parse(entry["task_kind"])
        bundles[name] = {
            split: load_dataset(out_dir / "split" / filename, name, kind, entry["role"],
                                entry["head_group"])
            for split, filename in entry["splits"].items()
        }
    return bundles


def _eval_set(bundle: dict[str, Dataset]) -> Dataset:
    return bundle.get("eval") or bundle.get("dev")


def check_outputs(cfg: PipelineConfig, out_dir: Path) -> list[str]:
    """Failed checks of one pass's ensemble, rank and evaluate artifacts."""
    failures = []
    bundles = load_split_bundles(out_dir)
    ensembles = _read_json(out_dir / "ensemble" / "index.json")["ensembles"]
    labels: dict[str, dict[str, int]] = {}
    for task, meta in sorted(ensembles.items()):
        records = _read_jsonl(out_dir / "ensemble" / meta["file"])
        ids = [r["sample_id"] for r in records]
        expected = set(_eval_set(bundles[task]).sample_ids)
        if len(ids) != len(set(ids)) or set(ids) != expected:
            failures.append(
                f"ensemble {task}: {len(ids)} outputs ({len(set(ids))} distinct) "
                f"for {len(expected)} eval samples"
            )
        labels[task] = {r["sample_id"]: r["label"] for r in records}

    for task in cfg.ranking_tasks:
        answers: dict[str, set] = {}
        for s in _eval_set(bundles[task]):
            answers.setdefault(s.question_id, set()).add(s.id)
        ranked: dict[str, list[dict]] = {}
        for rec in _read_jsonl(out_dir / "rank" / f"{task}.jsonl"):
            ranked.setdefault(rec["question_id"], []).append(rec)
        if set(ranked) != set(answers):
            failures.append(f"rank {task}: ranked questions differ from eval questions")
        for question, recs in ranked.items():
            ids = [r["sample_id"] for r in recs]
            order = [r["label"] for r in recs]
            if len(ids) != len(set(ids)) or set(ids) != answers.get(question, set()):
                failures.append(f"rank {task}/{question}: not a permutation of its answers")
            if order != sorted(order, reverse=True):
                failures.append(f"rank {task}/{question}: a negative precedes a positive")
            if [r["rank"] for r in recs] != list(range(1, len(recs) + 1)):
                failures.append(f"rank {task}/{question}: ranks are not 1..n in order")

    for task in cfg.constrained_triple_tasks:
        groups: dict[str, list[str]] = {}
        for s in _eval_set(bundles[task]):
            if s.premise_group is not None:
                groups.setdefault(s.premise_group, []).append(s.id)
        for group, ids in groups.items():
            if len(ids) == 3 and sorted(labels[task].get(i, -1) for i in ids) != [0, 1, 2]:
                failures.append(f"triples {task}/{group}: labels are not one of each class")

    summary = _read_json(out_dir / "evaluate" / "summary.json")
    for task, report in summary.items():
        for key, low in (("accuracy", 0.0), ("precision", 0.0), ("mrr", 0.0), ("spearman", -1.0)):
            value = report.get(key)
            if value is not None and not (math.isfinite(value) and low <= value <= 1.0):
                failures.append(f"evaluate {task}: {key} {value} out of range")
        if report.get("accuracy") is None:
            failures.append(f"evaluate {task}: no accuracy")
    return failures


def quality(cfg: PipelineConfig, out_dir: Path) -> tuple[float, float]:
    """(mean accuracy over evaluated tasks, mean MRR over ranking tasks)."""
    summary = _read_json(out_dir / "evaluate" / "summary.json")
    accuracy = sum(r["accuracy"] for r in summary.values()) / len(summary)
    mrrs = [summary[t]["mrr"] for t in cfg.ranking_tasks]
    return accuracy, sum(mrrs) / len(mrrs)


def derive_sample_epochs(cfg: PipelineConfig, out_dir: Path, stages) -> int:
    """Rows the given stages push through `grad_step`, from the split
    artifacts and the config.

    Multi-task training replays every member's epoch plans with the public
    planner; fine-tuning is epochs times the train rows of each target task.
    Member seeds and targets follow the pipeline's documented roster.
    """
    if not set(stages) & {"train", "finetune"}:
        return 0
    bundles = load_split_bundles(out_dir)
    index = _read_json(out_dir / "split" / "index.json")
    folds = {f["fold"]: f for f in index["folds"]}
    total = 0
    for member in cfg.member_plan():
        tasks = {name: (b["train"], b.get("dev")) for name, b in sorted(bundles.items())}
        if member["fold"] is not None:
            meta = index["datasets"][cfg.cv_task]
            kind = TaskKind.parse(meta["task_kind"])
            train, dev = (
                load_dataset(out_dir / "split" / folds[member["fold"]][part], cfg.cv_task, kind,
                             meta["role"], meta["head_group"])
                for part in ("train", "dev")
            )
            tasks[cfg.cv_task] = (train, dev)
        run_seed = derive_seed(cfg.master_seed, "train", member["member_id"])
        mixture = MixtureConfig(
            alpha=cfg.mixture.alpha,
            batch_size=cfg.batch_size_for_source(member["source"]),
            max_epoch=cfg.mixture.max_epoch,
            seed=run_seed,
        )
        if "train" in stages:
            for epoch in range(1, mixture.max_epoch + 1):
                partition_seed = derive_seed(run_seed, "epoch-shuffle", epoch)
                pools = {"in_domain": [], "external": []}
                for train, _ in tasks.values():
                    pools[train.role].extend(partition_batches(
                        train, mixture.batch_size_for(train.name), partition_seed
                    ))
                plan = build_epoch(pools["in_domain"], pools["external"], mixture.alpha,
                                   seed=run_seed, epoch_index=epoch)
                total += sum(len(batch) for batch in plan.batches)
        if "finetune" in stages:
            if member["fold"] is not None:
                targets = [tasks[cfg.cv_task][0]] if cfg.cv_finetune_members else []
            else:
                targets = [t for t, d in tasks.values() if t.role == "in_domain" and d is not None]
            total += cfg.train.epochs_finetune * sum(len(t) for t in targets)
    return total
