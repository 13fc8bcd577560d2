"""End-to-end workflow orchestration.

Stages: ingest -> transform -> split -> schedule -> train -> finetune ->
predict -> ensemble -> rank -> evaluate. Each stage reads earlier stages'
artifacts from the output directory and writes its own, so any stage can be
re-run independently. A stage reads each upstream artifact once; members
share one in-memory SplitView of the split files and CV folds. run_stage
writes each stage's index.json and updates run_manifest.json. Checkpoints
resolve through indexes: a (member, task) model is the one the finetune
index lists, else the member's checkpoint in the train index, never a file
merely present on disk. Each row is featurized once per run: train saves
its FeatureCache under train/features/, and finetune and predict open it
through the train index, so they featurize only rows train never saw.
Every artifact is reproducible from
(config, master seed): stage seeds derive hierarchically per
(stage, dataset, member, fold), and no output embeds timestamps or
absolute paths.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import defaults
from .corpus import (
    apply_qa_modified_scores,
    cv_folds,
    gold_binary_label,
    mednli_merge_dev,
    medquad_negative_sample,
    qa_dev_reshuffle,
    random_split,
    rqe_shuffle_split,
)
from .data import Dataset, TaskKind, load_dataset, load_manifest_datasets, save_samples
from .experiment import (
    ExperimentReport,
    NoiseModelConfig,
    compare_groupings,
    run_noise_model_experiment,
    save_report,
    summarize_trials,
)
from .featurize import FeatureCache, SourceSpec
from .inference import (
    EnsembleOutput,
    PredictionSet,
    combine_predictions,
    load_prediction_set,
    mednli_constrained_decode,
    rank_answers,
    save_ensemble_outputs,
    save_prediction_set,
    select_members,
)
from .metrics import EvalReport, accuracy, build_ranking_report, precision_positive
from .model import ToyModel, load_checkpoint, save_checkpoint
from .scheduler import MixtureConfig, save_plan
from .seeding import derive_seed
from .training import (
    TaskData,
    TrainConfig,
    build_member_epoch_plan,
    dev_gold,
    dev_metric,
    fine_tune_task,
    train_multitask,
)

SCHEMA_VERSION = 1

STAGES = (
    "ingest",
    "transform",
    "split",
    "schedule",
    "train",
    "finetune",
    "predict",
    "ensemble",
    "rank",
    "evaluate",
)


class PipelineStageError(RuntimeError):
    """A stage failure, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class SourceEntry:
    spec: SourceSpec
    members: int = 1
    batch_size: Optional[int] = None


@dataclass
class PipelineConfig:
    """Parsed and validated run configuration."""

    master_seed: int
    manifest_path: Path
    mixture: MixtureConfig
    train: TrainConfig
    sources: list[SourceEntry]
    transforms: dict[str, list[str]] = field(default_factory=dict)
    negatives_per_positive: int = defaults.NEGATIVES_PER_POSITIVE
    split_recipes: dict[str, str] = field(default_factory=dict)
    random_split_counts: dict[str, dict] = field(default_factory=dict)
    reshuffle_dev_questions: int = defaults.DEV_RESHUFFLE_QUESTIONS
    reshuffle_tagged_questions: int = defaults.DEV_RESHUFFLE_TAGGED_QUESTIONS
    reshuffle_tag: str = "alexa"
    cv_enabled: bool = False
    cv_task: str = ""
    cv_folds: int = defaults.CV_FOLDS
    cv_finetune_members: bool = True
    thresholds: dict[str, float] = field(default_factory=dict)
    ranking_tasks: list[str] = field(default_factory=list)
    constrained_triple_tasks: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "PipelineConfig":
        base_dir = base_dir or Path(".")
        if "master_seed" not in raw:
            raise ValueError("config requires master_seed")
        if "manifest" not in raw:
            raise ValueError("config requires a manifest path")
        manifest_path = Path(raw["manifest"])
        if not manifest_path.is_absolute():
            manifest_path = base_dir / manifest_path
        if not manifest_path.exists():
            raise FileNotFoundError(f"manifest not found: {manifest_path}")

        mix = raw.get("mixture", {})
        mixture = MixtureConfig(
            alpha=float(mix.get("alpha", defaults.MIXTURE_RATIO)),
            batch_size=mix.get("batch_size", 16),
            max_epoch=int(mix.get("max_epoch", defaults.EPOCHS_MULTITASK)),
            seed=int(raw["master_seed"]),
        )
        tr = raw.get("train", {})
        train = TrainConfig(
            lr_multitask=float(tr.get("lr_multitask", defaults.LR_MULTITASK)),
            lr_finetune=float(tr.get("lr_finetune", defaults.LR_FINETUNE)),
            epochs_finetune=int(tr.get("epochs_finetune", defaults.EPOCHS_FINETUNE)),
            mixture=mixture,
            hidden_dim=int(tr.get("hidden_dim", defaults.HIDDEN_DIM)),
        )
        sources = []
        for i, src in enumerate(raw.get("sources", [])):
            name = src["name"]
            sources.append(
                SourceEntry(
                    spec=SourceSpec(
                        name=name,
                        featurizer_seed=int(src.get("featurizer_seed", derive_seed(0, "source", name))),
                        dim=int(src.get("dim", defaults.FEATURE_DIM)),
                    ),
                    members=int(src.get("members", 1)),
                    batch_size=int(src["batch_size"]) if "batch_size" in src else None,
                )
            )
        if not sources:
            raise ValueError("config requires at least one source family")
        if len({s.spec.name for s in sources}) != len(sources):
            raise ValueError("source names must be unique")
        if len({s.spec.featurizer_seed for s in sources}) != len(sources):
            raise ValueError("distinct sources require distinct featurizer seeds")

        cv = raw.get("cv", {})
        cv_enabled = bool(cv.get("enabled", False))
        cv_folds_n = int(cv.get("folds", defaults.CV_FOLDS))
        if cv_enabled and cv_folds_n < 2:
            raise ValueError("cv fold count must be >= 2")
        if cv_enabled and not cv.get("task"):
            raise ValueError("cv requires a task name")

        reshuffle = raw.get("reshuffle", {})
        return cls(
            master_seed=int(raw["master_seed"]),
            manifest_path=manifest_path,
            mixture=mixture,
            train=train,
            sources=sources,
            transforms={k: list(v) for k, v in (raw.get("transforms") or {}).items()},
            negatives_per_positive=int(
                (raw.get("negatives") or {}).get("per_positive", defaults.NEGATIVES_PER_POSITIVE)
            ),
            split_recipes=dict(raw.get("splits") or {}),
            random_split_counts=dict(raw.get("random_split") or {}),
            reshuffle_dev_questions=int(
                reshuffle.get("dev_questions", defaults.DEV_RESHUFFLE_QUESTIONS)
            ),
            reshuffle_tagged_questions=int(
                reshuffle.get("tagged_questions", defaults.DEV_RESHUFFLE_TAGGED_QUESTIONS)
            ),
            reshuffle_tag=str(reshuffle.get("tag", "alexa")),
            cv_enabled=cv_enabled,
            cv_task=str(cv.get("task", "")),
            cv_folds=cv_folds_n,
            cv_finetune_members=bool(cv.get("finetune_members", True)),
            thresholds={k: float(v) for k, v in (raw.get("thresholds") or {}).items()},
            ranking_tasks=list(raw.get("ranking") or []),
            constrained_triple_tasks=list(raw.get("constrained_triples") or []),
            raw=raw,
        )

    def batch_size_for_source(self, entry: SourceEntry) -> int | dict:
        return entry.batch_size if entry.batch_size is not None else self.mixture.batch_size

    def member_plan(self) -> list[dict]:
        """Deterministic member roster: base members, then CV fold members."""
        plan = []
        for entry in self.sources:
            for i in range(entry.members):
                plan.append({"member_id": f"{entry.spec.name}-m{i}", "source": entry, "fold": None})
        if self.cv_enabled:
            for entry in self.sources:
                for j in range(self.cv_folds):
                    plan.append(
                        {"member_id": f"{entry.spec.name}-cv{j}", "source": entry, "fold": j}
                    )
        return plan


# -- artifact helpers ----------------------------------------------------------


def _read_index(out_dir: Path, stage: str, needed_by: str) -> dict:
    path = out_dir / stage / "index.json"
    if not path.exists():
        raise PipelineStageError(
            needed_by, f"missing {stage} artifacts at {path.name}; run the {stage} stage first"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2), encoding="utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _save_datasets(
    stage_dir: Path, bundles: dict[str, dict[str, Dataset]]
) -> dict[str, dict]:
    entries = {}
    for name in sorted(bundles):
        bundle = bundles[name]
        any_split = next(iter(bundle.values()))
        splits = {}
        for split in sorted(bundle):
            filename = f"{name}__{split}.jsonl"
            save_samples(bundle[split].samples, stage_dir / filename)
            splits[split] = filename
        entries[name] = {
            "task_kind": str(any_split.task_kind),
            "role": any_split.role,
            "head_group": any_split.head_group,
            "splits": splits,
        }
    return entries


def _load_file(path: Path, name: str, entry: dict) -> Dataset:
    """One dataset file, typed by its index entry."""
    kind = TaskKind.parse(entry["task_kind"])
    return load_dataset(path, name, kind, entry["role"], entry["head_group"])


def _load_datasets(out_dir: Path, stage: str, needed_by: str) -> dict[str, dict[str, Dataset]]:
    """Every dataset split listed by a stage's index, by name and split."""
    index = _read_index(out_dir, stage, needed_by)
    return {
        name: {
            split: _load_file(out_dir / stage / filename, name, entry)
            for split, filename in entry["splits"].items()
        }
        for name, entry in index["datasets"].items()
    }


class SplitView:
    """The split stage's datasets and CV folds, as one stage sees them.

    The split index is read once, and each file at most once, when first
    needed; every member's task list is built from the loaded datasets, so
    members share one Dataset object per file.
    """

    def __init__(self, cfg: PipelineConfig, out_dir: Path, needed_by: str):
        self.index = _read_index(out_dir, "split", needed_by)
        self._dir = out_dir / "split"
        self._cv_task = cfg.cv_task
        self._folds = {meta["fold"]: meta for meta in self.index["folds"]}
        self._loaded: dict[str, Dataset] = {}
        missing = set(range(cfg.cv_folds)) - set(self._folds) if cfg.cv_enabled else set()
        if missing:
            raise PipelineStageError(needed_by, f"fold {min(missing)} missing from split artifacts")

    def _file(self, name: str, filename: str) -> Dataset:
        if filename not in self._loaded:
            entry = self.index["datasets"][name]
            self._loaded[filename] = _load_file(self._dir / filename, name, entry)
        return self._loaded[filename]

    def split(self, name: str, split: str) -> Optional[Dataset]:
        filename = self.index["datasets"][name]["splits"].get(split)
        return None if filename is None else self._file(name, filename)

    def eval_set(self, name: str) -> Optional[Dataset]:
        """The split a task is evaluated on: eval, or dev when eval is absent or empty."""
        return self.split(name, "eval") or self.split(name, "dev")

    def member_split(self, member: dict, name: str, split: str) -> Optional[Dataset]:
        """A member's train or dev split of one task: the member's fold for the
        CV task of a CV member, else the standard split."""
        if member["fold"] is not None and name == self._cv_task:
            return self._file(name, self._folds[member["fold"]][split])
        return self.split(name, split)

    def member_tasks(self, member: dict) -> list[TaskData]:
        """Task list for one member, every task's train and dev split."""
        return [
            TaskData(*(self.member_split(member, name, split) for split in ("train", "dev")))
            for name in sorted(self.index["datasets"])
        ]


def _open_features(
    cfg: PipelineConfig, train_index: dict, out_dir: Path, needed_by: str
) -> FeatureCache:
    """The train stage's feature store for the configured sources, through the
    train index. Files the index does not list are never read."""
    saved = train_index.get("features", {})
    entries = {}
    for spec in (entry.spec for entry in cfg.sources):
        entry = saved.get(spec.name, {})
        if (entry.get("featurizer_seed"), entry.get("dim")) != (spec.featurizer_seed, spec.dim):
            raise PipelineStageError(
                needed_by,
                f"the train index lists no features for source {spec.name!r} with featurizer "
                f"seed {spec.featurizer_seed} and dim {spec.dim}; re-run train",
            )
        entries[spec.name] = entry
    try:
        return FeatureCache.load(out_dir / "train" / "features", entries)
    except (KeyError, OSError, ValueError) as exc:
        raise PipelineStageError(
            needed_by, f"unreadable train features: {type(exc).__name__}: {exc}; re-run train"
        ) from exc


# -- stages ---------------------------------------------------------------------

# A stage writes its artifacts under out_dir/<stage> and returns
# (index payload, run-manifest summary).
StageResult = tuple[dict, dict]


def stage_ingest(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Load and validate every manifest dataset; write normalized copies."""
    try:
        bundles = load_manifest_datasets(cfg.manifest_path)
    except Exception as exc:
        raise PipelineStageError("ingest", str(exc)) from exc
    entries = _save_datasets(out_dir / "ingest", bundles)
    return {"datasets": entries}, {"datasets": sorted(entries)}


def stage_transform(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Apply per-dataset score transforms and negative sampling."""
    bundles = _load_datasets(out_dir, "ingest", "transform")
    notes = {}
    for name, ops in sorted(cfg.transforms.items()):
        if name not in bundles:
            raise PipelineStageError("transform", f"unknown dataset {name!r} in transforms")
        for op in ops:
            if op == "rescore_relevance":
                bundles[name] = {
                    split: apply_qa_modified_scores(ds) for split, ds in bundles[name].items()
                }
                notes[name] = notes.get(name, []) + ["rescore_relevance"]
            elif op == "sample_negatives":
                seed = derive_seed(cfg.master_seed, "transform", "negatives", name)
                result = medquad_negative_sample(
                    bundles[name]["train"], k=cfg.negatives_per_positive, seed=seed
                )
                bundles[name]["train"] = result.dataset
                notes[name] = notes.get(name, []) + [
                    f"sample_negatives: {result.n_positives} positives + "
                    f"{result.n_negatives} negatives, {result.deficient_pages} deficient pages"
                ]
            else:
                raise PipelineStageError("transform", f"unknown transform {op!r} for {name!r}")
    entries = _save_datasets(out_dir / "transform", bundles)
    return {"datasets": entries, "applied": notes}, {"applied": notes}
def _apply_split_recipe(cfg: PipelineConfig, name: str, bundle: dict[str, Dataset]) -> dict[str, Dataset]:
    recipe = cfg.split_recipes.get(name, "none")
    if recipe == "none":
        return bundle
    if recipe == "merge_dev":
        if "dev" not in bundle or "eval" not in bundle:
            raise PipelineStageError("split", f"{name!r}: merge_dev needs dev and eval splits")
        merged = mednli_merge_dev(bundle["train"], bundle["dev"])
        return {"train": merged, "dev": bundle["eval"], "eval": bundle["eval"]}
    if recipe == "shuffle_half_eval":
        if "dev" not in bundle:
            raise PipelineStageError("split", f"{name!r}: shuffle_half_eval needs a dev split")
        seed = derive_seed(cfg.master_seed, "split", "shuffle-half", name)
        train, dev = rqe_shuffle_split(bundle["train"], bundle["dev"], seed)
        out = {"train": train, "dev": dev, "eval": bundle.get("eval", dev)}
        return out
    if recipe == "reshuffle_dev":
        if "dev" not in bundle:
            raise PipelineStageError("split", f"{name!r}: reshuffle_dev needs a dev split")
        train, dev = qa_dev_reshuffle(
            bundle["train"],
            bundle["dev"],
            n_dev_questions=cfg.reshuffle_dev_questions,
            n_alexa_questions=cfg.reshuffle_tagged_questions,
            alexa_tag=cfg.reshuffle_tag,
        )
        return {"train": train, "dev": dev, "eval": bundle.get("eval", dev)}
    if recipe == "random_split":
        counts = cfg.random_split_counts.get(name, {})
        eval_count = int(counts.get("eval_count", max(1, len(bundle["train"]) // 10)))
        seed = derive_seed(cfg.master_seed, "split", "random", name)
        train, dev = random_split(bundle["train"], eval_count, seed)
        return {"train": train, "dev": dev, "eval": bundle.get("eval", dev)}
    raise PipelineStageError("split", f"unknown split recipe {recipe!r} for {name!r}")


def stage_split(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Apply the named split recipes and emit cross-validation folds."""
    bundles = _load_datasets(out_dir, "transform", "split")
    stage_dir = out_dir / "split"
    try:
        bundles = {name: _apply_split_recipe(cfg, name, b) for name, b in bundles.items()}
    except ValueError as exc:
        raise PipelineStageError("split", str(exc)) from exc
    entries = _save_datasets(stage_dir, bundles)

    folds_meta = []
    if cfg.cv_enabled:
        if cfg.cv_task not in bundles:
            raise PipelineStageError("split", f"cv task {cfg.cv_task!r} not in manifest")
        bundle = bundles[cfg.cv_task]
        pool_samples = list(bundle["train"].samples) + list(
            bundle["dev"].samples if "dev" in bundle else []
        )
        pool = bundle["train"].with_samples(pool_samples)
        fold_dir = stage_dir / "folds"
        fold_dir.mkdir(exist_ok=True)
        for j, (train, dev) in enumerate(cv_folds(pool, cfg.cv_folds)):
            train_file = f"{cfg.cv_task}__fold{j}__train.jsonl"
            dev_file = f"{cfg.cv_task}__fold{j}__dev.jsonl"
            save_samples(train.samples, fold_dir / train_file)
            save_samples(dev.samples, fold_dir / dev_file)
            folds_meta.append(
                {"fold": j, "train": f"folds/{train_file}", "dev": f"folds/{dev_file}"}
            )
    return (
        {"datasets": entries, "folds": folds_meta},
        {"recipes": cfg.split_recipes, "folds": len(folds_meta)},
    )


def _member_train_config(cfg: PipelineConfig, member: dict) -> TrainConfig:
    """The shared training config with the member's batch size and run seed."""
    mixture = replace(
        cfg.mixture,
        batch_size=cfg.batch_size_for_source(member["source"]),
        seed=derive_seed(cfg.master_seed, "train", member["member_id"]),
    )
    return replace(cfg.train, mixture=mixture)


def stage_schedule(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Emit first-epoch plans per member for audit and replay."""
    view = SplitView(cfg, out_dir, "schedule")
    plans = {}
    for member in cfg.member_plan():
        train_cfg = _member_train_config(cfg, member)
        plan = build_member_epoch_plan(view.member_tasks(member), train_cfg, epoch=1)
        filename = f"{member['member_id']}__epoch1.jsonl"
        save_plan(plan, out_dir / "schedule" / filename)
        plans[member["member_id"]] = {
            "file": filename,
            "length": len(plan),
            "n_in_domain": plan.n_in_domain,
            "n_external": plan.n_external,
        }
    return {"plans": plans}, {"plans": sorted(plans)}


def stage_train(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Train one multi-task model per member (base members and CV folds)."""
    view = SplitView(cfg, out_dir, "train")
    stage_dir = out_dir / "train"
    cache = FeatureCache()
    members_meta = {}
    for member in cfg.member_plan():
        member_id = member["member_id"]
        train_cfg = _member_train_config(cfg, member)
        try:
            result = train_multitask(
                view.member_tasks(member), member["source"].spec, train_cfg, cache=cache
            )
        except (ValueError, FloatingPointError) as exc:
            raise PipelineStageError("train", f"member {member_id}: {exc}") from exc
        result.best.config_hash = cfg.config_hash
        ckpt_file = f"{member_id}__multitask.json"
        save_checkpoint(result.best, stage_dir / ckpt_file)
        history_file = f"{member_id}__history.json"
        _write_json(
            stage_dir / history_file,
            {"member": member_id, "initial_metrics": result.initial_metrics,
             "history": result.history},
        )
        members_meta[member_id] = {
            "checkpoint": ckpt_file,
            "history": history_file,
            "best_epoch": result.best.epoch,
            "selection_value": result.best.selection_value,
            "source": member["source"].spec.name,
            "fold": member["fold"],
        }
    features = cache.save(stage_dir / "features")
    return {"members": members_meta, "features": features}, {"members": sorted(members_meta)}


def _finetune_targets(cfg: PipelineConfig, member: dict, tasks: list[TaskData]) -> list[TaskData]:
    if member["fold"] is not None:
        if not cfg.cv_finetune_members:
            return []
        return [t for t in tasks if t.name == cfg.cv_task]
    return [t for t in tasks if t.train.role == "in_domain" and t.dev is not None]


def stage_finetune(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Per-task fine-tuning from each member's best multi-task checkpoint."""
    train_index = _read_index(out_dir, "train", "finetune")
    trained = train_index["members"]
    view = SplitView(cfg, out_dir, "finetune")
    cache = _open_features(cfg, train_index, out_dir, "finetune")
    finetuned = {}
    for member in cfg.member_plan():
        member_id = member["member_id"]
        ckpt = load_checkpoint(out_dir / "train" / trained[member_id]["checkpoint"])
        train_cfg = _member_train_config(cfg, member)
        for task in _finetune_targets(cfg, member, view.member_tasks(member)):
            try:
                tuned = fine_tune_task(ckpt, task, train_cfg, cache=cache)
            except (ValueError, FloatingPointError) as exc:
                raise PipelineStageError(
                    "finetune", f"member {member_id}, task {task.name}: {exc}"
                ) from exc
            filename = f"{member_id}__ft__{task.name}.json"
            save_checkpoint(tuned, out_dir / "finetune" / filename)
            finetuned[f"{member_id}/{task.name}"] = {
                "checkpoint": filename,
                "dev_metric": tuned.dev_metrics[task.name],
                "epoch": tuned.epoch,
            }
    return {"finetuned": finetuned}, {"finetuned": sorted(finetuned)}


def _predict_dataset(model: ToyModel, dataset: Dataset, features: np.ndarray) -> dict[str, object]:
    """Per-sample predictions from the dataset's feature matrix (rows in sample order)."""
    if dataset.task_kind.is_classification:
        probs = model.class_probs(features, dataset.head_group)
        return {s.id: probs[i] for i, s in enumerate(dataset)}
    scores = model.reg_scores(features, dataset.head_group)
    return {s.id: float(scores[i]) for i, s in enumerate(dataset)}


def stage_predict(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Every member predicts every in-domain task's eval split.

    A member's model for a task is the fine-tuned checkpoint the finetune
    index lists for (member, task), else the member's multi-task checkpoint
    from the train index. The member's dev metric (percent) for the task is
    recorded alongside, measured on the member's own dev split (its fold for
    CV members).
    """
    view = SplitView(cfg, out_dir, "predict")
    train_index = _read_index(out_dir, "train", "predict")
    trained = train_index["members"]
    finetuned = _read_index(out_dir, "finetune", "predict")["finetuned"]
    cache = _open_features(cfg, train_index, out_dir, "predict")
    files = {}
    for task_name, entry in sorted(view.index["datasets"].items()):
        eval_set = view.eval_set(task_name) if entry["role"] == "in_domain" else None
        if eval_set is None:
            continue
        for member in cfg.member_plan():
            member_id = member["member_id"]
            if member["fold"] is not None and task_name != cfg.cv_task:
                continue  # CV members only serve their own task's ensemble
            key = f"{member_id}/{task_name}"
            if key in finetuned:
                ckpt_path = out_dir / "finetune" / finetuned[key]["checkpoint"]
            elif member_id in trained:
                ckpt_path = out_dir / "train" / trained[member_id]["checkpoint"]
            else:
                raise PipelineStageError("predict", f"no trained checkpoint for member {member_id}")
            model = load_checkpoint(ckpt_path).model
            dev_set = view.member_split(member, task_name, "dev")
            if dev_set is None:
                raise PipelineStageError("predict", f"task {task_name!r} lacks a dev split")
            dev_features = cache.lookup(dev_set, model.source)
            metric = 100.0 * dev_metric(model, dev_set, dev_features, dev_gold(dev_set))
            ps = PredictionSet(
                model_id=member_id,
                task=task_name,
                kind=eval_set.task_kind.kind,
                predictions=_predict_dataset(model, eval_set, cache.lookup(eval_set, model.source)),
                dev_metric=metric,
            )
            filename = f"{member_id}__{task_name}.jsonl"
            save_prediction_set(ps, out_dir / "predict" / filename)
            files[key] = {"file": filename, "dev_metric": metric}
    return {"predictions": files}, {"predictions": sorted(files)}


def _constrained_triples_pass(
    outputs: dict[str, EnsembleOutput],
    members: list[PredictionSet],
    eval_set: Dataset,
) -> dict[str, EnsembleOutput]:
    """Re-decode complete premise triples from mean member probabilities so
    each group gets one label of each kind."""
    groups: dict[str, list] = {}
    for s in eval_set:
        if s.premise_group is not None:
            groups.setdefault(s.premise_group, []).append(s.id)
    for group_ids in groups.values():
        if len(group_ids) != 3:
            continue
        mean_probs = np.stack(
            [np.mean([np.asarray(ps.predictions[i]) for ps in members], axis=0) for i in group_ids]
        )
        mean_probs /= mean_probs.sum(axis=1, keepdims=True)
        assignment = mednli_constrained_decode(mean_probs)
        for row, sample_id in enumerate(group_ids):
            outputs[sample_id] = replace(outputs[sample_id], label=int(assignment[row]))
    return outputs


def stage_ensemble(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Select members by dev-metric threshold and combine their predictions."""
    predictions = _read_index(out_dir, "predict", "ensemble")["predictions"]
    view = SplitView(cfg, out_dir, "ensemble")
    ensembles_meta = {}
    for task_name in sorted({key.split("/", 1)[1] for key in predictions}):
        sets = [
            load_prediction_set(out_dir / "predict" / predictions[key]["file"])
            for key in sorted(predictions)
            if key.split("/", 1)[1] == task_name
        ]
        threshold = cfg.thresholds.get(task_name, 0.0)
        try:
            members = select_members(sets, threshold)
        except ValueError as exc:
            raise PipelineStageError("ensemble", f"task {task_name}: {exc}") from exc
        outputs = combine_predictions(members)

        eval_set = view.eval_set(task_name)
        by_id = {s.id: s for s in eval_set}
        for sample_id, out in outputs.items():
            out.question_id = by_id[sample_id].question_id if sample_id in by_id else None
        if task_name in cfg.constrained_triple_tasks:
            outputs = _constrained_triples_pass(outputs, members, eval_set)

        filename = f"{task_name}.jsonl"
        save_ensemble_outputs(
            (outputs[i] for i in sorted(outputs)), out_dir / "ensemble" / filename
        )
        selected_ids = {ps.model_id for ps in members}
        ensembles_meta[task_name] = {
            "file": filename,
            "members": sorted(selected_ids),
            "dropped": sorted(ps.model_id for ps in sets if ps.model_id not in selected_ids),
            "threshold": threshold,
        }
    return (
        {"ensembles": ensembles_meta},
        {t: m["members"] for t, m in ensembles_meta.items()},
    )


def stage_rank(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Order each ranking task's answers per question: positives first."""
    ensembles = _read_index(out_dir, "ensemble", "rank")["ensembles"]
    rank_meta = {}
    for task_name in cfg.ranking_tasks:
        if task_name not in ensembles:
            raise PipelineStageError("rank", f"no ensemble outputs for task {task_name!r}")
        records = _read_jsonl(out_dir / "ensemble" / ensembles[task_name]["file"])
        outputs = {rec["sample_id"]: rec for rec in records}
        by_question: dict[str, list] = {}
        for sample_id, rec in sorted(outputs.items()):
            if rec.get("question_id") is None:
                raise PipelineStageError("rank", f"sample {sample_id!r} lacks a question id")
            by_question.setdefault(rec["question_id"], []).append(
                (sample_id, rec["label"], rec["score"])
            )
        filename = f"{task_name}.jsonl"
        with (out_dir / "rank" / filename).open("w", encoding="utf-8") as fh:
            for question_id in sorted(by_question):
                ranked = rank_answers(question_id, by_question[question_id])
                for position, answer in enumerate(ranked.answers, start=1):
                    fh.write(
                        json.dumps(
                            {
                                "question_id": question_id,
                                "sample_id": answer.answer_id,
                                "label": answer.label,
                                "score": answer.score,
                                "rank": position,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
        rank_meta[task_name] = {"file": filename, "n_questions": len(by_question)}
    return {"rankings": rank_meta}, {"rankings": sorted(rank_meta)}


def _gold_positions(samples: list) -> dict[str, dict[str, int]]:
    """Total gold order per question: by relevance descending, then rank."""
    per_question: dict[str, list] = {}
    for s in samples:
        if s.question_id is not None and s.gold_relevance is not None and s.gold_rank is not None:
            per_question.setdefault(s.question_id, []).append(s)
    positions = {}
    for question_id, members in per_question.items():
        members.sort(key=lambda s: (-s.gold_relevance, s.gold_rank))
        positions[question_id] = {s.id: pos for pos, s in enumerate(members, start=1)}
    return positions


def stage_evaluate(cfg: PipelineConfig, out_dir: Path) -> StageResult:
    """Score every task's ensemble outputs against gold; write and print reports."""
    view = SplitView(cfg, out_dir, "evaluate")
    ensembles = _read_index(out_dir, "ensemble", "evaluate")["ensembles"]
    rankings = _read_index(out_dir, "rank", "evaluate")["rankings"]
    stage_dir = out_dir / "evaluate"
    reports: dict[str, EvalReport] = {}
    for task_name in sorted(ensembles):
        eval_set = view.eval_set(task_name)
        if task_name in cfg.ranking_tasks:
            scored: dict[str, list] = {}
            for rec in _read_jsonl(out_dir / "rank" / rankings[task_name]["file"]):
                scored.setdefault(rec["question_id"], []).append(
                    (rec["sample_id"], rec["label"], rec["score"])
                )
            gold_labels = {}
            gold_correct = {}
            for s in eval_set:
                gold_labels.setdefault(s.question_id, {})[s.id] = gold_binary_label(s)
                if gold_binary_label(s):
                    gold_correct.setdefault(s.question_id, set()).add(s.id)
            report = build_ranking_report(
                task_name, scored, gold_correct, _gold_positions(eval_set.samples), gold_labels
            )
        else:
            records = _read_jsonl(out_dir / "ensemble" / ensembles[task_name]["file"])
            outputs = {rec["sample_id"]: rec for rec in records}
            predicted, gold = [], []
            for s in eval_set:
                if s.id not in outputs:
                    continue
                predicted.append(outputs[s.id]["label"])
                gold.append(
                    s.label if eval_set.task_kind.is_classification else gold_binary_label(s)
                )
            binary = (
                eval_set.task_kind.kind == "regression"
                or eval_set.task_kind.num_classes == 2
            )
            report = EvalReport(
                task=task_name,
                accuracy=accuracy(predicted, gold),
                precision=precision_positive(predicted, gold) if binary else None,
                n_samples=len(predicted),
            )
        reports[task_name] = report
        _write_json(stage_dir / f"{task_name}.json", report.to_dict())
        print(report.table())
        print()
    summary = {t: {"accuracy": r.accuracy, "precision": r.precision, "mrr": r.mrr,
                   "spearman": r.spearman} for t, r in reports.items()}
    _write_json(stage_dir / "summary.json", summary)
    return {"reports": sorted(reports)}, {"reports": sorted(reports)}


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "transform": stage_transform,
    "split": stage_split,
    "schedule": stage_schedule,
    "train": stage_train,
    "finetune": stage_finetune,
    "predict": stage_predict,
    "ensemble": stage_ensemble,
    "rank": stage_rank,
    "evaluate": stage_evaluate,
}


def run_stage(name: str, cfg: PipelineConfig, out_dir: str | Path) -> None:
    """Run one stage: empty its directory, let it write its artifacts, then
    write its index.json and record its summary in run_manifest.json.

    The stage directory is removed first, so a re-run never leaves files of
    an earlier run of the stage behind; no stage reads its own directory.
    """
    if name not in _STAGE_FUNCS:
        raise PipelineStageError(name, f"unknown stage; expected one of {', '.join(STAGES)}")
    out_dir = Path(out_dir)
    stage_dir = out_dir / name
    if stage_dir.exists():
        shutil.rmtree(stage_dir)
    stage_dir.mkdir(parents=True)
    payload, summary = _STAGE_FUNCS[name](cfg, out_dir)
    index = {
        "schema_version": SCHEMA_VERSION,
        "stage": name,
        "config_hash": cfg.config_hash,
        "master_seed": cfg.master_seed,
        **payload,
    }
    _write_json(stage_dir / "index.json", index)
    manifest_path = out_dir / "run_manifest.json"
    manifest = (
        json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest_path.exists()
        else {
            "schema_version": SCHEMA_VERSION,
            "config_hash": cfg.config_hash,
            "master_seed": cfg.master_seed,
            "config": cfg.raw,
            "stages": {},
        }
    )
    manifest["stages"][name] = summary
    _write_json(manifest_path, manifest)


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path, quiet: bool = False) -> Path:
    """Execute every stage in order; returns the artifact directory. quiet
    silences the progress lines and the evaluate tables."""
    out_dir = Path(out_dir)
    with contextlib.redirect_stdout(io.StringIO()) if quiet else contextlib.nullcontext():
        for name in STAGES:
            print(f"[{name}] running")
            run_stage(name, cfg, out_dir)
    return out_dir


# -- multi-source experiment ----------------------------------------------------


def run_multisource_experiment(
    cfg: Optional[PipelineConfig],
    out_dir: str | Path,
    mode: str = "noise",
    n_trials: int = 20,
    master_seed: Optional[int] = None,
    noise_config: Optional[NoiseModelConfig] = None,
) -> ExperimentReport:
    """Compare single-source vs mixed-source ensembles.

    mode "noise" uses the documented synthetic noise model over n_trials
    seeded trials. mode "trained" trains >= 3 members per configured source
    family on the configured corpus and compares ensembles of their
    predictions on the first classification task's eval split.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "noise":
        seed = master_seed if master_seed is not None else (cfg.master_seed if cfg else 0)
        report = run_noise_model_experiment(
            noise_config or NoiseModelConfig(), n_trials=n_trials, master_seed=seed
        )
    elif mode == "trained":
        if cfg is None:
            raise PipelineStageError("experiment", "trained mode requires a pipeline config")
        report = _trained_experiment(cfg, out_dir)
    else:
        raise PipelineStageError("experiment", f"unknown mode {mode!r}")
    save_report(report, out_dir / "experiment_report.json")
    return report


def _trained_experiment(cfg: PipelineConfig, out_dir: Path) -> ExperimentReport:
    if len(cfg.sources) < 2:
        raise PipelineStageError("experiment", "trained mode needs >= 2 source families")
    for entry in cfg.sources:
        if entry.members < 3:
            raise PipelineStageError(
                "experiment",
                f"source {entry.spec.name!r} has {entry.members} members, needs >= 3",
            )
    work = out_dir / "trained_members"
    for stage in ("ingest", "transform", "split"):
        run_stage(stage, cfg, work)
    view = SplitView(cfg, work, "experiment")
    task_name = next(
        (n for n, entry in sorted(view.index["datasets"].items())
         if entry["role"] == "in_domain" and TaskKind.parse(entry["task_kind"]).is_classification),
        None,
    )
    if task_name is None:
        raise PipelineStageError("experiment", "no in-domain classification task to compare on")
    eval_set = view.eval_set(task_name)
    gold = {s.id: s.label for s in eval_set}

    cache = FeatureCache()
    families: dict[str, list[PredictionSet]] = {}
    for member in cfg.member_plan():
        if member["fold"] is not None:
            continue
        spec = member["source"].spec
        train_cfg = _member_train_config(cfg, member)
        result = train_multitask(view.member_tasks(member), spec, train_cfg, cache=cache)
        families.setdefault(spec.name, []).append(
            PredictionSet(
                model_id=member["member_id"],
                task=task_name,
                kind="classification",
                predictions=_predict_dataset(
                    result.best.model, eval_set, cache.lookup(eval_set, spec)
                ),
                dev_metric=100.0 * result.best.selection_value,
            )
        )
    return summarize_trials([compare_groupings(families, gold, trial=0)])
