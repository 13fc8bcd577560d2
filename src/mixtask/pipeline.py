"""End-to-end workflow orchestration.

Stages: ingest -> transform -> split -> schedule -> train -> finetune ->
predict -> ensemble -> rank -> evaluate. Each stage reads earlier stages'
artifacts from the output directory and writes its own, so any stage can be
re-run independently. run_stage hands each stage a StageRun, its only reader
of upstream artifacts: each upstream index and dataset file is read once,
each index is checked against its shape in INDEX_SHAPES as it is parsed,
and an unreadable one fails the stage with "re-run <producer>". On a run
only ingest decodes dataset rows: every dataset file a later stage reads is
one that ingest, transform or split (CV folds included) wrote in the same
process. `_WRITTEN` maps the sha256 of each file the latest of those stages
wrote to the samples it wrote as those bytes, and a StageRun takes a file's
samples from it when the bytes on disk match. run_stage swaps in a stage's
files when the stage succeeds having written some, ingest empties the
mapping before it decodes the manifest's files, and it is empty after
evaluate; so it holds one writing stage's files, plus those of the stage
running. A hit is exact: it is keyed by the bytes on disk now,
`save_samples` adds no entry when a decode would not give equal samples,
and the hit is built into a new Dataset under the reading stage's metadata
and validated again. Stages never change a SamplePair after building it
(the same invariant FeatureCache relies on), so sharing the samples is
safe. A stage run alone (`mixtask <stage>`) decodes everything it reads.
run_stage is the one place that tags a failure with its stage. It writes
the stage's index.json, the one record of the stage: the config it ran
with, its payload, and under "inputs" the sha256 of the bytes of each
upstream index it parsed; a reader refuses an index whose inputs no longer
match. Files go through the codec in data.py. A (member, task) model is the
checkpoint the finetune index lists, else the member's train checkpoint,
never a file merely present on disk.
Each row is featurized once per run, for all sources in one call: finetune
and predict open train's FeatureCache through the train index. Every
artifact is reproducible from (config, master seed): stage seeds derive
hierarchically per (stage, dataset, member, fold), and no output embeds
timestamps or absolute paths.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path
from typing import Iterable, Optional

from .config import PipelineConfig
from .corpus import apply_qa_modified_scores, apply_split_recipe, cv_folds, medquad_negative_sample
from .data import (
    ANY,
    FILE_NAME,
    FINITE,
    NATURAL,
    Dataset,
    SamplePair,
    TaskKind,
    check_shape,
    decode_json,
    is_finite_number,
    load_dataset,
    load_manifest_datasets,
    read_jsonl,
    save_samples,
    write_json,
)
from .featurize import STORE_SHAPE, FeatureCache
from .inference import (
    PredictionSet,
    combine_predictions,
    constrained_triples_pass,
    load_prediction_set,
    predict_dataset,
    rank_answers,
    save_ensemble_outputs,
    save_prediction_set,
    save_rankings,
    select_members,
)
from .metrics import EvalReport, accuracy, build_ranking_report, precision_positive, ranking_gold
from .model import CHECKPOINT_SHAPE, Checkpoint, load_checkpoint, save_checkpoint
from .scheduler import save_plan
from .seeding import derive_seed
from .training import TaskData, build_member_epoch_plan, dev_gold, fine_tune_task, train_multitask

SCHEMA_VERSION = 1

# The samples of the dataset files the latest dataset-writing stage of this
# run wrote, by the sha256 of each file's bytes; run_stage swaps them in.
_WRITTEN: dict[bytes, tuple[SamplePair, ...]] = {}


class PipelineStageError(RuntimeError):
    """A stage failure, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# -- artifact helpers ----------------------------------------------------------


def _save_datasets(run: StageRun, bundles: dict[str, dict[str, Dataset]]) -> dict[str, dict]:
    entries = {}
    for name in sorted(bundles):
        bundle = bundles[name]
        any_split = next(iter(bundle.values()))
        splits = {}
        for split in sorted(bundle):
            filename = f"{name}__{split}.jsonl"
            save_samples(bundle[split].samples, run.dir / filename, written=run.written)
            splits[split] = filename
        entries[name] = {
            "task_kind": str(any_split.task_kind),
            "role": any_split.role,
            "head_group": any_split.head_group,
            "splits": splits,
        }
    return entries


class StageRun:
    """One run of one stage: `dir`, where it writes, `written`, the samples of
    the dataset files it writes there, and the only reader of upstream
    artifacts. Each index, dataset file and checkpoint is read at most once,
    so members share one Dataset per file. A dataset file's samples come from
    `_WRITTEN` when the latest dataset-writing stage wrote the same bytes. An
    index file's one read serves its parse, its shape check and every check
    of its digest; `inputs` maps each index parsed to the sha256 of its
    bytes. A failed read or an index that does not fit its shape fails the
    stage with "re-run <producer>"; readers then index plain dicts."""

    def __init__(self, cfg: PipelineConfig, out_dir: Path, stage: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.stage = stage
        self.dir = out_dir / stage
        self.inputs: dict[str, str] = {}
        self.written: dict[bytes, tuple[SamplePair, ...]] = {}
        self._index_files: dict[str, tuple[bytes, str]] = {}
        self._indexes: dict[str, dict] = {}
        self._datasets: dict[Path, Dataset] = {}
        self._checkpoints: dict[Path, Checkpoint] = {}

    def error(self, message: str) -> PipelineStageError:
        return PipelineStageError(self.stage, message)

    @contextlib.contextmanager
    def reading(self, what: str, producer: str):
        """Turn a failed read of an upstream artifact into a tagged error that
        names the artifact and asks to re-run its producer."""
        try:
            yield
        except (EOFError, KeyError, OSError, ValueError) as exc:
            message = f"unreadable {what}: {type(exc).__name__}: {exc}; re-run {producer}"
            raise self.error(message) from exc

    def _index_file(self, producer: str) -> tuple[bytes, str]:
        """A producer's index.json bytes and their sha256, read once."""
        if producer not in self._index_files:
            with self.reading(f"{producer}/index.json", producer):
                raw = (self.out_dir / producer / "index.json").read_bytes()
            self._index_files[producer] = raw, hashlib.sha256(raw).hexdigest()
        return self._index_files[producer]

    def index(self, producer: str) -> dict:
        """A producer's index.json, checked against its INDEX_SHAPES shape and
        the upstream indexes it lists as its inputs."""
        if producer not in self._indexes:
            raw, digest = self._index_file(producer)
            with self.reading(f"{producer}/index.json", producer):
                index = decode_json(raw)
                check_shape(index, INDEX_SHAPES[producer])
                inputs = index.get("inputs", {})
                if not set(inputs) <= set(STAGES):
                    raise ValueError("an index must be a mapping whose inputs are by stage name")
            for upstream, expected in sorted(inputs.items()):
                if self._index_file(upstream)[1] != expected:
                    raise self.error(f"{producer}/index.json was built from another "
                                     f"{upstream}/index.json; re-run {producer}")
            self._indexes[producer] = index
            self.inputs[producer] = digest
        return self._indexes[producer]

    def _dataset(self, producer: str, name: str, filename: str) -> Dataset:
        """One dataset file a producer's index lists, typed by its entry."""
        path = self.out_dir / producer / filename
        if path not in self._datasets:
            entry = self.index(producer)["datasets"][name]
            with self.reading(f"{producer}/index.json", producer):
                kind = TaskKind.parse(entry["task_kind"])
            with self.reading(f"{producer}/{filename}", producer):
                self._datasets[path] = load_dataset(path, name, kind, entry["role"],
                                                    entry["head_group"], written=_WRITTEN)
        return self._datasets[path]

    def bundles(self, producer: str) -> dict[str, dict[str, Dataset]]:
        """Every dataset split a producer's index lists, by name and split."""
        return {
            name: {split: self._dataset(producer, name, filename)
                   for split, filename in entry["splits"].items()}
            for name, entry in self.index(producer)["datasets"].items()
        }

    def split(self, name: str, split: str) -> Optional[Dataset]:
        filename = self.index("split")["datasets"][name]["splits"].get(split)
        return None if filename is None else self._dataset("split", name, filename)

    def eval_set(self, name: str, listed_by: str = "split") -> Optional[Dataset]:
        """The split a task is evaluated on: eval, or dev when eval is absent
        or empty. A task that another producer's index (listed_by) names must
        have one in the split index, else that index is at fault."""
        listed = name in self.index("split")["datasets"]
        found = (self.split(name, "eval") or self.split(name, "dev")) if listed else None
        if found is None and listed_by != "split":
            raise self.error(f"{listed_by}/index.json lists task {name!r}, for which "
                             f"split/index.json lists no eval or dev split; re-run {listed_by}")
        return found

    def member_split(self, member: dict, name: str, split: str) -> Optional[Dataset]:
        """A member's train or dev split of one task: the member's fold for the
        CV task of a CV member, else the standard split."""
        if member["fold"] is not None and name == self.cfg.cv_task:
            at = [meta for meta in self.index("split")["folds"] if meta["fold"] == member["fold"]]
            if len(at) != 1:
                raise self.error(f"split/index.json lists fold {member['fold']} {len(at)} "
                                 f"times; re-run split")
            return self._dataset("split", name, at[0][split])
        return self.split(name, split)

    def member_tasks(self, member: dict) -> list[TaskData]:
        """Task list for one member, every task's train and dev split."""
        return [
            TaskData(*(self.member_split(member, name, split) for split in ("train", "dev")))
            for name in sorted(self.index("split")["datasets"])
        ]

    def features(self) -> FeatureCache:
        """The train stage's feature store for the member plan's sources,
        through the train index. Files the index does not list are never read."""
        with self.reading("train features", "train"):
            return FeatureCache.load(self.out_dir / "train" / "features",
                                     self.index("train")["features"], self.cfg.member_sources())

    def checkpoint(self, member: dict, task: Optional[str] = None) -> Checkpoint:
        """A member's model: for a task, the fine-tuned checkpoint the finetune
        index lists for (member, task), else the member's multi-task
        checkpoint from the train index; never a file merely present on disk.
        Its layout must name the member's source."""
        member_id = member["member_id"]
        finetuned = {} if task is None else self.index("finetune")["finetuned"].get(member_id, {})
        if task in finetuned:
            producer, entry = "finetune", finetuned[task]
        else:
            producer, entry = "train", self.index("train")["members"].get(member_id)
            if entry is None:
                raise self.error(f"no trained checkpoint for member {member_id}; re-run train")
        path = self.out_dir / producer / entry["checkpoint"]
        if path not in self._checkpoints:
            with self.reading(f"{producer} checkpoint {entry['checkpoint']!r}", producer):
                checkpoint = load_checkpoint(path, entry)
                if checkpoint.model.source != member["source"].spec:
                    raise ValueError(f"its layout source {checkpoint.model.source} is not "
                                     f"member {member_id}'s source {member['source'].spec}")
                self._checkpoints[path] = checkpoint
        return self._checkpoints[path]

    def records_by_sample(self, producer: str, filename: str, task: str,
                          expected: Optional[set] = None) -> dict[str, dict]:
        """The records of one per-sample JSON-Lines file a producer wrote, by
        sample id. Fails with "re-run <producer>" when a sample id repeats or,
        given the expected ids, when one is missing or foreign."""
        with self.reading(f"{producer}/{filename}", producer):
            records = [rec for _, rec in read_jsonl(self.out_dir / producer / filename)]
            by_id = {rec["sample_id"]: rec for rec in records}
        expected = by_id.keys() if expected is None else expected
        self._check_coverage(producer, filename, task, by_id.keys(), expected,
                             repeats=len(records) - len(by_id))
        return by_id

    def prediction_set(self, task: str, member_id: str, eval_set: Dataset) -> PredictionSet:
        """A member's predictions for a task, as the predict index lists them,
        which must cover exactly the eval split's ids."""
        with self.reading("predict/index.json", "predict"):
            entry = self.index("predict")["predictions"][task][member_id]
        filename = entry["file"]
        with self.reading(f"predict/{filename}", "predict"):
            ps = load_prediction_set(self.out_dir / "predict" / filename, member_id,
                                     eval_set.task_kind, entry["dev_metric"])
        self._check_coverage("predict", filename, task, ps.predictions.keys(),
                             {s.id for s in eval_set})
        return ps

    def _check_coverage(self, producer: str, filename: str, task: str, ids, expected,
                        repeats: int = 0) -> None:
        missing, foreign = expected - ids, ids - expected
        if missing or foreign or repeats:
            raise self.error(
                f"task {task}: {producer}/{filename} misses {len(missing)} eval samples, names "
                f"{len(foreign)} samples outside the eval set and repeats {repeats}; "
                f"re-run {producer}"
            )


# -- stages ---------------------------------------------------------------------

# A stage writes its artifacts under run.dir and returns its index payload.
# INDEX_SHAPES holds the shape of each index a later stage reads, which
# StageRun.index checks: run_stage's header, the inputs of every stage that
# reads an upstream index (all but ingest), and the stage's payload.

_HEADER = {"schema_version": int, "config_hash": str, "master_seed": int, "config": ANY,
           "stage": str}
_READER = {**_HEADER, "inputs": {str: str}}
_DATASETS = {str: {"task_kind": str, "role": str, "head_group": str, "splits": {str: FILE_NAME}}}
INDEX_SHAPES = {
    "ingest": {**_HEADER, "datasets": _DATASETS},
    "transform": {**_READER, "datasets": _DATASETS, "applied": {str: [str]}},
    "split": {**_READER, "datasets": _DATASETS,
              "folds": [{"fold": NATURAL, "train": FILE_NAME, "dev": FILE_NAME}]},
    "train": {**_READER, "members": {str: {**CHECKPOINT_SHAPE, "history": FILE_NAME}},
              "features": STORE_SHAPE},
    "finetune": {**_READER, "finetuned": {str: {str: CHECKPOINT_SHAPE}}},
    "predict": {**_READER,
                "predictions": {str: {str: {"file": FILE_NAME, "dev_metric": FINITE}}}},
    "ensemble": {**_READER, "ensembles": {str: {"file": FILE_NAME, "members": [str],
                                                "dropped": [str], "threshold": FINITE}}},
    "rank": {**_READER, "rankings": {str: {"file": FILE_NAME, "n_questions": NATURAL}}},
}


def stage_ingest(run: StageRun) -> dict:
    """Load and validate every manifest dataset; write normalized copies."""
    _WRITTEN.clear()  # a new run: what an earlier one wrote is read no more
    bundles = load_manifest_datasets(run.cfg.manifest_path)
    return {"datasets": _save_datasets(run, bundles)}


def _check_names(run: StageRun, kind: str, known, **config_entries) -> None:
    """Fail on a config key or entry that names no dataset or task the stage has."""
    for key, names in config_entries.items():
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise run.error(f"unknown {kind} {unknown[0]!r} in {key}")


def stage_transform(run: StageRun) -> dict:
    """Apply per-dataset score transforms and negative sampling."""
    cfg, bundles = run.cfg, run.bundles("ingest")
    _check_names(run, "dataset", bundles, transforms=cfg.transforms)
    notes = {}
    for name, ops in sorted(cfg.transforms.items()):
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
                raise run.error(f"unknown transform {op!r} for {name!r}")
    entries = _save_datasets(run, bundles)
    return {"datasets": entries, "applied": notes}


def stage_split(run: StageRun) -> dict:
    """Apply the named split recipes and emit cross-validation folds."""
    cfg, bundles = run.cfg, run.bundles("transform")
    _check_names(run, "dataset", bundles, splits=cfg.split_recipes,
                 random_split=cfg.random_split_counts)
    bundles = {name: apply_split_recipe(cfg, name, b) for name, b in bundles.items()}
    entries = _save_datasets(run, bundles)

    folds_meta = []
    if cfg.cv_enabled:
        if cfg.cv_task not in bundles:
            raise run.error(f"cv task {cfg.cv_task!r} not in manifest")
        bundle = bundles[cfg.cv_task]
        pool_samples = list(bundle["train"].samples) + list(
            bundle["dev"].samples if "dev" in bundle else []
        )
        pool = bundle["train"].with_samples(pool_samples)
        fold_dir = run.dir / "folds"
        fold_dir.mkdir(exist_ok=True)
        for j, (train, dev) in enumerate(cv_folds(pool, cfg.cv_folds)):
            train_file = f"{cfg.cv_task}__fold{j}__train.jsonl"
            dev_file = f"{cfg.cv_task}__fold{j}__dev.jsonl"
            save_samples(train.samples, fold_dir / train_file, written=run.written)
            save_samples(dev.samples, fold_dir / dev_file, written=run.written)
            folds_meta.append(
                {"fold": j, "train": f"folds/{train_file}", "dev": f"folds/{dev_file}"}
            )
    return {"datasets": entries, "folds": folds_meta}


def stage_schedule(run: StageRun) -> dict:
    """Emit first-epoch plans per member for audit and replay."""
    plans = {}
    for member in run.cfg.member_plan():
        train_cfg = run.cfg.member_train_config(member)
        plan = build_member_epoch_plan(run.member_tasks(member), train_cfg, epoch=1)
        filename = f"{member['member_id']}__epoch1.jsonl"
        save_plan(plan, run.dir / filename)
        plans[member["member_id"]] = {
            "file": filename,
            "length": len(plan),
            "n_in_domain": plan.n_in_domain,
            "n_external": plan.n_external,
        }
    return {"plans": plans}


def stage_train(run: StageRun) -> dict:
    """Train one multi-task model per member (base members and CV folds)."""
    cache = FeatureCache(run.cfg.member_sources())
    members_meta = {}
    for member in run.cfg.member_plan():
        member_id = member["member_id"]
        train_cfg = run.cfg.member_train_config(member)
        try:
            result = train_multitask(
                run.member_tasks(member), member["source"].spec, train_cfg, cache=cache
            )
        except (ValueError, FloatingPointError) as exc:
            raise run.error(f"member {member_id}: {exc}") from exc
        checkpoint = save_checkpoint(result.best, run.dir / f"{member_id}__multitask.npy")
        history_file = f"{member_id}__history.json"
        write_json(
            run.dir / history_file,
            {"member": member_id, "initial_metrics": result.initial_metrics,
             "history": result.history},
        )
        members_meta[member_id] = {**checkpoint, "history": history_file}
    features = cache.save(run.dir / "features")
    return {"members": members_meta, "features": features}


def _finetune_targets(cfg: PipelineConfig, member: dict, tasks: list[TaskData]) -> list[TaskData]:
    if member["fold"] is not None:
        if not cfg.cv_finetune_members:
            return []
        return [t for t in tasks if t.name == cfg.cv_task]
    return [t for t in tasks if t.train.role == "in_domain" and t.dev is not None]


def stage_finetune(run: StageRun) -> dict:
    """Per-task fine-tuning from each member's best multi-task checkpoint.

    Only models that fine-tuning changed are saved and listed: when no epoch
    beats the input's dev metric, the (member, task) gets no file and no
    index entry, and predict uses the member's train checkpoint. Zero
    fine-tuning epochs change no model, so the stage then reads only the
    split and train indexes, which its inputs record, and lists none.
    """
    finetuned = {}
    if run.cfg.train.epochs_finetune == 0:
        run.index("split")
        run.index("train")
        return {"finetuned": finetuned}
    cache = run.features()
    for member in run.cfg.member_plan():
        member_id = member["member_id"]
        ckpt = run.checkpoint(member)
        train_cfg = run.cfg.member_train_config(member)
        for task in _finetune_targets(run.cfg, member, run.member_tasks(member)):
            try:
                tuned = fine_tune_task(ckpt, task, train_cfg, cache=cache)
            except (ValueError, FloatingPointError) as exc:
                raise run.error(f"member {member_id}, task {task.name}: {exc}") from exc
            if tuned.epoch == 0:
                continue
            finetuned.setdefault(member_id, {})[task.name] = save_checkpoint(
                tuned, run.dir / f"{member_id}__ft__{task.name}.npy"
            )
    return {"finetuned": finetuned}


def stage_predict(run: StageRun) -> dict:
    """Every member predicts every in-domain task's eval split.

    A member's model for a task is the fine-tuned checkpoint the finetune
    index lists for (member, task), else the member's multi-task checkpoint
    from the train index. The member's dev metric (percent) for the task is
    recorded alongside, from the checkpoint's provenance: measured at the
    selected epoch on the member's own dev split (its fold for CV members).
    """
    cache = run.features()
    files = {}
    for task_name, entry in sorted(run.index("split")["datasets"].items()):
        eval_set = run.eval_set(task_name) if entry["role"] == "in_domain" else None
        if eval_set is None:
            continue
        for member in run.cfg.member_plan():
            member_id = member["member_id"]
            if member["fold"] is not None and task_name != run.cfg.cv_task:
                continue  # CV members only serve their own task's ensemble
            ckpt = run.checkpoint(member, task_name)
            if task_name not in ckpt.dev_metrics:
                raise run.error(f"task {task_name!r} lacks a dev split")
            model, metric = ckpt.model, 100.0 * ckpt.dev_metrics[task_name]
            ps = PredictionSet(
                model_id=member_id,
                kind=eval_set.task_kind.kind,
                predictions=predict_dataset(model, eval_set, cache.lookup(eval_set, model.source)),
            )
            filename = f"{member_id}__{task_name}.jsonl"
            save_prediction_set(ps, run.dir / filename)
            files.setdefault(task_name, {})[member_id] = {"file": filename, "dev_metric": metric}
    return {"predictions": files}


def stage_ensemble(run: StageRun) -> dict:
    """Select members by dev-metric threshold and combine their predictions."""
    cfg, predictions = run.cfg, run.index("predict")["predictions"]
    _check_names(run, "task", predictions, thresholds=cfg.thresholds,
                 constrained_triples=cfg.constrained_triple_tasks)
    ensembles_meta = {}
    for task_name in sorted(predictions):
        eval_set = run.eval_set(task_name, listed_by="predict")
        by_id = {s.id: s for s in eval_set}
        sets = [run.prediction_set(task_name, member_id, eval_set)
                for member_id in sorted(predictions[task_name])]
        threshold = cfg.thresholds.get(task_name, 0.0)
        try:
            members = select_members(sets, threshold)
        except ValueError as exc:
            raise run.error(f"task {task_name}: {exc}") from exc
        outputs = combine_predictions(members)
        for sample_id, out in outputs.items():
            out.question_id = by_id[sample_id].question_id
        if task_name in cfg.constrained_triple_tasks:
            outputs = constrained_triples_pass(outputs, members, eval_set)

        filename = f"{task_name}.jsonl"
        save_ensemble_outputs((outputs[i] for i in sorted(outputs)), run.dir / filename)
        selected_ids = {ps.model_id for ps in members}
        ensembles_meta[task_name] = {
            "file": filename,
            "members": sorted(selected_ids),
            "dropped": sorted(ps.model_id for ps in sets if ps.model_id not in selected_ids),
            "threshold": threshold,
        }
    return {"ensembles": ensembles_meta}


def _class_index(sample_id: str, label, classes: int) -> int:
    """An ensemble or rank row's label; ValueError unless it is a class index."""
    if type(label) is not int or not 0 <= label < classes:
        raise ValueError(f"sample {sample_id!r}: label {json.dumps(label)} "
                         f"is not a class index below {classes}")
    return label


def _answers_by_question(rows: Iterable[tuple[str, dict]],
                         ranked: bool = False) -> dict[str, list]:
    """(sample id, label, score) of each (sample id, ensemble or rank row) by
    its question id, in row order; ValueError naming the first row whose
    label is not 0 or 1, score not a finite number, question id not a
    string or, for ranked (rank) rows, rank not its position in its question."""
    by_question: dict[str, list] = {}
    for sample_id, rec in rows:
        label, score, question_id = rec["label"], rec["score"], rec.get("question_id")
        _class_index(sample_id, label, 2)
        if not is_finite_number(score):
            raise ValueError(f"sample {sample_id!r}: score {json.dumps(score)} "
                             f"is not a finite number")
        if type(question_id) is not str:
            raise ValueError(f"sample {sample_id!r}: question_id {json.dumps(question_id)} "
                             f"is not a string")
        answers = by_question.setdefault(question_id, [])
        if ranked and (type(rec.get("rank")) is not int or rec["rank"] != len(answers) + 1):
            raise ValueError(f"sample {sample_id!r}: rank {json.dumps(rec.get('rank'))} is not "
                             f"its position {len(answers) + 1} in question {question_id!r}")
        answers.append((sample_id, label, score))
    return by_question


def stage_rank(run: StageRun) -> dict:
    """Order each ranking task's answers per question: positives first. A
    task none of whose answers has a question id is not one to rank."""
    ensembles = run.index("ensemble")["ensembles"]
    _check_names(run, "task", ensembles, ranking=run.cfg.ranking_tasks)
    rank_meta = {}
    for task_name in run.cfg.ranking_tasks:
        source = ensembles[task_name]["file"]
        outputs = run.records_by_sample("ensemble", source, task_name)
        if outputs and all(rec.get("question_id") is None for rec in outputs.values()):
            raise run.error(f"task {task_name!r} in ranking has answers without question ids")
        with run.reading(f"ensemble/{source}", "ensemble"):
            by_question = _answers_by_question(sorted(outputs.items()))
        filename = f"{task_name}.jsonl"
        save_rankings(((q, rank_answers(by_question[q])) for q in sorted(by_question)),
                      run.dir / filename)
        rank_meta[task_name] = {"file": filename, "n_questions": len(by_question)}
    return {"rankings": rank_meta}


def stage_evaluate(run: StageRun) -> dict:
    """Score every task's ensemble outputs against gold; write and print reports."""
    ensembles = run.index("ensemble")["ensembles"]
    rankings = run.index("rank")["rankings"]
    reports: dict[str, EvalReport] = {}
    for task_name in sorted(ensembles):
        eval_set = run.eval_set(task_name, listed_by="ensemble")
        eval_ids = {s.id for s in eval_set}
        if task_name in run.cfg.ranking_tasks:
            if task_name not in rankings:
                raise run.error(f"no rankings for task {task_name!r}; re-run rank")
            filename = rankings[task_name]["file"]
            ranked = run.records_by_sample("rank", filename, task_name, eval_ids)
            with run.reading(f"rank/{filename}", "rank"):
                scored = _answers_by_question(ranked.items(), ranked=True)
            report = build_ranking_report(task_name, scored, *ranking_gold(eval_set))
        else:
            filename = ensembles[task_name]["file"]
            outputs = run.records_by_sample("ensemble", filename, task_name, eval_ids)
            kind = eval_set.task_kind
            classes = kind.num_classes or 2  # a regression ensemble votes 0 or 1
            with run.reading(f"ensemble/{filename}", "ensemble"):
                predicted = [_class_index(s.id, outputs[s.id]["label"], classes)
                             for s in eval_set]
            gold = dev_gold(eval_set)
            binary = not kind.is_classification or kind.num_classes == 2
            report = EvalReport(
                task=task_name,
                accuracy=accuracy(predicted, gold),
                precision=precision_positive(predicted, gold) if binary else None,
                n_samples=len(predicted),
            )
        reports[task_name] = report
        write_json(run.dir / f"{task_name}.json", report.to_dict())
        print(report.table())
        print()
    summary = {t: {"accuracy": r.accuracy, "precision": r.precision, "mrr": r.mrr,
                   "spearman": r.spearman} for t, r in reports.items()}
    write_json(run.dir / "summary.json", summary)
    return {"reports": sorted(reports)}


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
STAGES = tuple(_STAGE_FUNCS)


def run_stage(name: str, cfg: PipelineConfig, out_dir: str | Path) -> None:
    """Run one stage: empty the stage's directory, let it write its
    artifacts, then write its index.json, the stage's one record (header, the
    config itself, payload, inputs), whole and renamed into place. No stage
    reads its own directory, so a re-run leaves no file of an earlier run
    behind. When the stage succeeds, the dataset files it wrote, if any,
    replace those in `_WRITTEN`, and after evaluate, the last stage, it is
    empty. This is the one place that tags a failure: a ValueError,
    FloatingPointError, OSError or MemoryError (a model or feature matrix too
    large to allocate) escaping the stage becomes PipelineStageError(name, ...).
    """
    if name not in _STAGE_FUNCS:
        raise PipelineStageError(name, f"unknown stage; expected one of {', '.join(STAGES)}")
    run = StageRun(cfg, Path(out_dir), name)
    try:
        if run.dir.exists():
            shutil.rmtree(run.dir)
        run.dir.mkdir(parents=True)
        payload = _STAGE_FUNCS[name](run)
        inputs = {"inputs": run.inputs} if run.inputs else {}
        write_json(run.dir / "index.json", {
            "schema_version": SCHEMA_VERSION, "config_hash": cfg.config_hash,
            "master_seed": cfg.master_seed, "config": cfg.raw, "stage": name, **payload, **inputs,
        })
    except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
        raise PipelineStageError(name, str(exc)) from exc
    if run.written or name == STAGES[-1]:
        _WRITTEN.clear()
        _WRITTEN.update(run.written)


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path, quiet: bool = False) -> Path:
    """Execute every stage in order; returns the artifact directory. quiet
    silences the progress lines and the evaluate tables."""
    out_dir = Path(out_dir)
    with contextlib.redirect_stdout(io.StringIO()) if quiet else contextlib.nullcontext():
        for name in STAGES:
            print(f"[{name}] running")
            run_stage(name, cfg, out_dir)
    return out_dir

