import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import mixtask
from mixtask.pipeline import (
    STAGES,
    PipelineConfig,
    PipelineStageError,
    run_stage,
)


def read_index(run_dir, stage):
    return json.loads((Path(run_dir) / stage / "index.json").read_text())


def test_every_stage_leaves_a_self_describing_index(toy_run_dir):
    for stage in STAGES:
        index = read_index(toy_run_dir, stage)
        assert index["schema_version"] == 1
        assert index["stage"] == stage
        assert "config_hash" in index and "master_seed" in index


def test_every_index_records_the_config_it_ran_with(toy_corpus_dir, toy_run_dir):
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    for stage in STAGES:
        index = read_index(toy_run_dir, stage)
        assert index["config"] == cfg.raw and index["master_seed"] == 7, stage


def test_a_run_writes_only_the_stage_directories(toy_run_dir):
    assert sorted(path.name for path in toy_run_dir.iterdir()) == sorted(STAGES)
    assert all(path.is_dir() for path in toy_run_dir.iterdir())


def test_split_recipes_reshaped_the_datasets(toy_run_dir):
    ingest = read_index(toy_run_dir, "ingest")["datasets"]
    split = read_index(toy_run_dir, "split")["datasets"]

    def count(stage, name, part):
        path = toy_run_dir / stage / f"{name}__{part}.jsonl"
        return sum(1 for line in path.read_text().splitlines() if line.strip())

    # merge_dev: new train = old train + old dev
    assert count("split", "toy_nli", "train") == count("ingest", "toy_nli", "train") + count(
        "ingest", "toy_nli", "dev"
    )
    # shuffle_half_eval moves floor(|dev|/2) into train
    moved = count("ingest", "toy_rqe", "dev") // 2
    assert count("split", "toy_rqe", "train") == count("ingest", "toy_rqe", "train") + moved
    # negatives tripled the page pairs (k=2, pages rich enough), then random_split partitioned
    total_pages = 3 * count("ingest", "toy_pages", "train")
    assert count("split", "toy_pages", "train") + count("split", "toy_pages", "dev") == total_pages
    assert count("split", "toy_pages", "dev") == 72


def test_cv_folds_partition_the_qa_pool(toy_run_dir):
    split = read_index(toy_run_dir, "split")
    assert len(split["folds"]) == 5
    fold_dev_ids = []
    for fold in split["folds"]:
        dev_path = toy_run_dir / "split" / fold["dev"]
        ids = [json.loads(line)["id"] for line in dev_path.read_text().splitlines() if line.strip()]
        fold_dev_ids.extend(ids)
    assert len(fold_dev_ids) == len(set(fold_dev_ids))
    pool = (
        (toy_run_dir / "split" / "toy_qa__train.jsonl").read_text().splitlines()
        + (toy_run_dir / "split" / "toy_qa__dev.jsonl").read_text().splitlines()
    )
    assert len(fold_dev_ids) == sum(1 for line in pool if line.strip())


def test_members_trained_base_plus_cv(toy_run_dir):
    members = read_index(toy_run_dir, "train")["members"]
    # 2 sources x 1 base member + 2 sources x 5 folds
    assert len(members) == 12
    assert {m for m in members if "-cv" in m} == {
        f"family_{f}-cv{j}" for f in "ab" for j in range(5)
    }


def test_trainer_executes_the_audited_epoch_plan(toy_corpus_dir, toy_run_dir, monkeypatch):
    """Each gradient step takes the feature rows and the head group of the
    next batch of the schedule stage's audited plan."""
    import numpy as np

    from mixtask import training
    from mixtask.featurize import FeatureCache
    from mixtask.pipeline import StageRun
    from reference import load_plan

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    real_step = training.grad_step
    roster = cfg.member_plan()
    view = StageRun(cfg, toy_run_dir, "test")
    for member in (roster[0], roster[-1]):  # a base member and a CV fold member
        seen = []

        def recording_step(model, features, gold, head_group, learning_rate):
            seen.append((head_group, features))
            return real_step(model, features, gold, head_group, learning_rate)

        monkeypatch.setattr(training, "grad_step", recording_step)
        train_cfg = cfg.member_train_config(member)
        one_epoch = replace(train_cfg, mixture=replace(train_cfg.mixture, max_epoch=1))
        tasks, spec = view.member_tasks(member), member["source"].spec
        training.train_multitask(tasks, spec, one_epoch)
        plan = load_plan(toy_run_dir / "schedule" / f"{member['member_id']}__epoch1.jsonl")
        cache, rows = FeatureCache([spec]), {}
        for task in tasks:
            matrix = cache.lookup(task.train, spec)
            rows[task.name] = {s.id: matrix[i] for i, s in enumerate(task.train)}
        groups = {task.name: task.train.head_group for task in tasks}
        assert len(set(groups.values())) < len(groups)  # toy_qa and toy_pages share one
        assert seen and [group for group, _ in seen] == [groups[row["dataset"]] for row in plan]
        for (_, features), row in zip(seen, plan):
            assert np.array_equal(features, [rows[row["dataset"]][i] for i in row["sample_ids"]])


def test_no_stage_loads_a_dataset_file_twice(toy_corpus_dir, tmp_path, monkeypatch):
    from mixtask import pipeline

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    current, loads, index_reads = [None], [], []
    real_run_stage, real_load = pipeline.run_stage, pipeline.load_dataset
    real_decode_json = pipeline.decode_json

    def recording_run_stage(name, *args):
        current[0] = name
        return real_run_stage(name, *args)

    def recording_load(path, *args, **kwargs):
        loads.append((current[0], Path(path).relative_to(tmp_path).as_posix()))
        return real_load(path, *args, **kwargs)

    def recording_decode_json(raw):
        index_reads.append((current[0], hashlib.sha256(raw).hexdigest()))
        return real_decode_json(raw)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
    monkeypatch.setattr(pipeline, "load_dataset", recording_load)
    monkeypatch.setattr(pipeline, "decode_json", recording_decode_json)
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, quiet=True)
    # an index parsed is named by the producer whose index.json has its bytes
    producers = {hashlib.sha256((run / stage / "index.json").read_bytes()).hexdigest(): stage
                 for stage in STAGES}
    index_reads = [(reader, producers[digest]) for reader, digest in index_reads]
    repeated = sorted(load for load, n in Counter(loads).items() if n > 1)
    assert not repeated, f"{len(repeated)} (stage, file) pairs loaded twice: {repeated[:5]}"
    readers = ("transform", "split", "schedule", "train", "finetune", "predict", "ensemble",
               "evaluate")
    assert {stage for stage, _ in loads} == set(readers)

    repeated = sorted(read for read, n in Counter(index_reads).items() if n > 1)
    assert not repeated, f"(stage, upstream index) pairs read twice: {repeated}"
    for stage in STAGES:
        # each index records exactly the upstream indexes its stage read
        read = {producer for reader, producer in index_reads if reader == stage}
        assert set(read_index(run, stage).get("inputs", {})) == read, stage
    assert {reader for reader, _ in index_reads} == set(STAGES[1:])


def test_a_stage_reads_each_index_file_once_and_records_the_bytes_it_parsed(
    toy_corpus_dir, tmp_path, monkeypatch
):
    """Within one stage each index.json is read at most once: that one read
    serves its parse and every check of its digest, and the stage's
    "inputs" holds the sha256 of exactly the bytes it parsed."""
    from mixtask import pipeline

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    current, reads, parsed = [None], [], []
    real_run_stage, real_read_bytes = pipeline.run_stage, Path.read_bytes
    real_decode_json = pipeline.decode_json

    def recording_run_stage(name, *args):
        current[0] = name
        return real_run_stage(name, *args)

    def recording_read_bytes(path):
        if path.name == "index.json":
            reads.append((current[0], path.parent.name))
        return real_read_bytes(path)

    def recording_decode_json(raw):
        parsed.append((current[0], hashlib.sha256(raw).hexdigest()))
        return real_decode_json(raw)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
    monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
    monkeypatch.setattr(pipeline, "decode_json", recording_decode_json)
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, quiet=True)
    monkeypatch.undo()
    assert reads and [read for read, n in Counter(reads).items() if n > 1] == []
    digest_only = 0
    for stage in STAGES:
        inputs = read_index(run, stage).get("inputs", {})
        assert sorted(inputs.values()) == sorted(d for s, d in parsed if s == stage), stage
        read = {producer for s, producer in reads if s == stage}
        assert set(inputs) <= read, stage
        digest_only += len(read - set(inputs))
    assert digest_only > 0  # some upstream is read only to check its digest


def test_only_stage_run_reads_artifacts():
    """Every call in pipeline.py to an artifact reader sits inside a StageRun
    method."""
    import ast
    import inspect

    from mixtask import pipeline

    readers = {"read_bytes", "read_jsonl", "load_dataset", "load_checkpoint",
               "load_prediction_set"}

    def reader_name(call):
        func = call.func
        if isinstance(func, ast.Name) and func.id in readers:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr in readers:
                return func.attr
            if func.attr == "load" and getattr(func.value, "id", None) == "FeatureCache":
                return "FeatureCache.load"
        return None

    calls = []
    for node in ast.parse(inspect.getsource(pipeline)).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and reader_name(call):
                calls.append((getattr(node, "name", None), reader_name(call)))
    outside = [call for call in calls if call[0] != "StageRun"]
    assert outside == []
    assert {name for owner, name in calls if owner == "StageRun"} == readers | {
        "FeatureCache.load"
    }


def test_a_failed_allocation_is_a_tagged_stage_error(
    toy_corpus_dir, toy_run_dir, tmp_path, monkeypatch, capsys
):
    """A model or feature matrix too large to allocate (say train.hidden_dim
    of 10**12) fails its stage with exit 1, not with an untagged traceback.
    The failed allocation is simulated: no test allocates that much."""
    from mixtask import cli, pipeline

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    run = _copy_run(toy_run_dir, tmp_path)
    monkeypatch.setattr(pipeline, "train_multitask", too_large)
    assert cli.main(["train", "--config", str(toy_corpus_dir / "config.yaml"),
                     "--out", str(run)]) == 1
    assert capsys.readouterr().err == "[train] Unable to allocate 7.28 TiB for an array\n"


def test_a_diverging_step_fails_train_naming_the_member_and_the_dataset(
    toy_corpus_dir, toy_run_dir, tmp_path, monkeypatch
):
    """A step whose gradient turns non-finite fails train with the member,
    the dataset and the head group, even when two datasets share that head
    group: it names the first dataset of that group in the member's plan."""
    import numpy as np

    from mixtask.model import ToyModel
    from reference import load_plan

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    groups = {name: entry["head_group"]
              for name, entry in read_index(run, "split")["datasets"].items()}
    shared = groups["toy_qa"]
    assert groups["toy_pages"] == shared
    member = cfg.member_plan()[0]["member_id"]
    plan = load_plan(run / "schedule" / f"{member}__epoch1.jsonl")
    first = next(row["dataset"] for row in plan if groups[row["dataset"]] == shared)
    real_loss_and_grads = ToyModel.loss_and_grads

    def poisoned(self, features, gold, head_group):
        out = real_loss_and_grads(self, features, gold, head_group)
        if head_group == shared:
            out[3].flat[0] = np.nan  # the head weights' gradient
        return out

    monkeypatch.setattr(ToyModel, "loss_and_grads", poisoned)
    with pytest.raises(PipelineStageError) as failure:
        run_stage("train", cfg, run)
    assert str(failure.value) == (f"[train] member {member}: dataset {first!r}: "
                                  f"non-finite gradient on head {shared!r}")


def test_only_run_stage_tags_a_stage_failure():
    """No module catches every exception, and a PipelineStageError is built
    only by run_stage, StageRun.error and the experiment functions: a stage
    raises a plain error, or run.error to name a member, task or artifact."""
    import ast

    builders, catch_alls = set(), []
    for path in sorted(Path(mixtask.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for handler in (n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)):
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            if any(c is None or getattr(c, "id", None) in ("Exception", "BaseException")
                   for c in caught):
                catch_alls.append(f"{path.name}:{handler.lineno}")
        functions = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)] + [
            (f"{c.name}.{m.name}", m) for c in tree.body if isinstance(c, ast.ClassDef)
            for m in c.body if isinstance(m, ast.FunctionDef)
        ]
        for owner, function in functions:
            if any(isinstance(call, ast.Call) and getattr(call.func, "id", None)
                   == "PipelineStageError" for call in ast.walk(function)):
                builders.add(owner)
    assert catch_alls == []
    assert builders == {"run_stage", "StageRun.error", "run_multisource_experiment",
                        "_trained_experiment"}


def test_one_library_caller_per_training_and_prediction_entry_point():
    """Each entry point of training and prediction has one library caller:
    grad_step is called only by training._fit, the loop that multi-task
    training and fine-tuning share, and train_multitask, fine_tune_task and
    predict_dataset only by their pipeline stage, which the trained
    experiment runs instead of a path of its own."""
    import ast

    only_caller = {
        "grad_step": "training._fit",
        "train_multitask": "pipeline.stage_train",
        "fine_tune_task": "pipeline.stage_finetune",
        "predict_dataset": "pipeline.stage_predict",
    }
    callers = {callee: [] for callee in only_caller}
    for path in sorted(Path(mixtask.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            called = {name for call in ast.walk(function) if isinstance(call, ast.Call)
                      for name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}
            for callee in called & only_caller.keys():
                callers[callee].append(f"{path.stem}.{function.name}")
    assert callers == {callee: [caller] for callee, caller in only_caller.items()}


def test_the_model_layer_sees_only_arrays_and_head_groups():
    """model.py names TaskKind and task_kind only in ToyModel.create, whose
    head specs are the model's only task kinds; a step takes a head group
    and arrays. No library module or test names a TrainingBatch."""
    import ast

    class Names(ast.NodeVisitor):
        def __init__(self, watched):
            self.watched, self.scope, self.found = watched, [], []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

        def visit_Name(self, node):
            if node.id in self.watched:
                self.found.append(".".join(self.scope))

        def visit_Attribute(self, node):
            if node.attr in self.watched:
                self.found.append(".".join(self.scope))
            self.generic_visit(node)

    package = Path(mixtask.__file__).parent
    model_names = Names({"TaskKind", "task_kind"})
    model_names.visit(ast.parse((package / "model.py").read_text(encoding="utf-8")))
    assert model_names.found and set(model_names.found) == {"ToyModel.create"}

    named = []
    for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name == "TrainingBatch":
                named.append(f"{path.name}:{node.lineno}")
    assert named == []


def test_mini_batch_ids_are_read_only_by_the_audit_plan():
    """In the library only scheduler.save_plan reads a .sample_ids
    attribute. The trainer reads a mini-batch's dataset and rows; a batch's
    sample ids are built only for the plan audit file."""
    import ast

    class Readers(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

        def visit_Attribute(self, node):
            if node.attr == "sample_ids" and isinstance(node.ctx, ast.Load):
                self.found.append(".".join(self.scope))
            self.generic_visit(node)

    found = []
    for path in sorted(Path(mixtask.__file__).parent.glob("*.py")):
        readers = Readers(path.stem)
        readers.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += readers.found
    assert found == ["scheduler.save_plan"]


# Library functions nothing in the library refers to, each with why it stays.
PINNED_BY_PERFBENCH = {
    "scheduler.MixtureConfig.batch_size_for": "perfbench/checks.py counts sample-epochs with it",
}


def test_every_library_function_is_referred_to_in_the_library():
    """Each function and method defined in src/mixtask/ is referred to, by
    name or attribute name, somewhere in src/mixtask/ outside its own
    definition; one that only tests use belongs in the tests
    (tests/reference.py). An import does not count, so a name only
    `mixtask.__all__` exports fails too. Dunders are exempt, and so are the
    names perfbench pins."""
    import ast

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(mixtask.__file__).parent.glob("*.py"))}
    refs = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]

    def definitions(node, scope):
        """(qualified name, node) of each function or method under node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    yield scope + [child.name], child
                yield from definitions(child, scope + [child.name])

    unreferred = []
    for module, tree in trees.items():
        for scope, node in definitions(tree, [module]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(ref == name and not (where == module and
                                            node.lineno <= line <= node.end_lineno)
                       for where, line, ref in refs):
                unreferred.append(".".join(scope))
    assert sorted(unreferred) == sorted(PINNED_BY_PERFBENCH)


def test_every_npy_read_refuses_pickles():
    """Every np.load call in the library passes allow_pickle=False, so no
    .npy file it reads can run code."""
    import ast

    loads, unsafe = 0, []
    for path in sorted(Path(mixtask.__file__).parent.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(call, "func", None)
            if not (isinstance(call, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "load" and getattr(func.value, "id", None) == "np"):
                continue
            loads += 1
            if not any(k.arg == "allow_pickle" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in call.keywords):
                unsafe.append(f"{path.name}:{call.lineno}")
    assert loads >= 2 and unsafe == []


def test_cv_members_join_only_their_task_ensemble(toy_run_dir):
    ensembles = read_index(toy_run_dir, "ensemble")["ensembles"]
    qa_members = ensembles["toy_qa"]["members"]
    assert len(qa_members) == 12  # 10 CV members + 2 base members survive the low threshold
    assert sum("-cv" in m for m in qa_members) == 10
    for task in ("toy_nli", "toy_rqe", "toy_pages"):
        assert all("-cv" not in m for m in ensembles[task]["members"])


def test_reports_present_and_sane(toy_run_dir):
    summary = json.loads((toy_run_dir / "evaluate" / "summary.json").read_text())
    assert set(summary) == {"toy_nli", "toy_pages", "toy_qa", "toy_rqe"}
    for task, metrics in summary.items():
        assert 0.0 <= metrics["accuracy"] <= 1.0
    qa = json.loads((toy_run_dir / "evaluate" / "toy_qa.json").read_text())
    assert qa["mrr"] is not None and qa["spearman_question_count"] >= 0
    assert qa["accuracy"] > 0.6  # the toy scorer genuinely learns the task


def test_rankings_put_positives_first(toy_run_dir):
    rows = [
        json.loads(line)
        for line in (toy_run_dir / "rank" / "toy_qa.jsonl").read_text().splitlines()
        if line.strip()
    ]
    by_question = {}
    for row in rows:
        by_question.setdefault(row["question_id"], []).append(row)
    for answers in by_question.values():
        answers.sort(key=lambda r: r["rank"])
        labels = [r["label"] for r in answers]
        assert labels == sorted(labels, reverse=True)


def test_nli_triples_get_one_label_of_each_kind(toy_run_dir):
    outputs = {
        json.loads(line)["sample_id"]: json.loads(line)["label"]
        for line in (toy_run_dir / "ensemble" / "toy_nli.jsonl").read_text().splitlines()
        if line.strip()
    }
    splits = read_index(toy_run_dir, "split")["datasets"]["toy_nli"]["splits"]
    eval_path = toy_run_dir / "split" / splits.get("eval", splits["dev"])
    eval_rows = [json.loads(line) for line in eval_path.read_text().splitlines() if line.strip()]
    groups = {}
    for row in eval_rows:
        groups.setdefault(row["premise_group"], []).append(row["id"])
    assert groups
    for ids in groups.values():
        assert sorted(outputs[i] for i in ids) == [0, 1, 2]


def test_stage_rerun_is_idempotent(toy_corpus_dir, toy_run_dir):
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    before = (toy_run_dir / "ensemble" / "toy_qa.jsonl").read_bytes()
    run_stage("ensemble", cfg, toy_run_dir)
    assert (toy_run_dir / "ensemble" / "toy_qa.jsonl").read_bytes() == before


def test_missing_upstream_stage_is_a_tagged_error(toy_corpus_dir, tmp_path):
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    with pytest.raises(PipelineStageError, match=r"\[transform\]"):
        run_stage("transform", cfg, tmp_path / "fresh")


def test_config_validation_errors(toy_corpus_dir, tmp_path):
    raw = {"master_seed": 1}
    with pytest.raises(ValueError, match="manifest"):
        PipelineConfig.from_dict(raw)
    raw = {
        "master_seed": 1,
        "manifest": str(toy_corpus_dir / "manifest.ini"),
        "sources": [{"name": "a", "featurizer_seed": 1}, {"name": "b", "featurizer_seed": 1}],
    }
    with pytest.raises(ValueError, match="featurizer"):
        PipelineConfig.from_dict(raw)
    raw["sources"][1]["featurizer_seed"] = 2
    raw["cv"] = {"enabled": True, "task": "toy_qa", "folds": 1}
    with pytest.raises(ValueError, match="fold"):
        PipelineConfig.from_dict(raw)


@pytest.mark.parametrize("path, value, message", [
    (("threshold",), {"toy_nli": 40.0}, "unknown key 'threshold' in config"),
    (("mixture", "max_epochs"), 3, "unknown key 'max_epochs' in mixture"),
    (("train", "lr_multitsk"), 0.1, "unknown key 'lr_multitsk' in train"),
    (("sources", 0, "member"), 2, r"unknown key 'member' in sources\[0\]"),
    (("negatives", "per_positve"), 3, "unknown key 'per_positve' in negatives"),
    (("random_split", "toy_pages", "eval_cuont"), 9,
     r"unknown key 'eval_cuont' in random_split\.toy_pages"),
    (("reshuffle", "dev_question"), 5, "unknown key 'dev_question' in reshuffle"),
    (("cv", "fold"), 3, "unknown key 'fold' in cv"),
    (("mixture",), 16, "mixture must be a mapping, not int"),
    (("sources", 1), "family_b", r"sources\[1\] must be a mapping, not str"),
    (("thresholds",), 40.0, "thresholds must be a mapping, not float"),
    (("sources", 0, "name"), None, r"sources\[0\] requires a name"),
    (("ranking",), "toy_qa", "ranking must be a list, not str"),
    (("ranking",), ["toy_qa", 1], r"ranking\[1\] must be a string, not int"),
    (("constrained_triples",), "toy_nli", "constrained_triples must be a list, not str"),
    (("transforms", "toy_qa"), "rescore_relevance", r"transforms\.toy_qa must be a list, not str"),
    (("cv", "enabled"), "false", r"cv\.enabled must be true or false, not str"),
    (("cv", "finetune_members"), "no", r"cv\.finetune_members must be true or false, not str"),
    (("sources",), {"family_a": {"featurizer_seed": 101}}, "sources must be a list, not dict"),
    (("splits", "toy_nli"), 3, r"splits\.toy_nli must be a string, not int"),
    (("sources", 0, "featurizer_seed"), -5,
     r"sources\[0\]: featurizer seed must be in \[0, 2\*\*64\), not -5"),
    (("sources", 1, "featurizer_seed"), 2**64,
     rf"sources\[1\]: featurizer seed must be in \[0, 2\*\*64\), not {2**64}"),
    (("sources", 1, "dim"), 2, r"sources\[1\]: feature dimension must be > 2"),
    (("train", "hidden_dim"), 0, r"train\.hidden_dim must be >= 1, not 0"),
    (("train", "hidden_dim"), -3, r"train\.hidden_dim must be >= 1, not -3"),
    (("sources", 0, "members"), -2, r"sources\[0\]\.members must be >= 0, not -2"),
    (("reshuffle", "dev_questions"), -1, r"reshuffle\.dev_questions must be >= 0, not -1"),
    (("reshuffle", "tagged_questions"), -5,
     r"reshuffle\.tagged_questions must be >= 0, not -5"),
    (("mixture", "alpha"), float("nan"), r"mixture: alpha must be finite and >= 0, not nan"),
    (("mixture", "alpha"), float("inf"), r"mixture: alpha must be finite and >= 0, not inf"),
    (("mixture", "alpha"), -0.5, r"mixture: alpha must be finite and >= 0, not -0\.5"),
    (("mixture", "max_epoch"), float("inf"),
     r"mixture\.max_epoch must be an integer, got Infinity"),
    (("mixture", "max_epoch"), 2.5, r"mixture\.max_epoch must be an integer, got 2\.5"),
    (("cv", "folds"), 3.5, r"cv\.folds must be an integer, got 3\.5"),
    (("sources", 0, "featurizer_seed"), True,
     r"sources\[0\]\.featurizer_seed must be an integer, got true"),
    (("sources", 0, "members"), False, r"sources\[0\]\.members must be an integer, got false"),
    (("train", "hidden_dim"), 0.0, r"train\.hidden_dim must be >= 1, not 0"),
    (("master_seed",), True, r"master_seed must be an integer, got true"),
    (("mixture", "alpha"), True, r"mixture\.alpha must be a number, got true"),
    (("train", "lr_finetune"), False, r"train\.lr_finetune must be a number, got false"),
    (("thresholds",), {"toy_nli": True}, r"thresholds\.toy_nli must be a number, got true"),
    (("train", "lr_multitask"), float("nan"),
     r"train: lr_multitask must be finite and > 0, not nan"),
    (("train", "lr_multitask"), float("inf"),
     r"train: lr_multitask must be finite and > 0, not inf"),
    (("train", "lr_finetune"), float("-inf"),
     r"train: lr_finetune must be finite and > 0, not -inf"),
    (("train", "lr_finetune"), 0.0, r"train: lr_finetune must be finite and > 0, not 0\.0"),
    (("train", "epochs_finetune"), [4],
     r"train\.epochs_finetune: int\(\) argument must be .+, not 'list'"),
    (("train", "hidden_dim"), [24], r"train\.hidden_dim: int\(\) argument must be .+, not 'list'"),
    (("master_seed",), {"a": 1}, r"master_seed: int\(\) argument must be .+, not 'dict'"),
    (("random_split", "toy_pages", "eval_count"), [72],
     r"random_split\.toy_pages\.eval_count: int\(\) argument must be .+, not 'list'"),
    (("mixture", "alpha"), [0.5], r"mixture\.alpha: float\(\) argument must be .+, not 'list'"),
    (("mixture", "batch_size"), {"toy_nli": 8, "*": 32},
     r"mixture\.batch_size: int\(\) argument must be .+, not 'dict'"),
    (("sources", 0, "batch_size"), 0, r"sources\[0\]\.batch_size must be >= 1, not 0"),
    (("sources", 0, "batch_size"), -4, r"sources\[0\]\.batch_size must be >= 1, not -4"),
    (("negatives", "per_positive"), -1, r"negatives\.per_positive must be >= 0, not -1"),
    (("mixture", "alpha"), "x", r"mixture\.alpha: could not convert string to float: 'x'"),
    (("thresholds",), {"toy_nli": "x"},
     r"thresholds\.toy_nli: could not convert string to float: 'x'"),
    (("sources", 0, "dim"), "x", r"sources\[0\]\.dim: invalid literal for int\(\) .+: 'x'"),
    (("cv", "folds"), "x", r"cv\.folds: invalid literal for int\(\) .+: 'x'"),
    (("random_split", "toy_pages", "eval_count"), "x",
     r"random_split\.toy_pages\.eval_count: invalid literal for int\(\) .+: 'x'"),
    (("thresholds",), {"toy_nli": [40]},
     r"thresholds\.toy_nli: float\(\) argument must be .+, not 'list'"),
    (("thresholds",), {"toy_nli": float("-inf")}, r"thresholds\.toy_nli must be finite, not -inf"),
    (("mixture", "alpha"), 1e300, r"mixture: alpha must be <= 100, not 1e\+300"),
])
def test_config_section_errors_name_the_section(toy_corpus_dir, path, value, message):
    """A key no section declares, a section that is not a mapping, a source
    without a name, a list that is not a list of strings, a split recipe that
    is not a string, a flag that is not a bool, a source seed or dim out of
    range, a hidden_dim below 1, a negative member or question count, an
    alpha or learning rate that is not finite or out of range, a threshold
    that is not finite, an infinite integer, a list or mapping where a number belongs, a string that is no
    number, a source batch size below 1, a negative negatives count and an
    alpha above MAX_ALPHA each fail parsing (value None deletes the key), and
    so do a bool or a number with a fraction for an integer key and a bool
    for a float key. A value its key's converter cannot convert names the key
    path once."""
    import yaml

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(ValueError, match=rf"^{message}$"):
        PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)


def test_integral_floats_and_numeric_strings_parse(toy_corpus_dir):
    """YAML reads 5e-5 as a string, and 2.0 as a float: both keep parsing,
    as an integer key's integral float or string of digits does."""
    import yaml

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["mixture"].update(max_epoch=2.0, batch_size="8", alpha="0.25")
    raw["train"]["lr_multitask"] = yaml.safe_load("5e-5")
    assert raw["train"]["lr_multitask"] == "5e-5"
    cfg = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    assert (cfg.mixture.max_epoch, cfg.mixture.batch_size, cfg.mixture.alpha) == (2, 8, 0.25)
    assert type(cfg.mixture.max_epoch) is int and cfg.train.lr_multitask == 5e-5


def test_minimal_config_takes_each_default_from_its_one_declaration(toy_corpus_dir):
    from mixtask import config
    from mixtask.featurize import SourceSpec
    from mixtask.scheduler import MixtureConfig
    from mixtask.seeding import derive_seed
    from mixtask.training import TrainConfig

    raw = {"master_seed": 3, "manifest": "manifest.ini", "sources": [{"name": "fam"}]}
    cfg = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    assert cfg.mixture == MixtureConfig(seed=3)
    assert cfg.train == replace(TrainConfig(), mixture=MixtureConfig(seed=3))
    assert cfg.sources == [config.SourceEntry(SourceSpec("fam", derive_seed(0, "source", "fam")))]
    assert (cfg.negatives_per_positive, cfg.cv_folds) == (config.NEGATIVES_PER_POSITIVE,
                                                         config.CV_FOLDS)
    assert (cfg.reshuffle_dev_questions, cfg.reshuffle_tagged_questions) == (
        config.DEV_RESHUFFLE_QUESTIONS, config.DEV_RESHUFFLE_TAGGED_QUESTIONS)
    assert cfg.thresholds == {} and not cfg.cv_enabled


def test_every_public_name_resolves():
    assert [name for name in mixtask.__all__ if not hasattr(mixtask, name)] == []


def test_pipeline_imports_nothing_from_the_experiment():
    """The experiment runs stages; the stages never reach back into it."""
    import ast

    from mixtask import pipeline

    modules = []
    for node in ast.walk(ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
    assert [m for m in modules if "experiment" in m.split(".")] == []


def test_only_the_config_module_imports_yaml():
    import ast

    importers = set()
    for path in Path(mixtask.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "yaml" for name in names):
                importers.add(path.name)
    assert importers == {"config.py"}


# -- command line ----------------------------------------------------------------


def run_python(*args):
    """Run a fresh interpreter that imports the mixtask package these tests import."""
    src = str(Path(mixtask.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    """Run the CLI of the mixtask package these tests import."""
    return run_python("-m", "mixtask", *args)


def test_a_toy_run_leaves_numpy_ma_unimported(tmp_path):
    """np.unique and np.intersect1d import numpy.ma, about 1.3 MB of peak RSS;
    a run uses sort-based helpers instead. A fresh interpreter shows it, since
    this process imports scipy, which imports numpy.ma."""
    script = (
        "import sys; from pathlib import Path\n"
        "from mixtask.pipeline import PipelineConfig, run_pipeline\n"
        "from mixtask.toydata import write_toy_corpus\n"
        "out = Path(sys.argv[1]); write_toy_corpus(out / 'corpus', seed=7)\n"
        "run_pipeline(PipelineConfig.from_file(out / 'corpus' / 'config.yaml'), out / 'run',"
        " quiet=True)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = run_python("-c", script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "evaluate" / "summary.json").is_file()


def test_cli_make_toy_and_staged_run(tmp_path):
    corpus = tmp_path / "corpus"
    out = tmp_path / "run"
    assert run_cli("make-toy", "--out", str(corpus), "--seed", "3").returncode == 0
    config = str(corpus / "config.yaml")
    for stage in ("ingest", "transform", "split", "schedule"):
        proc = run_cli(stage, "--config", config, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    plans = read_index(out, "schedule")["plans"]
    assert len(plans) == 12
    first = next(iter(sorted(plans)))
    assert plans[first]["length"] == plans[first]["n_in_domain"] + plans[first]["n_external"]


def test_cli_stage_without_inputs_fails_with_tag(tmp_path):
    corpus = tmp_path / "corpus"
    run_cli("make-toy", "--out", str(corpus))
    proc = run_cli("evaluate", "--config", str(corpus / "config.yaml"),
                   "--out", str(tmp_path / "empty"))
    assert proc.returncode != 0
    assert "[evaluate]" in proc.stderr


def test_cli_unknown_config_fails(tmp_path):
    proc = run_cli("run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o"))
    assert proc.returncode != 0


def test_cli_run_with_a_misspelled_key_exits_2(toy_corpus_dir, tmp_path, capsys):
    import yaml

    from mixtask import cli

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["train"]["lr_multitsk"] = raw["train"].pop("lr_multitask")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "[run] unknown key 'lr_multitsk' in train\n"
    assert not (tmp_path / "run").exists()


def test_cli_run_with_a_slash_in_a_source_name_exits_2(toy_corpus_dir, tmp_path, capsys):
    """A source name becomes part of file names (`<name>-m0__*`), so one
    holding "/" fails parsing, and no file is written."""
    import yaml

    from mixtask import cli

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["sources"][0]["name"] = "../evil"
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "[run] sources[0].name must hold no '/', got '../evil'\n"
    assert [path.name for path in tmp_path.iterdir()] == ["config.yaml"]


def test_a_slash_in_a_manifest_section_name_fails_ingest(toy_corpus_dir, tmp_path):
    """A manifest section name becomes part of file names (`<name>__<split>`),
    so one holding "/" fails ingest naming the section, and nothing is
    written outside the stage directory."""
    import re

    import yaml

    manifest = (toy_corpus_dir / "manifest.ini").read_text().replace("[toy_rqe]", "[../rqe]")
    manifest = manifest.replace(" = toy_", f" = {toy_corpus_dir}/toy_")
    (tmp_path / "manifest.ini").write_text(manifest)
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    cfg = PipelineConfig.from_dict(raw, base_dir=tmp_path)
    out = tmp_path / "run"
    message = (rf"^\[ingest\] manifest {re.escape(str(tmp_path / 'manifest.ini'))}: "
               rf"section \[\.\./rqe\] name must hold no '/'$")
    with pytest.raises(PipelineStageError, match=message):
        run_stage("ingest", cfg, out)
    written = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*"))
    assert written == ["manifest.ini", "run", "run/ingest"]


def test_cli_split_with_a_mapping_batch_size_exits_2(toy_corpus_dir, tmp_path, capsys):
    """mixture.batch_size is one integer; the per-dataset mapping it once
    took is a config error naming the key."""
    import re

    import yaml

    from mixtask import cli

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["mixture"]["batch_size"] = {"toy_nli": 8, "*": 32}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert cli.main(["split", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"\[split\] mixture\.batch_size: int\(\) argument must be .+, not 'dict'\n", err)
    assert not (tmp_path / "run").exists()


def test_cli_experiment_noise_mode(tmp_path):
    proc = run_cli(
        "experiment-multisource", "--out", str(tmp_path / "exp"),
        "--mode", "noise", "--trials", "3", "--samples", "200", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert "mixed-source wins" in proc.stdout
    report = json.loads((tmp_path / "exp" / "experiment_report.json").read_text())
    assert report["n_trials"] == 3


def test_cli_experiment_trained_mode(toy_corpus_dir, tmp_path):
    import yaml

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    config, out = tmp_path / "config.yaml", tmp_path / "exp"
    config.write_text(yaml.safe_dump(raw))
    args = ("experiment-multisource", "--mode", "trained", "--config", str(config),
            "--out", str(out))
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr == "[experiment] source 'family_a' has 1 members, needs >= 3\n"

    for source in raw["sources"]:
        source["members"] = 3
    config.write_text(yaml.safe_dump(raw))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    (trial,) = json.loads((out / "experiment_report.json").read_text())["trials"]
    assert [row["grouping"] for row in trial["rows"]] == [
        "family_a only", "family_b only", "family_a+family_b (2+1)", "family_a+family_b (1+2)"]
    assert sorted(path.name for path in (out / "trained_members").iterdir()) == [
        "finetune", "ingest", "predict", "split", "train", "transform"]

    # a member that cannot train fails the train stage, as in a pipeline run
    import shutil

    corpus = tmp_path / "corpus"
    shutil.copytree(toy_corpus_dir, corpus)
    (corpus / "toy_rqe__dev.jsonl").write_text("", encoding="utf-8")
    raw["manifest"] = str(corpus / "manifest.ini")
    config.write_text(yaml.safe_dump(raw))
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr == "[train] member family_a-m0: task 'toy_rqe' has an empty dev split\n"


def _copy_run(toy_run_dir, tmp_path):
    import shutil

    run = tmp_path / "run"
    shutil.copytree(toy_run_dir, run)
    return run


def test_predict_loads_no_train_split(toy_corpus_dir, toy_run_dir, tmp_path, monkeypatch):
    from mixtask import pipeline

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    loads, real_load = [], pipeline.load_dataset

    def recording_load(path, *args, **kwargs):
        loads.append(Path(path).name)
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_dataset", recording_load)
    run_stage("predict", cfg, run)
    assert loads and not [name for name in loads if name.endswith("__train.jsonl")]


def test_finetune_and_predict_featurize_only_eval_rows(
    toy_corpus_dir, toy_run_dir, tmp_path, monkeypatch
):
    import importlib

    featurize_module = importlib.import_module("mixtask.featurize")
    run = _copy_run(toy_run_dir, tmp_path)
    # A file the train index does not list is never read.
    (run / "train" / "features" / "unlisted.npy").write_bytes(b"not an array")
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    featurized, real = {}, featurize_module.featurize
    for stage in ("finetune", "predict"):
        rows = featurized.setdefault(stage, [])

        def counting(pairs, sources, **memo):
            rows.extend((source.name, pair) for source in sources for pair in pairs)
            return real(pairs, sources, **memo)

        monkeypatch.setattr(featurize_module, "featurize", counting)
        run_stage(stage, cfg, run)
    assert featurized["finetune"] == []

    datasets = read_index(run, "split")["datasets"]
    eval_pairs = set()
    for entry in datasets.values():
        if entry["role"] == "in_domain":
            eval_file = entry["splits"].get("eval", entry["splits"]["dev"])
            lines = (run / "split" / eval_file).read_text().splitlines()
            eval_pairs.update((row["text_a"], row["text_b"]) for row in map(json.loads, lines))
    predicted = featurized["predict"]
    assert predicted and len(set(predicted)) == len(predicted)
    assert {pair for _, pair in predicted} <= eval_pairs


def test_train_tokenizes_each_stored_row_once_for_all_sources(
    toy_corpus_dir, toy_run_dir, tmp_path, monkeypatch
):
    """Both sources' stores come from one tokenization of each row: two
    _words calls (text_a, text_b) per stored row, not two per row per source."""
    import importlib

    featurize_module = importlib.import_module("mixtask.featurize")
    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    calls, real = [], featurize_module._words

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(featurize_module, "_words", counting)
    run_stage("train", cfg, run)
    features = read_index(run, "train")["features"]
    assert sorted(features["sources"]) == ["family_a", "family_b"]
    assert len(calls) == 2 * features["rows"]


def test_the_feature_store_takes_a_quarter_of_the_dense_bytes_or_less(toy_run_dir):
    features = read_index(toy_run_dir, "train")["features"]
    dense = 8 * features["rows"] * sum(saved["dim"] for saved in features["sources"].values())
    stored = sum(path.stat().st_size for path in (toy_run_dir / "train" / "features").iterdir())
    assert 0 < stored <= dense / 4


@pytest.mark.parametrize("stage, damage", [
    ("finetune", "truncate_matrix"),
    ("predict", "delete_keys"),
    ("finetune", "drop_a_key"),
    ("predict", "other_seed"),
    ("finetune", "rows_disagree"),
    ("predict", "column_at_dim"),
    ("finetune", "offsets_end_short"),
    ("predict", "values_one_short"),
])
def test_damaged_feature_store_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path,
                                                 stage, damage):
    import numpy as np

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    features = run / "train" / "features"
    if damage == "truncate_matrix":
        matrix = features / "family_a.values.npy"
        matrix.write_bytes(matrix.read_bytes()[:-100])
    elif damage == "column_at_dim":
        columns = np.load(features / "family_b.columns.npy")
        columns[-1] = 192
        np.save(features / "family_b.columns.npy", columns)
    elif damage == "offsets_end_short":
        offsets = np.load(features / "family_a.offsets.npy")
        offsets[-1] -= 1
        np.save(features / "family_a.offsets.npy", offsets)
    elif damage == "values_one_short":
        np.save(features / "family_b.values.npy", np.load(features / "family_b.values.npy")[:-1])
    elif damage == "delete_keys":
        (features / "keys.npy").unlink()
    elif damage == "drop_a_key":
        np.save(features / "keys.npy", np.load(features / "keys.npy")[1:])
    else:
        index = read_index(run, "train")
        if damage == "rows_disagree":  # the keys no longer match the rows
            index["features"]["rows"] += 1
        else:
            index["features"]["sources"]["family_b"]["featurizer_seed"] += 1
        (run / "train" / "index.json").write_text(json.dumps(index))
    problem = {
        "column_at_dim": "family_b.columns.npy holds column 192, past dim 192",
        "offsets_end_short": r"family_a.offsets.npy does not split \d+ values into \d+ rows",
        "values_one_short": r"family_b.offsets.npy does not split \d+ values into \d+ rows",
    }.get(damage, "")
    with pytest.raises(PipelineStageError,
                       match=rf"^\[{stage}\] unreadable train features: .*{problem}.*re-run train"):
        run_stage(stage, cfg, run)


@pytest.mark.parametrize("stage, damage", [
    ("finetune", "truncate"),
    ("predict", "delete"),
    ("finetune", "one_value_short"),
    ("predict", "float32"),
    ("finetune", "schema_1_entry"),
    ("finetune", "provenance_extra_key"),
    ("predict", "provenance_not_a_mapping"),
    ("finetune", "no_bias_size"),
])
def test_damaged_checkpoint_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path,
                                              stage, damage):
    """Finetune reads train checkpoints and predict fine-tuned ones; either
    fails tagged, naming the stage to re-run, on a bad file or entry."""
    import numpy as np

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    producer = "train" if stage == "finetune" else "finetune"
    index = read_index(run, producer)
    entries = index["members"] if producer == "train" else next(
        tasks for _, tasks in sorted(index["finetuned"].items()))
    key = sorted(entries)[0]
    path = run / producer / entries[key]["checkpoint"]
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[:-8])
    elif damage == "delete":
        path.unlink()
    elif damage == "one_value_short":
        np.save(path, np.load(path)[:-1])
    elif damage == "float32":
        np.save(path, np.load(path).astype(np.float32))
    elif damage == "no_bias_size":
        next(iter(entries[key]["layout"]["heads"].values()))["bias"] = []
        (run / producer / "index.json").write_text(json.dumps(index))
    elif damage.startswith("provenance"):
        provenance = entries[key]["provenance"]
        entries[key]["provenance"] = ({**provenance, "bogus": 1} if damage.endswith("extra_key")
                                      else sorted(provenance))
        (run / producer / "index.json").write_text(json.dumps(index))
    else:
        # a train index entry as written before checkpoints were .npy vectors
        entries[key] = {"checkpoint": f"{key}__multitask.json", "history": f"{key}__history.json",
                        "best_epoch": 1, "selection_value": 0.5, "source": "family_a",
                        "fold": None}
        (run / producer / "index.json").write_text(json.dumps(index))
    with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] .*re-run {producer}$"):
        run_stage(stage, cfg, run)


def test_truncated_index_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path):
    # JSON documents are written whole and renamed into place: no partial file is left
    assert not list(toy_run_dir.rglob("*.partial"))
    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    index = run / "train" / "index.json"
    index.write_bytes(index.read_bytes()[:-40])
    with pytest.raises(PipelineStageError, match=r"^\[finetune\] .*re-run train$"):
        run_stage("finetune", cfg, run)


@pytest.mark.parametrize("damage", ["drop_one", "foreign_id", "repeat_one"])
def test_evaluate_refuses_a_partial_ensemble(toy_corpus_dir, toy_run_dir, tmp_path, damage):
    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    task = next(t for t in read_index(run, "ensemble")["ensembles"] if t not in cfg.ranking_tasks)
    path = run / "ensemble" / f"{task}.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    if damage == "drop_one":
        lines = lines[1:]
    elif damage == "foreign_id":
        record = json.loads(lines[0])
        record["sample_id"] = "not-an-eval-sample"
        lines[0] = json.dumps(record) + "\n"
    else:
        lines.append(lines[0])
    path.write_text("".join(lines))
    with pytest.raises(PipelineStageError, match=rf"^\[evaluate\] task {task}: .*re-run ensemble$"):
        run_stage("evaluate", cfg, run)


@pytest.mark.parametrize("stage, producer, damage", [
    ("evaluate", "rank", "drop_one"),
    ("evaluate", "rank", "foreign_id"),
    ("rank", "ensemble", "repeat_one"),
])
def test_ranking_records_must_cover_their_samples_once(toy_corpus_dir, toy_run_dir, tmp_path,
                                                       stage, producer, damage):
    """Evaluate checks the rank file against the eval set, and rank refuses
    an ensemble file that repeats a sample."""
    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    task = cfg.ranking_tasks[0]
    path = run / producer / f"{task}.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    if damage == "drop_one":
        lines = lines[1:]
    elif damage == "foreign_id":
        record = json.loads(lines[0])
        record["sample_id"] = "not-an-eval-sample"
        lines[0] = json.dumps(record) + "\n"
    else:
        lines.append(lines[0])
    path.write_text("".join(lines))
    with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] task {task}: .*re-run {producer}$"):
        run_stage(stage, cfg, run)


def test_predict_loads_each_checkpoint_once(toy_corpus_dir, toy_run_dir, tmp_path, monkeypatch):
    from mixtask import pipeline

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    loads, real_load = [], pipeline.load_checkpoint

    def recording_load(path, entry):
        loads.append(Path(path).relative_to(run).as_posix())
        return real_load(path, entry)

    monkeypatch.setattr(pipeline, "load_checkpoint", recording_load)
    run_stage("predict", cfg, run)
    assert loads and sorted(loads) == sorted(set(loads))


@pytest.mark.parametrize("stage, producer, artifact", [
    ("ensemble", "predict", "predict/family_a-m0__toy_nli.jsonl"),
    ("rank", "ensemble", "ensemble/toy_qa.jsonl"),
    ("evaluate", "rank", "rank/toy_qa.jsonl"),
    ("train", "split", "split/toy_nli__train.jsonl"),
])
def test_truncated_upstream_artifact_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path,
                                                       stage, producer, artifact):
    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    path = run / artifact
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] .*re-run {producer}$"):
        run_stage(stage, cfg, run)


@pytest.mark.parametrize("rerun, seed, stage, producer", [
    ("split", 8, "predict", "train"),
    ("predict", 8, "rank", "ensemble"),
])
def test_stage_refuses_an_index_built_from_another_upstream(toy_corpus_dir, toy_run_dir, tmp_path,
                                                            rerun, seed, stage, producer):
    """Re-running one stage under another seed leaves the indexes built from
    its old output behind; a later stage that reads them fails."""
    import yaml

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    raw = {**yaml.safe_load((toy_corpus_dir / "config.yaml").read_text()), "master_seed": seed}
    run_stage(rerun, PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir), run)
    assert read_index(run, rerun)["master_seed"] == seed
    with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] {producer}/index\.json was "
                       rf"built from another {rerun}/index\.json; re-run {producer}$"):
        run_stage(stage, cfg, run)


def test_a_stage_rerun_under_another_seed_records_its_own_config(toy_corpus_dir, toy_run_dir,
                                                                tmp_path):
    """Each index records the config its stage ran with; a run manifest an
    older version left behind is neither read nor deleted."""
    from mixtask import cli

    run = _copy_run(toy_run_dir, tmp_path)
    (run / "run_manifest.json").write_text('{"master_seed": 7, "stag')
    config = str(toy_corpus_dir / "config.yaml")
    assert cli.main(["split", "--config", config, "--seed", "8", "--out", str(run)]) == 0
    assert read_index(run, "split")["config"]["master_seed"] == 8
    assert read_index(run, "train")["config"]["master_seed"] == 7
    assert (run / "run_manifest.json").read_text() == '{"master_seed": 7, "stag'


@pytest.mark.parametrize("damage", ["drop_one", "foreign_id", "repeat_last", "header_line"])
def test_ensemble_refuses_a_prediction_set_that_does_not_cover_the_eval_set(
    toy_corpus_dir, toy_run_dir, tmp_path, damage
):
    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    path = run / "predict" / "family_a-m0__toy_rqe.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[-1])
    if damage == "drop_one":
        lines.pop()
    elif damage == "foreign_id":
        record["sample_id"] = "not-an-eval-sample"
        lines[-1] = json.dumps(record) + "\n"
    elif damage == "repeat_last":  # a second record for the last sample, which would win if read
        record["probs"] = record["probs"][::-1]
        lines.append(json.dumps(record) + "\n")
    else:  # a metadata line, as prediction files once began with
        lines.insert(0, json.dumps({"model_id": "family_a-m0", "task": "toy_rqe",
                                    "kind": "classification", "dev_metric": 99.0}) + "\n")
    path.write_text("".join(lines))
    counts = f"misses 1 eval samples, names {int(damage == 'foreign_id')} "
    message = rf"^\[ensemble\] task toy_rqe: predict/{path.name} {counts}.*; re-run predict$"
    if damage in ("repeat_last", "header_line"):
        message = rf"^\[ensemble\] unreadable predict/{path.name}: .*re-run predict$"
    with pytest.raises(PipelineStageError, match=message):
        run_stage("ensemble", cfg, run)
    # the remedy the message names works
    run_stage("predict", cfg, run)
    run_stage("ensemble", cfg, run)


def test_ensemble_selects_members_by_the_predict_index_dev_metric(toy_corpus_dir, toy_run_dir,
                                                                 tmp_path):
    """Each ensemble keeps exactly the members whose dev metric in the
    predict index is above the task's threshold; lowering one there drops
    that member."""
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    predictions = read_index(toy_run_dir, "predict")["predictions"]
    ensembles = read_index(toy_run_dir, "ensemble")["ensembles"]
    assert sorted(ensembles) == sorted(predictions)
    for task, members in predictions.items():
        threshold = cfg.thresholds[task]
        assert ensembles[task]["members"] == sorted(
            m for m, entry in members.items() if entry["dev_metric"] > threshold)
        assert ensembles[task]["dropped"] == sorted(
            m for m, entry in members.items() if entry["dev_metric"] <= threshold)

    run = _copy_run(toy_run_dir, tmp_path)
    index = read_index(run, "predict")
    entry = index["predictions"]["toy_nli"]["family_a-m0"]
    assert entry["dev_metric"] > cfg.thresholds["toy_nli"]
    entry["dev_metric"] = cfg.thresholds["toy_nli"]
    (run / "predict" / "index.json").write_text(json.dumps(index))
    run_stage("ensemble", cfg, run)
    ensemble = read_index(run, "ensemble")["ensembles"]["toy_nli"]
    assert ensemble["members"] == ["family_b-m0"] and ensemble["dropped"] == ["family_a-m0"]


def test_no_index_key_names_a_member_and_a_task_in_one_string(toy_run_dir):
    """No index keys an entry by a composite "<member>/<task>" string: the
    predict and finetune indexes nest task and member."""
    def slashed_keys(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                if "/" in key:
                    yield f"{path}.{key}"
                yield from slashed_keys(item, f"{path}.{key}")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from slashed_keys(item, f"{path}[{i}]")

    found = [key for stage in STAGES
             for key in slashed_keys(read_index(toy_run_dir, stage), stage)]
    assert found == []
    assert read_index(toy_run_dir, "finetune")["finetuned"]  # the guard saw nested entries


def test_evaluate_names_a_ranking_task_the_rank_index_lacks(toy_corpus_dir, toy_run_dir,
                                                            tmp_path):
    import yaml

    run = _copy_run(toy_run_dir, tmp_path)
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["ranking"] = ["toy_qa", "toy_pages"]
    cfg = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    message = r"^\[evaluate\] no rankings for task 'toy_pages'; re-run rank$"
    with pytest.raises(PipelineStageError, match=message):
        run_stage("evaluate", cfg, run)


@pytest.mark.parametrize("stage, key, typo", [
    ("split", "splits", "toy_rqee"),
    ("split", "random_split", "toy_pagez"),
    ("ensemble", "thresholds", "toy_nil"),
    ("ensemble", "constrained_triples", "toy_nil"),
    ("rank", "ranking", "toy_nil"),
])
def test_config_name_matching_nothing_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path,
                                                        stage, key, typo):
    import yaml

    run = _copy_run(toy_run_dir, tmp_path)
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    if key in ("constrained_triples", "ranking"):
        raw[key].append(typo)
    else:
        raw[key][typo] = next(iter(raw[key].values()))
    cfg = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    kind = "dataset" if stage == "split" else "task"
    message = rf"^\[{stage}\] unknown {kind} '{typo}' in {key}$"
    with pytest.raises(PipelineStageError, match=message):
        run_stage(stage, cfg, run)


def test_a_ranking_task_without_question_ids_is_a_config_error(toy_corpus_dir, toy_run_dir,
                                                               tmp_path):
    """A task none of whose answers has a question id fails rank naming the
    `ranking` key, not ensemble; one answer's bad question id blames ensemble
    (test_artifact_edits)."""
    import yaml

    run = _copy_run(toy_run_dir, tmp_path)
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["ranking"] = ["toy_rqe"]
    cfg = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    message = r"^\[rank\] task 'toy_rqe' in ranking has answers without question ids$"
    with pytest.raises(PipelineStageError, match=message):
        run_stage("rank", cfg, run)


def test_finetune_writes_only_models_it_changed(toy_run_dir):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    trained = {digest(p) for p in (toy_run_dir / "train").glob("*.npy")}
    tuned = sorted((toy_run_dir / "finetune").glob("*.npy"))
    assert tuned and not [p.name for p in tuned if digest(p) in trained]
    finetuned = read_index(toy_run_dir, "finetune")["finetuned"]
    entries = [entry for tasks in finetuned.values() for entry in tasks.values()]
    assert len(entries) == len(tuned)
    assert all(entry["provenance"]["epoch"] >= 1 for entry in entries)


# -- the samples of the dataset files a run wrote, handed to the stages that read them


def test_train_decodes_a_split_file_rewritten_after_schedule(toy_corpus_dir, tmp_path,
                                                             monkeypatch):
    """The mapping is keyed by a file's bytes, not its name or size: a split
    file rewritten between schedule and train with other bytes of the same
    length reaches train as its new content."""
    from mixtask import pipeline

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    run = tmp_path / "run"
    for stage in STAGES[: STAGES.index("schedule") + 1]:
        run_stage(stage, cfg, run)
    assert len(pipeline._WRITTEN) > 0
    path = run / "split" / "toy_rqe__train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[0])
    record["text_a"] = ("z" if record["text_a"][0] != "z" else "y") + record["text_a"][1:]
    lines[0] = json.dumps(record, sort_keys=True) + "\n"
    rewritten = "".join(lines).encode("utf-8")
    assert len(rewritten) == path.stat().st_size and rewritten != path.read_bytes()
    path.write_bytes(rewritten)

    seen, real_train = [], pipeline.train_multitask

    def recording_train(tasks, *args, **kwargs):
        seen.append({t.name: t.train.samples[0].text_a for t in tasks}["toy_rqe"])
        return real_train(tasks, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_multitask", recording_train)
    run_stage("train", cfg, run)
    assert seen == [record["text_a"]] * len(cfg.member_plan())


def test_a_hit_is_validated_under_the_callers_task_kind(tmp_path, monkeypatch):
    from mixtask import data

    path, written = tmp_path / "d.jsonl", {}
    data.save_samples([data.SamplePair(f"s{i}", "a", "b", label=i) for i in range(3)], path,
                      written=written)
    decodes, real_decode = [], data._decode_samples

    def counting_decode(raw, where):
        decodes.append(where)
        return real_decode(raw, where)

    monkeypatch.setattr(data, "_decode_samples", counting_decode)
    three = data.TaskKind.parse("classification:3")
    first = data.load_dataset(path, "fix", three, written=written)
    with pytest.raises(data.DatasetFormatError, match="label 2 out of range for 2 classes"):
        data.load_dataset(path, "fix", data.TaskKind.parse("classification:2"), written=written)
    with pytest.raises(data.DatasetFormatError, match="regression dataset 'fix' requires"):
        data.load_dataset(path, "fix", data.TaskKind.parse("regression"), written=written)
    again = data.load_dataset(path, "other", three, "external", "shared", written=written)
    assert decodes == []
    assert (again.name, again.role, again.head_group) == ("other", "external", "shared")
    assert again.samples is not first.samples and again.samples == first.samples


def test_the_mapping_holds_only_the_latest_writing_stages_files(toy_corpus_dir, tmp_path):
    """After a run the mapping is empty; after split it holds exactly split's
    files, CV folds included; a stage that writes no dataset file leaves it
    as it is, and so does a writing stage that fails; evaluate empties it."""
    import yaml
    from mixtask import pipeline

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, quiet=True)
    assert pipeline._WRITTEN == {}

    def written_by(stage):
        return {hashlib.sha256(path.read_bytes()).digest()
                for path in (run / stage).rglob("*.jsonl")}

    for stage in ("ingest", "transform", "split"):
        run_stage(stage, cfg, run)
        assert pipeline._WRITTEN.keys() == written_by(stage)
    assert list((run / "split" / "folds").glob("*.jsonl"))
    after_split = dict(pipeline._WRITTEN)
    for stage in STAGES[STAGES.index("split") + 1 : -1]:
        run_stage(stage, cfg, run)
        assert pipeline._WRITTEN == after_split, stage

    # a split of other rows that fails after writing its dataset files
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["master_seed"] += 1
    raw["cv"]["task"] = "toy_nope"
    failing = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    with pytest.raises(PipelineStageError, match="cv task 'toy_nope' not in manifest"):
        run_stage("split", failing, run)
    assert written_by("split") - after_split.keys()
    assert pipeline._WRITTEN == after_split

    run_stage("split", cfg, run)
    run_stage("evaluate", cfg, run)
    assert pipeline._WRITTEN == {}


def test_loads_without_a_memo_share_no_sample(tmp_path):
    from mixtask.data import TaskKind, load_dataset

    path = tmp_path / "d.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"s{i}", "text_a": "a", "text_b": "b", "target_score": 0.5}) + "\n"
        for i in range(4)), encoding="utf-8")
    first, second = (load_dataset(path, "fix", TaskKind.parse("regression")) for _ in range(2))
    assert first.samples == second.samples
    assert not any(a is b for a, b in zip(first.samples, second.samples))


def _perfbench_workloads(monkeypatch):
    """perfbench's workload module, loaded from its file without editing it
    (its dataclasses need it registered while it runs)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _fields(samples):
    return [(type(s), [(key, type(value), value) for key, value in vars(s).items()])
            for s in samples]


def _corpus_config(corpus, toy_corpus_dir, tmp_path, monkeypatch) -> Path:
    """The config of the toy corpus, or of perfbench's tiny scaled-train corpus."""
    if corpus == "toy":
        return toy_corpus_dir / "config.yaml"
    workloads = _perfbench_workloads(monkeypatch)
    return workloads.write_corpus(tmp_path / "corpus", 7,
                                  workloads.workload("scaled-train", tiny=True))[0]


@pytest.mark.parametrize("corpus", ["toy", "tiny-scaled-train"])
def test_only_ingest_decodes_a_dataset_row(toy_corpus_dir, tmp_path, monkeypatch, corpus):
    """On every run, a later one in the same process too, ingest decodes each
    manifest file once and no other stage decodes a file: each dataset file a
    stage reads after ingest is one the run wrote."""
    from mixtask import data, pipeline

    cfg = PipelineConfig.from_file(_corpus_config(corpus, toy_corpus_dir, tmp_path, monkeypatch))
    current, decodes = [None], []
    real_run_stage, real_decode = pipeline.run_stage, data._decode_samples

    def recording_run_stage(name, *args):
        current[0] = name
        return real_run_stage(name, *args)

    def recording_decode(raw, path):
        decodes.append((current[0], Path(path)))
        return real_decode(raw, path)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
    monkeypatch.setattr(data, "_decode_samples", recording_decode)
    manifest = [("ingest", Path(path)) for entry in data.read_manifest(cfg.manifest_path)
                for path in (entry.path, entry.dev_path, entry.eval_path) if path]
    for _ in range(2):
        decodes.clear()
        pipeline.run_pipeline(cfg, tmp_path / "run", quiet=True)
        assert decodes == manifest


@pytest.mark.parametrize("corpus", ["toy", "tiny-scaled-train"])
def test_every_dataset_file_a_stage_writes_decodes_to_the_samples_it_stored(
        toy_corpus_dir, tmp_path, monkeypatch, corpus):
    """Each dataset file ingest, transform and split write (CV folds
    included) is in the mapping after the stage, with its samples, and
    decoding the file's bytes gives those samples, field by field and type
    by type."""
    from mixtask import data, pipeline

    config = _corpus_config(corpus, toy_corpus_dir, tmp_path, monkeypatch)
    stored, real_run_stage = {}, pipeline.run_stage

    def recording_run_stage(name, *args):
        real_run_stage(name, *args)
        stored.update(pipeline._WRITTEN)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
    run = tmp_path / "run"
    pipeline.run_pipeline(PipelineConfig.from_file(config), run, quiet=True)
    written = {hashlib.sha256(raw).digest(): raw
               for stage in ("ingest", "transform", "split")
               for raw in map(Path.read_bytes, sorted((run / stage).rglob("*.jsonl")))}
    assert any((run / "split" / "folds").glob("*.jsonl")) == (corpus == "toy")
    assert written.keys() == stored.keys()
    for digest, raw in written.items():
        assert _fields(data._decode_samples(raw, "stored")) == _fields(stored[digest])


@pytest.mark.parametrize("corpus", ["toy", "tiny-scaled-train"])
def test_a_run_and_its_stages_run_alone_write_the_same_files(toy_corpus_dir, toy_run_dir,
                                                             tmp_path, monkeypatch, corpus):
    """A hit is as good as a fresh decode: running each stage with an empty
    mapping, as `mixtask <stage>` in a fresh process does, writes every file
    of a run_pipeline run byte for byte."""
    from mixtask import pipeline

    cfg = PipelineConfig.from_file(_corpus_config(corpus, toy_corpus_dir, tmp_path, monkeypatch))
    whole = toy_run_dir
    if corpus != "toy":
        whole = pipeline.run_pipeline(cfg, tmp_path / "whole", quiet=True)
    run = tmp_path / "run"
    for stage in STAGES:
        monkeypatch.setattr(pipeline, "_WRITTEN", {})
        run_stage(stage, cfg, run)

    def digests(root):
        return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()}

    assert digests(run) == digests(whole)
