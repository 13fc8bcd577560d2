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
    """Each gradient step takes the feature rows of the next batch of the
    schedule stage's audited plan."""
    import numpy as np

    from mixtask import training
    from mixtask.featurize import FeatureCache
    from mixtask.pipeline import StageRun
    from mixtask.scheduler import load_plan

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    real_step = training.grad_step
    roster = cfg.member_plan()
    view = StageRun(cfg, toy_run_dir, "test")
    for member in (roster[0], roster[-1]):  # a base member and a CV fold member
        seen = []

        def recording_step(model, batch, learning_rate):
            seen.append((batch.dataset_name, batch.features))
            return real_step(model, batch, learning_rate)

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
        assert seen and [name for name, _ in seen] == [row["dataset"] for row in plan]
        for (name, features), row in zip(seen, plan):
            assert np.array_equal(features, [rows[name][i] for i in row["sample_ids"]])


def test_no_stage_loads_a_dataset_file_twice(toy_corpus_dir, tmp_path, monkeypatch):
    from mixtask import pipeline

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    current, loads, index_reads = [None], [], []
    real_run_stage, real_load = pipeline.run_stage, pipeline.load_dataset
    real_read_json = pipeline.read_json

    def recording_run_stage(name, *args):
        current[0] = name
        return real_run_stage(name, *args)

    def recording_load(path, *args, **kwargs):
        loads.append((current[0], Path(path).relative_to(tmp_path).as_posix()))
        return real_load(path, *args, **kwargs)

    def recording_read_json(path):
        if Path(path).name == "index.json":
            index_reads.append((current[0], Path(path).parent.name))
        return real_read_json(path)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
    monkeypatch.setattr(pipeline, "load_dataset", recording_load)
    monkeypatch.setattr(pipeline, "read_json", recording_read_json)
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, quiet=True)
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


def test_only_stage_run_reads_artifacts():
    """Every call in pipeline.py to an artifact reader sits inside a StageRun
    method."""
    import ast
    import inspect

    from mixtask import pipeline

    readers = {"read_json", "read_jsonl", "load_dataset", "load_checkpoint",
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


def test_one_training_loop_takes_every_gradient_step():
    """grad_step is called from one library function: training._fit, the loop
    that multi-task training and fine-tuning share."""
    import ast

    callers = []
    for path in sorted(Path(mixtask.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            if any(isinstance(call, ast.Call) and "grad_step" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None))
                   for call in ast.walk(function)):
                callers.append(f"{path.stem}.{function.name}")
    assert callers == ["training._fit"]


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
    eval_rows = [
        json.loads(line)
        for line in (toy_run_dir / "split" / "toy_nli__eval.jsonl").read_text().splitlines()
        if line.strip()
    ]
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
    (("mixture", "max_epoch"), float("inf"), "mixture: cannot convert float infinity to integer"),
    (("train", "lr_multitask"), float("nan"),
     r"train: lr_multitask must be finite and > 0, not nan"),
    (("train", "lr_multitask"), float("inf"),
     r"train: lr_multitask must be finite and > 0, not inf"),
    (("train", "lr_finetune"), float("-inf"),
     r"train: lr_finetune must be finite and > 0, not -inf"),
    (("train", "lr_finetune"), 0.0, r"train: lr_finetune must be finite and > 0, not 0\.0"),
    (("train", "epochs_finetune"), [4], r"train: int\(\) argument must be .+, not 'list'"),
    (("train", "hidden_dim"), [24], r"train: int\(\) argument must be .+, not 'list'"),
    (("master_seed",), {"a": 1}, r"config: int\(\) argument must be .+, not 'dict'"),
    (("random_split", "toy_pages", "eval_count"), [72],
     r"random_split\.toy_pages: int\(\) argument must be .+, not 'list'"),
    (("mixture", "alpha"), [0.5], r"mixture: float\(\) argument must be .+, not 'list'"),
    (("mixture", "batch_size"), {"toy_nli": 8, "*": 32},
     r"mixture: int\(\) argument must be .+, not 'dict'"),
])
def test_config_section_errors_name_the_section(toy_corpus_dir, path, value, message):
    """A key no section declares, a section that is not a mapping, a source
    without a name, a list that is not a list of strings, a split recipe that
    is not a string, a flag that is not a bool, a source seed or dim out of
    range, a hidden_dim below 1, a negative member or question count, an
    alpha or learning rate that is not finite or out of range, an infinite
    integer and a list or mapping where a number belongs each fail parsing
    (value None deletes the key)."""
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


def run_cli(*args):
    """Run the CLI of the mixtask package these tests import."""
    src = str(Path(mixtask.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "mixtask", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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


def test_cli_split_with_a_mapping_batch_size_exits_2(toy_corpus_dir, tmp_path, capsys):
    """mixture.batch_size is one integer; the per-dataset mapping it once
    took is a config error naming its section."""
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
    assert re.fullmatch(r"\[split\] mixture: int\(\) argument must be .+, not 'dict'\n", err)
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
        "ingest", "split", "transform"]


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
    featurized, real = {}, featurize_module.featurize_pairs
    for stage in ("finetune", "predict"):
        rows = featurized.setdefault(stage, [])

        def counting(pairs, sources, **memo):
            rows.extend((source.name, pair) for source in sources for pair in pairs)
            return real(pairs, sources, **memo)

        monkeypatch.setattr(featurize_module, "featurize_pairs", counting)
        run_stage(stage, cfg, run)
    assert featurized["finetune"] == []

    datasets = read_index(run, "split")["datasets"]
    eval_pairs = set()
    for entry in datasets.values():
        if entry["role"] == "in_domain" and "eval" in entry["splits"]:
            lines = (run / "split" / entry["splits"]["eval"]).read_text().splitlines()
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


@pytest.mark.parametrize("stage, damage", [
    ("finetune", "truncate_matrix"),
    ("predict", "delete_keys"),
    ("finetune", "drop_a_key"),
    ("predict", "other_seed"),
    ("finetune", "blocks_disagree"),
])
def test_damaged_feature_store_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path,
                                                 stage, damage):
    import numpy as np

    run = _copy_run(toy_run_dir, tmp_path)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    features = run / "train" / "features"
    if damage == "truncate_matrix":
        matrix = features / "family_a.npy"
        matrix.write_bytes(matrix.read_bytes()[:-100])
    elif damage == "delete_keys":
        (features / "keys.npy").unlink()
    elif damage == "drop_a_key":
        np.save(features / "keys.npy", np.load(features / "keys.npy")[1:])
    else:
        index = read_index(run, "train")
        if damage == "blocks_disagree":  # the blocks no longer add up to the rows
            index["features"]["blocks"][0] += 1
        else:
            index["features"]["sources"]["family_b"]["featurizer_seed"] += 1
        (run / "train" / "index.json").write_text(json.dumps(index))
    with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] .*re-run train"):
        run_stage(stage, cfg, run)


@pytest.mark.parametrize("stage, damage", [
    ("finetune", "truncate"),
    ("predict", "delete"),
    ("finetune", "one_value_short"),
    ("predict", "float32"),
    ("finetune", "schema_1_entry"),
    ("finetune", "provenance_extra_key"),
    ("predict", "provenance_not_a_mapping"),
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
    entries = index["members" if producer == "train" else "finetuned"]
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


@pytest.mark.parametrize("damage", ["drop_one", "foreign_id", "repeat_last"])
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
    else:  # a second record for the last sample, which would win if read
        record["probs"] = record["probs"][::-1]
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines))
    counts = f"misses 1 eval samples, names {int(damage == 'foreign_id')} "
    message = rf"^\[ensemble\] task toy_rqe: predict/{path.name} {counts}.*; re-run predict$"
    if damage == "repeat_last":
        message = rf"^\[ensemble\] unreadable predict/{path.name}: .*re-run predict$"
    with pytest.raises(PipelineStageError, match=message):
        run_stage("ensemble", cfg, run)
    # the remedy the message names works
    run_stage("predict", cfg, run)
    run_stage("ensemble", cfg, run)


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
])
def test_config_name_matching_nothing_is_a_tagged_error(toy_corpus_dir, toy_run_dir, tmp_path,
                                                        stage, key, typo):
    import yaml

    run = _copy_run(toy_run_dir, tmp_path)
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    if key == "constrained_triples":
        raw[key].append(typo)
    else:
        raw[key][typo] = next(iter(raw[key].values()))
    cfg = PipelineConfig.from_dict(raw, base_dir=toy_corpus_dir)
    kind = "dataset" if stage == "split" else "task"
    message = rf"^\[{stage}\] unknown {kind} '{typo}' in {key}$"
    with pytest.raises(PipelineStageError, match=message):
        run_stage(stage, cfg, run)


def test_finetune_writes_only_models_it_changed(toy_run_dir):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    trained = {digest(p) for p in (toy_run_dir / "train").glob("*.npy")}
    tuned = sorted((toy_run_dir / "finetune").glob("*.npy"))
    assert tuned and not [p.name for p in tuned if digest(p) in trained]
    entries = read_index(toy_run_dir, "finetune")["finetuned"]
    assert len(entries) == len(tuned)
    assert all(entry["provenance"]["epoch"] >= 1 for entry in entries.values())
