import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

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


def test_run_manifest_records_all_stages(toy_run_dir):
    manifest = json.loads((toy_run_dir / "run_manifest.json").read_text())
    assert set(manifest["stages"]) == set(STAGES)
    assert manifest["master_seed"] == 7


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
    from mixtask import training
    from mixtask.pipeline import _member_tasks, _member_train_config
    from mixtask.scheduler import load_plan

    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    real_step = training.grad_step
    roster = cfg.member_plan()
    for member in (roster[0], roster[-1]):  # a base member and a CV fold member
        seen = []

        def recording_step(model, batch, learning_rate):
            seen.append({"dataset": batch.dataset_name, "sample_ids": list(batch.sample_ids)})
            return real_step(model, batch, learning_rate)

        monkeypatch.setattr(training, "grad_step", recording_step)
        train_cfg = _member_train_config(cfg, member)
        one_epoch = replace(train_cfg, mixture=replace(train_cfg.mixture, max_epoch=1))
        tasks = _member_tasks(cfg, toy_run_dir, member, "test")
        training.train_multitask(tasks, member["source"].spec, one_epoch)
        plan = load_plan(toy_run_dir / "schedule" / f"{member['member_id']}__epoch1.jsonl")
        assert seen and seen == [
            {"dataset": row["dataset"], "sample_ids": row["sample_ids"]} for row in plan
        ]


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


# -- command line ----------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mixtask", *args], capture_output=True, text=True
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


def test_cli_experiment_noise_mode(tmp_path):
    proc = run_cli(
        "experiment-multisource", "--out", str(tmp_path / "exp"),
        "--mode", "noise", "--trials", "3", "--samples", "200", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert "mixed-source wins" in proc.stdout
    report = json.loads((tmp_path / "exp" / "experiment_report.json").read_text())
    assert report["n_trials"] == 3
