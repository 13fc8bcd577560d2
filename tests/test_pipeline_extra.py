"""Pipeline behaviors needing their own configs: pure-CV ensembles, the
trained-members experiment, roster-growth seed stability, and re-runs
under a changed config."""
import json
import shutil
from pathlib import Path

import numpy as np
import yaml

from mixtask.experiment import run_multisource_experiment
from mixtask.model import load_checkpoint
from mixtask.pipeline import STAGES, PipelineConfig, run_pipeline, run_stage


def write_config(path: Path, raw: dict) -> PipelineConfig:
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return PipelineConfig.from_file(path)


QA_ONLY_MANIFEST = """\
[toy_qa]
task_kind = regression
role = in_domain
head_group = qa_rank
path = toy_qa__train.jsonl
dev_path = toy_qa__dev.jsonl
eval_path = toy_qa__eval.jsonl
"""


def test_pure_cv_mode_trains_and_ensembles_ten_members(toy_corpus_dir, tmp_path):
    (toy_corpus_dir / "qa_only.ini").write_text(QA_ONLY_MANIFEST, encoding="utf-8")
    cfg = write_config(
        tmp_path / "cv.yaml",
        {
            "master_seed": 11,
            "manifest": str(toy_corpus_dir / "qa_only.ini"),
            "mixture": {"alpha": 0.5, "max_epoch": 6, "batch_size": 16},
            "train": {"lr_multitask": 0.01, "lr_finetune": 0.001, "epochs_finetune": 2,
                      "hidden_dim": 16},
            "sources": [
                {"name": "family_a", "featurizer_seed": 101, "dim": 128, "members": 0},
                {"name": "family_b", "featurizer_seed": 202, "dim": 128, "members": 0},
            ],
            "transforms": {"toy_qa": ["rescore_relevance"]},
            "splits": {"toy_qa": "reshuffle_dev"},
            "cv": {"enabled": True, "task": "toy_qa", "folds": 5},
            "thresholds": {"toy_qa": 10.0},
            "ranking": ["toy_qa"],
        },
    )
    out = tmp_path / "run"
    run_pipeline(cfg, out, quiet=True)
    members = json.loads((out / "train" / "index.json").read_text())["members"]
    assert len(members) == 10  # 2 sources x 5 folds, no base members
    ensemble = json.loads((out / "ensemble" / "index.json").read_text())["ensembles"]["toy_qa"]
    assert len(ensemble["members"]) == 10
    assert ensemble["dropped"] == []


def test_trained_experiment_mode(toy_corpus_dir, tmp_path):
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["mixture"]["max_epoch"] = 5
    raw["cv"] = {"enabled": False}
    for src in raw["sources"]:
        src["members"] = 3
    cfg = write_config(tmp_path / "exp.yaml", raw)
    report = run_multisource_experiment(cfg, tmp_path / "out", mode="trained")
    trial = report.trials[0]
    assert {r.grouping for r in trial.single_rows} == {"family_a only", "family_b only"}
    assert len(trial.mixed_rows) == 2
    for row in trial.single_rows + trial.mixed_rows:
        assert len(row.members) == 3
        assert 0.0 <= row.ensemble_accuracy <= 1.0
    assert (tmp_path / "out" / "experiment_report.json").exists()
    # the members come from the pipeline's stages: zero fine-tuning epochs
    # leave no fine-tuned model, and predict scores every base member
    work = tmp_path / "out" / "trained_members"
    assert json.loads((work / "finetune" / "index.json").read_text())["finetuned"] == {}
    predictions = json.loads((work / "predict" / "index.json").read_text())["predictions"]
    members = [f"{src['name']}-m{i}" for src in raw["sources"] for i in range(3)]
    assert sorted(trial.member_accuracies) == sorted(members)
    assert set(predictions["toy_nli"]) == set(members)


def test_trained_experiment_indexes_do_not_depend_on_the_corpus_location(toy_corpus_dir,
                                                                        tmp_path):
    """The members' config keeps the config file's own manifest value, so one
    config run from two corpus directories writes byte-identical indexes."""
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["mixture"]["max_epoch"] = 1
    for src in raw["sources"]:
        src["members"] = 3
    indexes = []
    for place in ("here", "there"):
        corpus = tmp_path / place / "corpus"
        shutil.copytree(toy_corpus_dir, corpus)
        cfg = write_config(corpus / "exp.yaml", raw)
        run_multisource_experiment(cfg, tmp_path / place / "out", mode="trained")
        work = tmp_path / place / "out" / "trained_members"
        indexes.append({path.relative_to(work).as_posix(): path.read_bytes()
                        for path in work.glob("*/index.json")})
    assert len(indexes[0]) == 6 and indexes[0] == indexes[1]
    assert json.loads(indexes[0]["train/index.json"])["config"]["manifest"] == raw["manifest"]


def test_finetune_with_zero_epochs_reads_only_the_indexes(toy_corpus_dir, tmp_path,
                                                        monkeypatch):
    """Zero fine-tuning epochs change no model, so finetune loads no feature
    store, checkpoint or dataset and fine-tunes nothing. It still lists no
    model and records the split and train indexes as its inputs."""
    import hashlib

    from mixtask import pipeline
    from mixtask.featurize import FeatureCache

    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["mixture"]["max_epoch"] = 1
    raw["cv"] = {"enabled": False}
    raw["train"]["epochs_finetune"] = 0
    cfg = write_config(tmp_path / "zero.yaml", raw)
    out = tmp_path / "run"
    for stage in STAGES[: STAGES.index("finetune")]:
        run_stage(stage, cfg, out)

    def refuse(*args, **kwargs):
        raise AssertionError("finetune read more than the split and train indexes")

    monkeypatch.setattr(pipeline, "fine_tune_task", refuse)
    monkeypatch.setattr(pipeline, "load_checkpoint", refuse)
    monkeypatch.setattr(pipeline, "load_dataset", refuse)
    monkeypatch.setattr(FeatureCache, "load", refuse)
    run_stage("finetune", cfg, out)
    index = json.loads((out / "finetune" / "index.json").read_text())
    assert index["finetuned"] == {}
    assert index["inputs"] == {
        producer: hashlib.sha256((out / producer / "index.json").read_bytes()).hexdigest()
        for producer in ("split", "train")
    }


def test_trained_experiment_task_without_eval_or_dev_is_a_tagged_error(toy_corpus_dir, tmp_path):
    """The compared task (the first in-domain classification task) may have
    neither an eval nor a dev split while another task trains on its dev
    split; predict then writes no set for it, and the experiment says so."""
    import pytest

    from mixtask.pipeline import PipelineStageError

    manifest = (toy_corpus_dir / "manifest.ini").read_text(encoding="utf-8")
    manifest = manifest.replace("dev_path = toy_nli__dev.jsonl\n", "").replace(
        "eval_path = toy_nli__eval.jsonl\n", "")
    (toy_corpus_dir / "nli_train_only.ini").write_text(manifest, encoding="utf-8")
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "nli_train_only.ini")
    raw["mixture"]["max_epoch"] = 2
    del raw["splits"]["toy_nli"]
    for src in raw["sources"]:
        src["members"] = 3
    cfg = write_config(tmp_path / "exp.yaml", raw)
    with pytest.raises(PipelineStageError,
                       match=r"^\[experiment\] task 'toy_nli' has no eval or dev split$"):
        run_multisource_experiment(cfg, tmp_path / "out", mode="trained")


def test_adding_members_never_perturbs_existing_ones(toy_corpus_dir, tmp_path):
    base_raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    base_raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    base_raw["mixture"]["max_epoch"] = 4
    base_raw["cv"] = {"enabled": False}

    weights = {}
    for tag, members in (("small", 1), ("large", 2)):
        raw = json.loads(json.dumps(base_raw))
        for src in raw["sources"]:
            src["members"] = members
        cfg = write_config(tmp_path / f"{tag}.yaml", raw)
        out = tmp_path / tag
        for stage in ("ingest", "transform", "split", "train"):
            run_stage(stage, cfg, out)
        entry = json.loads((out / "train" / "index.json").read_text())["members"]["family_a-m0"]
        ckpt = load_checkpoint(out / "train" / entry["checkpoint"], entry)
        weights[tag] = ckpt.model.enc_weights
    assert np.array_equal(weights["small"], weights["large"])


def test_rerun_without_cv_finetuning_ignores_stale_checkpoints(
    toy_corpus_dir, toy_run_dir, tmp_path
):
    """Re-running finetune onward with cv.finetune_members off removes the CV
    members' earlier fine-tuned checkpoints; a stale one put back by hand is
    still ignored, because predict resolves models through the finetune
    index, and the run matches a clean one."""
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["cv"]["finetune_members"] = False
    cfg = write_config(tmp_path / "no_cv_finetune.yaml", raw)

    rerun = tmp_path / "rerun"
    shutil.copytree(toy_run_dir, rerun)
    stale = sorted(p for p in (toy_run_dir / "finetune").glob("*__ft__*.npy") if "-cv" in p.name)
    assert stale
    run_stage("finetune", cfg, rerun)
    assert not any("-cv" in p.name for p in (rerun / "finetune").glob("*__ft__*.npy"))
    shutil.copy(stale[0], rerun / "finetune" / stale[0].name)
    for stage in STAGES[STAGES.index("predict"):]:
        run_stage(stage, cfg, rerun)

    clean = tmp_path / "clean"
    run_pipeline(cfg, clean, quiet=True)

    def without_inputs(path):
        # the rerun's train index was built under the other config, so the
        # digests of the indexes each stage read legitimately differ
        index = json.loads(path.read_text())
        assert index.pop("inputs")
        return index

    for stage in ("predict", "ensemble"):
        names = sorted(p.name for p in (clean / stage).iterdir())
        assert names == sorted(p.name for p in (rerun / stage).iterdir())
        for name in names:
            if name == "index.json":
                assert without_inputs(rerun / stage / name) == without_inputs(clean / stage / name)
                continue
            assert (rerun / stage / name).read_bytes() == (clean / stage / name).read_bytes(), (
                f"{stage}/{name} differs from a clean run"
            )
