"""Pipeline behaviors needing their own configs: pure-CV ensembles, the
trained-members experiment, roster-growth seed stability, and re-runs
under a changed config."""
import json
import shutil
from pathlib import Path

import numpy as np
import yaml

from mixtask.model import load_checkpoint
from mixtask.pipeline import (
    STAGES,
    PipelineConfig,
    run_multisource_experiment,
    run_pipeline,
    run_stage,
)


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
        ckpt = load_checkpoint(out / "train" / "family_a-m0__multitask.json")
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
    stale = sorted(p for p in (toy_run_dir / "finetune").glob("*__ft__*.json") if "-cv" in p.name)
    assert stale
    run_stage("finetune", cfg, rerun)
    assert not any("-cv" in p.name for p in (rerun / "finetune").glob("*__ft__*.json"))
    shutil.copy(stale[0], rerun / "finetune" / stale[0].name)
    for stage in STAGES[STAGES.index("predict"):]:
        run_stage(stage, cfg, rerun)

    clean = tmp_path / "clean"
    run_pipeline(cfg, clean, quiet=True)
    for stage in ("predict", "ensemble"):
        names = sorted(p.name for p in (clean / stage).iterdir())
        assert names == sorted(p.name for p in (rerun / stage).iterdir())
        for name in names:
            assert (rerun / stage / name).read_bytes() == (clean / stage / name).read_bytes(), (
                f"{stage}/{name} differs from a clean run"
            )
