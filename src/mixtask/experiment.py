"""Single-source vs multi-source ensemble comparison.

Members of one source family share systematic errors; members of different
families fail independently. This module measures how much more a
mixed-source majority-vote ensemble gains over its members' average
accuracy than a single-source ensemble does.

Two member pools are supported:

* a synthetic noise model (default): member predictions are generated with
  a per-family shared error component plus independent per-member errors,
  calibrated so member accuracy falls in MEMBER_ACCURACY_RANGE. On a shared
  family error, every erring member picks its wrong class independently, so
  a mixed ensemble often splits a family's shared error into a three-way
  vote tie that the summed-probability tie-break resolves correctly. A
  single-source ensemble cannot recover those samples. The calibration is
  fixed by the module constants (3 classes, which a split vote needs; 2
  families of 3 members); only the samples per trial vary.

* trained toy models: >= 3 base members per configured source family. The
  pipeline's ingest, transform, split, train, finetune and predict stages run
  on the configured corpus under a derived config with cross validation off
  and zero fine-tuning epochs, so each member predicts from its multi-task
  checkpoint. The derived config keeps the config file's own manifest
  value, so the members' indexes embed no absolute path. The members' prediction sets for the first in-domain
  classification task's eval split are compared.

run_multisource_experiment runs either and writes experiment_report.json.
"""
from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .data import TaskKind, write_json
from .inference import PredictionSet, combine_predictions
from .metrics import accuracy
from .pipeline import PipelineStageError, StageRun, run_stage
from .seeding import derive_rng, derive_seed


# The noise model's calibration: members per source family, and the ranges
# each family's shared error rate, each member's accuracy, and the top
# probability of a correct and of a wrong prediction are drawn from.
N_CLASSES = 3
FAMILY_NAMES = ("family_a", "family_b")
MEMBERS_PER_FAMILY = 3
SHARED_ERROR_RANGE = (0.05, 0.10)
MEMBER_ACCURACY_RANGE = (0.75, 0.92)
CONFIDENT_RANGE = (0.65, 0.90)
WRONG_RANGE = (0.45, 0.65)


def synthesize_family_predictions(
    trial_seed: int, n_samples: int = 1000
) -> tuple[dict[str, int], dict[str, list[PredictionSet]]]:
    """Generate gold labels and per-family member prediction sets.

    Per family, a set of shared-error samples flips every member; each
    member errs on an additional personal set drawn from the remaining
    samples, sized so that realized accuracy lands within 2/n of a target
    drawn inside MEMBER_ACCURACY_RANGE. Erring members place WRONG_RANGE
    mass on an independently chosen wrong class; correct members place
    CONFIDENT_RANGE mass on the truth; leftover mass is split evenly over
    the other classes.
    """
    rng = derive_rng(trial_seed, "noise-gold")
    gold_arr = rng.integers(0, N_CLASSES, size=n_samples)
    n = n_samples
    lo_acc, hi_acc = MEMBER_ACCURACY_RANGE
    families: dict[str, list[PredictionSet]] = {}
    for family in FAMILY_NAMES:
        family_rng = derive_rng(trial_seed, "noise-family", family)
        shared_rate = family_rng.uniform(*SHARED_ERROR_RANGE)
        shared_idx = family_rng.choice(n, size=round(shared_rate * n), replace=False)
        shared_error = np.zeros(n, dtype=bool)
        shared_error[shared_idx] = True
        clean_idx = np.flatnonzero(~shared_error)
        members = []
        for member_idx in range(MEMBERS_PER_FAMILY):
            member_rng = derive_rng(trial_seed, "noise-member", family, member_idx)
            target_acc = member_rng.uniform(lo_acc + 0.01, hi_acc - 0.01)
            personal_rate = max(0.0, 1.0 - target_acc / (1.0 - shared_rate))
            n_personal = round(personal_rate * len(clean_idx))
            personal_idx = member_rng.choice(clean_idx, size=n_personal, replace=False)
            wrong = shared_error.copy()
            wrong[personal_idx] = True
            preds = {}
            for i in range(n):
                truth = int(gold_arr[i])
                if wrong[i]:
                    offset = int(member_rng.integers(1, N_CLASSES))
                    predicted = (truth + offset) % N_CLASSES
                    top_mass = member_rng.uniform(*WRONG_RANGE)
                else:
                    predicted = truth
                    top_mass = member_rng.uniform(*CONFIDENT_RANGE)
                vec = np.full(N_CLASSES, (1.0 - top_mass) / (N_CLASSES - 1))
                vec[predicted] = top_mass
                preds[f"s{i:05d}"] = vec
            dev_acc = float(np.mean(~wrong))
            members.append(
                PredictionSet(
                    model_id=f"{family}-m{member_idx}",
                    kind="classification",
                    predictions=preds,
                    dev_metric=100.0 * dev_acc,
                )
            )
        families[family] = members
    gold = {f"s{i:05d}": int(gold_arr[i]) for i in range(n)}
    return gold, families


def _member_accuracy(ps: PredictionSet, gold: dict[str, int]) -> float:
    ids = sorted(gold)
    predicted = [int(np.argmax(ps.predictions[i])) for i in ids]
    return accuracy(predicted, [gold[i] for i in ids])


def _ensemble_accuracy(members: Sequence[PredictionSet], gold: dict[str, int]) -> float:
    combined = combine_predictions(members)
    ids = sorted(gold)
    predicted = [combined[i].label for i in ids]
    return accuracy(predicted, [gold[i] for i in ids])


@dataclass
class EnsembleRow:
    """One comparison row: average member accuracy vs ensemble accuracy."""

    grouping: str
    members: list[str]
    avg_member_accuracy: float
    ensemble_accuracy: float

    @property
    def improvement(self) -> float:
        return self.ensemble_accuracy - self.avg_member_accuracy

    def to_dict(self) -> dict:
        return {**asdict(self), "improvement": self.improvement}


@dataclass
class TrialResult:
    trial: int
    single_rows: list[EnsembleRow]
    mixed_rows: list[EnsembleRow]
    member_accuracies: dict[str, float] = field(default_factory=dict)


def compare_groupings(
    families: dict[str, list[PredictionSet]], gold: dict[str, int], trial: int = 0
) -> TrialResult:
    """Form same-size single-source and mixed-source ensembles and score both.

    Single-source rows take the first 3 members of each family; mixed rows
    swap one member across family pairs (2+1 both ways), keeping ensemble
    size constant at 3.
    """
    if len(families) < 2:
        raise ValueError("need >= 2 source families")
    for name, members in families.items():
        if len(members) < 3:
            raise ValueError(f"family {name!r} has {len(members)} members, needs >= 3")
    names = list(families)
    member_accs = {
        ps.model_id: _member_accuracy(ps, gold) for mm in families.values() for ps in mm
    }

    def row(grouping: str, members: Sequence[PredictionSet]) -> EnsembleRow:
        return EnsembleRow(
            grouping=grouping,
            members=[ps.model_id for ps in members],
            avg_member_accuracy=float(np.mean([member_accs[ps.model_id] for ps in members])),
            ensemble_accuracy=_ensemble_accuracy(members, gold),
        )

    single_rows = [row(f"{name} only", families[name][:3]) for name in names]
    mixed_rows = []
    for first, second in zip(names, names[1:]):
        a, b = families[first], families[second]
        mixed_rows.append(row(f"{first}+{second} (2+1)", [a[0], a[1], b[0]]))
        mixed_rows.append(row(f"{first}+{second} (1+2)", [a[0], b[0], b[1]]))
    return TrialResult(
        trial=trial, single_rows=single_rows, mixed_rows=mixed_rows, member_accuracies=member_accs
    )


@dataclass
class ExperimentReport:
    trials: list[TrialResult]
    mixed_wins: int  # trials where every mixed ensemble beat its member average
    mean_mixed_improvement: float
    mean_single_improvement: float

    def to_dict(self) -> dict:
        return {
            "n_trials": len(self.trials),
            "mixed_wins": self.mixed_wins,
            "mean_mixed_improvement": self.mean_mixed_improvement,
            "mean_single_improvement": self.mean_single_improvement,
            "trials": [
                {
                    "trial": t.trial,
                    "rows": [r.to_dict() for r in t.single_rows + t.mixed_rows],
                    "member_accuracies": t.member_accuracies,
                }
                for t in self.trials
            ],
        }

    def table(self) -> str:
        lines = [f"{'grouping':28s} {'avg acc':>8s} {'ens acc':>8s} {'gain':>7s}"]
        for t in self.trials:
            lines.append(f"trial {t.trial}")
            for r in t.single_rows + t.mixed_rows:
                lines.append(
                    f"  {r.grouping:26s} {r.avg_member_accuracy:8.4f} "
                    f"{r.ensemble_accuracy:8.4f} {r.improvement:+7.4f}"
                )
        lines.append(
            f"mixed-source wins: {self.mixed_wins}/{len(self.trials)}  "
            f"mean gain mixed {self.mean_mixed_improvement:+.4f} "
            f"vs single {self.mean_single_improvement:+.4f}"
        )
        return "\n".join(lines)


def run_noise_model_experiment(
    n_trials: int = 20, master_seed: int = 0, n_samples: int = 1000
) -> ExperimentReport:
    """Run the synthetic-noise comparison over seeded trials of n_samples."""
    trials = []
    for trial in range(n_trials):
        trial_seed = derive_seed(master_seed, "experiment-trial", trial)
        gold, families = synthesize_family_predictions(trial_seed, n_samples)
        trials.append(compare_groupings(families, gold, trial=trial))
    return summarize_trials(trials)


def summarize_trials(trials: list[TrialResult]) -> ExperimentReport:
    mixed_wins = sum(1 for t in trials if all(r.improvement > 0 for r in t.mixed_rows))
    mixed_improvements = [r.improvement for t in trials for r in t.mixed_rows]
    single_improvements = [r.improvement for t in trials for r in t.single_rows]
    return ExperimentReport(
        trials=trials,
        mixed_wins=mixed_wins,
        mean_mixed_improvement=float(np.mean(mixed_improvements)),
        mean_single_improvement=float(np.mean(single_improvements)),
    )


def run_multisource_experiment(
    cfg: Optional[PipelineConfig],
    out_dir: str | Path,
    mode: str = "noise",
    n_trials: int = 20,
    master_seed: Optional[int] = None,
    n_samples: int = 1000,
) -> ExperimentReport:
    """Compare single-source vs mixed-source ensembles.

    mode "noise" uses the documented synthetic noise model over n_trials
    seeded trials of n_samples each. mode "trained" trains >= 3 members per
    configured source family on the configured corpus and compares ensembles
    of their predictions on the first classification task's eval split.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "noise":
        seed = master_seed if master_seed is not None else (cfg.master_seed if cfg else 0)
        report = run_noise_model_experiment(n_trials, seed, n_samples)
    elif mode == "trained":
        if cfg is None:
            raise PipelineStageError("experiment", "trained mode requires a pipeline config")
        report = _trained_experiment(cfg, out_dir)
    else:
        raise PipelineStageError("experiment", f"unknown mode {mode!r}")
    write_json(out_dir / "experiment_report.json", report.to_dict())
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
    raw = copy.deepcopy(cfg.raw)
    raw["cv"] = {**(raw.get("cv") or {}), "enabled": False}
    raw["train"] = {**(raw.get("train") or {}), "epochs_finetune": 0}
    # the parsed config already holds the manifest's resolved path, so raw
    # keeps the config file's own manifest value
    members_cfg = replace(cfg, raw=raw, cv_enabled=False,
                          train=replace(cfg.train, epochs_finetune=0))
    work = out_dir / "trained_members"
    for stage in ("ingest", "transform", "split", "train", "finetune", "predict"):
        run_stage(stage, members_cfg, work)
    run = StageRun(members_cfg, work, "experiment")
    task_name = next(
        (n for n, entry in sorted(run.index("split")["datasets"].items())
         if entry["role"] == "in_domain" and TaskKind.parse(entry["task_kind"]).is_classification),
        None,
    )
    if task_name is None:
        raise PipelineStageError("experiment", "no in-domain classification task to compare on")
    eval_set = run.eval_set(task_name)
    if eval_set is None:
        raise PipelineStageError("experiment", f"task {task_name!r} has no eval or dev split")
    gold = {s.id: s.label for s in eval_set}

    families: dict[str, list[PredictionSet]] = {}
    for member in members_cfg.member_plan():
        families.setdefault(member["source"].spec.name, []).append(
            run.prediction_set(task_name, member["member_id"], eval_set)
        )
    return summarize_trials([compare_groupings(families, gold, trial=0)])
