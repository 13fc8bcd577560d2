import numpy as np
import pytest

from mixtask.experiment import (
    compare_groupings,
    run_noise_model_experiment,
    synthesize_family_predictions,
)
from mixtask.inference import PredictionSet


def test_noise_model_member_accuracy_stays_in_window():
    gold, families = synthesize_family_predictions(trial_seed=123, n_samples=500)
    for members in families.values():
        assert len(members) == 3
        for ps in members:
            ids = sorted(gold)
            predicted = [int(np.argmax(ps.predictions[i])) for i in ids]
            acc = float(np.mean([p == gold[i] for p, i in zip(predicted, ids)]))
            assert 0.75 <= acc <= 0.92


def test_noise_model_shared_errors_correlate_within_family():
    gold, families = synthesize_family_predictions(trial_seed=7, n_samples=800)
    ids = sorted(gold)

    def errors(ps):
        return {i for i in ids if int(np.argmax(ps.predictions[i])) != gold[i]}

    fam_a = families["family_a"]
    fam_b = families["family_b"]
    within = len(errors(fam_a[0]) & errors(fam_a[1]))
    across = len(errors(fam_a[0]) & errors(fam_b[0]))
    assert within > across  # same-family members share systematic errors


def test_identical_members_ensemble_equals_member():
    preds = {f"s{i:05d}": np.array([0.7, 0.2, 0.1]) if i % 3 else np.array([0.1, 0.7, 0.2])
             for i in range(60)}
    member = PredictionSet("m", "classification", preds, 80.0)
    clones = {
        "fam_x": [PredictionSet(f"x{i}", "classification", dict(preds), 80.0) for i in range(3)],
        "fam_y": [PredictionSet(f"y{i}", "classification", dict(preds), 80.0) for i in range(3)],
    }
    gold = {k: int(np.argmax(v)) for k, v in preds.items()}
    result = compare_groupings(clones, gold)
    for row in result.single_rows + result.mixed_rows:
        assert row.ensemble_accuracy == row.avg_member_accuracy == 1.0
        assert row.improvement == 0.0


def test_compare_groupings_requires_roster():
    member = PredictionSet("m", "classification", {"s": np.array([1.0, 0.0])}, 80.0)
    with pytest.raises(ValueError, match="families"):
        compare_groupings({"only": [member] * 3}, {"s": 0})
    with pytest.raises(ValueError, match="members"):
        compare_groupings({"a": [member] * 2, "b": [member] * 3}, {"s": 0})


def test_report_schema_mirrors_comparison_rows():
    report = run_noise_model_experiment(n_trials=2, master_seed=5, n_samples=200)
    payload = report.to_dict()
    assert payload["n_trials"] == 2
    for trial in payload["trials"]:
        for row in trial["rows"]:
            assert {"grouping", "members", "avg_member_accuracy", "ensemble_accuracy",
                    "improvement"} <= set(row)
    table = report.table()
    assert "avg acc" in table and "ens acc" in table


def test_multisource_beats_singlesource_property():
    report = run_noise_model_experiment(n_trials=20, master_seed=0)
    assert report.mixed_wins >= 18
    assert report.mean_mixed_improvement > report.mean_single_improvement
