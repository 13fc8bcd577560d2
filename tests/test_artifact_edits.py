"""A stage that reads an upstream artifact holding a value of the wrong type
fails with a stage-tagged error that names the artifact and the producer to
re-run. Each case edits one value in a copy of the finished seed-7 toy run,
then runs the stage that reads it."""
import json
import re
import shutil

import pytest

from mixtask.pipeline import PipelineConfig, PipelineStageError, run_stage


def predict_index_dev_metric(value):
    def edit(run):
        path = run / "predict" / "index.json"
        index = json.loads(path.read_text())
        index["predictions"]["toy_nli"]["family_a-m0"]["dev_metric"] = value
        path.write_text(json.dumps(index))
        return (f"unreadable predictions of family_a-m0 for toy_nli: ValueError: dev_metric "
                f"must be a finite number, got {json.dumps(value)}; re-run predict")
    edit.__name__ = f"dev_metric_{json.dumps(value)}"
    return edit


def train_features(key, value, problem):
    """An edit that sets key to value in the train index's features entry;
    predict, which opens the store first, must fail with problem."""
    def edit(run):
        path = run / "train" / "index.json"
        index = json.loads(path.read_text())
        index["features"][key] = value
        path.write_text(json.dumps(index))
        return f"unreadable train features: ValueError: {problem}; re-run train"
    edit.__name__ = f"features_{key}_{json.dumps(value)}"
    return edit


MISSING = object()  # index_value deletes the key


def index_value(producer, keys, value, what, problem, error="ValueError"):
    """An edit that sets the value under keys in producer's index, or deletes
    it for MISSING; the reading stage must fail naming what it read, then
    the error and problem."""
    def edit(run):
        path = run / producer / "index.json"
        index = json.loads(path.read_text())
        *parents, last = keys
        entry = index
        for key in parents:
            entry = entry[key]
        if value is MISSING:
            del entry[last]
        else:
            entry[last] = value
        path.write_text(json.dumps(index))
        return f"unreadable {what}: {error}: {problem}; re-run {producer}"
    shown = "missing" if value is MISSING else json.dumps(value)
    edit.__name__ = f"{producer}_{keys[-1]}_{shown}"
    return edit


def first_row(producer, filename, key, value, problem):
    """An edit that sets key to value in the first row of producer/filename.
    It returns the error the reading stage must give: the row's path and
    line, then problem."""
    def edit(run):
        path = run / producer / filename
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[0])
        row[key] = value
        lines[0] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        where = f"{path}:1: " if producer == "predict" else f"sample {row['sample_id']!r}: "
        return (f"unreadable {producer}/{filename}: ValueError: {where}{problem}; "
                f"re-run {producer}")
    edit.__name__ = f"{producer}_{key}_{json.dumps(value)}"
    return edit


def rank_rows(change):
    """An edit that changes the rows of rank/toy_qa.jsonl so that the first
    row's rank is not 1; evaluate must fail on that row."""
    def edit(run):
        path = run / "rank" / "toy_qa.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        change(rows)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        first = rows[0]
        return (f"unreadable rank/toy_qa.jsonl: ValueError: sample {first['sample_id']!r}: "
                f"rank {json.dumps(first['rank'])} is not its position 1 in question "
                f"{first['question_id']!r}; re-run rank")
    edit.__name__ = change.__name__
    return edit


def rank_99(rows):
    rows[0]["rank"] = 99


def first_two_rank_rows_swapped(rows):
    rows[0], rows[1] = rows[1], rows[0]


@pytest.mark.parametrize("edit, stage", [
    (predict_index_dev_metric("high"), "ensemble"),
    (predict_index_dev_metric(True), "ensemble"),
    (first_row("predict", "family_a-m0__toy_qa.jsonl", "score", [0.5],
               "score must be a finite number, got [0.5]"), "ensemble"),
    (first_row("predict", "family_a-m0__toy_nli.jsonl", "probs", ["a", "b", "c"],
               'probs must be a list of 3 finite numbers, got ["a", "b", "c"]'), "ensemble"),
    (first_row("predict", "family_a-m0__toy_nli.jsonl", "probs", [1.0],
               "probs must be a list of 3 finite numbers, got [1.0]"), "ensemble"),
    (first_row("ensemble", "toy_nli.jsonl", "label", "x",
               'label "x" is not a class index below 3'), "evaluate"),
    (first_row("ensemble", "toy_rqe.jsonl", "label", 2,
               "label 2 is not a class index below 2"), "evaluate"),
    (train_features("rows", "x", 'rows must be an int >= 0, got "x"'), "predict"),
    (train_features("sources", ["family_a"],
                    'sources must be a mapping of source names, got ["family_a"]'), "predict"),
    (first_row("rank", "toy_qa.jsonl", "label", "x",
               'label "x" is not a class index below 2'), "evaluate"),
    (first_row("rank", "toy_qa.jsonl", "label", 2,
               "label 2 is not a class index below 2"), "evaluate"),
    (first_row("rank", "toy_qa.jsonl", "score", "high",
               'score "high" is not a finite number'), "evaluate"),
    (first_row("rank", "toy_qa.jsonl", "score", [0.5],
               "score [0.5] is not a finite number"), "evaluate"),
    (first_row("ensemble", "toy_qa.jsonl", "label", 1.7,
               "label 1.7 is not a class index below 2"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "label", True,
               "label true is not a class index below 2"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "label", 5,
               "label 5 is not a class index below 2"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "label", [1],
               "label [1] is not a class index below 2"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "label", "x",
               'label "x" is not a class index below 2'), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "score", [0.5],
               "score [0.5] is not a finite number"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "score", float("nan"),
               "score NaN is not a finite number"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "score", "high",
               'score "high" is not a finite number'), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "question_id", 3,
               "question_id 3 is not a string"), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "question_id", ["q"],
               'question_id ["q"] is not a string'), "rank"),
    (first_row("ensemble", "toy_qa.jsonl", "question_id", None,
               "question_id null is not a string"), "rank"),
    (index_value("train", ["members", "family_a-m0", "checkpoint"], ["x"], "train/index.json",
                 '["x"] is not a file name'), "finetune"),
    (index_value("train", ["members", "family_a-m0", "checkpoint"], MISSING, "train/index.json",
                 "'checkpoint'", error="KeyError"), "finetune"),
    (index_value("split", ["folds", 0, "train"], MISSING, "fold 0 of split/index.json",
                 "'train'", error="KeyError"), "train"),
    (index_value("train", ["members", "family_a-m0", "layout", "hidden"], "24",
                 "train checkpoint 'family_a-m0__multitask.npy'",
                 "the index entry's checkpoint layout has hidden \"24\", not an int >= 1"),
     "finetune"),
    (index_value("predict", ["predictions", "toy_nli", "family_a-m0", "file"], 3,
                 "predict/index.json", "3 is not a file name"), "ensemble"),
    (index_value("ensemble", ["ensembles", "toy_qa", "file"], None, "ensemble/index.json",
                 "null is not a file name"), "rank"),
    (index_value("ensemble", ["ensembles", "toy_qa", "file"], MISSING, "ensemble/index.json",
                 "'file'", error="KeyError"), "rank"),
    (index_value("rank", ["rankings", "toy_qa", "file"], MISSING, "rank/index.json",
                 "'file'", error="KeyError"), "evaluate"),
    (index_value("split", ["datasets", "toy_nli", "task_kind"], 3, "split/index.json",
                 "datasets.toy_nli.task_kind must be a string, got 3"), "train"),
    (index_value("split", ["folds"], "x", "split/index.json",
                 'folds must be a list, got "x"'), "train"),
    (index_value("split", ["datasets", "toy_nli", "splits"], ["x"], "split/index.json",
                 'datasets.toy_nli.splits must be a mapping, got ["x"]'), "train"),
    (index_value("split", ["datasets", "toy_nli", "head_group"], ["x"], "split/index.json",
                 'datasets.toy_nli.head_group must be a string, got ["x"]'), "train"),
    (index_value("ensemble", ["inputs"], ["predict"], "ensemble/index.json",
                 "an index must be a mapping whose inputs are by stage name"), "rank"),
    (index_value("ensemble", ["inputs", "../predict"], "x", "ensemble/index.json",
                 "an index must be a mapping whose inputs are by stage name"), "rank"),
    (index_value("predict", ["predictions", "toy_nli"], ["family_a-m0"], "predict/index.json",
                 'predictions.toy_nli must be a mapping, got ["family_a-m0"]'), "ensemble"),
    (index_value("train", ["members"], ["family_a-m0"], "train/index.json",
                 'members must be a mapping, got ["family_a-m0"]'), "finetune"),
    (index_value("finetune", ["finetuned", "family_a-m0"], ["toy_nli"], "finetune/index.json",
                 'finetuned.family_a-m0 must be a mapping, got ["toy_nli"]'), "predict"),
    (rank_rows(rank_99), "evaluate"),
    (rank_rows(first_two_rank_rows_swapped), "evaluate"),
], ids=lambda value: getattr(value, "__name__", None))
def test_an_edited_artifact_fails_its_reader_naming_the_producer(toy_corpus_dir, toy_run_dir,
                                                                  tmp_path, edit, stage):
    run = tmp_path / "run"
    shutil.copytree(toy_run_dir, run)
    message = edit(run)
    cfg = PipelineConfig.from_file(toy_corpus_dir / "config.yaml")
    with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] {re.escape(message)}$"):
        run_stage(stage, cfg, run)
