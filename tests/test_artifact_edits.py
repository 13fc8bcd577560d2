"""A stage that reads an upstream artifact holding a value of the wrong type,
an index naming what the index it names it from lacks, or a checkpoint
layout naming an unknown head kind or another member's source, fails with a
stage-tagged error that names the artifact and the producer to re-run. Each
case edits one value in a copy of the finished seed-7 toy run, then runs the
stage that reads it."""
import json
import re
import shutil

import pytest

from mixtask.pipeline import PipelineConfig, PipelineStageError, run_stage


MISSING = object()  # index_value deletes the key


def edit_index(run, producer, change):
    """Apply change to the parsed index.json of producer and write it back."""
    path = run / producer / "index.json"
    index = json.loads(path.read_text())
    change(index)
    path.write_text(json.dumps(index))


def index_value(producer, keys, value, problem, error="ValueError", what=None):
    """An edit that sets the value under keys in producer's index, or deletes
    it for MISSING; the reading stage must fail naming what it could not read
    (by default the index), then the error and problem."""
    def change(index):
        *parents, last = keys
        for key in parents:
            index = index[key]
        if value is MISSING:
            del index[last]
        else:
            index[last] = value

    def edit(run):
        edit_index(run, producer, change)
        return (f"unreadable {what or producer + '/index.json'}: {error}: {problem}; "
                f"re-run {producer}")
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


def predict_lists(task):
    """An edit that makes predict's index list toy_nli's predictions under
    task, which split's index lacks or lists no eval or dev split for.
    Predict's index, not split's, is at fault: predict's recorded split
    digest still matches."""
    def edit(run):
        edit_index(run, "predict", lambda index: index["predictions"].update(
            {task: index["predictions"]["toy_nli"]}))
        return (f"predict/index.json lists task {task!r}, for which split/index.json lists no "
                f"eval or dev split; re-run predict")
    edit.__name__ = f"predict_lists_{task}"
    return edit


def fold_listed_twice(run):
    edit_index(run, "split", lambda index: index["folds"][1].update(fold=0))
    return "split/index.json lists fold 0 2 times; re-run split"


@pytest.mark.parametrize("edit, stage", [
    (index_value("predict", ["predictions", "toy_nli", "family_a-m0", "dev_metric"], "high",
                 'predictions.toy_nli.family_a-m0.dev_metric must be a finite number, got "high"'),
     "ensemble"),
    (index_value("predict", ["predictions", "toy_nli", "family_a-m0", "dev_metric"], True,
                 "predictions.toy_nli.family_a-m0.dev_metric must be a finite number, got true"),
     "ensemble"),
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
    (index_value("train", ["features", "rows"], "x",
                 'features.rows must be an int >= 0, got "x"'), "predict"),
    (index_value("train", ["features", "sources"], ["family_a"],
                 'features.sources must be a mapping, got ["family_a"]'), "predict"),
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
    (index_value("train", ["members", "family_a-m0", "checkpoint"], ["x"],
                 'members.family_a-m0.checkpoint must be a file name, got ["x"]'), "finetune"),
    (index_value("train", ["members", "family_a-m0", "checkpoint"], MISSING,
                 "'members.family_a-m0.checkpoint'", error="KeyError"), "finetune"),
    (index_value("split", ["folds", 0, "train"], MISSING, "'folds.0.train'", error="KeyError"),
     "train"),
    (index_value("train", ["members", "family_a-m0", "layout", "hidden"], "24",
                 'members.family_a-m0.layout.hidden must be an int >= 1, got "24"'), "finetune"),
    (index_value("train", ["members", "family_a-m0", "layout", "heads"], [],
                 "members.family_a-m0.layout.heads must be a mapping, got []"), "finetune"),
    (index_value("train", ["members", "family_a-m0", "layout", "source"], "x",
                 'members.family_a-m0.layout.source must be a mapping, got "x"'), "finetune"),
    (index_value("train", ["members", "family_a-m0", "layout", "source", "name"], 3,
                 "members.family_a-m0.layout.source.name must be a string, got 3"), "finetune"),
    (index_value("train", ["members", "family_a-m0", "layout", "heads", "nli", "kind"], 3,
                 "members.family_a-m0.layout.heads.nli.kind must be a string, got 3"), "predict"),
    (index_value("train", ["members", "family_a-m0", "layout", "heads", "nli", "kind"], "x",
                 "head 'nli' has kind 'x', not classification or regression",
                 what="train checkpoint 'family_a-m0__multitask.npy'"), "finetune"),
    (index_value("finetune", ["finetuned", "family_b-m0", "toy_nli", "layout", "heads", "nli",
                              "kind"], "x",
                 "head 'nli' has kind 'x', not classification or regression",
                 what="finetune checkpoint 'family_b-m0__ft__toy_nli.npy'"), "predict"),
    (index_value("train", ["members", "family_a-m0", "layout", "source", "name"], "zzz",
                 "its layout source SourceSpec(name='zzz', featurizer_seed=101, dim=192) is not "
                 "member family_a-m0's source SourceSpec(name='family_a', featurizer_seed=101, "
                 "dim=192)", what="train checkpoint 'family_a-m0__multitask.npy'"), "finetune"),
    (index_value("train", ["members", "family_a-m0", "layout", "source"],
                 {"name": "family_b", "featurizer_seed": 202, "dim": 192},
                 "its layout source SourceSpec(name='family_b', featurizer_seed=202, dim=192) is "
                 "not member family_a-m0's source SourceSpec(name='family_a', featurizer_seed=101, "
                 "dim=192)", what="train checkpoint 'family_a-m0__multitask.npy'"), "finetune"),
    (index_value("finetune", ["finetuned", "family_b-m0", "toy_nli", "layout", "source", "name"],
                 "zzz", "its layout source SourceSpec(name='zzz', featurizer_seed=202, dim=192) "
                 "is not member family_b-m0's source SourceSpec(name='family_b', "
                 "featurizer_seed=202, dim=192)",
                 what="finetune checkpoint 'family_b-m0__ft__toy_nli.npy'"), "predict"),
    (index_value("finetune", ["finetuned", "family_a-m0", "toy_qa", "layout", "source",
                              "featurizer_seed"], "x",
                 "finetuned.family_a-m0.toy_qa.layout.source.featurizer_seed must be an int >= 0, "
                 'got "x"'), "predict"),
    (index_value("finetune", ["finetuned", "family_b-m0", "toy_nli", "provenance", "dev_metrics",
                              "toy_nli"], "x",
                 "finetuned.family_b-m0.toy_nli.provenance.dev_metrics.toy_nli must be a finite "
                 'number, got "x"'), "predict"),
    (index_value("finetune", ["finetuned", "family_b-m0", "toy_nli", "provenance", "dev_metrics"],
                 [], "finetuned.family_b-m0.toy_nli.provenance.dev_metrics must be a mapping, "
                 "got []"), "predict"),
    (index_value("predict", ["predictions", "toy_nli", "family_a-m0", "file"], 3,
                 "predictions.toy_nli.family_a-m0.file must be a file name, got 3"), "ensemble"),
    (index_value("ensemble", ["ensembles", "toy_qa", "file"], None,
                 "ensembles.toy_qa.file must be a file name, got null"), "rank"),
    (index_value("ensemble", ["ensembles", "toy_qa", "file"], MISSING,
                 "'ensembles.toy_qa.file'", error="KeyError"), "rank"),
    (index_value("rank", ["rankings", "toy_qa", "file"], MISSING,
                 "'rankings.toy_qa.file'", error="KeyError"), "evaluate"),
    (index_value("split", ["datasets", "toy_nli", "task_kind"], 3,
                 "datasets.toy_nli.task_kind must be a string, got 3"), "train"),
    (index_value("split", ["folds"], "x", 'folds must be a list, got "x"'), "train"),
    (index_value("split", ["datasets", "toy_nli", "splits"], ["x"],
                 'datasets.toy_nli.splits must be a mapping, got ["x"]'), "train"),
    (index_value("split", ["datasets", "toy_nli", "head_group"], ["x"],
                 'datasets.toy_nli.head_group must be a string, got ["x"]'), "train"),
    (index_value("ensemble", ["inputs"], ["predict"],
                 'inputs must be a mapping, got ["predict"]'), "rank"),
    (index_value("ensemble", ["inputs", "../predict"], "x",
                 "an index must be a mapping whose inputs are by stage name"), "rank"),
    (index_value("predict", ["predictions", "toy_nli"], ["family_a-m0"],
                 'predictions.toy_nli must be a mapping, got ["family_a-m0"]'), "ensemble"),
    (index_value("train", ["members"], ["family_a-m0"],
                 'members must be a mapping, got ["family_a-m0"]'), "finetune"),
    (index_value("finetune", ["finetuned", "family_a-m0"], ["toy_nli"],
                 'finetuned.family_a-m0 must be a mapping, got ["toy_nli"]'), "predict"),
    (predict_lists("toy_x"), "ensemble"),
    (predict_lists("toy_nli_ext"), "ensemble"),
    (fold_listed_twice, "train"),
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
