"""Any valid corpus gives outputs that pass the benchmark's output checks,
and any invalid one fails with a stage-tagged error. Each case edits a copy
of the seed-7 toy corpus, then runs the whole pipeline on it."""
import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

from mixtask import cli
from mixtask.pipeline import PipelineConfig, PipelineStageError, run_pipeline

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
KIND_FORMS = "expected 'regression' or 'classification:<classes>'"


def check_outputs(cfg, out_dir):
    """perfbench's output checks, loaded from their file without editing it."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.check_outputs(cfg, out_dir)


def edit_records(corpus, filename, edit):
    """Rewrite one corpus file with edit(records), which changes the list in place."""
    path = corpus / filename
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"
                            for rec in records), encoding="utf-8")


def gold_rank_not_a_permutation(corpus):
    """The first relevance group of a toy_qa eval question gets ranks 1 and 9."""
    def edit(records):
        key = (records[0]["question_id"], records[0]["gold_relevance"])
        group = [r for r in records if (r["question_id"], r["gold_relevance"]) == key]
        for rec, rank in zip(group, (1, 9)):
            rec["gold_rank"] = rank
    edit_records(corpus, "toy_qa__eval.jsonl", edit)


def dev_tail_reuses_a_train_id(corpus):
    """The last toy_qa dev sample, which stays in dev, takes a train sample's id."""
    train_id = json.loads((corpus / "toy_qa__train.jsonl").read_text().splitlines()[0])["id"]
    edit_records(corpus, "toy_qa__dev.jsonl", lambda records: records[-1].update(id=train_id))


def empty_external_train_file(corpus):
    (corpus / "toy_nli_ext__train.jsonl").write_text("")


def manifest_without_section_header(corpus):
    path = corpus / "manifest.ini"
    path.write_text(path.read_text().replace("[toy_nli]\n", "", 1))


def manifest_names_a_missing_file(corpus):
    path = corpus / "manifest.ini"
    path.write_text(path.read_text().replace("toy_pages__train.jsonl", "missing.jsonl"))


def label_not_a_number(corpus):
    edit_records(corpus, "toy_rqe__train.jsonl", lambda records: records[0].update(label=[1]))


def field_value(filename, line, key, value):
    """An edit that sets key to value on one line of a corpus file. It
    returns the path:line error that ingest must give."""
    def edit(corpus):
        edit_records(corpus, filename, lambda records: records[line - 1].update({key: value}))
        shown = re.escape(json.dumps(value))
        kind = "a finite number" if key == "target_score" else "an integer"
        return rf"{re.escape(str(corpus / filename))}:{line}: {key} must be {kind}, got {shown}$"
    edit.__name__ = f"{key}_{json.dumps(value)}"
    return edit


def manifest_value(key, value, message):
    """An edit that sets key to value in the manifest's [toy_rqe] section. It
    returns the error ingest must give: the manifest's path, the section,
    then message."""
    def edit(corpus):
        path = corpus / "manifest.ini"
        text = path.read_text()
        start = text.index("[toy_rqe]")
        end = text.index("\n[", start)
        section = re.sub(rf"^{key} = .*$", f"{key} = {value}", text[start:end], flags=re.M)
        path.write_text(text[:start] + section + text[end:])
        return re.escape(f"manifest {path}: section [toy_rqe] {message}") + "$"
    edit.__name__ = f"manifest_{key}_{value}"
    return edit


def same_ids_in_two_datasets(corpus):
    """toy_rqe's eval samples take toy_nli's eval ids, and toy_pages' train
    samples take toy_qa's train ids, which share its head group."""
    for source, target in (("toy_nli__eval.jsonl", "toy_rqe__eval.jsonl"),
                           ("toy_qa__train.jsonl", "toy_pages__train.jsonl")):
        ids = [json.loads(line)["id"] for line in (corpus / source).read_text().splitlines()]

        def edit(records, ids=ids):
            for rec, sample_id in zip(records, ids):
                rec["id"] = sample_id
        edit_records(corpus, target, edit)


def incomplete_nli_triple(corpus):
    edit_records(corpus, "toy_nli__eval.jsonl", lambda records: records.pop(0))


def premise_group_of_four(corpus):
    """The first sample of the second toy_nli eval triple joins the first triple."""
    def edit(records):
        records[3]["premise_group"] = records[0]["premise_group"]
    edit_records(corpus, "toy_nli__eval.jsonl", edit)


def equal_eval_texts(corpus):
    def edit(records):
        records[1].update(text_a=records[0]["text_a"], text_b=records[0]["text_b"])
    edit_records(corpus, "toy_rqe__eval.jsonl", edit)


def empty_rqe_dev(corpus):
    """toy_rqe keeps its train and eval splits but has no dev samples."""
    (corpus / "toy_rqe__dev.jsonl").write_text("")


def non_ascii_text(corpus):
    for filename in ("toy_rqe__eval.jsonl", "toy_qa__eval.jsonl"):
        def edit(records):
            for rec in records:
                rec["text_a"] += " naïve café 中文"
        edit_records(corpus, filename, edit)


@pytest.mark.parametrize("edit, stage", [
    (gold_rank_not_a_permutation, "transform"),
    (dev_tail_reuses_a_train_id, "split"),
    (empty_external_train_file, "schedule"),
    (manifest_without_section_header, "ingest"),
    (manifest_names_a_missing_file, "ingest"),
    (label_not_a_number, "ingest"),
    (field_value("toy_rqe__train.jsonl", 1, "label", 1.7), "ingest"),
    (field_value("toy_rqe__train.jsonl", 2, "label", True), "ingest"),
    (field_value("toy_qa__eval.jsonl", 1, "gold_relevance", 3.9), "ingest"),
    (field_value("toy_qa__dev.jsonl", 3, "gold_rank", 1.5), "ingest"),
    (field_value("toy_pages__train.jsonl", 3, "target_score", float("nan")), "ingest"),
    (field_value("toy_qa__dev.jsonl", 1, "target_score", float("inf")), "ingest"),
    (field_value("toy_pages__train.jsonl", 2, "target_score", True), "ingest"),
    (manifest_value("task_kind", "classification:abc",
                    f"task_kind 'classification:abc': {KIND_FORMS}"), "ingest"),
    (manifest_value("task_kind", "classification:1",
                    "task_kind 'classification:1': classification requires num_classes >= 2"),
     "ingest"),
    (manifest_value("task_kind", "regresion", f"task_kind 'regresion': {KIND_FORMS}"), "ingest"),
    (manifest_value("role", "externall", "role must be in_domain or external, got 'externall'"),
     "ingest"),
    pytest.param(empty_rqe_dev, "train",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    (same_ids_in_two_datasets, None),
    (incomplete_nli_triple, None),
    (premise_group_of_four, None),
    (equal_eval_texts, None),
    (non_ascii_text, None),
], ids=lambda value: getattr(value, "__name__", None))
def test_an_edited_corpus_gives_checked_outputs_or_a_tagged_error(toy_corpus_dir, tmp_path,
                                                                  edit, stage):
    corpus, out = tmp_path / "corpus", tmp_path / "run"
    shutil.copytree(toy_corpus_dir, corpus)
    message = edit(corpus) or ""
    cfg = PipelineConfig.from_file(corpus / "config.yaml")
    if stage is None:
        run_pipeline(cfg, out, quiet=True)
        assert check_outputs(cfg, out) == []
    else:
        with pytest.raises(PipelineStageError, match=rf"^\[{stage}\] {message}"):
            run_pipeline(cfg, out, quiet=True)


def test_cli_run_on_an_invalid_corpus_exits_1_with_the_stage_tag(toy_corpus_dir, tmp_path,
                                                                 capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(toy_corpus_dir, corpus)
    gold_rank_not_a_permutation(corpus)
    args = ["run", "--quiet", "--config", str(corpus / "config.yaml"), "--out", str(tmp_path / "run")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("[transform] ")
