import json

import pytest

from mixtask.data import (
    Dataset,
    DatasetFormatError,
    SamplePair,
    TaskKind,
    load_dataset,
    read_manifest,
    save_samples,
)

from conftest import make_pairs


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def test_load_four_line_classification_fixture(tmp_path):
    records = [
        {"id": f"r{i}", "text_a": f"premise {i}", "text_b": f"hypothesis {i}", "label": i % 2}
        for i in range(4)
    ]
    write_jsonl(tmp_path / "d.jsonl", records)
    ds = load_dataset(tmp_path / "d.jsonl", "fix", TaskKind.parse("classification:2"))
    assert len(ds) == 4
    assert ds.task_kind.is_classification and ds.task_kind.num_classes == 2
    assert ds.sample_ids == ["r0", "r1", "r2", "r3"]  # file order preserved


def test_duplicate_id_error_names_the_id(tmp_path):
    records = [
        {"id": "dup", "text_a": "a", "text_b": "b", "label": 0},
        {"id": "dup", "text_a": "c", "text_b": "d", "label": 1},
    ]
    write_jsonl(tmp_path / "d.jsonl", records)
    with pytest.raises(DatasetFormatError, match="dup"):
        load_dataset(tmp_path / "d.jsonl", "fix", TaskKind.parse("classification:2"))


def test_empty_file_is_a_valid_empty_dataset(tmp_path):
    (tmp_path / "d.jsonl").write_text("", encoding="utf-8")
    ds = load_dataset(tmp_path / "d.jsonl", "fix", TaskKind.parse("classification:2"))
    assert len(ds) == 0


def test_malformed_record_reports_line_number(tmp_path):
    (tmp_path / "d.jsonl").write_text(
        '{"id": "a", "text_a": "x", "text_b": "y", "label": 0}\nnot json\n', encoding="utf-8"
    )
    with pytest.raises(DatasetFormatError, match=":2"):
        load_dataset(tmp_path / "d.jsonl", "fix", TaskKind.parse("classification:2"))


def test_missing_key_reports_line_number(tmp_path):
    write_jsonl(tmp_path / "d.jsonl", [{"id": "a", "text_a": "x", "label": 0}])
    with pytest.raises(DatasetFormatError, match=":1"):
        load_dataset(tmp_path / "d.jsonl", "fix", TaskKind.parse("classification:2"))


def test_label_task_mismatch_rejected(tmp_path):
    write_jsonl(
        tmp_path / "d.jsonl",
        [{"id": "a", "text_a": "x", "text_b": "y", "target_score": 1.5}],
    )
    with pytest.raises(DatasetFormatError, match="label"):
        load_dataset(tmp_path / "d.jsonl", "fix", TaskKind.parse("classification:2"))


def test_label_out_of_range_rejected():
    with pytest.raises(DatasetFormatError, match="out of range"):
        Dataset(
            name="fix",
            task_kind=TaskKind.parse("classification:2"),
            samples=[SamplePair(id="a", text_a="x", text_b="y", label=2)],
        )


def test_both_supervision_fields_rejected():
    with pytest.raises(DatasetFormatError, match="exactly one"):
        Dataset(
            name="fix",
            task_kind=TaskKind.parse("classification:2"),
            samples=[SamplePair(id="a", text_a="x", text_b="y", label=0, target_score=1.0)],
        )


def test_gold_rank_unique_within_relevance_group():
    pairs = [
        SamplePair(id="a", text_a="x", text_b="y", target_score=1.0,
                   question_id="q1", gold_relevance=3, gold_rank=1),
        SamplePair(id="b", text_a="x2", text_b="y", target_score=1.0,
                   question_id="q1", gold_relevance=3, gold_rank=1),
    ]
    with pytest.raises(DatasetFormatError, match="gold_rank"):
        Dataset(name="fix", task_kind=TaskKind.parse("regression"), samples=pairs)
    # same rank under a different relevance level is fine
    pairs[1].gold_relevance = 2
    Dataset(name="fix", task_kind=TaskKind.parse("regression"), samples=pairs)


def test_samples_round_trip(tmp_path):
    pairs = make_pairs(6, "regression", seed=3, question_id=lambda i: f"q{i % 2}")
    save_samples(pairs, tmp_path / "out.jsonl")
    ds = load_dataset(tmp_path / "out.jsonl", "fix", TaskKind.parse("regression"))
    assert [s.to_record() for s in ds] == [s.to_record() for s in pairs]


def test_manifest_parses_sections_and_resolves_paths(tmp_path):
    write_jsonl(tmp_path / "train.jsonl", [{"id": "a", "text_a": "x", "text_b": "y", "label": 0}])
    write_jsonl(tmp_path / "dev.jsonl", [{"id": "b", "text_a": "x", "text_b": "y", "label": 1}])
    (tmp_path / "m.ini").write_text(
        "[taskx]\n"
        "task_kind = classification:2\n"
        "role = in_domain\n"
        "head_group = shared\n"
        "path = train.jsonl\n"
        "dev_path = dev.jsonl\n"
        "recipe = merge_dev\n",  # splits come from the pipeline config; ignored here
        encoding="utf-8",
    )
    entries = read_manifest(tmp_path / "m.ini")
    assert len(entries) == 1
    e = entries[0]
    assert e.name == "taskx"
    assert e.head_group == "shared"
    assert e.task_kind == TaskKind.parse("classification:2")
    assert e.path.endswith("train.jsonl") and e.dev_path.endswith("dev.jsonl")


def test_manifest_missing_key_rejected(tmp_path):
    (tmp_path / "m.ini").write_text("[x]\nrole = in_domain\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="task_kind"):
        read_manifest(tmp_path / "m.ini")
