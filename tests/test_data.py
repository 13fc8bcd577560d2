import json
import re
from dataclasses import dataclass

import numpy as np
import pytest

from mixtask import data
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
from reference import record


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
    assert [record(s) for s in ds] == [record(s) for s in pairs]


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


def test_manifest_head_group_defaults_to_the_section_name(tmp_path):
    (tmp_path / "m.ini").write_text(
        "[taskx]\ntask_kind = regression\nrole = external\npath = train.jsonl\n",
        encoding="utf-8",
    )
    (entry,) = read_manifest(tmp_path / "m.ini")
    assert entry.head_group == "taskx" and entry.role == "external"


def test_manifest_missing_key_rejected(tmp_path):
    (tmp_path / "m.ini").write_text("[x]\nrole = in_domain\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="task_kind"):
        read_manifest(tmp_path / "m.ini")


# -- artifact codec ----------------------------------------------------------------


def test_jsonl_reader_skips_blank_lines_and_numbers_every_line(tmp_path):
    (tmp_path / "r.jsonl").write_text('{"a": 1}\n\n   \n{"b": 2}\n', encoding="utf-8")
    assert list(data.read_jsonl(tmp_path / "r.jsonl")) == [(1, {"a": 1}), (4, {"b": 2})]


@pytest.mark.parametrize("line, problem", [
    ('{"a": 1', r"invalid JSON \("),
    ("[1, 2]", "record must be a JSON object"),
    ('"text"', "record must be a JSON object"),
])
def test_jsonl_reader_names_path_and_line(tmp_path, line, problem):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\n\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:3: {problem}"):
        list(data.read_jsonl(path))


def test_jsonl_writer_writes_one_sorted_dump_per_record(tmp_path):
    records = [{"b": 1, "a": [0.1, None, 1e-300]}, {"z": "\u00e9", "y": {"d": 2, "c": 1}}, {}]
    path = tmp_path / "new_dir" / "w.jsonl"
    data.write_jsonl(path, iter(records))
    expected = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    assert path.read_bytes() == expected.encode("utf-8")
    assert [rec for _, rec in data.read_jsonl(path)] == records


def test_jsonl_writer_lines_equal_json_dumps(tmp_path):
    """The writer's one shared encoder gives each record's json.dumps line."""
    records = [
        {"text_a": "caf\u00e9 \u6f22\u5b57 \U0001f600", "\u00fc": "key not ASCII", "id": "x"},
        {"small": [5e-324, 1e-300, -0.0, 2.5e-17], "large": [1.7976931348623157e308, 1e21, -3e250]},
        {"b": [{"z": 1, "a": [{"y": None, "x": True}]}, [[], {}]], "a": {"d": {"c": [1, "two"]}}},
    ]
    path = tmp_path / "w.jsonl"
    data.write_jsonl(path, records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(rec, sort_keys=True) for rec in records]


def test_json_writer_renames_a_whole_file_into_place(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("an older document", encoding="utf-8")
    doc = {"b": [1, 2.5], "a": None}
    data.write_json(path, doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True, indent=2)
    assert data.decode_json(path.read_bytes()) == doc
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def _reference_read_jsonl(path):
    """The line-by-line json.loads reader the codec's decoder must match."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DatasetFormatError(f"{path}:{line_no}: record must be a JSON object")
            yield line_no, obj


def _outcome(read):
    """("ok", the records as canonical JSON, NaN included) or (error type, message)."""
    try:
        return "ok", json.dumps(read(), sort_keys=True)
    except (DatasetFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


_SAMPLE = '{"id": "s%d", "target_score": 0.5, "text_a": "premise %d", "text_b": "question"}'
_FILLER = "".join(_SAMPLE % (i, i) + "\n" for i in range(200)).encode("utf-8")  # > 8 KiB


@pytest.mark.parametrize("content", [
    pytest.param(b'{"id": "s0", "text_a": "x", "text_b": "y", "target_score": 0.5\n',
                 id="truncated-object"),
    pytest.param(b'{"a": 1} x\n', id="trailing-text"),
    pytest.param((_SAMPLE % (0, 0) + " " + _SAMPLE % (1, 1) + "\n").encode(), id="two-objects"),
    pytest.param(b"\xef\xbb\xbf" + (_SAMPLE % (0, 0) + "\n").encode(), id="bom-led-line"),
    pytest.param(b"[1]\n", id="array"),
    pytest.param(b"\n  \n\t\n" + (_SAMPLE % (0, 0) + "\n \n").encode() + b"\x0c\n",
                 id="whitespace-only-lines"),
    pytest.param((_SAMPLE % (0, 0) + "\r\n" + _SAMPLE % (1, 1) + "\r\n").encode(), id="crlf"),
    pytest.param((_SAMPLE % (0, 0) + "\r" + _SAMPLE % (1, 1)).encode(), id="lone-cr"),
    pytest.param(b'{"id": "s0", "text_a": "x", "text_b": "y", "target_score": NaN}\n',
                 id="nan-score"),
    pytest.param(_FILLER + b'{"id": "bad \xff"}\n', id="invalid-utf8-after-first-chunk"),
    pytest.param(b"not json\n" + _FILLER + b"\xff\n", id="invalid-json-before-invalid-utf8"),
    pytest.param(b'{"id": "\xe2\x82"}\n', id="invalid-utf8-in-first-chunk"),
])
def test_decoder_matches_the_json_loads_reader(tmp_path, content):
    """read_jsonl and load_dataset, with and without a mapping, give the records
    and the path:line errors of a line-by-line json.loads reader. The reader
    decodes a NaN score as json.loads does, and load_dataset refuses it."""
    path = tmp_path / "d.jsonl"
    path.write_bytes(content)
    expected = _outcome(lambda: [rec for _, rec in _reference_read_jsonl(path)])
    assert _outcome(lambda: [rec for _, rec in data.read_jsonl(path)]) == expected
    assert _outcome(lambda: list(data.read_jsonl(path))) == _outcome(
        lambda: list(_reference_read_jsonl(path)))
    if b"NaN" in content:
        expected = "DatasetFormatError", f"{path}:1: target_score must be a finite number, got NaN"
    kind = TaskKind.parse("regression")
    for written in (None, {}):
        loaded = _outcome(lambda: [record(s) for s in load_dataset(path, "fix", kind,
                                                                   written=written)])
        assert loaded == expected
        assert not written  # a load adds nothing to the mapping


def test_a_copy_keeps_the_subclass_and_refuses_an_unknown_field():
    @dataclass
    class Noted(SamplePair):
        note: str = ""

    sample = Noted("s0", "a", "b", label=1, note="kept")
    copy = sample.copy(label=0, gold_rank=2)
    assert type(copy) is Noted and copy is not sample
    assert copy == Noted("s0", "a", "b", label=0, gold_rank=2, note="kept")
    assert sample == Noted("s0", "a", "b", label=1, note="kept")
    with pytest.raises(TypeError, match="labl"):
        sample.copy(labl=0)


# Every optional key, with non-ASCII text and a rank beyond 64 bits.
_EVERY_KEY = dict(question_id="q-é", page_id="p1", premise_group="g1", gold_relevance=4,
                  gold_rank=2**70, source_tag="alexa")


def test_sample_writer_lines_equal_json_dumps(tmp_path):
    """save_samples formats each line itself; each is the record's json.dumps
    line, whatever the value (a bool label, a numpy score, a numeric string)."""
    samples = [
        SamplePair("s0", "café 漢字 \U0001f600", "lone \ud800 and \udfff", label=1,
                   **_EVERY_KEY),
        SamplePair("s1", 'tab\t "quote" back\\slash\n\r \x00 \x7f  ', "", target_score=-0.0),
        SamplePair("s2", "x", "y", target_score=5e-324),
        SamplePair("s3", "x", "y", target_score=1e308),
        SamplePair("s4", "x", "y", target_score=-1.7976931348623157e308, gold_rank=1),
        SamplePair("s5", "x", "y", label=2**70),
        SamplePair("s6", "x", "y", label=True),
        SamplePair("s7", "x", "y", target_score=float("nan")),
        SamplePair("s8", "x", "y", target_score=np.float64(0.1), question_id=7),
        SamplePair("s9", "x", "y", label="1", gold_relevance=1.0),
    ]
    path = tmp_path / "new_dir" / "d.jsonl"
    save_samples(iter(samples), path)
    expected = "".join(json.dumps(record(s), sort_keys=True) + "\n" for s in samples)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("kind, changes", [
    ("classification:2", {}),
    ("regression", {**_EVERY_KEY, "gold_rank": 1}),
    ("classification:2", {"label": "1"}),
    ("classification:2", {"label": True}),
    ("classification:2", {"label": 1.0}),
    ("regression", {"target_score": "0.5"}),
    ("regression", {"target_score": 1}),
    ("regression", {"target_score": np.float64(0.5)}),
    ("regression", {"target_score": float("inf")}),
    ("regression", {"question_id": 7}),
    ("regression", {"gold_relevance": 5}),
    ("regression", {"gold_relevance": 2, "gold_rank": 0}),
    ("regression", {"gold_relevance": "2"}),
], ids=lambda value: value if isinstance(value, str) else repr(value))
def test_a_write_stores_its_samples_only_when_a_decode_would_give_them(tmp_path, monkeypatch,
                                                                       kind, changes):
    """Given a mapping, save_samples adds the samples under the sha256 of the
    bytes it wrote, so the next load decodes nothing, unless decoding those
    bytes would not give equal samples, type for type. Then it adds nothing,
    and the next load decodes, converting or refusing the value as a load
    without the mapping does."""
    task_kind = TaskKind.parse(kind)
    supervision = {"label": 0} if task_kind.is_classification else {"target_score": 0.5}
    samples = [SamplePair(f"s{i}", "x", f"y {i}", **supervision) for i in range(3)]
    samples[1] = samples[1].copy(**changes)
    decodes, real_decode = [], data._decode_samples

    def counting_decode(raw, where):
        decodes.append(where)
        return real_decode(raw, where)

    monkeypatch.setattr(data, "_decode_samples", counting_decode)
    written, path = {}, tmp_path / "d.jsonl"
    save_samples(samples, path, written=written)
    exact = changes in ({}, {**_EVERY_KEY, "gold_rank": 1})
    assert len(written) == exact
    records = lambda mapping: [record(s) for s in load_dataset(path, "fix", task_kind,
                                                               written=mapping)]
    expected = _outcome(lambda: records(None))
    decodes.clear()
    assert _outcome(lambda: records(written)) == expected
    assert len(decodes) == (not exact)
    if exact:
        assert expected == ("ok", json.dumps([record(s) for s in samples], sort_keys=True))


def test_a_write_copies_the_lines_it_holds_and_formats_only_the_rest(tmp_path, monkeypatch):
    """Given a LineSource filled by loads that hit, save_samples copies the
    line of every sample it holds, in any order and mixed with new samples
    and with those of other files, and writes the bytes a write without one
    writes. Given a Dataset, the mapping records its task kind."""
    two, regression = TaskKind.parse("classification:2"), TaskKind.parse("regression")
    written, lines = {}, data.LineSource()
    save_samples(Dataset("a", two, samples=[SamplePair(f"a{i}", "x", f"é {i}", label=i % 2)
                                            for i in range(6)]), tmp_path / "a.jsonl",
                 written=written)
    save_samples([SamplePair(f"b{i}", "y", "z", target_score=i / 3) for i in range(4)],
                 tmp_path / "b.jsonl", written=written)
    assert sorted(map(str, (entry.task_kind for entry in written.values()))) == [
        "None", "classification:2"]
    a = load_dataset(tmp_path / "a.jsonl", "a", two, written=written, lines=lines).samples
    b = load_dataset(tmp_path / "b.jsonl", "b", regression, written=written, lines=lines).samples
    new = [SamplePair("n0", "new", "row", label=1), SamplePair("n1", "new", "row", label=0)]
    formatted, real_encode = [], data._encode_samples

    def counting_encode(samples):
        formatted.append(len(samples))
        return real_encode(samples)

    monkeypatch.setattr(data, "_encode_samples", counting_encode)
    copied, fresh = tmp_path / "copied.jsonl", tmp_path / "fresh.jsonl"
    for mix in (a, a[2:5], a[::-1], b[1:] + a[:2] + new[:1] + a[4:] + new[1:] + b[:1], new, []):
        formatted.clear()
        save_samples(mix, copied, lines=lines)
        assert sum(formatted) == sum(s in new for s in mix)
        save_samples(mix, fresh)
        assert copied.read_bytes() == fresh.read_bytes()


SHAPE = {"name": str, "count": data.NATURAL, "files": {str: data.FILE_NAME},
         "scores": [data.FINITE], "extra": data.ANY}
FITS = {"name": "a", "count": 0, "files": {"x": "dir/x.npy"}, "scores": [1, 0.5], "extra": None}


@pytest.mark.parametrize("value, shape", [
    ({}, {str: int}),
    ({"a": 1, "b": -2}, {str: int}),
    ([], [str]),
    (["a", "b"], [str]),
    (FITS, SHAPE),
    ("", str),
    (-3, int),
    (0, data.NATURAL),
    (1, data.POSITIVE),
    (-1e308, data.FINITE),
    (2, data.FINITE),
    ("folds/f.jsonl", data.FILE_NAME),
    ({"any": [None]}, data.ANY),
])
def test_a_value_that_fits_its_shape_passes(value, shape):
    data.check_shape(value, shape)


@pytest.mark.parametrize("value, shape, message", [
    ([1], {str: int}, "the value must be a mapping, got [1]"),
    ({"a": 1, "b": "2"}, {str: int}, 'b must be an int, got "2"'),
    ({"a": 1}, [int], 'the value must be a list, got {"a": 1}'),
    ([1, True], [int], "1 must be an int, got true"),
    (1, str, "the value must be a string, got 1"),
    (True, int, "the value must be an int, got true"),
    (1.0, int, "the value must be an int, got 1.0"),
    (-1, data.NATURAL, "the value must be an int >= 0, got -1"),
    (0, data.POSITIVE, "the value must be an int >= 1, got 0"),
    (float("nan"), data.FINITE, "the value must be a finite number, got NaN"),
    (float("inf"), data.FINITE, "the value must be a finite number, got Infinity"),
    (False, data.FINITE, "the value must be a finite number, got false"),
    ("1", data.FINITE, 'the value must be a finite number, got "1"'),
    ("../x", data.FILE_NAME, 'the value must be a file name, got "../x"'),
    ("a//b", data.FILE_NAME, 'the value must be a file name, got "a//b"'),
    (["x"], data.FILE_NAME, 'the value must be a file name, got ["x"]'),
    ({**FITS, "count": "1"}, SHAPE, 'count must be an int >= 0, got "1"'),
    ({**FITS, "files": {"x": ".."}}, SHAPE, 'files.x must be a file name, got ".."'),
    ({**FITS, "scores": [1, None]}, SHAPE, "scores.1 must be a finite number, got null"),
    ({**FITS, "files": {"x": "x", "y": 2}}, SHAPE, "files.y must be a file name, got 2"),
    ({**FITS, "bogus": 1}, SHAPE, "unknown key bogus"),
    ({"outer": {**FITS, "z": 1, "y": 1}}, {"outer": SHAPE}, "unknown key outer.y"),
])
def test_a_value_that_does_not_fit_names_its_dotted_path(value, shape, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        data.check_shape(value, shape)


def test_a_missing_key_is_a_key_error_naming_its_dotted_path():
    value = {"outer": [{k: v for k, v in FITS.items() if k != "files"}]}
    with pytest.raises(KeyError, match=r"^'outer\.0\.files'$"):
        data.check_shape(value, {"outer": [SHAPE]})


@pytest.fixture(scope="module")
def run_without_cv_or_finetuning(toy_corpus_dir, tmp_path_factory):
    import yaml

    from mixtask.pipeline import PipelineConfig, run_pipeline

    out = tmp_path_factory.mktemp("nocv")
    raw = yaml.safe_load((toy_corpus_dir / "config.yaml").read_text())
    raw["manifest"] = str(toy_corpus_dir / "manifest.ini")
    raw["cv"] = {"enabled": False}
    raw["train"]["epochs_finetune"] = 0
    (out / "config.yaml").write_text(yaml.safe_dump(raw))
    return run_pipeline(PipelineConfig.from_file(out / "config.yaml"), out / "run", quiet=True)


@pytest.mark.parametrize("which", ["toy_run_dir", "run_without_cv_or_finetuning"])
def test_every_index_a_run_writes_fits_its_shape(request, which):
    """Each index a later stage reads fits the shape StageRun.index checks;
    no stage reads the schedule or evaluate index."""
    from mixtask.pipeline import INDEX_SHAPES, STAGES

    run = request.getfixturevalue(which)
    assert set(INDEX_SHAPES) == set(STAGES) - {"schedule", "evaluate"}
    for producer, shape in INDEX_SHAPES.items():
        data.check_shape(json.loads((run / producer / "index.json").read_text()), shape)
    if which == "run_without_cv_or_finetuning":
        assert json.loads((run / "finetune" / "index.json").read_text())["finetuned"] == {}
        assert json.loads((run / "split" / "index.json").read_text())["folds"] == []
