"""Core data model and file ingestion.

Datasets are collections of text pairs, each carrying either a class label
(classification tasks) or a real-valued target score (regression / ranking
tasks). Files are JSON-Lines, one sample per line; a plain-text manifest
(INI sections) declares the datasets of a run. A record's label,
gold_relevance and gold_rank must be integers (a bool or a fraction fails)
and its target_score a finite number (a bool fails).

This module also holds the one codec for every artifact the pipeline
writes: JSON-Lines records (`write_jsonl`, `read_jsonl`) and indented JSON
documents (`write_json`, `decode_json`), both with sorted keys. The JSON-Lines
reader reads a file whole and decodes each line with one `raw_decode`; a
line that fails it, or holds more than one value, goes through `json.loads`,
so every malformed line fails with the message `json.loads` gives.
`check_shape` checks a decoded JSON document against a declared shape.

`save_samples` is the one writer of dataset files: it formats each sample's
line itself, as the JSON-Lines encoder would, and writes the file in one
call. Given a mapping from the sha256 of a dataset file's bytes to samples,
`save_samples` adds the samples it wrote under the sha256 of their bytes
when decoding those bytes would give equal samples, type for type, and
`load_dataset` takes the samples of the bytes it reads from the mapping
instead of decoding them. The samples of a hit are shared with every other
reader of that mapping; without one, each call returns samples of its own.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional


class DatasetFormatError(ValueError):
    """Raised when a dataset or artifact file or record violates the documented schema."""


CLASSIFICATION = "classification"
REGRESSION = "regression"
ROLES = ("in_domain", "external")

# Optional per-sample metadata keys accepted in JSONL records.
_OPTIONAL_KEYS = (
    "question_id",
    "page_id",
    "premise_group",
    "gold_relevance",
    "gold_rank",
    "source_tag",
)


_RELEVANCE = (None, 1, 2, 3, 4)  # the gold_relevance values a record may hold


def integer_field(key: str) -> Callable:
    """The converter of an integer field: an int, an integral float or a
    string of digits passes; a bool or a number with a fraction fails."""
    def convert(value):
        if type(value) is int:
            return value
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
        return int(value)
    return convert


def is_finite_number(value) -> bool:
    """Whether a decoded JSON value is a number that converts to a finite
    float: an int or a float, never a bool or a numeric string."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# The leaves of a shape besides str and int: (what a value must be, its test).
# A file name names a file below the directory of the index that lists it:
# names joined by "/" (split's `folds/<file>`), none of them empty, "." or "..".
NATURAL = ("an int >= 0", lambda value: type(value) is int and value >= 0)
POSITIVE = ("an int >= 1", lambda value: type(value) is int and value >= 1)
FINITE = ("a finite number", is_finite_number)
FILE_NAME = ("a file name", lambda value: type(value) is str
             and all(part not in ("", ".", "..") for part in value.split("/")))
ANY = ("any value", lambda value: True)
_KINDS = {str: ("a string", lambda value: type(value) is str),
          int: ("an int", lambda value: type(value) is int),
          dict: ("a mapping", lambda value: type(value) is dict),
          list: ("a list", lambda value: type(value) is list)}


def check_shape(value, shape, path: str = "") -> None:
    """Check a decoded JSON value against a shape, a nested literal of:
    `{str: s}`, a mapping of any keys to values of shape s; any other dict, a
    record with exactly its keys; `[s]`, a list of s; and leaves: str, int
    and the pairs above. Raises ValueError naming the dotted path of the
    first value that does not fit, or key the shape lacks, and KeyError
    naming the path of the first key the value lacks."""
    kind, fits = _KINDS[type(shape)] if type(shape) in (dict, list) else _KINDS.get(shape, shape)
    if not fits(value):
        raise ValueError(f"{path or 'the value'} must be {kind}, got {json.dumps(value)}")
    prefix, items = f"{path}." if path else "", []
    if type(shape) is list:
        items = [(str(i), item, shape[0]) for i, item in enumerate(value)]
    elif type(shape) is dict and list(shape) == [str]:
        items = [(key, item, shape[str]) for key, item in value.items()]
    elif type(shape) is dict:
        unknown = sorted(value.keys() - shape.keys())
        if unknown:
            raise ValueError(f"unknown key {prefix}{unknown[0]}")
        missing = [key for key in shape if key not in value]
        if missing:
            raise KeyError(prefix + missing[0])
        items = [(key, value[key], shape[key]) for key in shape]
    for key, item, item_shape in items:
        check_shape(item, item_shape, prefix + key)


def _finite_score(value) -> float:
    score = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(score):
        raise ValueError(f"target_score must be a finite number, got {json.dumps(value)}")
    return score


# Every optional key of a record with its converter, in the order
# _parse_record converts them: the first bad value names the error.
_CONVERTERS = (("label", integer_field("label")), ("target_score", _finite_score)) + tuple(
    (key, integer_field(key) if key in ("gold_relevance", "gold_rank") else str)
    for key in _OPTIONAL_KEYS
)


@dataclass(frozen=True)
class TaskKind:
    """Task family of a dataset: classification over C classes, or regression."""

    kind: str
    num_classes: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task kind: {self.kind!r}")
        if self.kind == CLASSIFICATION:
            if self.num_classes is None or self.num_classes < 2:
                raise ValueError("classification requires num_classes >= 2")
        elif self.num_classes is not None:
            raise ValueError("regression takes no num_classes")

    @property
    def is_classification(self) -> bool:
        return self.kind == CLASSIFICATION

    @classmethod
    def parse(cls, text: str) -> "TaskKind":
        """Parse "classification:<classes>" or "regression"."""
        text = text.strip()
        if text == REGRESSION:
            return cls(REGRESSION)
        kind, _, classes = text.partition(":")
        if kind != CLASSIFICATION or not classes.isdigit():
            raise ValueError("expected 'regression' or 'classification:<classes>'")
        return cls(CLASSIFICATION, int(classes))

    def __str__(self) -> str:
        if self.is_classification:
            return f"{CLASSIFICATION}:{self.num_classes}"
        return REGRESSION


@dataclass
class SamplePair:
    """One text pair with its supervision signal.

    text_a is the premise / answer side, text_b the hypothesis / question
    side. Exactly one of label / target_score is set, matching the owning
    dataset's task kind. gold_relevance (1..4) and gold_rank carry ranking
    ground truth for answer-ranking tasks; gold_rank is unique within each
    (question_id, gold_relevance) group.
    """

    id: str
    text_a: str
    text_b: str
    label: Optional[int] = None
    target_score: Optional[float] = None
    question_id: Optional[str] = None
    page_id: Optional[str] = None
    premise_group: Optional[str] = None
    gold_relevance: Optional[int] = None
    gold_rank: Optional[int] = None
    source_tag: Optional[str] = None

    def copy(self, **changes) -> "SamplePair":
        return replace(self, **changes)


@dataclass
class Dataset:
    """A named, ordered collection of sample pairs for one task."""

    name: str
    task_kind: TaskKind
    role: str = "in_domain"  # in_domain | external
    head_group: str = ""
    samples: list[SamplePair] = field(default_factory=list)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"role must be in_domain or external, got {self.role!r}")
        if not self.head_group:
            self.head_group = self.name
        self.validate()

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def sample_ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def validate(self) -> None:
        """Check id uniqueness, label/task agreement, and gold_rank uniqueness."""
        seen: set[str] = set()
        rank_seen: set[tuple] = set()
        for s in self.samples:
            if s.id in seen:
                raise DatasetFormatError(f"dataset {self.name!r}: duplicate sample id {s.id!r}")
            seen.add(s.id)
            self._check_supervision(s)
            if s.gold_rank is not None:
                key = (s.question_id, s.gold_relevance, s.gold_rank)
                if key in rank_seen:
                    raise DatasetFormatError(
                        f"dataset {self.name!r}: duplicate gold_rank {s.gold_rank} in "
                        f"question {s.question_id!r} relevance group {s.gold_relevance}"
                    )
                rank_seen.add(key)

    def _check_supervision(self, s: SamplePair) -> None:
        if (s.label is None) == (s.target_score is None):
            raise DatasetFormatError(
                f"sample {s.id!r}: exactly one of label / target_score must be set"
            )
        if self.task_kind.is_classification:
            if s.label is None:
                raise DatasetFormatError(
                    f"sample {s.id!r}: classification dataset {self.name!r} requires a label"
                )
            if not (0 <= s.label < self.task_kind.num_classes):
                raise DatasetFormatError(
                    f"sample {s.id!r}: label {s.label} out of range for "
                    f"{self.task_kind.num_classes} classes"
                )
        elif s.target_score is None:
            raise DatasetFormatError(
                f"sample {s.id!r}: regression dataset {self.name!r} requires target_score"
            )

    def with_samples(self, samples: Iterable[SamplePair]) -> "Dataset":
        """New dataset with the same task metadata and the given samples."""
        return Dataset(
            name=self.name,
            task_kind=self.task_kind,
            role=self.role,
            head_group=self.head_group,
            samples=list(samples),
        )


# -- artifact codec --------------------------------------------------------------


# One encoder for every JSON-Lines record; json.dumps(rec, sort_keys=True)
# writes the same text but builds an encoder per call.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_JSONL_ENCODER.encode(rec) + "\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSON-Lines file.

    Raises DatasetFormatError naming path:line for invalid JSON or a line
    that is not a JSON object, and OSError when the file cannot be read.
    """
    path = Path(path)
    yield from _jsonl_records(path.read_bytes(), path)


_RAW_DECODE = json.JSONDecoder().raw_decode


def _jsonl_records(raw: bytes, path: Path) -> Iterator[tuple[int, dict]]:
    """read_jsonl over a file's bytes. A line ends where it would in a
    text-mode file: at LF, CRLF or a lone CR."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        # decode chunk by chunk, as a text-mode file does, so that the lines
        # before the bad byte's chunk are parsed first and the error names the
        # byte's position within its chunk
        lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    else:
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _RAW_DECODE(line)
        except json.JSONDecodeError:
            end = -1
        if end != len(line):  # invalid, BOM-led, or more than one value
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"{path}:{line_no}: record must be a JSON object")
        yield line_no, obj


def write_json(path: str | Path, obj) -> None:
    """Write obj as indented sorted-key JSON under a temporary name, then
    rename it into place, so a reader never sees a half-written file."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(obj, sort_keys=True, indent=2), encoding="utf-8")
    os.replace(partial, path)


def decode_json(raw: bytes):
    """A JSON document from the bytes of a file; ValueError when they are
    not valid UTF-8 JSON."""
    return json.loads(raw.decode("utf-8"))


def _parse_record(obj: dict, line_no: int, path: str) -> SamplePair:
    get = obj.get
    try:
        sample = SamplePair(
            str(obj["id"]), str(obj["text_a"]), str(obj["text_b"]),
            **{key: convert(value) for key, convert in _CONVERTERS
               if (value := get(key)) is not None},
        )
    except KeyError as exc:
        raise DatasetFormatError(f"{path}:{line_no}: missing required key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}:{line_no}: {exc}") from None
    if sample.gold_relevance not in _RELEVANCE:
        raise DatasetFormatError(
            f"{path}:{line_no}: gold_relevance must be in 1..4, got {sample.gold_relevance}"
        )
    if sample.gold_rank is not None and sample.gold_rank < 1:
        raise DatasetFormatError(f"{path}:{line_no}: gold_rank must be positive")
    return sample


def _decode_samples(raw: bytes, path: str | Path) -> list[SamplePair]:
    """The samples of a dataset file's bytes, in file order."""
    where = str(path)
    return [_parse_record(obj, line_no, where) for line_no, obj in _jsonl_records(raw, Path(path))]


def load_dataset(
    path: str | Path,
    name: str,
    task_kind: TaskKind,
    role: str = "in_domain",
    head_group: str = "",
    written: Optional[dict[bytes, tuple[SamplePair, ...]]] = None,
) -> Dataset:
    """Load a dataset from a JSON-Lines file, preserving file order.

    Raises DatasetFormatError on malformed records (with line number),
    duplicate ids, or label/task mismatches. Given the samples `save_samples`
    wrote, by the sha256 of their bytes, the file's bytes are decoded only
    when they are not among them; a hit's samples are shared. The Dataset is
    new and validated under this call's task kind either way.
    """
    raw = Path(path).read_bytes()
    samples = written.get(hashlib.sha256(raw).digest()) if written else None
    if samples is None:
        samples = _decode_samples(raw, path)
    return Dataset(name=name, task_kind=task_kind, role=role, head_group=head_group,
                   samples=list(samples))


# The type _parse_record gives each key's value; every other key's is str.
_DECODED_TYPES = {"label": int, "target_score": float, "gold_relevance": int, "gold_rank": int}
# Each SamplePair field as (key, its text up to the value, its decoded type),
# in the order sort_keys writes the keys.
_SAMPLE_LAYOUT = tuple((key, f'"{key}": ', _DECODED_TYPES.get(key, str))
                       for key in sorted(f.name for f in fields(SamplePair)))
_REQUIRED_KEYS = ("id", "text_a", "text_b")


def _encode_samples(samples: Iterable[SamplePair]) -> tuple[bytes, bool]:
    """The JSON-Lines bytes of samples, each line the text `_JSONL_ENCODER`
    gives for the mapping of the sample's id, texts and every other field
    that is not None, and whether decoding those bytes gives equal samples,
    type for type.

    An exact str, int or finite float is formatted as that encoder formats it
    (encode_basestring_ascii, int.__repr__, float.__repr__); any other value
    goes through the encoder itself, and makes the bytes inexact, as does a
    value of another type than _parse_record returns for its key or one it
    refuses.
    """
    lines, exact = [], True
    for sample in samples:
        values = sample.__dict__
        items = []
        for key, head, decoded_type in _SAMPLE_LAYOUT:
            value = values[key]
            if value is None and key not in _REQUIRED_KEYS:
                continue
            kind = type(value)
            if kind is str:
                items.append(head + encode_basestring_ascii(value))
            elif kind is int or kind is float and math.isfinite(value):
                items.append(head + repr(value))
            else:
                items.append(head + _JSONL_ENCODER.encode(value))
                exact = False
                continue
            if kind is not decoded_type:
                exact = False
        lines.append("{" + ", ".join(items) + "}\n")
        if exact:
            rank = values["gold_rank"]
            exact = (type(sample) is SamplePair and values["gold_relevance"] in _RELEVANCE
                     and (rank is None or rank >= 1))
    return "".join(lines).encode("ascii"), exact


def save_samples(samples: Iterable[SamplePair], path: str | Path,
                 written: Optional[dict[bytes, tuple[SamplePair, ...]]] = None) -> None:
    """Write the samples as JSON-Lines, in one write, creating the parent
    directory: each line is, as `write_jsonl` writes a record, the mapping of
    the sample's id, texts and every other field that is not None.

    Given a mapping, the samples are added to it under the sha256 of the
    bytes written, unless decoding those bytes would not give equal samples,
    type for type: a value of another type than a decode gives (a bool
    label, an int score, a numeric string, a numpy scalar) or one the
    decoder refuses.
    """
    samples = tuple(samples)
    raw, exact = _encode_samples(samples)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw)
    if written is not None and exact:
        written[hashlib.sha256(raw).digest()] = samples


@dataclass
class ManifestEntry:
    """One dataset declaration from a manifest file."""

    name: str
    task_kind: TaskKind
    role: str
    head_group: str
    path: str
    dev_path: Optional[str] = None
    eval_path: Optional[str] = None


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Parse a dataset manifest: one INI section per dataset.

    Required keys per section: task_kind, role, path. Optional: head_group
    (the section name when absent), dev_path, eval_path. Relative paths
    resolve against the manifest's directory; other keys are ignored. A
    missing or invalid value fails naming the manifest and the section, and
    so does a section name holding "/", since it becomes part of file names.
    """
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise DatasetFormatError(f"manifest {path}: {exc}") from None
    if not read:
        raise DatasetFormatError(f"manifest not found: {path}")
    base = path.parent
    entries = []
    for section in parser.sections():
        sec = parser[section]
        where = f"manifest {path}: section [{section}]"
        if "/" in section:
            raise DatasetFormatError(f"{where} name must hold no '/'")
        for key in ("task_kind", "role", "path"):
            if key not in sec:
                raise DatasetFormatError(f"{where} missing {key!r}")
        try:
            task_kind = TaskKind.parse(sec["task_kind"])
        except ValueError as exc:
            kind = sec["task_kind"].strip()
            raise DatasetFormatError(f"{where} task_kind {kind!r}: {exc}") from None
        role = sec["role"].strip()
        if role not in ROLES:
            raise DatasetFormatError(f"{where} role must be in_domain or external, got {role!r}")

        def resolve(value: Optional[str]) -> Optional[str]:
            if value is None:
                return None
            p = Path(value)
            return str(p if p.is_absolute() else base / p)

        entries.append(
            ManifestEntry(
                name=section,
                task_kind=task_kind,
                role=role,
                head_group=sec.get("head_group", section).strip(),
                path=resolve(sec["path"].strip()),
                dev_path=resolve(sec.get("dev_path", "").strip() or None),
                eval_path=resolve(sec.get("eval_path", "").strip() or None),
            )
        )
    return entries


def load_manifest_datasets(path: str | Path) -> dict[str, dict[str, Dataset]]:
    """Load every dataset referenced by a manifest.

    Returns {dataset_name: {"train": Dataset, "dev": Dataset?, "eval": Dataset?}}.
    """
    bundles: dict[str, dict[str, Dataset]] = {}
    for entry in read_manifest(path):
        meta = (entry.name, entry.task_kind, entry.role, entry.head_group)
        bundle = {"train": load_dataset(entry.path, *meta)}
        if entry.dev_path:
            bundle["dev"] = load_dataset(entry.dev_path, *meta)
        if entry.eval_path:
            bundle["eval"] = load_dataset(entry.eval_path, *meta)
        bundles[entry.name] = bundle
    return bundles
