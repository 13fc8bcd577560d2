"""Core data model and file ingestion.

Datasets are collections of text pairs, each carrying either a class label
(classification tasks) or a real-valued target score (regression / ranking
tasks). Files are JSON-Lines, one sample per line; a plain-text manifest
(INI sections) declares the datasets of a run.
"""
from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional


class DatasetFormatError(ValueError):
    """Raised when a dataset file or record violates the documented schema."""


CLASSIFICATION = "classification"
REGRESSION = "regression"

# Optional per-sample metadata keys accepted in JSONL records.
_OPTIONAL_KEYS = (
    "question_id",
    "page_id",
    "premise_group",
    "gold_relevance",
    "gold_rank",
    "source_tag",
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
        """Parse "classification:3" or "regression"."""
        text = text.strip()
        if text == REGRESSION:
            return cls(REGRESSION)
        if text.startswith(CLASSIFICATION):
            _, _, c = text.partition(":")
            if not c:
                raise ValueError("classification kind needs a class count, e.g. classification:3")
            return cls(CLASSIFICATION, int(c))
        raise ValueError(f"cannot parse task kind {text!r}")

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

    def to_record(self) -> dict:
        rec = {"id": self.id, "text_a": self.text_a, "text_b": self.text_b}
        if self.label is not None:
            rec["label"] = self.label
        if self.target_score is not None:
            rec["target_score"] = self.target_score
        for key in _OPTIONAL_KEYS:
            value = getattr(self, key)
            if value is not None:
                rec[key] = value
        return rec

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
        if self.role not in ("in_domain", "external"):
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

    def with_samples(self, samples: Iterable[SamplePair], name: Optional[str] = None) -> "Dataset":
        """New dataset with the same task metadata and the given samples."""
        return Dataset(
            name=name or self.name,
            task_kind=self.task_kind,
            role=self.role,
            head_group=self.head_group,
            samples=list(samples),
        )


def _parse_record(obj: dict, line_no: int, path: str) -> SamplePair:
    try:
        sample = SamplePair(
            id=str(obj["id"]),
            text_a=str(obj["text_a"]),
            text_b=str(obj["text_b"]),
            label=None if obj.get("label") is None else int(obj["label"]),
            target_score=None if obj.get("target_score") is None else float(obj["target_score"]),
        )
    except KeyError as exc:
        raise DatasetFormatError(f"{path}:{line_no}: missing required key {exc}") from None
    for key in _OPTIONAL_KEYS:
        if obj.get(key) is not None:
            value = obj[key]
            if key in ("gold_relevance", "gold_rank"):
                value = int(value)
            else:
                value = str(value)
            setattr(sample, key, value)
    if sample.gold_relevance is not None and sample.gold_relevance not in (1, 2, 3, 4):
        raise DatasetFormatError(
            f"{path}:{line_no}: gold_relevance must be in 1..4, got {sample.gold_relevance}"
        )
    if sample.gold_rank is not None and sample.gold_rank < 1:
        raise DatasetFormatError(f"{path}:{line_no}: gold_rank must be positive")
    return sample


def load_samples(path: str | Path) -> list[SamplePair]:
    """Read a JSON-Lines sample file, reporting the line number of any bad record."""
    samples = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
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
            samples.append(_parse_record(obj, line_no, str(path)))
    return samples


def load_dataset(
    path: str | Path,
    name: str,
    task_kind: TaskKind,
    role: str = "in_domain",
    head_group: str = "",
) -> Dataset:
    """Load a dataset from a JSON-Lines file, preserving file order.

    Raises DatasetFormatError on malformed records (with line number),
    duplicate ids, or label/task mismatches.
    """
    samples = load_samples(path)
    return Dataset(name=name, task_kind=task_kind, role=role, head_group=head_group, samples=samples)


def save_samples(samples: Iterable[SamplePair], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(s.to_record(), sort_keys=True) + "\n")


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

    Required keys per section: task_kind, role, head_group, path.
    Optional: dev_path, eval_path. Relative paths resolve against the
    manifest's directory; other keys are ignored.
    """
    path = Path(path)
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise DatasetFormatError(f"manifest not found: {path}")
    base = path.parent
    entries = []
    for section in parser.sections():
        sec = parser[section]
        for key in ("task_kind", "role", "path"):
            if key not in sec:
                raise DatasetFormatError(f"manifest {path}: section [{section}] missing {key!r}")

        def resolve(value: Optional[str]) -> Optional[str]:
            if value is None:
                return None
            p = Path(value)
            return str(p if p.is_absolute() else base / p)

        entries.append(
            ManifestEntry(
                name=section,
                task_kind=TaskKind.parse(sec["task_kind"]),
                role=sec["role"].strip(),
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
        bundle = {
            "train": load_dataset(entry.path, entry.name, entry.task_kind, entry.role, entry.head_group)
        }
        if entry.dev_path:
            bundle["dev"] = load_dataset(
                entry.dev_path, entry.name, entry.task_kind, entry.role, entry.head_group
            )
        if entry.eval_path:
            bundle["eval"] = load_dataset(
                entry.eval_path, entry.name, entry.task_kind, entry.role, entry.head_group
            )
        bundles[entry.name] = bundle
    return bundles
