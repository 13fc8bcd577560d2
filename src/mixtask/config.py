"""Run configuration: the one module that knows which keys a config file has.

The published recipe: 20 multi-task epochs at 5e-5 with mixture ratio 0.5,
then 6 per-task fine-tuning epochs at 5e-6; batch size 16 for the first
source family and 40 for the second; per-task member thresholds
(MEMBER_THRESHOLDS); 5-fold cross validation for the answer-ranking task; 2
negatives per positive for page-grouped QA corpora, split 27,391 / 2,936;
dev reshuffle takes the last 25 questions from each side.

The key tables below declare each section's keys once; any other key fails
parsing. A key the file leaves out (or sets to null) keeps the field default
of MixtureConfig, TrainConfig, SourceSpec, SourceEntry or PipelineConfig.
So a config sets the second family's batch size of 40 on that source, and
the thresholds under `thresholds`: a task with no entry keeps every member
whose dev metric is above 0.0.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import yaml

from .featurize import SourceSpec
from .scheduler import MixtureConfig
from .seeding import derive_seed
from .training import TrainConfig

# Member-selection thresholds: keep models whose dev accuracy (percent) is
# strictly above these.
MEMBER_THRESHOLDS = {"mednli": 87.7, "rqe": 83.5, "qa": 83.0}
CV_FOLDS = 5
NEGATIVES_PER_POSITIVE = 2
DEV_RESHUFFLE_QUESTIONS = 25
DEV_RESHUFFLE_TAGGED_QUESTIONS = 25


@dataclass
class SourceEntry:
    spec: SourceSpec
    members: int = 1
    batch_size: Optional[int] = None


@dataclass
class PipelineConfig:
    """Parsed and validated run configuration; raw is the file's own mapping."""

    master_seed: int
    manifest_path: Path
    mixture: MixtureConfig
    train: TrainConfig
    sources: list[SourceEntry]
    raw: dict
    transforms: dict[str, list[str]] = field(default_factory=dict)
    negatives_per_positive: int = NEGATIVES_PER_POSITIVE
    split_recipes: dict[str, str] = field(default_factory=dict)
    random_split_counts: dict[str, dict] = field(default_factory=dict)
    reshuffle_dev_questions: int = DEV_RESHUFFLE_QUESTIONS
    reshuffle_tagged_questions: int = DEV_RESHUFFLE_TAGGED_QUESTIONS
    reshuffle_tag: str = "alexa"
    cv_enabled: bool = False
    cv_task: str = ""
    cv_folds: int = CV_FOLDS
    cv_finetune_members: bool = True
    thresholds: dict[str, float] = field(default_factory=dict)
    ranking_tasks: list[str] = field(default_factory=list)
    constrained_triple_tasks: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len({s.spec.name for s in self.sources}) != len(self.sources):
            raise ValueError("source names must be unique")
        if len({s.spec.featurizer_seed for s in self.sources}) != len(self.sources):
            raise ValueError("distinct sources require distinct featurizer seeds")
        if self.cv_enabled and self.cv_folds < 2:
            raise ValueError("cv fold count must be >= 2")
        if self.cv_enabled and not self.cv_task:
            raise ValueError("cv requires a task name")

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "PipelineConfig":
        """Parse a config mapping. Raises ValueError on a missing required
        key, an unknown key or an invalid value."""
        settings = _section("config", _TOP_KEYS, raw)
        for section in ("negatives", "reshuffle", "cv"):
            settings.update(settings.pop(section, {}))
        for key, what in (("master_seed", "master_seed"), ("manifest_path", "a manifest path")):
            if key not in settings:
                raise ValueError(f"config requires {what}")
        if not settings.get("sources"):
            raise ValueError("config requires at least one source family")
        # an absolute manifest path replaces base_dir
        manifest = settings["manifest_path"] = (base_dir or Path(".")) / settings["manifest_path"]
        if not manifest.exists():
            raise FileNotFoundError(f"manifest not found: {manifest}")
        mixture = _built("mixture", MixtureConfig, seed=settings["master_seed"],
                         **settings.pop("mixture", {}))
        train = _built("train", TrainConfig, mixture=mixture, **settings.pop("train", {}))
        return cls(mixture=mixture, train=train, raw=raw, **settings)

    def batch_size_for_source(self, entry: SourceEntry) -> int:
        return entry.batch_size if entry.batch_size is not None else self.mixture.batch_size

    def member_plan(self) -> list[dict]:
        """Deterministic member roster: base members, then CV fold members."""
        plan = [{"member_id": f"{entry.spec.name}-m{i}", "source": entry, "fold": None}
                for entry in self.sources for i in range(entry.members)]
        if self.cv_enabled:
            plan += [{"member_id": f"{entry.spec.name}-cv{j}", "source": entry, "fold": j}
                     for entry in self.sources for j in range(self.cv_folds)]
        return plan

    def member_sources(self) -> list[SourceSpec]:
        """The sources the member plan trains on, each once, in plan order."""
        return list(dict.fromkeys(member["source"].spec for member in self.member_plan()))

    def member_train_config(self, member: dict) -> TrainConfig:
        """The shared training config with the member's batch size and run seed."""
        seed = derive_seed(self.master_seed, "train", member["member_id"])
        batch_size = self.batch_size_for_source(member["source"])
        return replace(self.train, mixture=replace(self.mixture, batch_size=batch_size, seed=seed))


_KINDS = {dict: "a mapping", list: "a list", str: "a string", bool: "true or false"}


def _typed(kind: type, section: str, value, items: Optional[type] = None):
    """value, when it is a kind whose items (if given) are all items: list()
    would split a string into characters, and bool() reads "false" as true."""
    if not isinstance(value, kind):
        raise ValueError(f"{section} must be {_KINDS[kind]}, not {type(value).__name__}")
    for i, item in enumerate(value if items else ()):
        _typed(items, f"{section}[{i}]", item)
    return list(value) if items else value


def _section(section: str, keys: dict[str, tuple[str, Callable]], value) -> dict:
    """The fields one section sets. keys maps each key the section may have
    to the field it sets and its converter."""
    for key in _typed(dict, section, value):
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {section}")
    try:
        return {keys[key][0]: keys[key][1](item) for key, item in value.items() if item is not None}
    except (OverflowError, TypeError) as exc:  # int() of an infinite float, a list or a mapping
        raise ValueError(f"{section}: {exc}") from None


def _keys(section: str, prefix: str = "", **converters: Callable) -> Callable[[object], dict]:
    """Converter of a section whose keys set the fields named prefix + key."""
    keys = {key: (prefix + key, convert) for key, convert in converters.items()}
    return partial(_section, section, keys)


def _by_name(section: str, convert: Callable) -> Callable[[object], dict]:
    """Converter of a section keyed by dataset or task names, which the stage
    that reads it checks; convert takes an entry's section name and value."""
    return lambda value: {name: convert(f"{section}.{name}", item)
                          for name, item in _typed(dict, section, value).items()}


def _at_least(least: int, key: str) -> Callable[[object], int]:
    """Converter of an integer key that must be >= least."""
    def convert(value) -> int:
        if int(value) < least:
            raise ValueError(f"{key} must be >= {least}, not {value}")
        return int(value)
    return convert


def _built(section: str, cls: type, **settings):
    """cls(**settings), whose ValueError names the config section."""
    try:
        return cls(**settings)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


def _source(i: int, value) -> SourceEntry:
    settings = _keys(f"sources[{i}]", name=str, featurizer_seed=int, dim=int,
                     members=_at_least(0, f"sources[{i}].members"), batch_size=int)(value)
    if "name" not in settings:
        raise ValueError(f"sources[{i}] requires a name")
    settings.setdefault("featurizer_seed", derive_seed(0, "source", settings["name"]))
    entry = {f.name: settings.pop(f.name) for f in fields(SourceEntry) if f.name in settings}
    return SourceEntry(_built(f"sources[{i}]", SourceSpec, **settings), **entry)


_TOP_KEYS = {
    "master_seed": ("master_seed", int),
    "manifest": ("manifest_path", Path),
    "mixture": ("mixture", _keys("mixture", alpha=float, max_epoch=int, batch_size=int)),
    "train": ("train", _keys("train", lr_multitask=float, lr_finetune=float, epochs_finetune=int,
                             hidden_dim=_at_least(1, "train.hidden_dim"))),
    "sources": ("sources", lambda value: [
        _source(i, entry) for i, entry in enumerate(_typed(list, "sources", value))]),
    "transforms": ("transforms", _by_name("transforms", partial(_typed, list, items=str))),
    "negatives": ("negatives", _keys("negatives", "negatives_", per_positive=int)),
    "splits": ("split_recipes", _by_name("splits", partial(_typed, str))),
    "random_split": ("random_split_counts", _by_name(
        "random_split", lambda section, counts: _keys(section, eval_count=int)(counts))),
    "reshuffle": ("reshuffle", _keys("reshuffle", "reshuffle_",
                                     dev_questions=_at_least(0, "reshuffle.dev_questions"),
                                     tagged_questions=_at_least(0, "reshuffle.tagged_questions"),
                                     tag=str)),
    "cv": ("cv", _keys("cv", "cv_", enabled=partial(_typed, bool, "cv.enabled"), task=str,
                       folds=int, finetune_members=partial(_typed, bool, "cv.finetune_members"))),
    "thresholds": ("thresholds", _by_name("thresholds", lambda _, value: float(value))),
    "ranking": ("ranking_tasks", partial(_typed, list, "ranking", items=str)),
    "constrained_triples": ("constrained_triple_tasks",
                            partial(_typed, list, "constrained_triples", items=str)),
}
