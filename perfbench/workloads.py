"""Benchmark workloads: their corpus writers, configs and stage sequences.

Every workload is built from the public toy generators (`toydata.make_*`)
and `toydata.TOY_MANIFEST`, with the counts and config keys below; nothing
here changes the library. See README.md for why each workload exists and
which layer metric should move which end-to-end metric on which workload.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from mixtask import toydata
from mixtask.data import save_samples
from mixtask.seeding import derive_seed

# Primary generator count per corpus file at toy size (triples, pairs,
# questions or pages), the same as `toydata.write_toy_corpus`.
TOY_COUNTS = {
    "toy_nli__train": 60,
    "toy_nli__dev": 15,
    "toy_nli__eval": 15,
    "toy_nli_ext__train": 40,
    "toy_rqe__train": 240,
    "toy_rqe__dev": 80,
    "toy_rqe__eval": 60,
    "toy_qa__train": 45,
    "toy_qa__dev": 27,
    "toy_qa__eval": 10,
    "toy_pages__train": 30,
}

# file stem -> (seed tag, generator(count, seed)); names, tags and fixed
# arguments mirror `toydata.write_toy_corpus`, so TOY_COUNTS reproduces the
# shipped toy corpus byte for byte. Generators are looked up on the module
# at call time, so the tracer's wrappers see these calls.
_GENERATORS = {
    "toy_nli__train": ("nli-train", lambda n, s: toydata.make_nli("toy_nli", n, "in_domain", s)),
    "toy_nli__dev": ("nli-dev", lambda n, s: toydata.make_nli("toy_nli_d", n, "in_domain", s)),
    "toy_nli__eval": ("nli-eval", lambda n, s: toydata.make_nli("toy_nli_e", n, "in_domain", s)),
    "toy_nli_ext__train": ("nli-ext", lambda n, s: toydata.make_nli("toy_nli_ext", n, "external", s)),
    "toy_rqe__train": ("rqe-train", lambda n, s: toydata.make_rqe("toy_rqe", n, s)),
    "toy_rqe__dev": ("rqe-dev", lambda n, s: toydata.make_rqe("toy_rqe_d", n, s)),
    "toy_rqe__eval": ("rqe-eval", lambda n, s: toydata.make_rqe("toy_rqe_e", n, s)),
    "toy_qa__train": (
        "qa-train",
        lambda n, s: toydata.make_qa("toy_qa", n, 4, s, tags=["alexa", "live", "alexa"]),
    ),
    "toy_qa__dev": ("qa-dev", lambda n, s: toydata.make_qa("toy_qa_d", n, 4, s, tags=["live"])),
    "toy_qa__eval": ("qa-eval", lambda n, s: toydata.make_qa("toy_qa_e", n, 4, s, tags=["live"])),
    "toy_pages__train": ("pages", lambda n, s: toydata.make_pages("toy_pages", n, 4, s)),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: corpus counts and config edits.

    `edits` maps dotted config paths (list items by index) to new values.
    A timed pass runs every stage once.
    """

    name: str
    counts: dict[str, int]
    edits: dict[str, object] = field(default_factory=dict)


def _scaled_train(factor: int, epochs: int, finetune_epochs: int) -> dict:
    # Split recipes carve dev/eval from the scaled inputs, so their counts
    # scale with the corpus to keep the toy proportions.
    return {
        "cv.enabled": False,
        "mixture.max_epoch": epochs,
        "train.epochs_finetune": finetune_epochs,
        "random_split.toy_pages.eval_count": 72 * factor,
        "reshuffle.dev_questions": 25 * factor,
        "reshuffle.tagged_questions": 25 * factor,
    }


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; `tiny` shrinks it to a seconds-long smoke size."""
    if name == "toy-full":
        edits = {"mixture.max_epoch": 1, "train.epochs_finetune": 1} if tiny else {}
        return Workload(name, dict(TOY_COUNTS), edits)
    if name == "scaled-train":
        factor = 2 if tiny else 4
        return Workload(
            name,
            {stem: n * factor for stem, n in TOY_COUNTS.items()},
            _scaled_train(factor, 1 if tiny else 2, 1),
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


WORKLOADS = ("toy-full", "scaled-train")


def apply_edits(raw: dict, edits: dict[str, object]) -> dict:
    """Copy of a config dict with dotted-path edits applied."""
    raw = copy.deepcopy(raw)
    for path, value in edits.items():
        keys = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return raw


def write_corpus(out_dir: Path, seed: int, spec: Workload) -> tuple[Path, dict[str, dict[str, int]]]:
    """Write the workload's datasets, the toy manifest and its config.

    Returns the config path and the rows written per dataset and split.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: dict[str, dict[str, int]] = {}
    for stem, count in spec.counts.items():
        tag, generate = _GENERATORS[stem]
        dataset = generate(count, derive_seed(seed, "toy-corpus", tag))
        save_samples(dataset.samples, out_dir / f"{stem}.jsonl")
        name, split = stem.split("__")
        rows.setdefault(name, {})[split] = len(dataset)
    (out_dir / "manifest.ini").write_text(toydata.TOY_MANIFEST, encoding="utf-8")
    raw = apply_edits(yaml.safe_load(toydata.TOY_CONFIG.format(seed=seed)), spec.edits)
    config_path = out_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
    return config_path, rows
