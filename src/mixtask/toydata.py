"""Bundled toy corpus generator.

Produces small synthetic text-pair datasets shaped like the four supported
task families (three-class inference triples, binary question entailment,
relevance-ranked answers, page-grouped positives), plus an external
inference set, a dataset manifest, and a ready-to-run pipeline config.

The texts are built from topic word pools so that a hashed-n-gram linear
model can actually learn each task: class-marker words for classification,
and question/answer word overlap proportional to relevance for the ranking
tasks.

Words are drawn through `_pick` and `_draw`, whose numpy calls consume the
same random stream and return the same words as `rng.choice(<word list>, ...)`
does, only faster; a seed's corpus bytes do not depend on which of the two
forms draws them.
"""
from __future__ import annotations

from pathlib import Path

from .data import Dataset, SamplePair, TaskKind, save_samples
from .seeding import derive_rng, derive_seed

_FILLER = "the a of and to in for on with about regarding".split()
_QUESTION_WORDS = "what how why when which does can should".split()
_AFFIRM = "indeed correct true confirmed certainly".split()
_HEDGE = "possibly sometimes elsewhere additionally perhaps".split()
_NEGATE = "not never false wrong contradicts".split()
_QUALITY = "detailed clear thorough precise sourced helpful".split()
_VAGUE = "vague partial unclear offtopic rambling incomplete".split()

N_TOPICS = 24
_TOPIC_WORDS = [[f"t{i:02d}term{j}" for j in range(6)] for i in range(N_TOPICS)]


def _pick(rng, pool: list[str], k: int) -> list[str]:
    """k distinct words of `pool`, drawn without replacement.

    Draws the indices with `rng.choice(len(pool), size=k, replace=False)`,
    whose random stream and result equal those of
    `rng.choice(pool, size=k, replace=False)` at a fraction of its cost.
    For k = 0 it returns [] without a call; that choice draws nothing either.
    """
    if k == 0:
        return []
    return [pool[i] for i in rng.choice(len(pool), size=k, replace=False).tolist()]


def _draw(rng, pool: list[str], k: int) -> list[str]:
    """k words of `pool`, drawn with replacement.

    Makes k scalar `rng.integers(0, len(pool))` calls, whose random stream
    and result equal those of `rng.choice(pool, size=k)` at a fraction of
    its cost.
    """
    n = len(pool)
    return [pool[rng.integers(0, n)] for _ in range(k)]


def _sentence(rng, topic: int, extra: list[str], n_topic: int = 3, n_filler: int = 2) -> str:
    words = _pick(rng, _TOPIC_WORDS[topic], min(n_topic, 6))
    words += _draw(rng, _FILLER, n_filler)
    words += extra
    rng.shuffle(words)
    return " ".join(words)


def make_nli(name: str, n_triples: int, role: str, seed: int) -> Dataset:
    """Premise triples: each premise pairs with one hypothesis per class
    (0 entail, 1 neutral, 2 contradiction), class-marker words on the
    hypothesis side."""
    rng = derive_rng(seed, "toy-nli", name)
    markers = [_AFFIRM, _HEDGE, _NEGATE]
    samples = []
    for t in range(n_triples):
        topic = int(rng.integers(0, N_TOPICS))
        premise = _sentence(rng, topic, [])
        group = f"{name}-g{t:04d}"
        order = rng.permutation(3)
        for slot, label in enumerate(int(c) for c in order):
            extra = _pick(rng, markers[label], 2)
            hypothesis = _sentence(rng, topic, extra, n_topic=2)
            samples.append(
                SamplePair(
                    id=f"{name}-{t:04d}-{slot}",
                    text_a=premise,
                    text_b=hypothesis,
                    label=label,
                    premise_group=group,
                )
            )
    return Dataset(name=name, task_kind=TaskKind.parse("classification:3"), role=role,
                   head_group="nli", samples=samples)


def make_rqe(name: str, n_pairs: int, seed: int) -> Dataset:
    """Binary question entailment: positives share a topic, negatives do not."""
    rng = derive_rng(seed, "toy-rqe", name)
    samples = []
    for i in range(n_pairs):
        label = int(rng.integers(0, 2))
        topic = int(rng.integers(0, N_TOPICS))
        q_words = _draw(rng, _QUESTION_WORDS, 2)
        premise = _sentence(rng, topic, q_words, n_topic=4)
        if label == 1:
            hypothesis = _sentence(rng, topic, _draw(rng, _QUESTION_WORDS, 1), n_topic=4)
        else:
            other = int((topic + 1 + rng.integers(0, N_TOPICS - 1)) % N_TOPICS)
            hypothesis = _sentence(rng, other, _draw(rng, _QUESTION_WORDS, 1), n_topic=4)
        samples.append(SamplePair(id=f"{name}-{i:04d}", text_a=premise, text_b=hypothesis, label=label))
    return Dataset(name=name, task_kind=TaskKind.parse("classification:2"), role="in_domain",
                   head_group="rqe", samples=samples)


def make_qa(
    name: str,
    n_questions: int,
    answers_per_question: int,
    seed: int,
    tags: list[str] | None = None,
) -> Dataset:
    """Relevance-ranked answers: answer text overlaps its question's topic in
    proportion to relevance (1..4) and carries quality/vague markers.

    target_score placeholders are relevance - 2; the pipeline rescores them
    from (relevance, rank, group size). tags cycles source_tag values over
    questions.
    """
    rng = derive_rng(seed, "toy-qa", name)
    samples = []
    for q in range(n_questions):
        topic = int(rng.integers(0, N_TOPICS))
        question_id = f"{name}-q{q:04d}"
        tag = tags[q % len(tags)] if tags else None
        question = _sentence(rng, topic, _draw(rng, _QUESTION_WORDS, 2))
        relevances = [4] + [int(rng.integers(1, 5)) for _ in range(answers_per_question - 1)]
        by_level: dict[int, list[int]] = {}
        for a, rel in enumerate(relevances):
            by_level.setdefault(rel, []).append(a)
        ranks = {}
        for rel, members in by_level.items():
            for rank, idx in enumerate(rng.permutation(len(members)), start=1):
                ranks[members[int(idx)]] = rank
        for a, rel in enumerate(relevances):
            markers = _pick(rng, _QUALITY, rel - 1) + _pick(rng, _VAGUE, 4 - rel)
            answer = _sentence(rng, topic, markers, n_topic=rel, n_filler=3)
            samples.append(
                SamplePair(
                    id=f"{question_id}-a{a}",
                    text_a=answer,
                    text_b=question,
                    target_score=float(rel - 2),
                    question_id=question_id,
                    gold_relevance=rel,
                    gold_rank=ranks[a],
                    source_tag=tag,
                )
            )
    return Dataset(name=name, task_kind=TaskKind.parse("regression"), role="in_domain",
                   head_group="qa_rank", samples=samples)


def make_pages(name: str, n_pages: int, answers_per_page: int, seed: int) -> Dataset:
    """Page-grouped positive pairs: each page covers one topic, each answer one
    aspect; question and its gold answer share aspect words."""
    rng = derive_rng(seed, "toy-pages", name)
    samples = []
    for p in range(n_pages):
        topic = int(rng.integers(0, N_TOPICS))
        page_id = f"{name}-p{p:04d}"
        for a in range(answers_per_page):
            aspect = [f"t{topic:02d}a{a}w{k}" for k in range(3)]
            question = _sentence(rng, topic, aspect[:2] + _draw(rng, _QUESTION_WORDS, 1), n_topic=1)
            answer = _sentence(rng, topic, aspect + _draw(rng, _QUALITY, 1), n_topic=1, n_filler=3)
            samples.append(
                SamplePair(
                    id=f"{page_id}-a{a}",
                    text_a=answer,
                    text_b=question,
                    target_score=1.0,
                    page_id=page_id,
                )
            )
    return Dataset(name=name, task_kind=TaskKind.parse("regression"), role="in_domain",
                   head_group="qa_rank", samples=samples)


TOY_MANIFEST = """\
[toy_nli]
task_kind = classification:3
role = in_domain
head_group = nli
path = toy_nli__train.jsonl
dev_path = toy_nli__dev.jsonl
eval_path = toy_nli__eval.jsonl

[toy_nli_ext]
task_kind = classification:3
role = external
head_group = nli
path = toy_nli_ext__train.jsonl

[toy_rqe]
task_kind = classification:2
role = in_domain
head_group = rqe
path = toy_rqe__train.jsonl
dev_path = toy_rqe__dev.jsonl
eval_path = toy_rqe__eval.jsonl

[toy_qa]
task_kind = regression
role = in_domain
head_group = qa_rank
path = toy_qa__train.jsonl
dev_path = toy_qa__dev.jsonl
eval_path = toy_qa__eval.jsonl

[toy_pages]
task_kind = regression
role = in_domain
head_group = qa_rank
path = toy_pages__train.jsonl
"""

TOY_CONFIG = """\
master_seed: {seed}
manifest: manifest.ini

mixture:
  alpha: 0.5
  max_epoch: 12
  batch_size: 16

train:
  lr_multitask: 0.01
  lr_finetune: 0.001
  epochs_finetune: 4
  hidden_dim: 24

sources:
  - name: family_a
    featurizer_seed: 101
    dim: 192
    members: 1
    batch_size: 16
  - name: family_b
    featurizer_seed: 202
    dim: 192
    members: 1
    batch_size: 20

transforms:
  toy_qa: [rescore_relevance]
  toy_pages: [sample_negatives]

negatives:
  per_positive: 2

splits:
  toy_nli: merge_dev
  toy_rqe: shuffle_half_eval
  toy_qa: reshuffle_dev
  toy_pages: random_split

random_split:
  toy_pages:
    eval_count: 72

reshuffle:
  dev_questions: 25
  tagged_questions: 25
  tag: alexa

cv:
  enabled: true
  task: toy_qa
  folds: 5

thresholds:
  toy_nli: 40.0
  toy_rqe: 40.0
  toy_qa: 40.0
  toy_pages: 40.0

ranking:
  - toy_qa

constrained_triples:
  - toy_nli
"""


def write_toy_corpus(out_dir: str | Path, seed: int = 7) -> Path:
    """Write the toy datasets, manifest, and pipeline config; returns the
    config path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def sub(tag: str) -> int:
        return derive_seed(seed, "toy-corpus", tag)

    datasets = {
        "toy_nli__train": make_nli("toy_nli", 60, "in_domain", sub("nli-train")),
        "toy_nli__dev": make_nli("toy_nli_d", 15, "in_domain", sub("nli-dev")),
        "toy_nli__eval": make_nli("toy_nli_e", 15, "in_domain", sub("nli-eval")),
        "toy_nli_ext__train": make_nli("toy_nli_ext", 40, "external", sub("nli-ext")),
        "toy_rqe__train": make_rqe("toy_rqe", 240, sub("rqe-train")),
        "toy_rqe__dev": make_rqe("toy_rqe_d", 80, sub("rqe-dev")),
        "toy_rqe__eval": make_rqe("toy_rqe_e", 60, sub("rqe-eval")),
        "toy_qa__train": make_qa("toy_qa", 45, 4, sub("qa-train"), tags=["alexa", "live", "alexa"]),
        "toy_qa__dev": make_qa("toy_qa_d", 27, 4, sub("qa-dev"), tags=["live"]),
        "toy_qa__eval": make_qa("toy_qa_e", 10, 4, sub("qa-eval"), tags=["live"]),
        "toy_pages__train": make_pages("toy_pages", 30, 4, sub("pages")),
    }
    for stem, dataset in datasets.items():
        save_samples(dataset.samples, out / f"{stem}.jsonl")
    (out / "manifest.ini").write_text(TOY_MANIFEST, encoding="utf-8")
    config_path = out / "config.yaml"
    config_path.write_text(TOY_CONFIG.format(seed=seed), encoding="utf-8")
    return config_path
