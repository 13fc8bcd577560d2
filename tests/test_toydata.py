"""The toy generators' word draws. `_pick` and `_draw` must return the words
that the `rng.choice(<word list>, ...)` call each one stands for returns, and
leave the generator where that call leaves it, so that a seed's corpus bytes
do not depend on which of the two draws them."""
import hashlib

import numpy as np
import pytest

from mixtask.toydata import (
    _AFFIRM, _FILLER, _HEDGE, _NEGATE, _QUALITY, _QUESTION_WORDS, _TOPIC_WORDS, _VAGUE,
    _draw, _pick, write_toy_corpus,
)

SEEDS = range(200)

# sha256 over the seed-7 toy corpus files' names and bytes, in name order.
SEED_7_DIGEST = "71e0f559ed034e9dcf79103098c38fc73957fd26dc9f708f721bed1b0e0846ce"


def assert_same_stream(draw, reference):
    """For every seed, draw(rng) returns what reference(rng) returns from a
    generator in the same state, and both generators' next draws agree."""
    for seed in SEEDS:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert draw(ours) == reference(theirs), f"seed {seed}"
        assert ours.integers(0, 2**40) == theirs.integers(0, 2**40), f"seed {seed}"


# Every other (pool, k) the generators pick without replacement: two class
# markers per hypothesis, and rel - 1 quality or 4 - rel vague words per QA
# answer.
PICKS = (
    [(name, pool, 2) for name, pool in (("affirm", _AFFIRM), ("hedge", _HEDGE),
                                        ("negate", _NEGATE))]
    + [(name, pool, k) for name, pool in (("quality", _QUALITY), ("vague", _VAGUE))
       for k in (1, 2, 3)]
)

# Every (pool, k) they draw with replacement: fillers per sentence, question
# words per RQE premise and QA question, and one quality word per page answer.
DRAWS = [("filler", _FILLER, 2), ("filler", _FILLER, 3), ("question", _QUESTION_WORDS, 1),
         ("question", _QUESTION_WORDS, 2), ("quality", _QUALITY, 1)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pick_of_topic_words_is_choice_without_replacement(k):
    """Sentences pick n_topic = 1..4 words of one topic's pool."""
    for pool in _TOPIC_WORDS:
        assert_same_stream(lambda rng: _pick(rng, pool, k),
                           lambda rng: list(rng.choice(pool, size=k, replace=False)))


@pytest.mark.parametrize("name, pool, k", PICKS, ids=[f"{n}-{k}" for n, _, k in PICKS])
def test_pick_is_choice_without_replacement(name, pool, k):
    assert_same_stream(lambda rng: _pick(rng, pool, k),
                       lambda rng: list(rng.choice(pool, size=k, replace=False)))


@pytest.mark.parametrize("name, pool, k", DRAWS, ids=[f"{n}-{k}" for n, _, k in DRAWS])
def test_draw_is_choice_with_replacement(name, pool, k):
    assert_same_stream(lambda rng: _draw(rng, pool, k),
                       lambda rng: list(rng.choice(pool, size=k)))


def test_one_drawn_question_word_is_the_scalar_choice():
    assert_same_stream(lambda rng: _draw(rng, _QUESTION_WORDS, 1),
                       lambda rng: [str(rng.choice(_QUESTION_WORDS))])


@pytest.mark.parametrize("rel", [1, 2, 3, 4])
def test_qa_answer_markers_draw_nothing_for_an_empty_side(rel):
    """An answer of relevance 1 draws no quality word and one of relevance 4
    no vague word; neither side may then touch the generator."""
    def reference(rng):
        good = list(rng.choice(_QUALITY, size=rel - 1, replace=False)) if rel > 1 else []
        bad = list(rng.choice(_VAGUE, size=4 - rel, replace=False)) if rel < 4 else []
        return good + bad

    assert_same_stream(lambda rng: _pick(rng, _QUALITY, rel - 1) + _pick(rng, _VAGUE, 4 - rel),
                       reference)


def test_seed_7_toy_corpus_keeps_its_bytes(tmp_path):
    """The shipped seed-7 corpus, manifest and config hash to the digest they
    had when every draw was an `rng.choice` call. A change here changes every
    toy run's artifacts and the benchmark's corpus."""
    write_toy_corpus(tmp_path, seed=7)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SEED_7_DIGEST
