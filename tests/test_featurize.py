import hashlib
import importlib
import re

import numpy as np
import pytest

from mixtask.data import SamplePair
from mixtask.featurize import (
    CHUNK_ROWS,
    FeatureCache,
    N_STATS,
    SourceSpec,
    featurize,
    featurize_dataset,
    featurize_pairs,
)
from mixtask.toydata import make_nli, make_qa, make_rqe

from conftest import make_dataset

# The package re-exports the function `featurize` under its module's name.
featurize_module = importlib.import_module("mixtask.featurize")


# Reference featurizer: the original one-pair, one-token-at-a-time loop.
_REF_WORD = re.compile(r"[a-z0-9]+")


def _ref_words(text):
    return _REF_WORD.findall(text.lower())


def _ref_pair_tokens(text_a, text_b):
    a = _ref_words(text_a)
    b = _ref_words(text_b)
    tokens = [f"a:{w}" for w in a]
    tokens += [f"a:{u}_{v}" for u, v in zip(a, a[1:])]
    tokens += [f"b:{w}" for w in b]
    tokens += [f"b:{u}_{v}" for u, v in zip(b, b[1:])]
    tokens += [f"o:{w}" for w in sorted(set(a) & set(b))]
    return tokens


def reference_featurize(text_a, text_b, source):
    a_words = set(_ref_words(text_a))
    b_words = set(_ref_words(text_b))
    overlap = len(a_words & b_words)
    vec = np.zeros(source.dim, dtype=np.float64)
    vec[0] = np.tanh(overlap / 4.0)
    vec[1] = overlap / (1.0 + min(len(a_words), len(b_words)))
    key = int(source.featurizer_seed).to_bytes(8, "little", signed=False)
    n_buckets = source.dim - N_STATS
    bag = np.zeros(n_buckets, dtype=np.float64)
    for token in _ref_pair_tokens(text_a, text_b):
        digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        bag[(value >> 1) % n_buckets] += 1.0 if value & 1 else -1.0
    norm = float(np.linalg.norm(bag))
    if norm > 0:
        bag /= norm
    vec[N_STATS:] = bag
    return vec


def _toy_pairs():
    datasets = [make_nli("n", 40, "in_domain", 1), make_rqe("r", 60, 2), make_qa("q", 30, 5, 3)]
    pairs = [(s.text_a, s.text_b) for ds in datasets for s in ds]
    pairs += [("", ""), ("only one side", ""), ("Same WORDS here", "same words HERE")]
    return pairs


def random_texts(rng, n):
    vocab = [f"word{i}" for i in range(50)]
    pairs = []
    for _ in range(n):
        a = " ".join(rng.choice(vocab, size=8))
        b = " ".join(rng.choice(vocab, size=6))
        pairs.append((a, b))
    return pairs


def test_featurize_deterministic_and_shaped():
    src = SourceSpec("fam", 42, 64)
    v1 = featurize("alpha beta gamma", "beta delta", src)
    v2 = featurize("alpha beta gamma", "beta delta", src)
    assert v1.shape == (64,)
    assert np.array_equal(v1, v2)
    assert np.all(np.isfinite(v1))


def test_sources_differ_on_fixture_corpus():
    rng = np.random.default_rng(0)
    a = SourceSpec("fam_a", 1, 96)
    b = SourceSpec("fam_b", 2, 96)
    differing = 0
    for text_a, text_b in random_texts(rng, 100):
        va = featurize(text_a, text_b, a)
        vb = featurize(text_a, text_b, b)
        # overlap statistics are source-independent, the hashed bag is not
        assert np.array_equal(va[:N_STATS], vb[:N_STATS])
        if not np.array_equal(va[N_STATS:], vb[N_STATS:]):
            differing += 1
    assert differing == 100


def test_overlap_statistics_reflect_shared_words():
    src = SourceSpec("fam", 3, 32)
    none = featurize("aaa bbb", "ccc ddd", src)
    some = featurize("aaa bbb ccc", "ccc bbb eee", src)
    assert none[0] == 0.0 and none[1] == 0.0
    assert some[0] > 0 and some[1] > 0


def test_hashed_bag_is_unit_norm():
    src = SourceSpec("fam", 3, 48)
    vec = featurize("one two three", "four five", src)
    assert abs(np.linalg.norm(vec[N_STATS:]) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [3, 256])
@pytest.mark.parametrize("seed", [101, 202])
def test_featurize_pairs_matches_reference_bit_for_bit(seed, dim):
    pairs = _toy_pairs()
    assert len(pairs) > CHUNK_ROWS  # crosses a chunk boundary
    src = SourceSpec(f"fam{seed}", seed, dim)
    expected = np.stack([reference_featurize(a, b, src) for a, b in pairs])
    assert featurize_pairs(pairs, src).tobytes() == expected.tobytes()
    assert featurize(*pairs[-3], src).tobytes() == expected[-3].tobytes()  # zero-norm bag
    assert not expected[-3].any()


def test_featurize_dataset_order_and_cache():
    ds = make_dataset(12, name="d")
    src = SourceSpec("fam", 7, 40)
    mat = featurize_dataset(ds, src)
    assert mat.shape == (12, 40)
    for row, sample in enumerate(ds):
        assert np.array_equal(mat[row], featurize(sample.text_a, sample.text_b, src))
    cache = FeatureCache()
    table = cache.lookup(ds, src)
    assert np.array_equal(table, mat)
    again = cache.lookup(ds, src)
    assert np.shares_memory(again, table) and again.base is not None  # a view, not a copy
    assert not again.flags.writeable


def test_cache_featurizes_each_row_once_per_content(monkeypatch):
    calls = []
    real = featurize_module.featurize_pairs

    def counting(pairs, source):
        calls.append(len(pairs))
        return real(pairs, source)

    monkeypatch.setattr(featurize_module, "featurize_pairs", counting)
    ds = make_dataset(30, name="d")
    src = SourceSpec("fam", 7, 40)
    cache = FeatureCache()
    full = cache.lookup(ds, src)
    reloaded = ds.with_samples([s.copy() for s in ds])
    assert np.shares_memory(cache.lookup(reloaded, src), full)
    fold = ds.with_samples(ds.samples[20:] + ds.samples[:5])  # a reordered subset
    assert np.array_equal(cache.lookup(fold, src), np.concatenate([full[20:], full[:5]]))
    other = SourceSpec("fam2", 8, 40)
    cache.lookup(ds, other)
    assert calls == [30, 30]


def test_split_reusing_a_train_id_gets_its_own_features():
    src = SourceSpec("fam", 7, 64)
    train = make_dataset(3, name="shared")
    dev = train.with_samples(
        [SamplePair(id="x-1", text_a="dev premise words", text_b="dev hypothesis", label=0)]
    )
    train = train.with_samples(
        train.samples
        + [SamplePair(id="x-1", text_a="train premise other", text_b="train text", label=1)]
    )
    cache = FeatureCache()
    train_mat = cache.lookup(train, src)
    dev_mat = cache.lookup(dev, src)
    assert np.array_equal(dev_mat[0], featurize("dev premise words", "dev hypothesis", src))
    assert not np.array_equal(dev_mat[0], train_mat[-1])


def test_saved_store_reloads_the_same_rows_without_featurizing(tmp_path, monkeypatch):
    src = SourceSpec("fam", 7, 64)
    train = make_dataset(40, name="shared")
    dev = train.with_samples(  # reuses a train id with other texts
        [SamplePair(id="s0003", text_a="dev premise words", text_b="dev hypothesis", label=0)]
    )
    fold = train.with_samples(train.samples[25:] + train.samples[:10])  # a reordered subset
    cache = FeatureCache()
    cache.lookup(train, src)
    cache.lookup(dev, src)
    entries = cache.save(tmp_path)
    assert entries == {"fam": {"featurizer_seed": 7, "dim": 64, "rows": 41,
                               "matrix": "fam.npy", "keys": "fam.keys.npy", "blocks": [40, 1]}}

    def no_featurizing(pairs, source):
        raise AssertionError(f"featurized {len(pairs)} rows")

    monkeypatch.setattr(featurize_module, "featurize_pairs", no_featurizing)
    loaded = FeatureCache.load(tmp_path, entries)
    monkeypatch.undo()
    for ds in (train, fold, dev):
        got = loaded.lookup(ds, src)
        assert not got.flags.writeable
        assert got.tobytes() == featurize_dataset(ds, src).tobytes()

    # A loaded store grows on a miss and can be saved over the files it came from.
    extra = make_dataset(3, name="extra", seed=1).with_samples(
        [SamplePair(id=f"e{i}", text_a=f"new words {i}", text_b="more", label=1) for i in range(3)]
    )
    loaded.lookup(extra, src)
    resaved = FeatureCache.load(tmp_path, loaded.save(tmp_path))
    for ds in (train, extra):
        assert resaved.lookup(ds, src).tobytes() == featurize_dataset(ds, src).tobytes()


def test_loading_a_store_checks_keys_against_rows(tmp_path):
    src = SourceSpec("fam", 7, 16)
    cache = FeatureCache()
    cache.lookup(make_dataset(5, name="d"), src)
    entries = cache.save(tmp_path)
    keys = np.load(tmp_path / "fam.keys.npy")
    np.save(tmp_path / "fam.keys.npy", keys[:-1])
    with pytest.raises(ValueError, match=r"uint8 \(4, 16\) for 5 rows"):
        FeatureCache.load(tmp_path, entries)
    np.save(tmp_path / "fam.keys.npy", keys[[0, 1, 2, 3, 0]])
    with pytest.raises(ValueError, match="repeats a key"):
        FeatureCache.load(tmp_path, entries)
