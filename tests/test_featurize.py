import hashlib
import importlib
import re

import numpy as np
import pytest

from mixtask.data import SamplePair
from mixtask.featurize import CHUNK_ROWS, FeatureCache, N_STATS, SourceSpec, featurize
from mixtask.toydata import make_nli, make_qa, make_rqe

from conftest import make_dataset
from reference import featurize_dense

# The package re-exports the function `featurize` under its module's name.
featurize_module = importlib.import_module("mixtask.featurize")


def featurize_rows(dataset, source):
    """A dataset's feature matrix, featurized afresh in sample order."""
    return featurize_dense([(s.text_a, s.text_b) for s in dataset], [source])[0]


def pair_row(text_a, text_b, source):
    """The dense feature row of one text pair."""
    return featurize_dense([(text_a, text_b)], [source])[0][0]


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
    v1 = pair_row("alpha beta gamma", "beta delta", src)
    v2 = pair_row("alpha beta gamma", "beta delta", src)
    assert v1.shape == (64,)
    assert np.array_equal(v1, v2)
    assert np.all(np.isfinite(v1))


def test_sources_differ_on_fixture_corpus():
    rng = np.random.default_rng(0)
    a = SourceSpec("fam_a", 1, 96)
    b = SourceSpec("fam_b", 2, 96)
    differing = 0
    for text_a, text_b in random_texts(rng, 100):
        va = pair_row(text_a, text_b, a)
        vb = pair_row(text_a, text_b, b)
        # overlap statistics are source-independent, the hashed bag is not
        assert np.array_equal(va[:N_STATS], vb[:N_STATS])
        if not np.array_equal(va[N_STATS:], vb[N_STATS:]):
            differing += 1
    assert differing == 100


def test_overlap_statistics_reflect_shared_words():
    src = SourceSpec("fam", 3, 32)
    none = pair_row("aaa bbb", "ccc ddd", src)
    some = pair_row("aaa bbb ccc", "ccc bbb eee", src)
    assert none[0] == 0.0 and none[1] == 0.0
    assert some[0] > 0 and some[1] > 0


def test_hashed_bag_is_unit_norm():
    src = SourceSpec("fam", 3, 48)
    vec = pair_row("one two three", "four five", src)
    assert abs(np.linalg.norm(vec[N_STATS:]) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [3, 256])
@pytest.mark.parametrize("seed", [101, 202])
def test_featurize_matches_reference_bit_for_bit(seed, dim):
    pairs = _toy_pairs()
    assert len(pairs) > CHUNK_ROWS  # crosses a chunk boundary
    src = SourceSpec(f"fam{seed}", seed, dim)
    expected = np.stack([reference_featurize(a, b, src) for a, b in pairs])
    assert featurize_dense(pairs, [src])[0].tobytes() == expected.tobytes()
    assert pair_row(*pairs[-3], src).tobytes() == expected[-3].tobytes()  # zero-norm bag
    assert not expected[-3].any()


def test_featurize_of_several_sources_matches_reference_bit_for_bit():
    """One call featurizes every source; each matrix equals the oracle's."""
    sources = [SourceSpec("small", 11, 3), SourceSpec("mid", 12, 40), SourceSpec("big", 13, 256)]
    # A pair whose two tokens cancel in the one bucket of the dim-3 source.
    cancelling = next((f"w{i}", "w0") for i in range(1, 100)
                      if not reference_featurize(f"w{i}", "w0", sources[0])[N_STATS:].any())
    pairs = ([("", ""), cancelling] + _toy_pairs() * 2)[:333]
    assert len(pairs) == 333 > CHUNK_ROWS
    matrices = featurize_dense(pairs, sources)
    assert len(matrices) == len(sources)
    for src, matrix in zip(sources, matrices):
        expected = np.stack([reference_featurize(a, b, src) for a, b in pairs])
        assert matrix.tobytes() == expected.tobytes()
    assert not matrices[0][:2, N_STATS:].any() and matrices[1][1, N_STATS:].any()
    assert [m.shape for m in featurize_dense([], sources)] == [(0, 3), (0, 40), (0, 256)]
    assert featurize(pairs, []) == []


def test_featurize_dataset_order_and_cache():
    ds = make_dataset(12, name="d")
    src = SourceSpec("fam", 7, 40)
    mat = featurize_rows(ds, src)
    assert mat.shape == (12, 40)
    for row, sample in enumerate(ds):
        assert np.array_equal(mat[row], pair_row(sample.text_a, sample.text_b, src))
    cache = FeatureCache([src])
    table = cache.lookup(ds, src)
    assert np.array_equal(table, mat)
    again = cache.lookup(ds, src)
    assert again.tobytes() == table.tobytes() and not np.shares_memory(again, table)
    assert not again.flags.writeable


def test_cache_featurizes_each_row_once_per_content(monkeypatch):
    calls = []
    real = featurize_module.featurize

    def counting(pairs, sources, **memo):
        calls.append((len(pairs), [s.name for s in sources]))
        return real(pairs, sources, **memo)

    ds = make_dataset(30, name="d")
    src, other = SourceSpec("fam", 7, 40), SourceSpec("fam2", 8, 40)
    expected = featurize_rows(ds, other)
    monkeypatch.setattr(featurize_module, "featurize", counting)
    cache = FeatureCache([src, other])
    full = cache.lookup(ds, src)
    reloaded = ds.with_samples([s.copy() for s in ds])
    assert cache.lookup(reloaded, src).tobytes() == full.tobytes()
    fold = ds.with_samples(ds.samples[20:] + ds.samples[:5])  # a reordered subset
    assert np.array_equal(cache.lookup(fold, src), np.concatenate([full[20:], full[:5]]))
    assert cache.lookup(ds, other).tobytes() == expected.tobytes()
    assert calls == [(30, ["fam", "fam2"])]  # one call featurized both sources


def test_token_memo_changes_no_result():
    """A cache whose memos already hold dataset A's tokens returns B's rows
    with the bytes a fresh cache gives."""
    sources = [SourceSpec("fam", 7, 40), SourceSpec("fam2", 8, 256)]
    first = make_nli("a", 50, "in_domain", 1)
    second = make_nli("b", 50, "in_domain", 2)
    warm, fresh = FeatureCache(sources), FeatureCache(sources)
    for src in sources:
        warm.lookup(first, src)
    for src in sources:
        assert warm.lookup(second, src).tobytes() == fresh.lookup(second, src).tobytes()


def test_lookup_for_a_source_the_cache_was_not_built_for_fails():
    cache = FeatureCache([SourceSpec("fam", 7, 40)])
    ds = make_dataset(3, name="d")
    for stranger in (SourceSpec("fam2", 8, 40), SourceSpec("fam", 7, 64)):
        with pytest.raises(ValueError, match="holds no source"):
            cache.lookup(ds, stranger)


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
    cache = FeatureCache([src])
    train_mat = cache.lookup(train, src)
    dev_mat = cache.lookup(dev, src)
    assert np.array_equal(dev_mat[0], pair_row("dev premise words", "dev hypothesis", src))
    assert not np.array_equal(dev_mat[0], train_mat[-1])


def test_saved_store_reloads_the_same_rows_without_featurizing(tmp_path, monkeypatch):
    src = SourceSpec("fam", 7, 64)
    train = make_dataset(40, name="shared")
    dev = train.with_samples(  # reuses a train id with other texts
        [SamplePair(id="s0003", text_a="dev premise words", text_b="dev hypothesis", label=0)]
    )
    fold = train.with_samples(train.samples[25:] + train.samples[:10])  # a reordered subset
    cache = FeatureCache([src])
    cache.lookup(train, src)
    cache.lookup(dev, src)
    entry = cache.save(tmp_path)
    assert entry == {"rows": 41, "keys": "keys.npy", "sources": {"fam": {
        "featurizer_seed": 7, "dim": 64, "values": "fam.values.npy",
        "columns": "fam.columns.npy", "offsets": "fam.offsets.npy"}}}

    expected = [featurize_rows(ds, src).tobytes() for ds in (train, fold, dev)]

    def no_featurizing(pairs, sources, **memo):
        raise AssertionError(f"featurized {len(pairs)} rows")

    monkeypatch.setattr(featurize_module, "featurize", no_featurizing)
    loaded = FeatureCache.load(tmp_path, entry, [src])
    for ds, rows in zip((train, fold, dev), expected):
        got = loaded.lookup(ds, src)
        assert not got.flags.writeable
        assert got.tobytes() == rows
    monkeypatch.undo()

    # A loaded store grows on a miss and can be saved over the files it came from.
    extra = make_dataset(3, name="extra", seed=1).with_samples(
        [SamplePair(id=f"e{i}", text_a=f"new words {i}", text_b="more", label=1) for i in range(3)]
    )
    loaded.lookup(extra, src)
    resaved = FeatureCache.load(tmp_path, loaded.save(tmp_path), [src])
    for ds in (train, extra):
        assert resaved.lookup(ds, src).tobytes() == featurize_rows(ds, src).tobytes()


def test_loading_a_store_checks_keys_against_rows(tmp_path):
    src = SourceSpec("fam", 7, 16)
    cache = FeatureCache([src])
    cache.lookup(make_dataset(5, name="d"), src)
    entry = cache.save(tmp_path)
    keys = np.load(tmp_path / "keys.npy")
    np.save(tmp_path / "keys.npy", keys[:-1])
    with pytest.raises(ValueError, match=r"uint8 \(4, 16\) for 5 rows"):
        FeatureCache.load(tmp_path, entry, [src])
    np.save(tmp_path / "keys.npy", keys[[0, 1, 2, 3, 0]])
    with pytest.raises(ValueError, match="repeats a key"):
        FeatureCache.load(tmp_path, entry, [src])
    np.save(tmp_path / "keys.npy", keys)
    with pytest.raises(ValueError, match=r"^keys.npy holds uint8 \(5, 16\) for 6 rows$"):
        FeatureCache.load(tmp_path, {**entry, "rows": 6}, [src])


def test_save_writes_one_row_index_and_three_vectors_per_source(tmp_path):
    sources = [SourceSpec("fam", 7, 16), SourceSpec("fam2", 8, 24)]
    first = make_dataset(5, name="d")
    second = make_dataset(7, name="d", text_a=lambda i: f"other words {i}")
    cache = FeatureCache(sources)
    cache.lookup(first, sources[0])
    cache.lookup(second, sources[1])
    entry = cache.save(tmp_path)
    files = {src.name: {part: f"{src.name}.{part}.npy" for part in ("values", "columns", "offsets")}
             for src in sources}
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        ["keys.npy", *files["fam"].values(), *files["fam2"].values()])
    assert entry == {"rows": 12, "keys": "keys.npy", "sources": {
        "fam": {"featurizer_seed": 7, "dim": 16, **files["fam"]},
        "fam2": {"featurizer_seed": 8, "dim": 24, **files["fam2"]},
    }}
    assert np.load(tmp_path / "keys.npy").shape == (12, 16)
    for src in sources:
        expected = np.concatenate([featurize_rows(first, src), featurize_rows(second, src)])
        stored = [np.load(tmp_path / files[src.name][part]) for part in ("values", "columns",
                                                                         "offsets")]
        rows = featurize_module.SparseRows(*stored).dense(src.dim, np.arange(12))
        assert rows.tobytes() == expected.tobytes()
        assert stored[0].tobytes() == expected[expected.view(np.int64) != 0].tobytes()

    # Only the requested sources are read.
    loaded = FeatureCache.load(tmp_path, entry, sources[1:])
    a, b = loaded.lookup(first, sources[1]), loaded.lookup(second, sources[1])
    assert a.tobytes() + b.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="holds no source 'fam'"):
        loaded.lookup(first, sources[0])


@pytest.mark.parametrize("stranger", [SourceSpec("fam2", 9, 24), SourceSpec("fam2", 8, 32),
                                      SourceSpec("fam3", 8, 24)])
def test_loading_a_source_the_store_does_not_list_fails(tmp_path, stranger):
    sources = [SourceSpec("fam", 7, 16), SourceSpec("fam2", 8, 24)]
    cache = FeatureCache(sources)
    cache.lookup(make_dataset(5, name="d"), sources[0])
    entry = cache.save(tmp_path)
    message = (rf"^the store lists no source '{stranger.name}' with featurizer seed "
               rf"{stranger.featurizer_seed} and dim {stranger.dim}$")
    with pytest.raises(ValueError, match=message):
        FeatureCache.load(tmp_path, entry, [sources[0], stranger])


def test_a_served_dataset_is_not_hashed_again(monkeypatch):
    hashed, real = [], featurize_module._content_key

    def counting(sample):
        hashed.append(sample.id)
        return real(sample)

    monkeypatch.setattr(featurize_module, "_content_key", counting)
    sources = [SourceSpec("fam", 7, 40), SourceSpec("fam2", 8, 40)]
    ds = make_dataset(20, name="d")
    cache = FeatureCache(sources)
    first = cache.lookup(ds.with_samples(ds.samples[10:] + ds.samples[:10]), sources[0])
    assert len(hashed) == 20
    table = cache.lookup(ds, sources[0])
    assert len(hashed) == 40
    assert cache.lookup(ds, sources[0]).tobytes() == table.tobytes()
    assert cache.lookup(ds, sources[1]).tobytes() == featurize_rows(ds, sources[1]).tobytes()
    assert len(hashed) == 40  # same object: no content key computed
    copy = ds.with_samples([s.copy() for s in reversed(ds.samples)])
    assert cache.lookup(copy, sources[0]).tobytes() == table[::-1].tobytes()
    assert len(hashed) == 60
    assert first.tobytes() == np.concatenate([table[10:], table[:10]]).tobytes()


def _fuzz_pairs(seed, n):
    """Pairs of texts that mix cases, digits, `_` and other punctuation,
    whitespace runs, non-ASCII letters (some of which lower-case to ASCII), a
    lone surrogate, repeated words, one-word sides and empty sides."""
    rng = np.random.default_rng(seed)
    pieces = ["alpha", "Beta", "GAMMA", "x1", "42", "foo_bar", "don't", "a-b", "e.g.",
              "\u212a", "\u212aelvin",  # the Kelvin sign, which lower-cases to "k"
              "\u0130stanbul", "naïve", "straße",
              "Ωmega", "café", "\ud800", "word\ud800word", "ALPHA", "alpha"]
    gaps = [" ", "  ", "\t", "\n \n", ", ", "_", "-", "!?", "...", "\u3000"]

    def text():
        size = int(rng.choice([0, 0, 1, 1, 2, 5, 9, 14]))
        words = [str(rng.choice(pieces)) for _ in range(size)]
        out = "".join(w + str(rng.choice(gaps)) for w in words)
        return out if words or rng.random() < 0.5 else str(rng.choice(["", "   ", "!!!"]))

    return [(text(), text()) for _ in range(n)]


@pytest.mark.parametrize("seed", [5, 6])
def test_featurize_matches_reference_on_fuzzed_texts(seed):
    pairs = _fuzz_pairs(seed, 2 * CHUNK_ROWS + 77)
    sources = [SourceSpec("tiny", 31, 3), SourceSpec("mid", 32, 29), SourceSpec("big", 33, 256)]
    codes = featurize_module.KeyCodes(len(sources))
    matrices = featurize_dense(pairs, sources, codes=codes)
    for src, matrix in zip(sources, matrices):
        expected = np.stack([reference_featurize(a, b, src) for a, b in pairs])
        assert matrix.tobytes() == expected.tobytes()
    assert (np.diff(codes.bigram_keys) > 0).all()  # sorted, each key once
    assert sorted(codes) == sorted({w.encode() for a, b in pairs for w in _ref_words(a + " " + b)})


def test_split_calls_through_one_memo_give_the_bytes_of_one_call(monkeypatch):
    pairs = _fuzz_pairs(7, 2 * CHUNK_ROWS + 40)
    sources = [SourceSpec("tiny", 31, 3), SourceSpec("big", 33, 256)]
    whole = featurize_dense(pairs, sources)
    ds = make_dataset(0, name="fuzz")

    def samples(prefix):
        return [SamplePair(id=f"{prefix}{i}", text_a=a, text_b=b, label=0)
                for i, (a, b) in enumerate(pairs)]

    cache = FeatureCache(sources)
    cuts = [0, 100, CHUNK_ROWS + 9, 2 * CHUNK_ROWS - 1, len(pairs)]  # each one mid-chunk
    parts = [ds.with_samples(samples("s")[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    for src, matrix in zip(sources, whole):
        assert np.concatenate([cache.lookup(p, src) for p in parts]).tobytes() == matrix.tobytes()

    hashed, real = [], featurize_module._digest

    def counting(hasher, token):
        hashed.append(token)
        return real(hasher, token)

    monkeypatch.setattr(featurize_module, "_digest", counting)
    renamed = ds.with_samples(samples("again-"))  # new content keys, known tokens
    assert cache.lookup(renamed, sources[1]).tobytes() == whole[1].tobytes()
    assert hashed == []


def test_a_word_id_past_the_packing_limit_is_refused(monkeypatch):
    monkeypatch.setattr(featurize_module, "WORD_LIMIT", 6)
    src = SourceSpec("fam", 7, 40)
    codes = featurize_module.KeyCodes(1)
    pairs = [("one two three", "three four"), ("five six one", "six two")]  # ids 0..5
    expected = np.stack([reference_featurize(a, b, src) for a, b in pairs])
    assert featurize_dense(pairs, [src], codes=codes)[0].tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="^word id 6 is past the 6 words a token key can pack$"):
        featurize_dense([("one seven", "two")], [src], codes=codes)
    with pytest.raises(ValueError, match="word id 6 is past"):
        featurize_dense([("seven", "")], [src], codes=codes)


def test_lookup_gives_the_bytes_of_featurize_from_fresh_loaded_and_resaved_stores(tmp_path):
    """Bit for bit (`tobytes`, so a -0.0 would differ from a 0.0) through a
    fresh store, one saved and loaded, and one loaded, saved and loaded again,
    for a whole dataset and a reordered subset (a CV fold), with a row whose
    bag is empty and whose statistics are zero, and a source of dim 3."""
    sources = [SourceSpec("tiny", 41, 3), SourceSpec("fam", 42, 64)]
    whole = make_dataset(0, name="d").with_samples(
        [SamplePair(id=f"p{i}", text_a=a, text_b=b, label=0)
         for i, (a, b) in enumerate(_toy_pairs())])
    empty = next(i for i, s in enumerate(whole) if (s.text_a, s.text_b) == ("", ""))
    fold = whole.with_samples(whole.samples[empty:][::-1] + whole.samples[:40])
    expected = [(ds, src, featurize_rows(ds, src)) for ds in (whole, fold) for src in sources]
    assert not expected[0][2][empty].view(np.int64).any()  # +0.0 throughout, statistics included

    fresh = FeatureCache(sources)
    fresh.lookup(whole.with_samples(whole.samples[:100]), sources[1])
    fresh.lookup(whole, sources[0])  # featurizes the other rows; the fold spans both misses
    entry = fresh.save(tmp_path / "a")
    loaded = FeatureCache.load(tmp_path / "a", entry, sources)
    resaved = FeatureCache.load(tmp_path / "b", loaded.save(tmp_path / "b"), sources)
    for cache in (fresh, loaded, resaved):
        for ds, src, rows in expected:
            got = cache.lookup(ds, src)
            assert not got.flags.writeable and got.dtype == np.float64
            assert got.tobytes() == rows.tobytes()
    assert resaved.save(tmp_path / "c") == entry
    for name in sorted(path.name for path in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
    for src in sources:
        offsets = np.load(tmp_path / "a" / f"{src.name}.offsets.npy")
        assert offsets[empty + 1] == offsets[empty]  # no entry stored for the empty row


def _damaged(values=None, columns=None, offsets=None):
    """A store edit: each given function maps a source's saved vector to the damaged one."""
    def edit(directory):
        for part, change in (("values", values), ("columns", columns), ("offsets", offsets)):
            if change is not None:
                path = directory / f"fam.{part}.npy"
                np.save(path, change(np.load(path)))
    return edit


def _set(at, value):
    def change(array):
        array = array.copy()
        array[at] = value
        return array
    return change


@pytest.mark.parametrize("edit, problem", [
    (_damaged(columns=_set(-1, 16)), "fam.columns.npy holds column 16, past dim 16"),
    (_damaged(offsets=lambda o: np.append(o[:-1], o[-1] - 1)), "fam.offsets.npy does not split"),
    (_damaged(values=lambda v: v[:-1]), r"fam.offsets.npy does not split \d+ values into 5 rows"),
    (_damaged(offsets=lambda o: o + 1), "fam.offsets.npy does not split"),
    (_damaged(offsets=lambda o: o[:-1]), "fam.offsets.npy does not split"),
    (_damaged(offsets=_set(2, 0)), "fam.offsets.npy does not split"),
    (_damaged(columns=lambda c: c[:-1]), r"fam.columns.npy holds \d+ columns for \d+ values"),
    (_damaged(columns=_set(1, 0)), "fam.columns.npy does not ascend within a row"),
    (_damaged(values=_set(0, np.nan)), "fam.values.npy holds a value that is not finite"),
    (_damaged(values=_set(0, np.inf)), "fam.values.npy holds a value that is not finite"),
    (_damaged(values=_set(3, 0.0)), r"fam.values.npy holds a \+0.0"),
    (_damaged(values=lambda v: v.astype(np.float32)),
     r"fam.values.npy holds float32 \(\d+,\), expected a vector of float64"),
    (_damaged(columns=lambda c: c.astype(np.int64)),
     r"fam.columns.npy holds int64 \(\d+,\), expected a vector of uint8"),
    (_damaged(offsets=lambda o: o.reshape(1, -1)),
     r"fam.offsets.npy holds int64 \(1, 6\), expected a vector of int64"),
], ids=["column_at_dim", "offsets_end_short", "values_one_short", "offsets_start_past_0",
        "offsets_one_short", "offsets_fall", "columns_one_short", "columns_not_ascending",
        "nan_value", "inf_value", "zero_value", "float32_values", "int64_columns",
        "offsets_not_a_vector"])
def test_loading_checks_each_source_s_vectors(tmp_path, edit, problem):
    src = SourceSpec("fam", 7, 16)
    cache = FeatureCache([src])
    cache.lookup(make_dataset(5, name="d"), src)
    entry = cache.save(tmp_path)
    edit(tmp_path)
    with pytest.raises(ValueError, match=f"^{problem}"):
        FeatureCache.load(tmp_path, entry, [src])


def test_a_negative_zero_is_a_stored_value():
    """Entries are kept by their bits: a -0.0 survives the store, a +0.0 is left out."""
    rows = featurize_module.SparseRows(np.array([-0.0, 2.0]), np.array([0, 2], dtype=np.uint8),
                                       np.array([0, 1, 2]))
    dense = rows.dense(3, np.array([1, 0]))
    assert dense.tobytes() == np.array([[0.0, 0.0, 2.0], [-0.0, 0.0, 0.0]]).tobytes()
