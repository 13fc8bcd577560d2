"""Hashed n-gram featurization of text pairs.

Each source family carries its own hashing seed, so two families map the
same pair into different feature layouts. This is what lets "same
architecture, different source" ensembles disagree in useful ways.

A pair vector is two dense overlap statistics (how many words the two
texts share, absolute and relative) followed by a signed hashed bag of
side-tagged unigrams and bigrams plus overlap unigrams. The statistics
slots make lexical match directly visible to a linear model; the hashed
bag carries the lexicalized content. The bag portion is L2-normalized.

There is one featurization function: `featurize` maps a list of pairs to
each source's rows as their non-zero entries (`SparseRows`: values, columns
and per-row offsets), and `SparseRows.dense` makes rows dense. A chunk of
rows works on word ids, not token strings: each text is split into words
once for all sources, each word is numbered once (`KeyCodes`), and the
chunk's unigram, bigram and overlap tokens become integer keys built with a
few numpy calls. Each source keeps the signed bucket code of every key it
has seen, so a key is spelled out as its token string and hashed only the
first time it is seen. The signed bag is then counted and normalized a
chunk of rows at a time, and only the chunk's non-zero entries are kept.
Bag entries are integer counts, so the result does not depend on token
order or summation order, and every entry left out is the +0.0 a dense
row would hold. A toy row has about 26 non-zero entries of 192.
`FeatureCache` keeps those entries for a fixed list of sources, keyed by
sample content, and hands training and prediction a new dense matrix of a
dataset's rows in sample order; mini-batches are then row selections of it.
A miss featurizes the missing rows for all of the cache's sources in one
call, and the cache's memo lives as long as the cache, so a token is hashed
once per source however many lookups miss. A cache is saved as one row
index (keys.npy) plus each source's values, columns and offsets and loaded
again, so the rows one pipeline stage built serve the stages after it: each
row of a run is featurized once.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .data import FILE_NAME, NATURAL, Dataset, SamplePair

_WORD = re.compile(r"[a-z0-9]+")
# An ASCII byte's word character: itself for [a-z0-9], lower case for [A-Z],
# else a space.
_ASCII_WORD_BYTES = bytes(
    ord(chr(c).lower()) if chr(c).isalnum() else 32 for c in range(128)
) + b" " * 128

N_STATS = 2  # leading dense slots: bounded overlap count, overlap fraction
CHUNK_ROWS = 256  # rows whose hashed bags are counted together
KEY_BYTES = 16  # size of a row's content key
WORD_LIMIT = 2**31  # word ids a packed token key can hold
_PREFIXES = (b"a:", b"b:", b"o:")  # token prefixes by kind: side a, side b, overlap


@dataclass(frozen=True)
class SourceSpec:
    """A stand-in for one pretrained initialization lineage.

    Distinct source names must use distinct featurizer seeds; the seed also
    drives the deterministic encoder initialization of models built on this
    source.
    """

    name: str
    featurizer_seed: int
    dim: int = 256

    def __post_init__(self):
        if self.dim < N_STATS + 1:
            raise ValueError(f"feature dimension must be > {N_STATS}")
        if not 0 <= self.featurizer_seed < 2**64:
            raise ValueError(f"featurizer seed must be in [0, 2**64), not {self.featurizer_seed}")


def _words(text: str) -> list[bytes]:
    """The words of a text: the runs of [a-z0-9] in its lower case, as ASCII bytes.

    Only an ASCII text takes the bytes path: str.lower() can turn a non-ASCII
    letter into an ASCII one (the Kelvin sign into 'k').
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_WORD_BYTES).split()
    return [word.encode("ascii") for word in _WORD.findall(text.lower())]


def _digest(hasher, token: bytes) -> bytes:
    """The keyed hasher's digest of one token; copying skips re-keying."""
    h = hasher.copy()
    h.update(token)
    return h.digest()


def _signed_codes(tokens: list[bytes], sources: Sequence[SourceSpec]) -> np.ndarray:
    """Each token's signed bucket code, sign * (bucket + 1), under each
    source: an (n_sources, n_tokens) array.

    A token's 64-bit little-endian keyed digest: the low bit is the sign, the
    rest the bucket.
    """
    codes = np.empty((len(sources), len(tokens)), dtype=np.intp)
    for i, source in enumerate(sources):
        key = int(source.featurizer_seed).to_bytes(8, "little", signed=False)
        hasher = hashlib.blake2b(key=key, digest_size=8)
        values = np.frombuffer(b"".join([_digest(hasher, t) for t in tokens]), dtype="<u8")
        buckets = ((values >> np.uint64(1)) % np.uint64(source.dim - N_STATS)).astype(np.intp) + 1
        codes[i] = np.where(values & np.uint64(1), buckets, -buckets)
    return codes


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted (np.unique would import numpy.ma)."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


class KeyCodes(dict):
    """The memo of featurize for one list of sources.

    As a dict it maps a word to its id, numbered in order of first sight;
    looking up an unseen word gives it the next id. Per source (row i for the
    i-th source) it holds the signed bucket code of every token key hashed so
    far: `unigrams[i, 3 * id + kind]` for the word's token of kind 0 (side a),
    1 (side b) or 2 (overlap), 0 until hashed; and `bigrams[i, j]` for the
    packed bigram key `bigram_keys[j]`, which stays sorted.
    """

    def __init__(self, n_sources: int):
        super().__init__()
        self.words: list[bytes] = []  # by id
        self.unigrams = np.zeros((n_sources, 0), dtype=np.intp)
        self.bigram_keys = np.zeros(0, dtype=np.int64)
        self.bigrams = np.zeros((n_sources, 0), dtype=np.intp)

    def __missing__(self, word: bytes) -> int:
        self[word] = word_id = len(self.words)
        self.words.append(word)
        return word_id

    def unigram_codes(self, keys: np.ndarray, sources: Sequence[SourceSpec]) -> np.ndarray:
        """The (n_sources, len(keys)) codes of unigram keys, hashing the unseen ones."""
        if self.unigrams.shape[1] < 3 * len(self.words):
            grown = np.zeros((len(sources), 6 * len(self.words)), dtype=np.intp)
            grown[:, : self.unigrams.shape[1]] = self.unigrams
            self.unigrams = grown
        codes = self.unigrams[:, keys]
        unseen = keys[codes[0] == 0]
        if len(unseen):
            new = _sorted_unique(unseen)
            words = self.words
            tokens = [_PREFIXES[key % 3] + words[key // 3] for key in new.tolist()]
            self.unigrams[:, new] = _signed_codes(tokens, sources)
            codes = self.unigrams[:, keys]
        return codes

    def bigram_codes(self, keys: np.ndarray, sources: Sequence[SourceSpec]) -> np.ndarray:
        """The (n_sources, len(keys)) codes of packed bigram keys, hashing the unseen ones."""
        at = np.searchsorted(self.bigram_keys, keys)
        known = np.zeros(len(keys), dtype=bool)
        if len(self.bigram_keys):
            known = self.bigram_keys[np.minimum(at, len(self.bigram_keys) - 1)] == keys
        if not known.all():
            new = _sorted_unique(keys[~known])
            words, pair = self.words, new >> 1
            tokens = [_PREFIXES[side] + words[left] + b"_" + words[right] for side, left, right
                      in zip((new & 1).tolist(), (pair // WORD_LIMIT).tolist(),
                             (pair % WORD_LIMIT).tolist())]
            # Two sorted runs: a stable sort merges them in linear time.
            merged = np.concatenate([self.bigram_keys, new])
            order = np.argsort(merged, kind="stable")
            self.bigram_keys = merged[order]
            self.bigrams = np.concatenate([self.bigrams, _signed_codes(tokens, sources)],
                                          axis=1)[:, order]
            at = np.searchsorted(self.bigram_keys, keys)
        return self.bigrams[:, at]


class SparseRows(NamedTuple):
    """Feature rows as their non-zero entries: row r holds the values
    values[offsets[r]:offsets[r + 1]] at the columns of the same slice, in
    ascending column order. Every entry left out is +0.0."""

    values: np.ndarray  # float64
    columns: np.ndarray  # _column_dtype(dim)
    offsets: np.ndarray  # int64, one more than the rows

    @classmethod
    def empty(cls, dim: int) -> "SparseRows":
        return cls(np.zeros(0), np.zeros(0, dtype=_column_dtype(dim)),
                   np.zeros(1, dtype=np.int64))

    @classmethod
    def joined(cls, pieces: Sequence["SparseRows"]) -> "SparseRows":
        """The rows of the pieces, one after another."""
        ends = np.cumsum([p.offsets[-1] for p in pieces])
        return cls(np.concatenate([p.values for p in pieces]),
                   np.concatenate([p.columns for p in pieces]),
                   np.concatenate([pieces[0].offsets] + [p.offsets[1:] + end for p, end
                                                         in zip(pieces[1:], ends)]))

    def dense(self, dim: int, rows: np.ndarray) -> np.ndarray:
        """A new (len(rows), dim) float64 matrix of the given rows, in that order."""
        out = np.zeros((len(rows), dim), dtype=np.float64)
        if len(rows) and (np.diff(rows) == 1).all():  # a run of rows: one run of entries
            offsets = self.offsets[rows[0] : rows[-1] + 2]
            lengths, at = np.diff(offsets), slice(offsets[0], offsets[-1])
        else:
            starts = self.offsets[rows]
            lengths = self.offsets[rows + 1] - starts
            ends = np.cumsum(lengths)
            at = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths,
                                                                     lengths)
        out.reshape(-1)[np.repeat(np.arange(0, out.size, dim), lengths) + self.columns[at]] = \
            self.values[at]
        return out


def _column_dtype(dim: int) -> np.dtype:
    """The smallest unsigned integer type that holds every column below dim."""
    return np.min_scalar_type(dim - 1)


def featurize(
    pairs: Sequence[tuple[str, str]],
    sources: Sequence[SourceSpec],
    codes: Optional[KeyCodes] = None,
) -> list[SparseRows]:
    """Map text pairs to their feature rows under each source, one row per
    pair in order, as the rows' non-zero entries.

    Deterministic for (texts, source); different featurizer seeds place the
    same tokens in different buckets with different signs. The two leading
    columns are overlap statistics shared by all sources. Each text is split
    into words once for all sources. codes, when given, is a memo for these
    sources, which this call reads and extends, so a token is hashed once per
    source however many calls share it; without it the call uses a fresh one.
    Raises ValueError for a word id at or past WORD_LIMIT, which a packed
    token key cannot hold.
    """
    if not sources:
        return []
    codes = KeyCodes(len(sources)) if codes is None else codes
    chunks: list[list[SparseRows]] = [[SparseRows.empty(s.dim)] for s in sources]
    for start in range(0, len(pairs), CHUNK_ROWS):
        chunk = pairs[start : start + CHUNK_ROWS]
        rows = len(chunk)
        split = [_words(text) for pair in chunk for text in pair]
        lengths = np.fromiter(map(len, split), dtype=np.intp, count=2 * rows)
        ids = np.fromiter(map(codes.__getitem__, chain.from_iterable(split)), dtype=np.int64,
                          count=int(lengths.sum()))
        if len(codes.words) > WORD_LIMIT and ids.max(initial=0) >= WORD_LIMIT:
            raise ValueError(f"word id {ids.max()} is past the {WORD_LIMIT} words a token "
                             f"key can pack")
        text_of = np.repeat(np.arange(2 * rows), lengths)  # 2 * row + side
        row, side = text_of >> 1, text_of & 1
        # Bigrams: consecutive words of one text, packed as (left, right, side).
        joined = text_of[1:] == text_of[:-1]
        bigrams = (ids[:-1][joined] * WORD_LIMIT + ids[1:][joined]) * 2 + side[1:][joined]
        # The bag does not depend on token order; sorted keys search faster.
        order = np.argsort(bigrams)
        bigrams, bigram_rows = bigrams[order], row[1:][joined][order]
        # The distinct (row, word, side) triples give each side's distinct word
        # count per row, and the (row, word) pairs found on both sides.
        present = _sorted_unique((row * WORD_LIMIT + ids) * 2 + side)
        row_word = present >> 1
        distinct = np.bincount(row_word // WORD_LIMIT * 2 + (present & 1), minlength=2 * rows)
        shared = row_word[1:][row_word[1:] == row_word[:-1]]
        overlap_counts = np.bincount(shared // WORD_LIMIT, minlength=rows).astype(np.float64)
        smaller = distinct.reshape(rows, 2).min(axis=1).astype(np.float64)
        stats = np.column_stack([np.tanh(overlap_counts / 4.0),
                                 overlap_counts / (1.0 + smaller)])
        unigrams = np.concatenate([ids * 3 + side, shared % WORD_LIMIT * 3 + 2])
        signed = np.concatenate([codes.unigram_codes(unigrams, sources),
                                 codes.bigram_codes(bigrams, sources)], axis=1)
        row_of = np.concatenate([row, shared // WORD_LIMIT, bigram_rows])
        buckets, signs = np.abs(signed) - 1 + N_STATS, np.sign(signed).astype(np.float64)
        for source, pieces, column, sign in zip(sources, chunks, buckets, signs):
            dim = source.dim
            # The chunk's rows, counted dense; bincount returns integers when
            # there is no token at all.
            counts = np.bincount(row_of * dim + column, weights=sign,
                                 minlength=rows * dim).astype(np.float64, copy=False)
            dense = counts.reshape(rows, dim)
            # Bag entries are integer counts, so their squares sum exactly in
            # any order; an empty bag stays all zeros.
            norms = np.sqrt(np.einsum("ij,ij->i", dense, dense))
            norms[norms == 0] = 1.0
            dense /= norms[:, None]
            dense[:, :N_STATS] = stats
            # Entries are selected by their bits, so a -0.0 would be kept.
            at = (counts.view(np.int64) != 0).nonzero()[0]
            row_at = at // dim
            pieces.append(SparseRows(counts[at], (at - row_at * dim).astype(_column_dtype(dim)),
                                     np.searchsorted(row_at, np.arange(rows + 1))))
    return [SparseRows.joined(pieces) for pieces in chunks]


def _content_key(sample: SamplePair) -> bytes:
    """128-bit digest of (id, text_a, text_b); unlike the texts, it is small to keep.

    The two length prefixes make the concatenation unambiguous.
    """
    content = f"{len(sample.id)}:{len(sample.text_a)}:{sample.id}{sample.text_a}{sample.text_b}"
    return hashlib.blake2b(content.encode("utf-8", "surrogatepass"), digest_size=KEY_BYTES).digest()


def _load_npy(path: Path) -> np.ndarray:
    """np.load without pickles; a malformed or truncated file is a ValueError naming it."""
    try:
        return np.load(path, allow_pickle=False)
    except (EOFError, ValueError) as exc:
        raise ValueError(f"{path.name}: {exc}") from exc


def _read_rows(directory: Path, saved: dict, rows: int, dim: int) -> SparseRows:
    """One source's rows as `FeatureCache.save` wrote them, checked to be
    rows that `featurize` could have built."""
    stored = SparseRows(*(_load_npy(directory / saved[part]) for part in SparseRows._fields))
    for part, array, dtype in zip(SparseRows._fields, stored,
                                  (np.float64, _column_dtype(dim), np.int64)):
        if array.dtype != dtype or array.ndim != 1:
            raise ValueError(f"{saved[part]} holds {array.dtype} {array.shape}, "
                             f"expected a vector of {np.dtype(dtype)}")
    values, columns, offsets = stored
    if (len(offsets) != rows + 1 or offsets[0] != 0 or offsets[-1] != len(values)
            or (np.diff(offsets) < 0).any()):
        raise ValueError(f"{saved['offsets']} does not split {len(values)} values into "
                         f"{rows} rows")
    if len(columns) != len(values):
        raise ValueError(f"{saved['columns']} holds {len(columns)} columns for "
                         f"{len(values)} values")
    if len(columns) and columns.max() >= dim:
        raise ValueError(f"{saved['columns']} holds column {columns.max()}, past dim {dim}")
    places = np.repeat(np.arange(rows) * dim, np.diff(offsets)) + columns
    if (np.diff(places) <= 0).any():
        raise ValueError(f"{saved['columns']} does not ascend within a row")
    if not np.isfinite(values).all():
        raise ValueError(f"{saved['values']} holds a value that is not finite")
    if not values.view(np.int64).all():
        raise ValueError(f"{saved['values']} holds a +0.0")
    return stored


# The entry FeatureCache.save returns, as a data.check_shape shape.
STORE_SHAPE = {
    "rows": NATURAL,
    "keys": FILE_NAME,
    "sources": {str: {"featurizer_seed": int, "dim": int,
                      **{part: FILE_NAME for part in SparseRows._fields}}},
}


class FeatureCache:
    """Feature rows for a fixed list of sources, keyed by sample content.

    Rows are keyed by sample content (id, text_a, text_b), so train, dev and
    eval splits of one dataset never share a row unless their samples are
    the same, while reloaded copies of a split and subsets of it (CV folds)
    reuse the stored rows. All sources share one row index: a lookup that
    misses featurizes the missing rows for every source in one call, so each
    row is split into words once and every source's store gets the same
    rows. The memo of all sources lives as long as the cache, so a token is
    hashed once per source. The cache keeps each
    Dataset object it has served with its rows, so a second lookup of it
    hashes no sample; the library never changes a Dataset's samples after
    building it, nor a SamplePair (which also lets the pipeline hand the
    samples a stage wrote to the stages that read them). A cache keeps
    every row it has built, as the row's non-zero entries (`SparseRows`),
    until it is dropped; only `lookup` builds dense rows, and each lookup's
    matrix belongs to its caller. `save` writes the store out and `load`
    opens a saved one, which then featurizes only rows it does not hold.
    """

    def __init__(self, sources: Sequence[SourceSpec]):
        self._sources = list(dict.fromkeys(sources))
        # the rows of each source, a block per miss; the blocks of all sources line up
        self._blocks = {s: [SparseRows.empty(s.dim)] for s in self._sources}
        self._starts = [0]  # first row of each block
        self._codes = KeyCodes(len(self._sources))
        self._where: dict[bytes, int] = {}  # content key -> row
        self._served: dict[int, tuple[Dataset, np.ndarray]] = {}  # id -> (dataset, its rows)

    def save(self, directory: Path) -> dict:
        """Write the row index as keys.npy, each row's 16-byte content key in
        row order, and each source's rows as three vectors in that order:
        <name>.values.npy (float64), <name>.columns.npy (the smallest unsigned
        integer type that holds dim - 1) and <name>.offsets.npy (int64, one
        more than the rows), as `SparseRows` lays them out.

        Returns the entry `load` reads: the row count, the keys file and, per
        source name, its featurizer seed, dim and three files.
        """
        directory.mkdir(parents=True, exist_ok=True)
        keys = np.frombuffer(b"".join(self._where), dtype=np.uint8).reshape(-1, KEY_BYTES)
        np.save(directory / "keys.npy", keys, allow_pickle=False)
        sources = {}
        self._merge()
        for source, (stored,) in self._blocks.items():
            files = {part: f"{source.name}.{part}.npy" for part in SparseRows._fields}
            for part, array in zip(SparseRows._fields, stored):
                np.save(directory / files[part], array, allow_pickle=False)
            sources[source.name] = {"featurizer_seed": source.featurizer_seed,
                                    "dim": source.dim, **files}
        return {"rows": len(self._where), "keys": "keys.npy", "sources": sources}

    @classmethod
    def load(cls, directory: Path, entry: dict, sources: Sequence[SourceSpec]) -> "FeatureCache":
        """A cache of the given sources, seeded with the rows saved in
        directory, through the entry `save` returned.

        Reads only the keys file and the given sources' files, without
        pickles. The entry is one of STORE_SHAPE. Raises ValueError when it
        lists no source of that name, seed and dim; naming the file when a
        file is malformed or truncated, when a key repeats or the keys do not
        match the row count, and when a source's vectors are not rows
        `featurize` could have built: offsets that do not start at 0,
        rise and end at the value count, columns at or past dim or not
        ascending within a row, values that are not finite or are +0.0, or
        another dtype. OSError when a file is missing.
        """
        cache = cls(sources)
        rows = entry["rows"]
        keys = _load_npy(directory / entry["keys"])
        if keys.dtype != np.uint8 or keys.shape != (rows, KEY_BYTES):
            raise ValueError(f"{entry['keys']} holds {keys.dtype} {keys.shape} for {rows} rows")
        flat = keys.tobytes()
        cache._where = {flat[r * KEY_BYTES : (r + 1) * KEY_BYTES]: r for r in range(rows)}
        if len(cache._where) != rows:
            raise ValueError(f"{entry['keys']} repeats a key")
        for source in cache._sources:
            saved = entry["sources"].get(source.name, {})
            if (saved.get("featurizer_seed"), saved.get("dim")) != (source.featurizer_seed, source.dim):
                raise ValueError(
                    f"the store lists no source {source.name!r} with featurizer seed "
                    f"{source.featurizer_seed} and dim {source.dim}"
                )
            cache._blocks[source] = [_read_rows(directory, saved, rows, source.dim)]
        return cache

    def lookup(self, dataset: Dataset, source: SourceSpec) -> np.ndarray:
        """A new read-only (n, dim) float64 matrix of the dataset's feature
        rows under the source, in sample order, made dense from the stored
        entries. Raises ValueError for a source the cache was not built for.
        """
        if source not in self._blocks:
            raise ValueError(
                f"the feature cache holds no source {source.name!r} with featurizer seed "
                f"{source.featurizer_seed} and dim {source.dim}"
            )
        served = self._served.get(id(dataset))
        if served is None:
            where = self._where
            keys = [_content_key(s) for s in dataset]
            missing = list({k: i for i, k in enumerate(keys) if k not in where}.values())
            if missing:
                first = len(where)
                pairs = [(dataset.samples[i].text_a, dataset.samples[i].text_b) for i in missing]
                built = featurize(pairs, self._sources, codes=self._codes)
                for blocks, rows in zip(self._blocks.values(), built):
                    blocks.append(rows)
                self._starts.append(first)
                where.update((keys[i], first + r) for r, i in enumerate(missing))
            rows = np.fromiter((where[k] for k in keys), dtype=np.intp, count=len(keys))
            served = self._served[id(dataset)] = (dataset, rows)
        rows = served[1]
        block_of = np.searchsorted(self._starts, rows, side="right") - 1
        block = int(block_of[0]) if len(rows) else 0
        if (block_of != block).any():
            self._merge()
            block = 0
        out = self._blocks[source][block].dense(source.dim, rows - self._starts[block])
        out.flags.writeable = False
        return out

    def _merge(self) -> None:
        """Make each source's rows one block."""
        for blocks in self._blocks.values():
            blocks[:] = [SparseRows.joined(blocks)]
        self._starts = [0]
