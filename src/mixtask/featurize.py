"""Hashed n-gram featurization of text pairs.

Each source family carries its own hashing seed, so two families map the
same pair into different feature layouts. This is what lets "same
architecture, different source" ensembles disagree in useful ways.

A pair vector is two dense overlap statistics (how many words the two
texts share, absolute and relative) followed by a signed hashed bag of
side-tagged unigrams and bigrams plus overlap unigrams. The statistics
slots make lexical match directly visible to a linear model; the hashed
bag carries the lexicalized content. The bag portion is L2-normalized.

There is one featurization path: `featurize_pairs` maps a list of pairs to
one (n, dim) matrix per source. It tokenizes each pair once for all sources,
numbers each distinct token once for all sources (`TokenCodes`), hashes it
once per source into an array of signed codes indexed by that number, and
counts the signed bag a chunk of rows at a time; bag entries are integer
counts, so the result does not depend on summation order. `FeatureCache`
stores those matrices for a fixed list of sources, keyed by sample content,
and hands training and prediction a dataset's matrix in sample order;
mini-batches are then row selections of it. A miss featurizes the missing
rows for all of the cache's sources in one call, and the cache's token memo
lives as long as the cache, so a token is hashed once per source however
many lookups miss. A
cache is saved as one row index (keys.npy) plus one .npy matrix per source
and loaded again, so the rows one pipeline stage built serve the stages
after it: each row of a run is featurized once.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy.lib import format as npy_format

from .data import Dataset, SamplePair

_WORD = re.compile(r"[a-z0-9]+")

N_STATS = 2  # leading dense slots: bounded overlap count, overlap fraction
CHUNK_ROWS = 256  # rows whose hashed bags are counted together
KEY_BYTES = 16  # size of a row's content key


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


def _words(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def _pair_tokens(a: list[str], b: list[str], overlap: set[str]) -> list[str]:
    """Token stream of one pair, from the words of each side and their overlap."""
    tokens = [f"a:{w}" for w in a]
    tokens += [f"a:{u}_{v}" for u, v in zip(a, a[1:])]
    tokens += [f"b:{w}" for w in b]
    tokens += [f"b:{u}_{v}" for u, v in zip(b, b[1:])]
    tokens += [f"o:{w}" for w in sorted(overlap)]
    return tokens


def _digest(hasher, token: str) -> bytes:
    """The keyed hasher's digest of one token; copying skips re-keying."""
    h = hasher.copy()
    h.update(token.encode("utf-8"))
    return h.digest()


def _signed_codes(tokens: list[str], source: SourceSpec) -> np.ndarray:
    """Each token's signed bucket code under the source, sign * (bucket + 1).

    A token's 64-bit little-endian keyed digest: the low bit is the sign, the
    rest the bucket.
    """
    key = int(source.featurizer_seed).to_bytes(8, "little", signed=False)
    hasher = hashlib.blake2b(key=key, digest_size=8)
    values = np.frombuffer(b"".join([_digest(hasher, t) for t in tokens]), dtype="<u8")
    buckets = ((values >> np.uint64(1)) % np.uint64(source.dim - N_STATS)).astype(np.intp) + 1
    return np.where(values & np.uint64(1), buckets, -buckets)


class TokenCodes(dict):
    """The token memo of featurize_pairs: token -> id, numbered in order of
    first sight, and per source (`tables[i]` for the i-th source) the signed
    bucket code of each id. Looking up an unseen token gives it the next id."""

    def __init__(self, n_sources: int):
        super().__init__()
        self.tokens: list[str] = []  # by id
        self.tables = [np.zeros(0, dtype=np.intp) for _ in range(n_sources)]

    def __missing__(self, token: str) -> int:
        self[token] = token_id = len(self.tokens)
        self.tokens.append(token)
        return token_id


def featurize_pairs(
    pairs: Sequence[tuple[str, str]],
    sources: Sequence[SourceSpec],
    codes: Optional[TokenCodes] = None,
) -> list[np.ndarray]:
    """Map text pairs to one (n, source.dim) matrix per source, one row per
    pair in order.

    Deterministic for (texts, source); different featurizer seeds place the
    same tokens in different buckets with different signs. The two leading
    columns are overlap statistics shared by all sources. Each pair is
    tokenized once for all sources. codes, when given, is a memo for these
    sources, which this call reads and extends, so a token is hashed once per
    source however many calls share it; without it the call uses a fresh one.
    """
    codes = TokenCodes(len(sources)) if codes is None else codes
    outs = [np.zeros((len(pairs), source.dim), dtype=np.float64) for source in sources]
    for start in range(0, len(pairs), CHUNK_ROWS):
        chunk = pairs[start : start + CHUNK_ROWS]
        overlaps, smaller, lengths, tokens = [], [], [], []
        for text_a, text_b in chunk:
            a, b = _words(text_a), _words(text_b)
            a_set, b_set = set(a), set(b)
            overlap = a_set & b_set
            overlaps.append(len(overlap))
            smaller.append(min(len(a_set), len(b_set)))
            row_tokens = _pair_tokens(a, b, overlap)
            lengths.append(len(row_tokens))
            tokens += row_tokens
        rows = len(chunk)
        overlap_counts = np.array(overlaps, dtype=np.float64)
        stats = np.column_stack([np.tanh(overlap_counts / 4.0),
                                 overlap_counts / (1.0 + np.array(smaller, dtype=np.float64))])
        token_of = np.fromiter(map(codes.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        row_of = np.repeat(np.arange(rows), lengths)
        for i, (source, out) in enumerate(zip(sources, outs)):
            n_buckets = source.dim - N_STATS
            table = codes.tables[i]
            if len(table) < len(codes.tokens):
                new = _signed_codes(codes.tokens[len(table):], source)
                table = codes.tables[i] = np.concatenate([table, new])
            signed = table[token_of]
            counts = np.bincount(
                row_of * n_buckets - 1 + np.abs(signed),
                weights=np.sign(signed).astype(np.float64), minlength=rows * n_buckets,
            )
            # bincount returns integers when there is no token at all.
            bag = counts.astype(np.float64, copy=False).reshape(rows, n_buckets)
            norms = np.sqrt(np.einsum("ij,ij->i", bag, bag))
            norms[norms == 0] = 1.0  # an empty bag stays all zeros
            bag /= norms[:, None]
            out[start : start + rows, :N_STATS] = stats
            out[start : start + rows, N_STATS:] = bag
    return outs


def featurize(text_a: str, text_b: str, source: SourceSpec) -> np.ndarray:
    """Feature vector of length source.dim for one text pair."""
    return featurize_pairs([(text_a, text_b)], [source])[0][0]


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


def _read_blocks(path: Path, block_rows: list[int], rows: int, dim: int) -> list[np.ndarray]:
    """The row blocks of a matrix file that `FeatureCache.save` wrote, read one by one."""
    with path.open("rb") as fh:
        try:
            version = npy_format.read_magic(fh)
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        except (EOFError, ValueError) as exc:
            raise ValueError(f"{path.name}: {exc}") from exc
        if (version, fortran_order, dtype, shape) != ((1, 0), False, np.float64, (rows, dim)):
            raise ValueError(f"{path.name} holds {dtype} {shape}, expected float64 {(rows, dim)}")
        blocks = []
        for n in block_rows:
            block = np.fromfile(fh, dtype=np.float64, count=n * dim)
            if block.size != n * dim:
                raise ValueError(f"{path.name} is truncated")
            block = block.reshape(n, dim)
            block.flags.writeable = False
            blocks.append(block)
    return blocks


class FeatureCache:
    """Feature matrices for a fixed list of sources, keyed by sample content.

    Rows are keyed by sample content (id, text_a, text_b), so train, dev and
    eval splits of one dataset never share a row unless their samples are
    the same, while reloaded copies of a split and subsets of it (CV folds)
    reuse the stored rows. All sources share one row index: a lookup that
    misses featurizes the missing rows for every source in one call, so each
    row is tokenized once and every source's store gets the same block of
    rows. The token memo of all sources lives as long as the cache, so a
    token is hashed once per source. The cache keeps each
    Dataset object it has served with its rows, so a second lookup of it
    hashes no sample; the library never changes a Dataset's samples after
    building it, nor a SamplePair (which also lets the pipeline's memo of
    decoded samples hand one stage's samples to the next). A cache keeps
    every matrix it has built until it is dropped; `save` writes it out and
    `load` opens a saved one, which then featurizes only rows it does not
    hold.
    """

    def __init__(self, sources: Sequence[SourceSpec]):
        self._sources = list(dict.fromkeys(sources))
        # row blocks of each source, one per miss; the blocks of all sources line up
        self._blocks: dict[SourceSpec, list[np.ndarray]] = {s: [] for s in self._sources}
        self._codes = TokenCodes(len(self._sources))
        self._starts: list[int] = []  # first row of each block
        self._where: dict[bytes, int] = {}  # content key -> row
        self._served: dict[int, tuple[Dataset, np.ndarray]] = {}  # id -> (dataset, its rows)

    def save(self, directory: Path) -> dict:
        """Write the row index as keys.npy, each row's 16-byte content key in
        row order, and each source's rows as <name>.npy, a (rows, dim) float64
        matrix.

        A matrix's blocks are written one after another behind one .npy
        header, so saving holds no second copy of the rows. Returns the entry
        `load` reads: the row count, the rows per block, the keys file and,
        per source name, its featurizer seed, dim and matrix file.
        """
        directory.mkdir(parents=True, exist_ok=True)
        rows = len(self._where)
        keys = np.frombuffer(b"".join(self._where), dtype=np.uint8).reshape(-1, KEY_BYTES)
        np.save(directory / "keys.npy", keys, allow_pickle=False)
        sources = {}
        for source, blocks in self._blocks.items():
            matrix = f"{source.name}.npy"
            header = {"descr": npy_format.dtype_to_descr(np.dtype(np.float64)),
                      "fortran_order": False, "shape": (rows, source.dim)}
            with (directory / matrix).open("wb") as fh:
                npy_format.write_array_header_1_0(fh, header)
                for block in blocks:
                    block.tofile(fh)
            sources[source.name] = {"featurizer_seed": source.featurizer_seed,
                                    "dim": source.dim, "matrix": matrix}
        return {"rows": rows, "blocks": np.diff([*self._starts, rows]).tolist(),
                "keys": "keys.npy", "sources": sources}

    @classmethod
    def load(cls, directory: Path, entry: dict, sources: Sequence[SourceSpec]) -> "FeatureCache":
        """A cache of the given sources, seeded with the rows saved in
        directory, through the entry `save` returned.

        Reads only the keys file and the given sources' matrices, without
        pickles. Each matrix is read block by block into read-only blocks of
        the saved layout: blocks of the sizes the saving stage featurized can
        reuse memory it freed, where one whole-matrix array would not.
        Raises ValueError when the entry lists no source of that name, seed
        and dim, when its blocks do not add up to its rows, when a file is
        malformed, truncated or of another shape, or when a key repeats;
        OSError when a file is missing.
        """
        cache = cls(sources)
        rows, block_rows = entry["rows"], entry["blocks"]
        if sum(block_rows) != rows:
            raise ValueError(f"the store's blocks hold {sum(block_rows)} rows, not {rows}")
        keys = _load_npy(directory / entry["keys"])
        if keys.dtype != np.uint8 or keys.shape != (rows, KEY_BYTES):
            raise ValueError(f"{entry['keys']} holds {keys.dtype} {keys.shape} for {rows} rows")
        flat = keys.tobytes()
        cache._where = {flat[r * KEY_BYTES : (r + 1) * KEY_BYTES]: r for r in range(rows)}
        if len(cache._where) != rows:
            raise ValueError(f"{entry['keys']} repeats a key")
        cache._starts = [sum(block_rows[:b]) for b in range(len(block_rows))]
        for source in cache._sources:
            saved = entry["sources"].get(source.name, {})
            if (saved.get("featurizer_seed"), saved.get("dim")) != (source.featurizer_seed, source.dim):
                raise ValueError(
                    f"the store lists no source {source.name!r} with featurizer seed "
                    f"{source.featurizer_seed} and dim {source.dim}"
                )
            cache._blocks[source] = _read_blocks(directory / saved["matrix"], block_rows, rows,
                                                 source.dim)
        return cache

    def lookup(self, dataset: Dataset, source: SourceSpec) -> np.ndarray:
        """The dataset's (n, dim) feature matrix under the source, in sample order.

        Read-only. A dataset whose rows were featurized together, in this
        order, gets a view of the stored block rather than a copy. Raises
        ValueError for a source the cache was not built for.
        """
        blocks = self._blocks.get(source)
        if blocks is None:
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
                matrices = featurize_pairs(pairs, self._sources, codes=self._codes)
                for store, block in zip(self._blocks.values(), matrices):
                    block.flags.writeable = False
                    store.append(block)
                self._starts.append(first)
                where.update((keys[i], first + r) for r, i in enumerate(missing))
            rows = np.fromiter((where[k] for k in keys), dtype=np.intp, count=len(keys))
            served = self._served[id(dataset)] = (dataset, rows)
        rows = served[1]
        if not len(rows):
            return np.zeros((0, source.dim), dtype=np.float64)
        block_of = np.searchsorted(self._starts, rows, side="right") - 1
        local = rows - np.asarray(self._starts, dtype=np.intp)[block_of]
        if (block_of == block_of[0]).all() and (np.diff(local) == 1).all():
            return blocks[block_of[0]][local[0] : local[0] + len(rows)]
        out = np.empty((len(rows), source.dim), dtype=np.float64)
        for b, block in enumerate(blocks):
            mask = block_of == b
            if mask.any():
                out[mask] = block[local[mask]]
        out.flags.writeable = False
        return out
