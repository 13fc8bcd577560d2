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
an (n, dim) matrix. It hashes each distinct token once per call and counts
the signed bag a chunk of rows at a time; bag entries are integer counts,
so the result does not depend on summation order. `FeatureCache` stores
those matrices per source, keyed by sample content, and hands training and
prediction a dataset's matrix in sample order; mini-batches are then row
selections of it. A cache can be saved as one .npy matrix plus its row keys
per source and loaded again, so the rows one pipeline stage built serve the
stages after it: each row of a run is featurized once.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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


def featurize_pairs(pairs: Sequence[tuple[str, str]], source: SourceSpec) -> np.ndarray:
    """Map text pairs to an (n, source.dim) matrix, one row per pair in order.

    Deterministic for (texts, source); different featurizer seeds place the
    same tokens in different buckets with different signs. The two leading
    columns are overlap statistics shared by all sources.
    """
    n_buckets = source.dim - N_STATS
    key = int(source.featurizer_seed).to_bytes(8, "little", signed=False)
    hasher = hashlib.blake2b(key=key, digest_size=8)
    out = np.zeros((len(pairs), source.dim), dtype=np.float64)
    # Token -> signed bucket code, sign * (bucket + 1); lives for this call only.
    codes: dict[str, int] = {}
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
        new = list(set(tokens).difference(codes))
        if new:
            # Each token's 64-bit little-endian digest: low bit is the sign, the rest the bucket.
            values = np.frombuffer(b"".join([_digest(hasher, t) for t in new]), dtype="<u8")
            buckets = ((values >> np.uint64(1)) % np.uint64(n_buckets)).astype(np.intp) + 1
            codes.update(zip(new, np.where(values & np.uint64(1), buckets, -buckets).tolist()))
        rows = len(chunk)
        overlap_counts = np.array(overlaps, dtype=np.float64)
        block = out[start : start + rows]
        block[:, 0] = np.tanh(overlap_counts / 4.0)
        block[:, 1] = overlap_counts / (1.0 + np.array(smaller, dtype=np.float64))
        signed = np.fromiter(map(codes.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        flat = np.repeat(np.arange(rows) * n_buckets - 1, lengths) + np.abs(signed)
        counts = np.bincount(
            flat, weights=np.sign(signed).astype(np.float64), minlength=rows * n_buckets
        )
        # bincount returns integers when there is no token at all.
        bag = counts.astype(np.float64, copy=False).reshape(rows, n_buckets)
        norms = np.sqrt(np.einsum("ij,ij->i", bag, bag))
        norms[norms == 0] = 1.0  # an empty bag stays all zeros
        bag /= norms[:, None]
        block[:, N_STATS:] = bag
    return out


def featurize(text_a: str, text_b: str, source: SourceSpec) -> np.ndarray:
    """Feature vector of length source.dim for one text pair."""
    return featurize_pairs([(text_a, text_b)], source)[0]


def featurize_dataset(dataset: Dataset, source: SourceSpec) -> np.ndarray:
    """Feature matrix (n_samples x dim) for a whole dataset, in sample order."""
    return featurize_pairs([(s.text_a, s.text_b) for s in dataset], source)


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
        if (version, fortran_order, dtype, shape, sum(block_rows)) != (
            (1, 0), False, np.float64, (rows, dim), rows
        ):
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
    """Feature matrices per source, keyed by sample content.

    Rows are keyed by sample content (id, text_a, text_b), so train, dev and
    eval splits of one dataset never share a row unless their samples are
    the same, while reloaded copies of a split and subsets of it (CV folds)
    reuse the stored rows. Each row is featurized once. A cache keeps every
    matrix it has built until it is dropped; `save` writes it out and `load`
    opens a saved one, which then featurizes only rows it does not hold.
    """

    def __init__(self):
        # source key -> (row blocks, first global row of each block, content key -> global row)
        self._stores: dict[tuple, tuple[list[np.ndarray], list[int], dict[bytes, int]]] = {}

    def save(self, directory: Path) -> dict[str, dict]:
        """Write each source's rows as <name>.npy, an (rows, dim) float64 matrix,
        and their 16-byte content keys in row order as <name>.keys.npy.

        Blocks are written one after another behind one .npy header, so
        saving holds no second copy of the rows. Returns, per source name,
        its featurizer seed, dim, row count, file names and rows per block.
        """
        directory.mkdir(parents=True, exist_ok=True)
        entries = {}
        for (name, seed, dim), (blocks, _, where) in sorted(self._stores.items()):
            matrix, keys = f"{name}.npy", f"{name}.keys.npy"
            header = {"descr": npy_format.dtype_to_descr(np.dtype(np.float64)),
                      "fortran_order": False, "shape": (len(where), dim)}
            with (directory / matrix).open("wb") as fh:
                npy_format.write_array_header_1_0(fh, header)
                for block in blocks:
                    block.tofile(fh)
            key_rows = np.frombuffer(b"".join(where), dtype=np.uint8).reshape(-1, KEY_BYTES)
            np.save(directory / keys, key_rows, allow_pickle=False)
            entries[name] = {"featurizer_seed": seed, "dim": dim, "rows": len(where),
                             "matrix": matrix, "keys": keys, "blocks": [len(b) for b in blocks]}
        return entries

    @classmethod
    def load(cls, directory: Path, entries: dict[str, dict]) -> "FeatureCache":
        """A cache seeded with the saved stores `entries` lists (as `save` returns them).

        Reads only the listed files, without pickles, and keeps each block
        read-only. The matrix is read back block by block, so the loaded
        store has the block layout it was saved with. Raises ValueError when
        a file is malformed or truncated, or when its shape, the key count
        and the entry disagree; OSError when a file is missing.
        """
        cache = cls()
        for name, entry in sorted(entries.items()):
            rows = entry["rows"]
            blocks = _read_blocks(directory / entry["matrix"], entry["blocks"], rows, entry["dim"])
            keys = _load_npy(directory / entry["keys"])
            if keys.dtype != np.uint8 or keys.shape != (rows, KEY_BYTES):
                raise ValueError(f"{entry['keys']} holds {keys.dtype} {keys.shape} for {rows} rows")
            flat = keys.tobytes()
            where = {flat[r * KEY_BYTES : (r + 1) * KEY_BYTES]: r for r in range(rows)}
            if len(where) != rows:
                raise ValueError(f"{entry['keys']} repeats a key")
            starts = [sum(entry["blocks"][:b]) for b in range(len(blocks))]
            cache._stores[(name, entry["featurizer_seed"], entry["dim"])] = (blocks, starts, where)
        return cache

    def lookup(self, dataset: Dataset, source: SourceSpec) -> np.ndarray:
        """The dataset's (n, dim) feature matrix under the source, in sample order.

        Read-only. A dataset whose rows were featurized together, in this
        order, gets a view of the stored block rather than a copy.
        """
        blocks, starts, where = self._stores.setdefault(
            (source.name, source.featurizer_seed, source.dim), ([], [], {})
        )
        keys = [_content_key(s) for s in dataset]
        missing = [i for i, k in enumerate(keys) if k not in where]
        if missing:
            first = starts[-1] + len(blocks[-1]) if blocks else 0
            pairs = [(dataset.samples[i].text_a, dataset.samples[i].text_b) for i in missing]
            block = featurize_pairs(pairs, source)
            block.flags.writeable = False
            blocks.append(block)
            starts.append(first)
            where.update((keys[i], first + r) for r, i in enumerate(missing))
        rows = np.fromiter((where[k] for k in keys), dtype=np.intp, count=len(keys))
        if not len(rows):
            return np.zeros((0, source.dim), dtype=np.float64)
        block_of = np.searchsorted(starts, rows, side="right") - 1
        local = rows - np.asarray(starts, dtype=np.intp)[block_of]
        if (block_of == block_of[0]).all() and (np.diff(local) == 1).all():
            return blocks[block_of[0]][local[0] : local[0] + len(rows)]
        out = np.empty((len(rows), source.dim), dtype=np.float64)
        for b, block in enumerate(blocks):
            mask = block_of == b
            if mask.any():
                out[mask] = block[local[mask]]
        out.flags.writeable = False
        return out
