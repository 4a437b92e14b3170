"""Bit-packed Hamming retrieval with optional feature re-ranking.

Codes live in {-1, +1}^bits.  For search each code is packed at its real
width, bit b set iff entry b is +1: one little-endian uint8, uint16 or
uint32 word when it has at most 8, 16 or 32 bits, and ceil(bits / 64)
uint64 words above that.  A packed row is thus the first bytes of the
little-endian uint64 row, and a whole-database scan is one XOR plus
popcount pass per query.  Hamming distance relates to the inner product by
u . v = bits - 2 * d_H.

RetrievalIndex.search is the one entry point for ranking: without topn it
returns the full Hamming (distance, id) order, the coarse_rank that
evaluation scores, and with topn the first min(topn, n) ids of that order,
re-sorted by Euclidean feature distance when a query feature is given.
Ties are broken by database id in both passes.  The distances, integers in
[0, bits], are summed one word column at a time into uint8 (uint16 above
255 bits), over blocks of 64k rows that reuse one XOR buffer, so the
temporaries stay in cache.  The full ranking radix-sorts them with a stable
sort.  Above 16k items the shortlist finds the smallest distance t that
holds at least topn items, estimated from a sample of the distances and
checked in one counting pass; it sorts only the items closer than t, fewer
than topn, and appends the first ids at t in id order, which gives exactly
the head of the full order without sorting the items tied at t.  A smaller
key is sorted whole.

Evaluation scores each full ranking from the positions of its relevant
items alone: it gathers the query's label mask through the ranking, takes
AP as the mean over those hits of (hits so far) / (1-based rank), and
precision@k as the number of hits in the first k ranks over k.  Above one
scan block the queries are ranked on every usable CPU, the calling thread
taking one strided share and helper threads the others; the scores are
summed in query order, so the result is the same bit for bit.
"""

from __future__ import annotations

import csv
import logging
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from .checkpoint import atomic_write
from .errors import ContractError, DimensionError, DomainError, FileFormatError, IngestionError

logger = logging.getLogger(__name__)

CODE_MAGIC = b"FHC1"
FEATURE_MAGIC = b"FHF1"
LABEL_HEADER = ("id", "label")
# the widest code: its distances, at most MAX_BITS, fit the uint16 key
MAX_BITS = (1 << 16) - 1


def _word_dtype(bits: int) -> np.dtype:
    """The little-endian word of a packed row: the narrowest of uint8,
    uint16 and uint32 that holds bits, and uint64 above 32 bits."""
    for size in (1, 2, 4):
        if bits <= 8 * size:
            return np.dtype(f"<u{size}")
    return np.dtype("<u8")


def _words_per_code(bits: int) -> int:
    width = 8 * _word_dtype(bits).itemsize
    return -(-bits // width)


@dataclass
class PackedCodes:
    """Database codes packed into [n, words per code] little-endian words
    of the code's word dtype (see the module docstring)."""

    words: np.ndarray
    bits: int

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_BITS:
            raise ContractError(f"PackedCodes: bits must be in [1, {MAX_BITS}], got {self.bits}")
        shape = np.shape(self.words)
        if len(shape) != 2 or shape[1] != _words_per_code(self.bits):
            raise DimensionError(
                f"PackedCodes: words shape {shape}, expected "
                f"[n, {_words_per_code(self.bits)}] for {self.bits} bits"
            )
        # a bit set past the code length in the last word is refused, so no
        # word wraps in the cast to the code's word dtype
        words = np.asarray(self.words)
        if words.dtype.kind != "u":
            words = words.astype(np.uint64)
        dtype = _word_dtype(self.bits)
        used = (self.bits - 1) % (8 * dtype.itemsize) + 1  # bits held by the last word
        if used < 8 * words.dtype.itemsize and np.any(words[:, -1] >> words.dtype.type(used)):
            raise ContractError(
                f"PackedCodes: bits beyond the {self.bits}-bit code length must be zero"
            )
        self.words = np.ascontiguousarray(words, dtype=dtype)

    def __len__(self) -> int:
        return self.words.shape[0]


def _require_code_dtype(codes: np.ndarray) -> None:
    if codes.dtype.kind not in "if":
        raise DomainError(
            f"pack_codes: codes dtype {codes.dtype}, expected signed integers or real floats"
        )


def _require_pm1(codes: np.ndarray) -> None:
    if not np.all((codes == 1) | (codes == -1)):
        raise DomainError("pack_codes: entries must be +/-1")


# +/-1 entries per block of pack_codes: the block's bool temporaries stay
# in cache between the check and the packing
_PACK_BLOCK = 1 << 17


def pack_codes(codes: np.ndarray) -> PackedCodes:
    """Pack a [n, bits] +/-1 matrix, least significant bit first.

    The matrix may have any signed-integer or real floating dtype; it is
    checked and packed in that dtype, with no float copy, a block of rows
    at a time into one preallocated byte matrix, so the scratch memory is a
    few bool blocks of _PACK_BLOCK entries.  Any other dtype (bool,
    unsigned, complex, strings, objects) raises DomainError naming it, and
    so does any entry other than -1 or +1.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] < 1:
        raise DimensionError(f"pack_codes: codes shape {codes.shape}, expected [n, bits]")
    _require_code_dtype(codes)
    count, bits = codes.shape
    dtype = _word_dtype(bits)
    rows = np.zeros((count, _words_per_code(bits) * dtype.itemsize), dtype=np.uint8)
    used = -(-bits // 8)  # bytes that hold bits; the rest of the row is padding
    step = max(1, _PACK_BLOCK // bits)
    # each block's signs, padded with zeros to whole bytes, so the block
    # packs as one flat run of bytes
    signs = np.zeros((min(count, step), 8 * used), dtype=bool)
    for start in range(0, count, step):
        block = codes[start:start + step]
        _require_pm1(block)
        flags = signs[:len(block)]
        np.greater(block, 0, out=flags[:, :bits])
        rows[start:start + step, :used] = np.packbits(flags, bitorder="little").reshape(-1, used)
    return PackedCodes(words=rows.view(dtype), bits=bits)


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Inverse of pack_codes, back to a +/-1 float64 matrix."""
    raw = packed.words.view(np.uint8)
    bits01 = np.unpackbits(raw, axis=1, bitorder="little")[:, : packed.bits]
    return np.where(bits01 > 0, 1.0, -1.0)


# rows per block of the distance scan: the XOR scratch (one word per row,
# 64 KB to 512 KB) and the key block stay in cache between the word columns
_SCAN_BLOCK = 1 << 16


def _distance_key(packed: PackedCodes, query_words: np.ndarray) -> np.ndarray:
    """Hamming distance from one packed query to every database row, as
    uint8 (uint16 above 255 bits), accumulated one word column at a time
    over blocks of _SCAN_BLOCK rows."""
    words = packed.words
    key = np.empty(len(words), dtype=np.min_scalar_type(packed.bits))
    # numpy's popcount of uint16 is slower per element than of uint32, so
    # uint16 words are XORed into a uint32 scratch
    scratch = np.uint32 if words.dtype == np.uint16 else words.dtype
    xor = np.empty(min(len(words), _SCAN_BLOCK), dtype=scratch)
    count = np.empty(len(xor), dtype=np.uint8)
    for start in range(0, len(words), _SCAN_BLOCK):
        block = words[start:start + _SCAN_BLOCK]
        out = key[start:start + _SCAN_BLOCK]
        x, c = xor[:len(block)], count[:len(block)]
        np.bitwise_count(np.bitwise_xor(block[:, 0], query_words[0], out=x), out=out)
        for j in range(1, words.shape[1]):
            out += np.bitwise_count(np.bitwise_xor(block[:, j], query_words[j], out=x), out=c)
    return key


# entries of the distance key sampled to estimate the shortlist threshold.
# A key no longer than this is sorted whole: up to that length one radix
# sort costs no more than the counting calls (on 2 vCPUs, 2.7 against
# 13.7 us at 400 items, about even at 16k)
_SHORTLIST_SAMPLE = 1 << 14


def _shortlist(key: np.ndarray, topn: int) -> np.ndarray:
    """The first min(topn, n) ids of the (distance, id) order of key.

    Above _SHORTLIST_SAMPLE entries, a strided sample of the key, counted
    exactly, estimates the smallest distance t that holds that many items;
    one pass over the key takes the items within t, and steps t up only if
    they fall short.  The exact threshold comes from the candidates' own
    distances: only the candidates below it, fewer than topn, are sorted,
    and the first ids needed at it follow in id order.  A shorter key is
    stable-sorted whole.
    """
    size = min(topn, len(key))
    if len(key) <= _SHORTLIST_SAMPLE:
        return np.argsort(key, kind="stable")[:size]
    counts = np.cumsum(np.bincount(key[::-(-len(key) // _SHORTLIST_SAMPLE)]))
    t = int(np.searchsorted(counts, size * counts[-1] / len(key)))
    ids = np.flatnonzero(key <= t)
    while len(ids) < size:  # the estimate fell short
        t += 1
        ids = np.flatnonzero(key <= t)
    near = key[ids]
    t = int(np.searchsorted(np.cumsum(np.bincount(near)), size))
    below = np.flatnonzero(near < t)
    below = below[np.argsort(near[below], kind="stable")]
    return ids[np.concatenate([below, np.flatnonzero(near == t)[:size - len(below)]])]


def _query_words(packed: PackedCodes, query_code: np.ndarray) -> np.ndarray:
    """One +/-1 query code of the database's width, checked as pack_codes
    checks a row and packed on its own into the words pack_codes gives it."""
    query_code = np.asarray(query_code)
    if query_code.shape != (packed.bits,):
        raise DimensionError(
            f"query code shape {query_code.shape}, expected ({packed.bits},)"
        )
    _require_code_dtype(query_code)
    _require_pm1(query_code)
    row = np.zeros(packed.words.shape[1], dtype=packed.words.dtype)
    flags = np.packbits(query_code > 0, bitorder="little")
    row.view(np.uint8)[:len(flags)] = flags
    return row


def _query_key(packed: PackedCodes, query_code: np.ndarray) -> np.ndarray:
    """The distance key of one +/-1 query code against the database."""
    return _distance_key(packed, _query_words(packed, query_code))


def coarse_rank(packed: PackedCodes, query_code: np.ndarray) -> np.ndarray:
    """Full Hamming ranking of the database for one +/-1 query code: ids by
    distance, ties broken by database id.  numpy's stable argsort
    radix-sorts the uint8/uint16 distances."""
    return np.argsort(_query_key(packed, query_code), kind="stable")


def rerank(order: np.ndarray, features: np.ndarray, query_feature: np.ndarray,
           topn: int) -> np.ndarray:
    """Re-sort the first topn of order by Euclidean feature distance.

    The tail keeps its coarse order; ties in the head fall back to id.
    """
    if topn < 0:
        raise ContractError(f"rerank: topn must be >= 0, got {topn}")
    order = np.asarray(order)
    features = np.asarray(features)
    query_feature = np.asarray(query_feature)
    if features.ndim != 2 or query_feature.shape != (features.shape[1],):
        raise DimensionError(
            f"rerank: features {features.shape} vs query {query_feature.shape}"
        )
    head = order[:topn]
    diffs = features[head].astype(np.float64) - query_feature.astype(np.float64)
    sq_dists = np.sum(diffs * diffs, axis=1)
    return np.concatenate([head[np.lexsort((head, sq_dists))], order[topn:]])


def format_bytes(size: float) -> str:
    """Decimal units with one fractional digit, the unit chosen after rounding:
    404000 -> '404.0KB', 999950 -> '1.0MB'."""
    if size < 0:
        raise ContractError(f"format_bytes: size must be >= 0, got {size}")
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        text = f"{value:.1f}"
        if float(text) < 1000.0 or unit == "GB":
            return text + unit
        value /= 1000.0
    raise AssertionError("unreachable")


def save_packed(path: str | Path, packed: PackedCodes) -> None:
    """FHC1 file: magic, u64 count, u64 bits, row-major little-endian code
    words of the code's word dtype."""
    with atomic_write(path) as fh:
        fh.write(CODE_MAGIC)
        fh.write(struct.pack("<QQ", len(packed), packed.bits))
        fh.write(packed.words.tobytes(order="C"))


def load_packed(path: str | Path) -> PackedCodes:
    blob = Path(path).read_bytes()
    if blob[:4] != CODE_MAGIC:
        raise FileFormatError(f"{path}: bad code file magic {blob[:4]!r}")
    if len(blob) < 20:
        raise FileFormatError(f"{path}: truncated code file header")
    count, bits = struct.unpack("<QQ", blob[4:20])
    if not 1 <= bits <= MAX_BITS:
        raise FileFormatError(f"{path}: stored width {bits} bits outside [1, {MAX_BITS}]")
    words, dtype = _words_per_code(bits), _word_dtype(bits)
    expected = 20 + count * words * dtype.itemsize
    if len(blob) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes, {count} rows of {words} x {dtype.name} "
            f"for {bits}-bit codes; found {len(blob)}"
        )
    data = np.frombuffer(blob, dtype=dtype, offset=20).reshape(int(count), words)
    try:
        return PackedCodes(words=data.copy(), bits=int(bits))
    except ContractError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_features(path: str | Path, features: np.ndarray) -> None:
    """FHF1 file: magic, u64 count, u64 dim, float32 little-endian values."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise DimensionError(f"save_features: shape {features.shape}, expected [n, dim]")
    with atomic_write(path) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QQ", features.shape[0], features.shape[1]))
        fh.write(features.astype("<f4").tobytes(order="C"))


def load_features(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise FileFormatError(f"{path}: bad feature file magic {blob[:4]!r}")
    if len(blob) < 20:
        raise FileFormatError(f"{path}: truncated feature file header")
    count, dim = struct.unpack("<QQ", blob[4:20])
    if dim < 1:
        raise FileFormatError(f"{path}: stored dimension must be >= 1")
    expected = 20 + count * dim * 4
    if len(blob) != expected:
        raise FileFormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    try:
        features = np.frombuffer(blob, dtype="<f4", offset=20).reshape(int(count), int(dim))
    except ValueError:  # 0 rows of a dimension too large for an array
        raise FileFormatError(
            f"{path}: {count} rows of dimension {dim} cannot form an array") from None
    finite = np.isfinite(features)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise FileFormatError(f"{path}: feature row {row} holds NaN or Inf")
    return features.copy()


def save_labels(path: str | Path, labels: np.ndarray) -> None:
    """CSV with an id,label header and one row per database item."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"save_labels: shape {labels.shape}, expected [n]")
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_HEADER)
        for item_id, label in enumerate(labels):
            writer.writerow([item_id, int(label)])


def load_labels(path: str | Path) -> np.ndarray:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: cannot read labels: {exc}") from exc
    rows = list(csv.reader(lines))
    if not rows or tuple(cell.strip() for cell in rows[0]) != LABEL_HEADER:
        raise IngestionError(f"{path}: line 1: expected id,label header")
    labels = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise IngestionError(f"{path}: line {line_no}: expected id,label")
        try:
            item_id, label = int(row[0]), int(row[1])
        except ValueError:
            raise IngestionError(f"{path}: line {line_no}: non-integer field") from None
        if not -(1 << 63) <= label < 1 << 63:
            raise IngestionError(f"{path}: line {line_no}: label {label} outside int64")
        if item_id != len(labels):
            raise IngestionError(
                f"{path}: line {line_no}: ids must run 0..n-1 in order, got {item_id}"
            )
        labels.append(label)
    return np.array(labels, dtype=np.int64)


class RetrievalIndex:
    """Packed codes plus optional labels and re-ranking features."""

    def __init__(self, packed: PackedCodes, labels: np.ndarray | None = None,
                 features: np.ndarray | None = None):
        self.packed = packed
        self.labels = None if labels is None else np.asarray(labels)
        self.features = None if features is None else np.asarray(features)
        if self.labels is not None and len(self.labels) != len(packed):
            raise DimensionError(
                f"RetrievalIndex: {len(self.labels)} labels for {len(packed)} codes"
            )
        if self.features is not None and self.features.shape[0] != len(packed):
            raise DimensionError(
                f"RetrievalIndex: {self.features.shape[0]} feature rows for {len(packed)} codes"
            )

    def __len__(self) -> int:
        return len(self.packed)

    def search(self, query_code: np.ndarray, query_feature: np.ndarray | None = None,
               topn: int | None = None) -> np.ndarray:
        """Database ids ranked for one +/-1 query code: the full Hamming
        (distance, id) order, or with topn its first min(topn, n) ids,
        re-sorted by feature distance when query_feature is given."""
        if query_feature is not None and self.features is None:
            raise ContractError("search: re-ranking requested without features")
        if topn is None:
            return coarse_rank(self.packed, query_code)
        if topn < 0:
            raise ContractError(f"search: topn must be >= 0, got {topn}")
        shortlist = _shortlist(_query_key(self.packed, query_code), topn)
        if query_feature is None:
            return shortlist
        return rerank(shortlist, self.features, query_feature, topn)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def evaluate_queries(index: RetrievalIndex, query_codes: np.ndarray,
                     query_labels: np.ndarray, query_features: np.ndarray | None = None,
                     topn: int | None = None, ks: tuple[int, ...] = (1, 5, 10)) -> dict:
    """Mean AP and precision@k over a query set against one index."""
    if index.labels is None:
        raise ContractError("evaluate_queries: index has no labels")
    query_codes = np.asarray(query_codes)
    query_labels = np.asarray(query_labels)
    if len(query_codes) != len(query_labels) or len(query_codes) == 0:
        raise ContractError("evaluate_queries: empty or mismatched query set")
    for k in ks:
        if not 1 <= k <= len(index):
            raise ContractError(f"evaluate_queries: k={k} outside [1, {len(index)}]")
    if topn is not None:
        if index.features is None or query_features is None:
            raise ContractError("evaluate_queries: re-ranking requested without features")
        query_features = np.asarray(query_features)
        expected = (len(query_codes), index.features.shape[1])
        if query_features.shape != expected:
            raise DimensionError(
                f"evaluate_queries: query features shape {query_features.shape}, "
                f"expected {list(expected)}"
            )

    def score(i: int) -> tuple[float | None, dict[int, float]]:
        """AP (None without relevant items) and precision@k of query i,
        from the positions of its relevant items in its full ranking."""
        order = coarse_rank(index.packed, query_codes[i])
        if topn is not None:
            order = rerank(order, index.features, query_features[i], topn)
        hits = np.flatnonzero((index.labels == query_labels[i])[order])
        ap = float(np.mean(np.arange(1, len(hits) + 1) / (hits + 1))) if len(hits) else None
        return ap, {k: np.count_nonzero(hits < k) / k for k in ks}

    count = len(query_codes)
    shares = min(_usable_cpus(), count) if len(index) > _SCAN_BLOCK else 1
    scores = [None] * count

    def score_share(share: int) -> None:
        for i in range(share, count, shares):
            scores[i] = score(i)

    if shares == 1:
        score_share(0)
    else:
        # the ranking calls release the GIL; the caller works share 0, so
        # there are never more ranking threads than CPUs.  Imported here:
        # evaluations of one scan block or less never load the module.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(shares - 1) as pool:
            helpers = [pool.submit(score_share, share) for share in range(1, shares)]
            score_share(0)
            for helper in helpers:
                helper.result()
    aps = []
    for label, (ap, _) in zip(query_labels, scores):
        if ap is None:
            logger.warning("query with label %r has no relevant database items; skipped", label)
        else:
            aps.append(ap)
    if not aps:
        raise ContractError("evaluate_queries: no query has relevant items")
    return {
        "map": float(np.mean(aps)),
        "precision_at": {k: float(np.mean([precision[k] for _, precision in scores]))
                         for k in ks},
        "queries": count,
    }


def bench_scan(codes: np.ndarray, query_codes: np.ndarray, reps: int = 5) -> dict:
    """Median wall time of the distance pass, packed versus float32.

    Both modes loop over queries and compute every database distance: the
    packed mode runs the narrow distance key that every ranking scans with,
    and the float32 baseline stores each code as a float vector and runs a
    full Euclidean scan.  Sorting is excluded so the figure isolates the
    scan.  packed_bytes is the size of the packed rows, in whole words.
    """
    if reps < 1:
        raise ContractError(f"bench_scan: reps must be >= 1, got {reps}")
    codes = np.asarray(codes, dtype=np.float64)
    query_codes = np.asarray(query_codes, dtype=np.float64)
    packed = pack_codes(codes)
    query_words = pack_codes(query_codes).words
    floats = codes.astype(np.float32)
    query_floats = query_codes.astype(np.float32)

    sink = 0.0

    def run_packed() -> float:
        nonlocal sink
        started = time.perf_counter()
        for row in query_words:
            sink += float(_distance_key(packed, row)[0])
        return time.perf_counter() - started

    def run_float() -> float:
        nonlocal sink
        started = time.perf_counter()
        for row in query_floats:
            diffs = floats - row[None, :]
            dists = np.sum(diffs * diffs, axis=1)
            sink += float(dists[0])
        return time.perf_counter() - started

    packed_times = [run_packed() for _ in range(reps)]
    float_times = [run_float() for _ in range(reps)]
    packed_seconds = median(packed_times)
    float_seconds = median(float_times)
    return {
        "database": len(packed),
        "queries": query_codes.shape[0],
        "bits": packed.bits,
        "packed_bytes": packed.words.nbytes,
        "reps": reps,
        "packed_seconds": packed_seconds,
        "float_seconds": float_seconds,
        "packed_spread": max(packed_times) - min(packed_times),
        "float_spread": max(float_times) - min(float_times),
        "speedup": float_seconds / packed_seconds,
    }
