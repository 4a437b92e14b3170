"""Independent oracles shared across the test suite.

Every expected value checked against library output is recomputed here
through a route that does not share code with the implementation: central
finite differences for gradients, dense python/numpy loops for rankers and
metrics, and explicit sign enumeration for the discrete code updates.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from finehash.errors import DimensionError, DomainError
from finehash.model import ModelParams
from finehash.pq import PQCodebook
from finehash.retrieval import RetrievalIndex, pack_codes


def finite_difference(
    func: Callable[..., float], arrays: Sequence[np.ndarray], eps: float = 1e-5
) -> list[np.ndarray]:
    """Central finite-difference gradients of a scalar function.

    Args:
        func: called as func(*arrays), returns a float.  Must not retain
            references to the arrays between calls.
        arrays: float64 arrays; perturbed in place and restored.
        eps: half-width of the central difference stencil.

    Returns:
        One gradient array per input, in order.
    """
    grads = []
    for base in arrays:
        grad = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = func(*arrays)
            flat[i] = keep - eps
            lo = func(*arrays)
            flat[i] = keep
            grad_flat[i] = (hi - lo) / (2.0 * eps)
        grads.append(grad)
    return grads


def float64_params(params: ModelParams) -> ModelParams:
    """The same weights as a network that computes in float64.

    Checks whose tolerance only double precision meets (finite differences,
    batch-versus-single gradient sums) run on such a copy.
    """
    arrays = {name: values.astype(np.float64) for name, values in params.arrays().items()}
    return ModelParams.from_arrays(params.config, arrays)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm of the difference over the larger norm, floored to avoid 0/0."""
    a = np.ravel(np.asarray(a, dtype=np.float64))
    b = np.ravel(np.asarray(b, dtype=np.float64))
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def naive_hamming_order(db_codes: np.ndarray, query_code: np.ndarray, topn: int) -> np.ndarray:
    """Rank +/-1 code rows by Hamming distance, ties broken by ascending id."""
    keyed = []
    for idx, row in enumerate(db_codes):
        dist = int(np.sum(row != query_code))
        keyed.append((dist, idx))
    keyed.sort()
    return np.array([idx for _, idx in keyed[:topn]], dtype=np.int64)


def reference_u64_rows(codes: np.ndarray) -> np.ndarray:
    """The older packed layout, built bit by bit with python integers: each
    +/-1 row as ceil(bits / 64) little-endian uint64 words, bit b of the
    code at bit b % 64 of word b // 64, set iff entry b is +1."""
    count, bits = codes.shape
    rows = np.zeros((count, -(-bits // 64)), dtype="<u8")
    for i, row in enumerate(codes):
        for b, entry in enumerate(row):
            if entry > 0:
                rows[i, b // 64] |= np.uint64(1 << (b % 64))
    return rows


def naive_euclidean_order(
    features: np.ndarray, candidate_ids: np.ndarray, query_feature: np.ndarray, topk: int
) -> np.ndarray:
    """Rank candidate ids by Euclidean distance to the query, ties by id."""
    keyed = []
    for idx in candidate_ids:
        diff = features[int(idx)].astype(np.float64) - query_feature.astype(np.float64)
        keyed.append((float(np.sqrt(np.sum(diff * diff))), int(idx)))
    keyed.sort()
    return np.array([idx for _, idx in keyed[:topk]], dtype=np.int64)


def ranked_index(labels: Sequence[int]) -> tuple[RetrievalIndex, np.ndarray]:
    """An index whose item i lies at Hamming distance i from the returned
    all-ones query, so that query ranks the items in id order and its
    complement ranks them in reverse."""
    count = len(labels)
    bits = max(count - 1, 1)
    codes = np.where(np.arange(bits) < np.arange(count)[:, None], -1.0, 1.0)
    return RetrievalIndex(pack_codes(codes), labels=np.asarray(labels)), np.ones(bits)


def naive_average_precision(relevant_flags: Sequence[bool]) -> float:
    """Average precision of one ranking given per-position relevance flags."""
    hits = 0
    precisions = []
    for pos, flag in enumerate(relevant_flags, start=1):
        if flag:
            hits += 1
            precisions.append(hits / pos)
    if not precisions:
        raise ValueError("no relevant items in ranking")
    return float(np.mean(precisions))


def hellinger_distance(p: Sequence[float], r: Sequence[float]) -> float:
    """Exact Hellinger distance between two probability vectors.

    Symmetric, bounded by 1, and zero iff the arguments are equal.  Inputs
    must be nonnegative rank-1 arrays of equal length summing to 1 within
    1e-9.
    """
    p = np.asarray(p, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if p.ndim != 1 or r.ndim != 1:
        raise DimensionError("hellinger_distance: rank-1 inputs required")
    if p.size != r.size:
        raise DimensionError(f"hellinger_distance: lengths {p.size} and {r.size} differ")
    for name, vec in (("p", p), ("r", r)):
        if np.any(vec < 0.0):
            raise DomainError(f"hellinger_distance: {name} has negative entries")
        if abs(vec.sum() - 1.0) > 1e-9:
            raise DomainError(f"hellinger_distance: {name} sums to {vec.sum()}, not 1")
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(r)) / np.sqrt(2.0))


def decode_pq(codebook: PQCodebook, codes: np.ndarray) -> np.ndarray:
    """Reconstruction of each PQ-coded row: its subspace centroids, concatenated."""
    return np.array([
        np.concatenate([codebook.centroids[j][int(c)] for j, c in enumerate(row)])
        for row in codes
    ])


def naive_frobenius_objective(
    relaxed: np.ndarray, codes: np.ndarray, sim: np.ndarray, bits: int
) -> float:
    """Loop-computed ||relaxed codes^T - bits * sim||_F^2."""
    total = 0.0
    for i in range(relaxed.shape[0]):
        for j in range(codes.shape[0]):
            resid = float(relaxed[i] @ codes[j]) - bits * float(sim[i, j])
            total += resid * resid
    return total


def enumerate_code_column(
    relaxed: np.ndarray, codes: np.ndarray, sim: np.ndarray, bits: int, col: int
) -> np.ndarray:
    """Optimal column update found by trying both signs for every entry.

    The Frobenius objective decomposes over database items, so for item j
    the best sign of codes[j, col] (all other entries fixed) is found by
    evaluating the objective restricted to row j at both signs.  Exact ties
    keep the previous value.
    """
    updated = codes.copy()
    for j in range(codes.shape[0]):
        scores = {}
        for sign in (-1.0, 1.0):
            trial = codes[j].copy()
            trial[col] = sign
            resid = relaxed @ trial - bits * sim[:, j]
            scores[sign] = float(resid @ resid)
        if scores[1.0] < scores[-1.0]:
            updated[j, col] = 1.0
        elif scores[-1.0] < scores[1.0]:
            updated[j, col] = -1.0
    return updated
