"""Product quantization baseline: per-subspace k-means and ADC ranking.

Feature vectors are split into equal contiguous subspaces, each quantized
by its own k-means codebook with at most 256 centroids so a code is one
byte per subspace.  Query distances come from an asymmetric distance
computation (ADC): per-subspace lookup tables of squared distances summed
across subspaces, which equals the squared Euclidean distance between the
query and the reconstruction.

It is a library baseline with no file format: a comparison fits the
codebook in-process on the descriptors it ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           iters: int = 25) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's k-means with distance-weighted seeding.

    Returns (centroids, assignments, sse_trace).  The trace records the sum
    of squared distances after every assignment step and never increases:
    mean updates minimize the objective for fixed assignments, an empty
    cluster reseeded onto the farthest point has no assigned points to
    disturb, and reassignment can only shrink each point's term.
    Assignment ties go to the lowest centroid index.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionError(f"kmeans: points shape {points.shape}, expected [n, d]")
    count = points.shape[0]
    if not 1 <= k <= count:
        raise ContractError(f"kmeans: k={k} outside [1, {count}]")
    if iters < 1:
        raise ContractError(f"kmeans: iters must be >= 1, got {iters}")

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(count)]
    nearest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(nearest.sum())
        if total > 0.0:
            draw = rng.random() * total
            pick = min(int(np.searchsorted(np.cumsum(nearest), draw, side="right")),
                       count - 1)
        else:
            pick = int(rng.integers(count))  # all remaining points coincide
        centroids[j] = points[pick]
        nearest = np.minimum(nearest, np.sum((points - centroids[j]) ** 2, axis=1))

    assignments = _assign(points, centroids)
    trace = [_sse(points, centroids, assignments)]
    for _ in range(iters):
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                gathered = points - centroids[assignments]
                farthest = int(np.argmax(np.sum(gathered * gathered, axis=1)))
                centroids[j] = points[farthest]
        fresh = _assign(points, centroids)
        trace.append(_sse(points, centroids, fresh))
        if np.array_equal(fresh, assignments):
            assignments = fresh
            break
        assignments = fresh
    return centroids, assignments, trace


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||p - c||^2 expanded around the gram matrix; argmin breaks ties low
    dists = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    return np.argmin(dists, axis=1)


def _sse(points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    diffs = points - centroids[assignments]
    return float(np.sum(diffs * diffs))


@dataclass
class PQCodebook:
    """Per-subspace centroid tables, shape [subspaces, centroids, sub_dim]."""

    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 3:
            raise DimensionError(
                f"PQCodebook: centroids shape {self.centroids.shape}, expected [m, k, sub_dim]"
            )
        if not 1 <= self.centroids.shape[1] <= 256:
            raise ContractError(
                f"PQCodebook: {self.centroids.shape[1]} centroids, one-byte codes allow 1..256"
            )
        if not np.all(np.isfinite(self.centroids)):
            raise ContractError("PQCodebook: centroids must be finite")

    @property
    def subspaces(self) -> int:
        return self.centroids.shape[0]

    @property
    def centroids_per_space(self) -> int:
        return self.centroids.shape[1]

    @property
    def dim(self) -> int:
        return self.centroids.shape[0] * self.centroids.shape[2]


def _split(features: np.ndarray, subspaces: int) -> np.ndarray:
    count, dim = features.shape
    return features.reshape(count, subspaces, dim // subspaces)


def train_pq(features: np.ndarray, subspaces: int = 8, centroids: int = 256,
             iters: int = 25, seed: int = 0) -> PQCodebook:
    """Fit one k-means codebook per contiguous feature subspace."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionError(f"train_pq: features shape {features.shape}, expected [n, d]")
    count, dim = features.shape
    if subspaces < 1 or dim % subspaces != 0:
        raise ContractError(
            f"train_pq: dimension {dim} is not divisible into {subspaces} subspaces"
        )
    if not 1 <= centroids <= 256:
        raise ContractError(f"train_pq: centroids={centroids}, one-byte codes allow 1..256")
    if centroids > count:
        raise ContractError(f"train_pq: {centroids} centroids need at least as many points")
    rng = np.random.default_rng(seed)
    blocks = _split(features, subspaces)
    tables = [kmeans(blocks[:, j], centroids, rng, iters)[0] for j in range(subspaces)]
    return PQCodebook(centroids=np.stack(tables))


def _check_features(codebook: PQCodebook, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != codebook.dim:
        raise DimensionError(
            f"features shape {features.shape}, expected [n, {codebook.dim}]"
        )
    return features


def encode_pq(codebook: PQCodebook, features: np.ndarray) -> np.ndarray:
    """One centroid index per subspace, as a [n, subspaces] uint8 matrix."""
    features = _check_features(codebook, features)
    blocks = _split(features, codebook.subspaces)
    codes = np.empty((features.shape[0], codebook.subspaces), dtype=np.uint8)
    for j in range(codebook.subspaces):
        codes[:, j] = _assign(blocks[:, j], codebook.centroids[j])
    return codes


def _check_codes(codebook: PQCodebook, codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != codebook.subspaces:
        raise DimensionError(
            f"codes shape {codes.shape}, expected [n, {codebook.subspaces}]"
        )
    if codes.dtype != np.uint8:
        raise ContractError(f"codes dtype {codes.dtype}, expected uint8")
    if codes.size and codes.max() >= codebook.centroids_per_space:
        raise ContractError("codes reference centroids beyond the codebook")
    return codes


def adc_distances(codebook: PQCodebook, codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared distance from the query to every reconstruction, via lookup."""
    codes = _check_codes(codebook, codes)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (codebook.dim,):
        raise DimensionError(f"adc_distances: query shape {query.shape}, expected ({codebook.dim},)")
    blocks = query.reshape(codebook.subspaces, -1)
    table = np.sum((codebook.centroids - blocks[:, None, :]) ** 2, axis=2)  # [m, k]
    dists = np.zeros(codes.shape[0])
    for j in range(codebook.subspaces):
        dists += table[j, codes[:, j]]
    return dists


def pq_rank(codebook: PQCodebook, codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Database order by ADC distance, ties broken by id."""
    dists = adc_distances(codebook, codes, query)
    return np.argsort(dists, kind="stable")
