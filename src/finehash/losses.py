"""Training losses: similarity preservation plus two diversity penalties.

The similarity term is asymmetric: relaxed tanh codes of sampled queries are
scored against fixed +/-1 database codes, and (code agreement - bits * S)^2
is summed over pairs.  The two diversity terms push the attended parts apart,
one over where each part looks (spatial) and one over which channels it
activates.  Both reduce to mean pairwise Hellinger distances between
distributions derived from the part features.

Differentiable Hellinger factors shift their square roots by 1e-12 so the
gradient stays finite at zero-mass cells (and is exactly zero for identical
inputs); the standalone metric :func:`hellinger_distance` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, DomainError
from .model import RefinedFeatures

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_SQRT_SHIFT = 1e-12


def hellinger_distance(p: np.ndarray, r: np.ndarray) -> float:
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
    return float(_INV_SQRT2 * np.linalg.norm(np.sqrt(p) - np.sqrt(r)))


def hellinger_term(p: ad.Tensor, r: ad.Tensor) -> ad.Tensor:
    """Differentiable Hellinger distance between two distribution tensors."""
    if p.data.ndim != 1 or p.shape != r.shape:
        raise DimensionError(f"hellinger_term: shapes {p.shape} and {r.shape} must be equal rank-1")
    diff = ad.sub(ad.sqrt(ad.add_scalar(p, _SQRT_SHIFT)), ad.sqrt(ad.add_scalar(r, _SQRT_SHIFT)))
    total = ad.sum_all(ad.hadamard(diff, diff))
    return ad.scale(ad.sqrt(ad.add_scalar(total, _SQRT_SHIFT**2)), _INV_SQRT2)


def aggregation_distribution(part_map: ad.Tensor) -> ad.Tensor:
    """Collapse a refined part map [h, w, C] to a distribution over positions.

    Channels are summed per position and the resulting map is flattened and
    passed through softmax, so the output is strictly positive and sums to 1.
    """
    summed = ad.channel_sum(part_map)
    return ad.softmax(ad.reshape(summed, (summed.size,)))


def _mean_pairwise_hellinger(distributions: list[ad.Tensor]) -> ad.Tensor:
    count = len(distributions)
    pairs = [
        hellinger_term(distributions[l], distributions[k])
        for l in range(count)
        for k in range(l + 1, count)
    ]
    total = pairs[0]
    for term in pairs[1:]:
        total = ad.add(total, term)
    return ad.scale(total, 2.0 / (count * (count - 1)))


def spatial_diversity_loss(part_maps: Sequence[ad.Tensor]) -> ad.Tensor:
    """One minus the mean pairwise Hellinger distance of aggregation maps.

    Low when parts attend to different positions; exactly 1 (to within the
    sqrt shift) when all parts look at the same places.  Needs at least two
    parts.
    """
    part_maps = list(part_maps)
    if len(part_maps) < 2:
        raise ContractError(f"spatial_diversity_loss: needs >= 2 parts, got {len(part_maps)}")
    mean_dist = _mean_pairwise_hellinger([aggregation_distribution(m) for m in part_maps])
    return ad.add_scalar(ad.scale(mean_dist, -1.0), 1.0)


def channel_diversity_loss(part_vecs: Sequence[ad.Tensor], margin: float = 0.4) -> ad.Tensor:
    """Hinge on the mean pairwise Hellinger distance of channel distributions.

    Each part vector is softmaxed into a distribution over channels; the
    loss is max(0, margin - mean pairwise distance), so it vanishes once the
    parts use sufficiently different channels.
    """
    part_vecs = list(part_vecs)
    if len(part_vecs) < 2:
        raise ContractError(f"channel_diversity_loss: needs >= 2 parts, got {len(part_vecs)}")
    margin = float(margin)
    if margin < 0.0:
        raise ContractError(f"channel_diversity_loss: margin must be >= 0, got {margin}")
    mean_dist = _mean_pairwise_hellinger([ad.softmax(vec) for vec in part_vecs])
    return ad.relu(ad.add_scalar(ad.scale(mean_dist, -1.0), margin))


def _check_code_matrix(codes: np.ndarray, bits: int, what: str) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[1] != bits:
        raise DimensionError(f"{what}: expected shape (n, {bits}), got {codes.shape}")
    if not np.all(np.abs(codes) == 1.0):
        raise DomainError(f"{what}: entries must be +/-1")
    return codes


def batch_similarity_loss(
    relaxed_list: Sequence[ad.Tensor], db_codes: np.ndarray, sim_rows: np.ndarray, bits: int
) -> ad.Tensor:
    """Sum of (u . v - bits * s)^2 over every (sample u, database code v) pair.

    Computed per sample as ||db_codes @ u - bits * s||^2 so the tape stays
    small: one matmul per sample instead of one record per pair.
    """
    db_codes = _check_code_matrix(db_codes, bits, "batch_similarity_loss: db_codes")
    sim_rows = np.asarray(sim_rows, dtype=np.float64)
    if sim_rows.shape != (len(relaxed_list), db_codes.shape[0]):
        raise DimensionError(
            f"batch_similarity_loss: sim_rows shape {sim_rows.shape}, expected "
            f"({len(relaxed_list)}, {db_codes.shape[0]})"
        )
    if not np.all(np.abs(sim_rows) == 1.0):
        raise DomainError("batch_similarity_loss: sim entries must be +/-1")
    codes_const = ad.tensor(db_codes)
    total: ad.Tensor | None = None
    for relaxed, sim_row in zip(relaxed_list, sim_rows):
        if relaxed.shape != (bits,):
            raise DimensionError(
                f"batch_similarity_loss: relaxed code shape {relaxed.shape}, expected ({bits},)"
            )
        scores = ad.reshape(
            ad.matmul(codes_const, ad.reshape(relaxed, (bits, 1))), (db_codes.shape[0],)
        )
        resid = ad.sub(scores, ad.tensor(bits * sim_row))
        term = ad.dot(resid, resid)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ContractError("batch_similarity_loss: empty batch")
    return total


@dataclass(frozen=True)
class LossWeights:
    """Weights of the two diversity terms and the channel hinge margin."""

    spatial: float = 0.0
    channel: float = 0.0
    margin: float = 0.4

    def __post_init__(self):
        if self.spatial < 0.0 or self.channel < 0.0:
            raise ContractError("loss weights must be >= 0")
        if self.margin < 0.0:
            raise ContractError(f"margin must be >= 0, got {self.margin}")


def auto_weights(bits: int, pair_count: int, margin: float = 0.4) -> LossWeights:
    """Default diversity weights 0.1 * bits^2 / pair_count.

    pair_count is the number of (sample, database) pairs the similarity term
    sums over, so the scaling tracks how the squared term grows with the
    code length.
    """
    if pair_count < 1:
        raise ContractError(f"auto_weights: pair_count must be >= 1, got {pair_count}")
    weight = 0.1 * bits * bits / pair_count
    return LossWeights(spatial=weight, channel=weight, margin=margin)


def total_objective(
    relaxed_list: Sequence[ad.Tensor],
    feature_sets: Sequence[RefinedFeatures],
    db_codes: np.ndarray,
    sim_rows: np.ndarray,
    bits: int,
    weights: LossWeights,
) -> ad.Tensor:
    """Batch similarity loss plus weighted diversity terms.

    A diversity term with weight 0 is skipped entirely, which also permits
    single-part configurations where the pairwise terms are undefined.
    """
    if len(feature_sets) != len(relaxed_list):
        raise DimensionError(
            f"total_objective: {len(relaxed_list)} codes vs {len(feature_sets)} feature sets"
        )
    total = batch_similarity_loss(relaxed_list, db_codes, sim_rows, bits)
    if weights.spatial > 0.0:
        for features in feature_sets:
            total = ad.add(
                total, ad.scale(spatial_diversity_loss(features.part_maps), weights.spatial)
            )
    if weights.channel > 0.0:
        for features in feature_sets:
            total = ad.add(
                total,
                ad.scale(
                    channel_diversity_loss(features.part_vecs, weights.margin), weights.channel
                ),
            )
    return total
