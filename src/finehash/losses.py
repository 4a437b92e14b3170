"""Training losses: similarity preservation plus two diversity penalties.

The similarity term is asymmetric: relaxed tanh codes of sampled queries are
scored against fixed +/-1 database codes, and (code agreement - bits * S)^2
is summed over pairs.  The two diversity terms push the attended parts apart,
one over where each part looks (spatial) and one over which channels it
activates.  Both reduce to mean pairwise Hellinger distances between
distributions derived from the part features.

Differentiable Hellinger factors shift their square roots by 1e-12 so the
gradient stays finite at zero-mass cells (and is exactly zero for identical
inputs).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, DomainError
from .model import RefinedFeatures

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_SQRT_SHIFT = 1e-12


def hellinger_term(p: ad.Tensor, r: ad.Tensor) -> ad.Tensor:
    """Differentiable Hellinger distances between distributions [..., N] -> [...]."""
    if p.data.ndim < 1 or p.shape != r.shape:
        raise DimensionError(f"hellinger_term: shapes {p.shape} and {r.shape} must be equal")
    diff = ad.sub(ad.sqrt(ad.add_scalar(p, _SQRT_SHIFT)), ad.sqrt(ad.add_scalar(r, _SQRT_SHIFT)))
    total = ad.channel_sum(ad.hadamard(diff, diff))
    return ad.scale(ad.sqrt(ad.add_scalar(total, _SQRT_SHIFT**2)), _INV_SQRT2)


def aggregation_distribution(part_maps: ad.Tensor) -> ad.Tensor:
    """Collapse refined part maps [..., h, w, C] to distributions [..., h * w].

    Channels are summed per position and each resulting map is flattened and
    passed through softmax, so the output is strictly positive and sums to 1.
    """
    *lead, height, width, _ = part_maps.shape
    return ad.softmax(ad.reshape(ad.channel_sum(part_maps), (*lead, height * width)))


def _mean_pairwise_hellinger(what: str, distributions: ad.Tensor) -> ad.Tensor:
    """Mean Hellinger distance over all pairs l < k of distributions [..., P, N] -> [...].

    Constant 0/1 selection matrices pick the two sides of every pair, in
    the order (0, 1), (0, 2), ..., (P - 2, P - 1); a product with one 1 and
    zeros elsewhere reproduces each selected entry exactly.
    """
    count = distributions.shape[-2]
    if count < 2:
        raise ContractError(f"{what}: needs >= 2 parts, got {count}")
    left, right = np.triu_indices(count, k=1)
    identity = np.eye(count, dtype=distributions.data.dtype)
    dists = hellinger_term(ad.matmul(ad.tensor(identity[left]), distributions),
                           ad.matmul(ad.tensor(identity[right]), distributions))
    return ad.scale(ad.channel_sum(dists), 2.0 / (count * (count - 1)))


def spatial_diversity_loss(part_maps: ad.Tensor) -> ad.Tensor:
    """One minus the mean pairwise Hellinger distance of aggregation maps.

    Takes part maps [..., P, h, w, C] and returns one loss per leading
    index.  Low when parts attend to different positions; exactly 1 (to
    within the sqrt shift) when all parts look at the same places.  Needs
    at least two parts.
    """
    mean_dist = _mean_pairwise_hellinger("spatial_diversity_loss",
                                         aggregation_distribution(part_maps))
    return ad.add_scalar(ad.scale(mean_dist, -1.0), 1.0)


def channel_diversity_loss(part_vecs: ad.Tensor, margin: float) -> ad.Tensor:
    """Hinge on the mean pairwise Hellinger distance of channel distributions.

    Takes part vectors [..., P, C] and returns one loss per leading index.
    Each part vector is softmaxed into a distribution over channels; the
    loss is max(0, margin - mean pairwise distance), so it vanishes once the
    parts use sufficiently different channels.
    """
    margin = float(margin)
    if margin < 0.0:
        raise ContractError(f"channel_diversity_loss: margin must be >= 0, got {margin}")
    mean_dist = _mean_pairwise_hellinger("channel_diversity_loss", ad.softmax(part_vecs))
    return ad.relu(ad.add_scalar(ad.scale(mean_dist, -1.0), margin))


def check_similarity_inputs(
    relaxed: np.ndarray, db_codes: np.ndarray, sim_rows: np.ndarray, bits: int, what: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relaxed codes [m, bits], +/-1 database codes [n, bits] and +/-1
    similarity rows [m, n] as float64 arrays: DimensionError for a shape that
    does not fit, DomainError for an entry other than +/-1."""
    relaxed = np.asarray(relaxed, dtype=np.float64)
    db_codes = np.asarray(db_codes, dtype=np.float64)
    sim_rows = np.asarray(sim_rows, dtype=np.float64)
    for name, codes in (("relaxed codes", relaxed), ("db_codes", db_codes)):
        if codes.ndim != 2 or codes.shape[1] != bits:
            raise DimensionError(f"{what}: {name} shape {codes.shape}, expected (rows, {bits})")
    if sim_rows.shape != (len(relaxed), len(db_codes)):
        raise DimensionError(f"{what}: sim_rows shape {sim_rows.shape}, expected "
                             f"({len(relaxed)}, {len(db_codes)})")
    for name, values in (("db_codes", db_codes), ("sim_rows", sim_rows)):
        if not np.all(np.abs(values) == 1.0):
            raise DomainError(f"{what}: {name} entries must be +/-1")
    return relaxed, db_codes, sim_rows


def batch_similarity_loss(
    relaxed: ad.Tensor, db_codes: np.ndarray, sim_rows: np.ndarray, bits: int
) -> ad.Tensor:
    """Sum of (u . v - bits * s)^2 over every (sample u, database code v) pair.

    Computed as ||relaxed @ db_codes.T - bits * S||_F^2 for the relaxed
    codes [B, bits] of the batch: one matrix product for all pairs, in the
    dtype of the relaxed codes.  The code phase minimizes the same objective
    one code column at a time (``trainer.update_code_column``).
    """
    _, db_codes, sim_rows = check_similarity_inputs(relaxed.data, db_codes, sim_rows, bits,
                                                    "batch_similarity_loss")
    if relaxed.shape[0] == 0:
        raise ContractError("batch_similarity_loss: empty batch")
    dtype = relaxed.data.dtype
    resid = ad.sub(ad.matmul(relaxed, ad.tensor(db_codes.T.astype(dtype, copy=False))),
                   ad.tensor((bits * sim_rows).astype(dtype, copy=False)))
    return ad.sum_all(ad.hadamard(resid, resid))


def auto_weight(bits: int, pair_count: int) -> float:
    """Default weight 0.1 * bits^2 / pair_count of each diversity term.

    pair_count is the number of (sample, database) pairs the similarity term
    sums over, so the scaling tracks how the squared term grows with the
    code length.
    """
    if pair_count < 1:
        raise ContractError(f"auto_weight: pair_count must be >= 1, got {pair_count}")
    return 0.1 * bits * bits / pair_count


def total_objective(
    relaxed: ad.Tensor,
    features: RefinedFeatures,
    db_codes: np.ndarray,
    sim_rows: np.ndarray,
    bits: int,
    *, spatial: float, channel: float, margin: float,
) -> ad.Tensor:
    """Batch similarity loss plus weighted diversity terms summed over the batch.

    relaxed holds the codes [B, bits] of a batch and features its stacked
    part tensors.  ``spatial`` and ``channel`` weight the two diversity
    terms and ``margin`` is the channel hinge's; a negative one is a
    ContractError.  A diversity term with weight 0 is skipped entirely,
    which also permits single-part configurations where the pairwise terms
    are undefined.
    """
    if min(spatial, channel, margin) < 0.0:
        raise ContractError(f"total_objective: spatial {spatial}, channel {channel} and "
                            f"margin {margin} must be >= 0")
    if features.part_vecs.shape[:-2] != relaxed.shape[:-1]:
        raise DimensionError(
            f"total_objective: codes {relaxed.shape} vs part vectors {features.part_vecs.shape}"
        )
    total = batch_similarity_loss(relaxed, db_codes, sim_rows, bits)
    if spatial > 0.0:
        spatial_loss = ad.sum_all(spatial_diversity_loss(features.part_maps))
        total = ad.add(total, ad.scale(spatial_loss, spatial))
    if channel > 0.0:
        channel_loss = ad.sum_all(channel_diversity_loss(features.part_vecs, margin))
        total = ad.add(total, ad.scale(channel_loss, channel))
    return total
