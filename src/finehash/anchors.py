"""Class anchors and stochastic feature exchanging.

An anchor is the mean local feature of one part over all training samples
of one class.  During training, each part vector of a sample is kept or
replaced by its class anchor according to a fair coin flip per part, which
regularizes part features toward class prototypes; a whole batch is
exchanged at once with a [batch, parts] mask of 0/1 entries, which the
trainer draws from its per-iteration generator.

The bank is one [classes, parts, dim] table indexed by the dense class id,
recomputed whole from the database at every anchor phase; trainer's
save_checkpoint and load_checkpoint, which name every checkpoint entry,
store it as anchors.0 .. anchors.{C-1}.  Anchors are plain arrays: wrapped
as constants when spliced into the graph, they never receive gradients.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError


class AnchorBank:
    """The anchors of classes 0..C-1 as one float64 [classes, parts, dim] table."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 3:
            raise DimensionError(
                f"AnchorBank: anchors have shape {table.shape}, expected [classes, parts, dim]"
            )
        self.table = table

    @property
    def classes(self) -> list[int]:
        return list(range(len(self.table)))

    def get(self, class_id: int) -> np.ndarray:
        """Anchors [parts, dim] of one class."""
        if not 0 <= class_id < len(self.table):
            raise KeyError(f"no anchors for class {class_id}")
        return self.table[class_id]


def compute_anchor_bank(part_vecs: np.ndarray, labels: np.ndarray) -> AnchorBank:
    """Average the part vectors [n, parts, dim] of each class in float64.

    The classes are 0..max(labels), and each needs at least one sample.
    """
    part_vecs = np.asarray(part_vecs)
    labels = np.asarray(labels)
    if part_vecs.ndim != 3 or labels.shape != part_vecs.shape[:1]:
        raise DimensionError(
            f"compute_anchor_bank: part vectors {part_vecs.shape} and labels {labels.shape}, "
            "expected [n, parts, dim] and [n]"
        )
    if len(labels) == 0 or labels.min() < 0:
        raise ContractError("compute_anchor_bank: needs samples with labels >= 0")
    empty = np.flatnonzero(np.bincount(labels) == 0)
    if empty.size:
        raise ContractError(f"compute_anchor_bank: classes {empty.tolist()} have no samples")
    return AnchorBank(np.stack([part_vecs[labels == c].astype(np.float64).mean(axis=0)
                                for c in range(labels.max() + 1)]))


def exchange_features(
    part_vecs: ad.Tensor, class_anchors: np.ndarray, keep_mask: np.ndarray
) -> ad.Tensor:
    """Replace part vectors [..., P, dim] by anchors where the keep mask [..., P] is 0.

    ``class_anchors`` holds each row's class anchors, shaped like the part
    vectors.  The result is part * keep + anchor * (1 - keep), which
    reproduces both sides exactly; the anchors enter the graph as
    constants in the part vectors' dtype, so gradients flow only through
    the parts that were kept.
    """
    dtype = part_vecs.data.dtype
    class_anchors = np.asarray(class_anchors, dtype=dtype)
    keep_mask = np.asarray(keep_mask)
    if class_anchors.shape != part_vecs.shape:
        raise DimensionError(
            f"exchange_features: part vectors {part_vecs.shape} vs anchors {class_anchors.shape}"
        )
    if keep_mask.shape != part_vecs.shape[:-1]:
        raise DimensionError(
            f"exchange_features: mask shape {keep_mask.shape}, expected {part_vecs.shape[:-1]}"
        )
    if not np.all(np.isin(keep_mask, (0, 1))):
        raise ContractError("exchange_features: mask entries must be 0 or 1")
    keep = keep_mask[..., None].astype(dtype)
    return ad.add(ad.hadamard(part_vecs, ad.tensor(keep)),
                  ad.tensor(class_anchors * (1.0 - keep)))
