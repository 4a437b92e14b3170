"""Class anchors and stochastic feature exchanging.

An anchor is the mean local feature of one part over all training samples
of one class.  During training, each part vector of a sample is kept or
replaced by its class anchor according to a fair coin flip per part, which
regularizes part features toward class prototypes; a whole batch is
exchanged at once with a [batch, parts] mask.  Anchors are plain
arrays: wrapped as constants when spliced into the graph, they never
receive gradients.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError

_PREFIX = "anchors."


class AnchorBank:
    """Per-class [parts, dim] anchor matrices keyed by class id."""

    def __init__(self, anchors: dict[int, np.ndarray]):
        self._anchors: dict[int, np.ndarray] = {}
        shape: tuple[int, ...] | None = None
        for class_id, matrix in anchors.items():
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.ndim != 2:
                raise DimensionError(
                    f"AnchorBank: class {class_id} anchors have shape {matrix.shape}, "
                    "expected [parts, dim]"
                )
            if shape is None:
                shape = matrix.shape
            elif matrix.shape != shape:
                raise DimensionError(
                    f"AnchorBank: class {class_id} anchors {matrix.shape} != {shape}"
                )
            self._anchors[int(class_id)] = matrix
        self._shape = shape

    @property
    def classes(self) -> list[int]:
        return sorted(self._anchors)

    @property
    def parts(self) -> int:
        return self._shape[0] if self._shape else 0

    @property
    def dim(self) -> int:
        return self._shape[1] if self._shape else 0

    def __contains__(self, class_id: int) -> bool:
        return int(class_id) in self._anchors

    def __len__(self) -> int:
        return len(self._anchors)

    def get(self, class_id: int) -> np.ndarray:
        class_id = int(class_id)
        if class_id not in self._anchors:
            raise KeyError(f"no anchors for class {class_id}")
        return self._anchors[class_id]

    def rows(self, class_ids: np.ndarray) -> np.ndarray:
        """Stacked anchors [n, parts, dim] of each class id in turn."""
        classes = np.array(self.classes)
        slots = np.searchsorted(classes, class_ids).clip(0, len(classes) - 1)
        if not np.array_equal(classes[slots], class_ids):
            raise KeyError(f"no anchors for classes {np.setdiff1d(class_ids, classes).tolist()}")
        return np.stack([self._anchors[c] for c in self.classes])[slots]

    def arrays(self) -> dict[str, np.ndarray]:
        """Flatten to named arrays for the checkpoint container."""
        return {f"{_PREFIX}{c}": self._anchors[c].copy() for c in self.classes}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "AnchorBank":
        anchors = {
            int(name[len(_PREFIX) :]): values
            for name, values in arrays.items()
            if name.startswith(_PREFIX)
        }
        return cls(anchors)


def compute_anchor_bank(
    samples_by_class: dict[int, np.ndarray], previous: AnchorBank | None = None
) -> AnchorBank:
    """Average per-class per-part features into a fresh bank.

    Args:
        samples_by_class: class id -> stacked part vectors [n_i, parts, dim].
        previous: bank from the last refresh.  A class with zero samples
            this round keeps its previous anchors; with no previous bank
            that situation is a contract error.

    Classes present only in ``previous`` are carried over unchanged.
    """
    anchors: dict[int, np.ndarray] = {}
    class_ids = set(int(c) for c in samples_by_class)
    if previous is not None:
        class_ids.update(previous.classes)
    if not class_ids:
        raise ContractError("compute_anchor_bank: no classes to anchor")
    for class_id in sorted(class_ids):
        stack = samples_by_class.get(class_id)
        stack = None if stack is None else np.asarray(stack, dtype=np.float64)
        if stack is None or stack.size == 0:
            if previous is None or class_id not in previous:
                raise ContractError(
                    f"compute_anchor_bank: class {class_id} has no samples and no previous anchors"
                )
            anchors[class_id] = previous.get(class_id).copy()
            continue
        if stack.ndim != 3:
            raise DimensionError(
                f"compute_anchor_bank: class {class_id} stack has shape {stack.shape}, "
                "expected [n, parts, dim]"
            )
        anchors[class_id] = stack.mean(axis=0)
    return AnchorBank(anchors)


def draw_keep_mask(rng: np.random.Generator, shape) -> np.ndarray:
    """Fair coin per part: 1 keeps the sample's own feature, 0 exchanges it.

    ``shape`` is a part count or (batch, parts); one (B, P) draw gives the
    masks and the generator state of B successive draws of P.
    """
    shape = tuple(int(n) for n in np.atleast_1d(shape))
    if min(shape) < 0:
        raise ContractError(f"draw_keep_mask: extents must be >= 0, got {shape}")
    return rng.integers(0, 2, size=shape)


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
