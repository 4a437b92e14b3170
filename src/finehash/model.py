"""Part-attentive hashing network.

The network maps an image to a q-bit code in four stages: a small
convolutional backbone produces a base feature map, a 1x1-conv attention
head scores one spatial map per part, each attention map gates the base
features which are then refined into a compact part vector, and a final
linear hash layer turns the concatenated part and global vectors into a
code.  Every stage takes a stack of images ``[..., side, side, C]`` and runs
on the whole stack at once, each of its ops called once for every image and
part, on the autodiff tape so the trainer can differentiate straight through
them.  Gating and refining all parts is one ``autodiff.gated_conv2d`` call
over the base map, which never forms the gated copies.  An image's result
is bit-equal to its one-image result only as far as the BLAS keeps each
product's rows apart; ``autodiff.conv2d`` and ``autodiff.gated_conv2d``
multiply in blocks of whole maps for that reason.  Measured on OpenBLAS
0.3.31 (Haswell kernels, one thread), the float32 descriptors of 400 images
encoded in one stack equal their one-image results, at the initial weights
and after one training iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError

REFINE_POOL = 2  # spatial pool factor applied by both refinement stages
# the dtype initialize and load_checkpoint store weights in; the network
# computes in the dtype of its parameters, so float64 weights run in float64
PARAM_DTYPE = np.float32


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    Attributes:
        parts: number of attended parts M.
        bits: code length q.
        image_side: input images are [image_side, image_side, in_channels].
        in_channels: input channel count.
        backbone_channels: output channels of each backbone block.
        backbone_pools: spatial mean-pool factor after each block (1 = none).
        refined_channels: channel count C' of the refined part features.
    """

    parts: int = 4
    bits: int = 32
    image_side: int = 32
    in_channels: int = 3
    backbone_channels: tuple[int, ...] = (16, 32, 32)
    backbone_pools: tuple[int, ...] = (2, 2, 1)
    refined_channels: int = 32

    def __post_init__(self):
        for name in ("parts", "bits", "in_channels", "refined_channels"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.backbone_channels:
            raise ContractError("backbone_channels must be nonempty")
        if min(self.backbone_channels) < 1:
            raise ContractError(f"backbone_channels must be >= 1, got {self.backbone_channels}")
        if len(self.backbone_pools) != len(self.backbone_channels):
            raise ContractError(
                f"{len(self.backbone_pools)} pool factors for "
                f"{len(self.backbone_channels)} backbone blocks"
            )
        side = self.image_side
        for factor in self.backbone_pools:
            if factor < 1:
                raise ContractError(f"pool factors must be >= 1, got {factor}")
            if side % factor:
                raise ContractError(
                    f"image side {self.image_side} is not divisible by the pool chain"
                )
            side //= factor
        if side % REFINE_POOL:
            raise ContractError(f"feature side {side} is not divisible by the refine pool")

    @property
    def feature_side(self) -> int:
        side = self.image_side
        for factor in self.backbone_pools:
            side //= factor
        return side

    @property
    def feature_channels(self) -> int:
        return self.backbone_channels[-1]

    @property
    def descriptor_dim(self) -> int:
        return (self.parts + 1) * self.refined_channels


@dataclass
class RefinedFeatures:
    """Stacked forward outputs used by the losses and the hash layer.

    For images [..., side, side, C], part_maps holds the refined spatial
    tensors [..., P, h, w, C'], part_vecs their spatially pooled vectors
    [..., P, C'], and global_vec the pooled output [..., C'] of the
    independent global refinement branch.
    """

    part_maps: ad.Tensor
    part_vecs: ad.Tensor
    global_vec: ad.Tensor


class ModelParams:
    """Named parameter tensors for every stage of the network."""

    def __init__(self, config: ModelConfig, tensors: dict[str, ad.Tensor]):
        self.config = config
        self._tensors = dict(tensors)
        blocks = len(config.backbone_channels)
        self.backbone_kernels = [tensors[f"backbone.{i}.kernel"] for i in range(blocks)]
        self.backbone_biases = [tensors[f"backbone.{i}.bias"] for i in range(blocks)]
        self.attention_kernel = tensors["attention.kernel"]
        self.attention_bias = tensors["attention.bias"]
        self.local_kernel = tensors["local.kernel"]
        self.local_bias = tensors["local.bias"]
        self.global_kernel = tensors["global.kernel"]
        self.global_bias = tensors["global.bias"]
        self.hash_weight = tensors["hash.weight"]
        self.hash_bias = tensors["hash.bias"]

    @property
    def dtype(self) -> np.dtype:
        """The dtype the network computes in: that of its parameters."""
        return self.hash_weight.data.dtype

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator) -> "ModelParams":
        """Seeded init: He-scaled conv kernels, zero biases, 1/sqrt(d) hash,
        drawn in float64 and stored as PARAM_DTYPE."""
        arrays: dict[str, np.ndarray] = {}
        c_in = config.in_channels
        for i, c_out in enumerate(config.backbone_channels):
            std = np.sqrt(2.0 / (9.0 * c_in))
            arrays[f"backbone.{i}.kernel"] = rng.normal(0.0, std, size=(3, 3, c_in, c_out))
            arrays[f"backbone.{i}.bias"] = np.zeros(c_out)
            c_in = c_out
        feat_c = config.feature_channels
        arrays["attention.kernel"] = rng.normal(
            0.0, np.sqrt(1.0 / feat_c), size=(1, 1, feat_c, config.parts)
        )
        arrays["attention.bias"] = np.zeros(config.parts)
        for name in ("local", "global"):
            arrays[f"{name}.kernel"] = rng.normal(
                0.0, np.sqrt(2.0 / (9.0 * feat_c)), size=(3, 3, feat_c, config.refined_channels)
            )
            arrays[f"{name}.bias"] = np.zeros(config.refined_channels)
        dim = config.descriptor_dim
        arrays["hash.weight"] = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(config.bits, dim))
        arrays["hash.bias"] = np.zeros(config.bits)
        return cls.from_arrays(
            config, {name: values.astype(PARAM_DTYPE) for name, values in arrays.items()}
        )

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        return cls(config, {name: ad.parameter(values) for name, values in arrays.items()})

    def named(self) -> dict[str, ad.Tensor]:
        return dict(self._tensors)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: tens.data.copy() for name, tens in self._tensors.items()}


def backbone_forward(params: ModelParams, images: np.ndarray) -> ad.Tensor:
    """Run the backbone on a stack of images, returning the base feature maps.

    Images are [..., side, side, in_channels] with values in [0, 1], cast
    to the parameters' dtype.  Each block is a same-padded 3x3 convolution
    with a channel bias, a relu, and a mean-pool by the configured factor.
    """
    config = params.config
    expected = (config.image_side, config.image_side, config.in_channels)
    images = np.asarray(images, dtype=params.dtype)
    if images.shape[-3:] != expected:
        raise DimensionError(
            f"backbone_forward: images shape {images.shape}, expected trailing axes {expected}"
        )
    out = ad.tensor(images)
    for kernel, bias, factor in zip(
        params.backbone_kernels, params.backbone_biases, config.backbone_pools
    ):
        out = ad.relu(ad.conv2d(out, kernel, bias))
        if factor > 1:
            out = ad.avg_pool2(out, factor)
    return out


def attention_maps(params: ModelParams, feature_map: ad.Tensor) -> ad.Tensor:
    """Score the attention maps [..., P, h, w] of all parts; entries lie in (0, 1)."""
    config = params.config
    expected = (config.feature_side, config.feature_side, config.feature_channels)
    if feature_map.shape[-3:] != expected:
        raise DimensionError(
            f"attention_maps: feature map shape {feature_map.shape}, "
            f"expected trailing axes {expected}"
        )
    scores = ad.conv2d(feature_map, params.attention_kernel, params.attention_bias)
    return ad.moveaxis(ad.sigmoid(scores), -1, -3)


def local_refine(params: ModelParams, feature_map: ad.Tensor,
                 attention: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """Gate feature maps [..., h, w, C] by the attention maps [..., P, h, w]
    of all parts and refine each gated map into a spatial tensor and its
    pooled vector.

    Gating and the refinement conv are one ``ad.gated_conv2d`` call over the
    ungated feature maps.  The refinement weights are shared across parts,
    and a part's gate touches only that part, so refining part j can never
    touch the features of any other part.
    """
    refined = ad.avg_pool2(
        ad.relu(ad.gated_conv2d(feature_map, attention, params.local_kernel, params.local_bias)),
        REFINE_POOL,
    )
    return refined, ad.global_avg_pool(refined)


def global_refine(params: ModelParams, feature_map: ad.Tensor) -> ad.Tensor:
    """Independent refinement branch over the ungated feature maps."""
    refined = ad.avg_pool2(
        ad.relu(ad.conv2d(feature_map, params.global_kernel, params.global_bias)), REFINE_POOL
    )
    return ad.global_avg_pool(refined)


def forward_features(params: ModelParams, images: np.ndarray) -> RefinedFeatures:
    """Full feature pipeline for images [..., side, side, C]: backbone,
    attention, and the local and global refinements, each over the base map
    of the whole stack; all parts are gated and refined in one op call."""
    base = backbone_forward(params, images)
    part_maps, part_vecs = local_refine(params, base, attention_maps(params, base))
    return RefinedFeatures(part_maps, part_vecs, global_refine(params, base))


def descriptor(part_vecs: ad.Tensor, global_vec: ad.Tensor) -> ad.Tensor:
    """Concatenate part vectors [..., P, C'] and global vectors [..., C'] into
    the descriptors [..., (P + 1) C'] that the hash layer projects and
    re-ranking compares."""
    lead = global_vec.shape[:-1]
    if part_vecs.data.ndim < 2 or part_vecs.shape[:-2] != lead:
        raise DimensionError(f"descriptor: parts {part_vecs.shape} vs global {global_vec.shape}")
    flat = ad.reshape(part_vecs, (*lead, part_vecs.shape[-2] * part_vecs.shape[-1]))
    return ad.concat([flat, global_vec])


def hash_layer(params: ModelParams, descriptors: ad.Tensor) -> ad.Tensor:
    """Map descriptors [..., descriptor_dim] to relaxed codes [..., bits].

    The result is the differentiable tanh code tanh(W d - b) in (-1, 1)^q.
    The discrete code is ``ad.sign_pm1`` of its values, with the package-wide
    convention sign(0) = +1: tanh keeps the sign of every float, -0.0 and
    subnormals included, so this equals the sign of the scores W d - b.

    The per-bit bias acts as the threshold of each hash function.  It
    starts at zero; the trainer keeps it at the mean projection of the
    training descriptors so every bit splits the database roughly in
    half.  Pooled relu descriptors are entrywise positive, and without
    that recentering one shared direction dominates every projection and
    all items collapse onto a single code.

    Each descriptor is projected as its own matrix-vector product, so a
    code does not depend on the descriptors stacked with it.
    """
    config = params.config
    if descriptors.data.ndim < 1 or descriptors.shape[-1] != config.descriptor_dim:
        raise DimensionError(
            f"hash_layer: descriptor shape {descriptors.shape}, "
            f"expected [..., {config.descriptor_dim}]"
        )
    lead = descriptors.shape[:-1]
    column = ad.reshape(descriptors, (*lead, config.descriptor_dim, 1))
    projected = ad.reshape(ad.matmul(params.hash_weight, column), (*lead, config.bits))
    return ad.tanh(ad.sub(projected, params.hash_bias))
