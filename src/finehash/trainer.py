"""Alternating optimization of network weights, database codes, and anchors.

One outer iteration runs three phases:

1. weight phase: SGD on the relaxed similarity objective plus diversity
   terms, computed for a sampled subset of the training database against
   the full discrete code matrix;
2. code phase: closed-form sign updates of the database code matrix, one
   bit column at a time, which never increase the squared code objective;
3. anchor phase: per-class part-feature means over the full training
   database, used for feature exchanging once warm-up has passed.

Each SGD step of the weight phase is one forward pass, one objective and
one backward pass over the whole batch.  The weights stay fixed from the
end of the weight phase to the end of the iteration, so one encoding of the
training database serves three readers: the bit thresholds, the code
phase's relaxed codes and the anchor means.

Every random draw comes from a per-iteration stream seeded by
(seed, iteration + 1), so resuming from a checkpoint replays the exact
trajectory a straight run would have produced.
"""

from __future__ import annotations

import logging
import math
import time
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .anchors import AnchorBank, compute_anchor_bank, draw_keep_mask, exchange_features
from .checkpoint import load_arrays, save_arrays
from .data import Dataset, build_similarity
from .errors import ContractError, DomainError, FileFormatError
from .losses import (LossWeights, auto_weights, batch_similarity_loss, check_similarity_inputs,
                     total_objective)
from .model import (PARAM_DTYPE, ModelConfig, ModelParams, descriptor, forward_features,
                    hash_layer)

logger = logging.getLogger(__name__)

# images per forward pass of encode_images: bounds the memory that encoding
# the training database takes.  The serve path relies on a stack encoding
# bit-equal to one image at a time (see autodiff.conv2d and gated_conv2d,
# measured for stacks of up to 400 images): query encodes one image and
# compares it with database descriptors train encoded 8 at a time
ENCODE_CHUNK = 8


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and optimizer settings for the alternating loop.

    spatial_weight and channel_weight default to None, meaning the auto
    scaling from the loss module; set explicit floats to override.
    """

    outer_iters: int = 15
    epochs_per_iter: int = 2
    batch_size: int = 64
    samples_per_epoch: int = 256
    learning_rate: float = 1e-3
    lr_drop_points: tuple[float, ...] = (0.6, 0.8)
    lr_drop_factor: float = 0.1
    weight_decay: float = 1e-4
    warmup_fraction: float = 0.25
    exchange: bool = True
    code_sweeps: int = 1
    spatial_weight: float | None = None
    channel_weight: float | None = None
    margin: float = 0.4
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"TrainConfig: {field.name} must be finite, got {value}")
        if self.outer_iters < 1:
            raise ContractError("TrainConfig: outer_iters must be >= 1")
        if self.epochs_per_iter < 0 or self.code_sweeps < 0:
            raise ContractError("TrainConfig: epochs_per_iter and code_sweeps must be >= 0")
        if self.batch_size < 1 or self.samples_per_epoch < 1:
            raise ContractError("TrainConfig: batch_size and samples_per_epoch must be >= 1")
        if self.learning_rate <= 0.0:
            raise ContractError("TrainConfig: learning_rate must be > 0")
        if not 0.0 < self.lr_drop_factor <= 1.0:
            raise ContractError("TrainConfig: lr_drop_factor must be in (0, 1]")
        for point in self.lr_drop_points:
            if not 0.0 < point <= 1.0:
                raise ContractError(f"TrainConfig: lr drop point {point} outside (0, 1]")
        if self.weight_decay < 0.0:
            raise ContractError("TrainConfig: weight_decay must be >= 0")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ContractError("TrainConfig: warmup_fraction must be in [0, 1]")
        for name in ("spatial_weight", "channel_weight"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise ContractError(f"TrainConfig: {name} must be >= 0")
        if self.margin < 0.0:
            raise ContractError("TrainConfig: margin must be >= 0")
        if self.seed < 0:
            raise ContractError("TrainConfig: seed must be >= 0")


def _ceil_fraction(fraction: float, total: int) -> int:
    # fuzz guards against 0.8 * 15 = 12.000000000000002 style float drift
    return int(math.ceil(fraction * total - 1e-9))


def warmup_iters(config: TrainConfig) -> int:
    """Number of leading outer iterations that run without exchanging."""
    return _ceil_fraction(config.warmup_fraction, config.outer_iters)


def learning_rate_at(config: TrainConfig, iteration: int) -> float:
    """Base rate divided by the drop factor at each schedule boundary."""
    rate = config.learning_rate
    for point in config.lr_drop_points:
        if iteration >= _ceil_fraction(point, config.outer_iters):
            rate *= config.lr_drop_factor
    return rate


def update_code_column(
    relaxed: np.ndarray, codes: np.ndarray, sim: np.ndarray, bits: int, col: int
) -> np.ndarray:
    """Optimal +/-1 values for one code column with the others held fixed.

    Minimizes the objective of losses.batch_similarity_loss,
    ||relaxed @ codes.T - bits * sim||_F^2, over the column, which separates
    per database item; a zero margin keeps the previous value.
    """
    relaxed, codes, sim = check_similarity_inputs(relaxed, codes, sim, bits,
                                                  "update_code_column")
    if not 0 <= col < bits:
        raise ContractError(f"update_code_column: column {col} outside [0, {bits})")
    overlap = relaxed.T @ relaxed[:, col]  # [bits]
    cross = codes @ overlap - codes[:, col] * overlap[col]
    margin = bits * (sim.T @ relaxed[:, col]) - cross
    return np.where(margin > 0.0, 1.0, np.where(margin < 0.0, -1.0, codes[:, col]))


def sweep_codes(
    relaxed: np.ndarray, codes: np.ndarray, sim: np.ndarray, bits: int, sweeps: int = 1
) -> np.ndarray:
    """Cycle update_code_column over all columns, ``sweeps`` times."""
    if sweeps < 0:
        raise ContractError(f"sweep_codes: sweeps must be >= 0, got {sweeps}")
    codes = np.array(codes, dtype=np.float64)
    for _ in range(sweeps):
        for col in range(bits):
            codes[:, col] = update_code_column(relaxed, codes, sim, bits, col)
    return codes


def encode_images(params: ModelParams, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete codes [n, bits] (signs of the relaxed hash output) and refined
    descriptors [n, descriptor_dim] of n images, ENCODE_CHUNK images at a time.

    Each chunk is cast to the model's dtype on its own, and the descriptors
    come back in that dtype.  An empty stack gives empty arrays whatever its
    trailing shape.
    Encoding never exchanges features: anchors are a training-time device,
    so the codes depend only on the network weights.
    """
    images = np.asarray(images)
    count = images.shape[0]
    codes = np.empty((count, params.config.bits))
    descriptors = np.empty((count, params.config.descriptor_dim), dtype=params.dtype)
    for start in range(0, count, ENCODE_CHUNK):
        rows = slice(start, start + ENCODE_CHUNK)
        features = forward_features(params, images[rows])
        described = descriptor(features.part_vecs, features.global_vec)
        codes[rows] = ad.sign_pm1(hash_layer(params, described).data)
        descriptors[rows] = described.data
    return codes, descriptors


@dataclass
class TrainState:
    """Everything load_checkpoint recovers from a checkpoint file."""

    params: ModelParams
    train_config: TrainConfig
    codes: np.ndarray
    iteration: int
    anchors: AnchorBank | None


def save_checkpoint(
    path,
    params: ModelParams,
    train_config: TrainConfig,
    codes: np.ndarray,
    iteration: int,
    anchors: AnchorBank | None = None,
) -> None:
    """Write weights, codes, anchors, and both configs into one file; each
    config field is the entry ``config.{model,train}.<field>``, None as NaN."""
    arrays = dict(params.arrays())
    if anchors is not None:
        arrays.update(anchors.arrays())
    for prefix, config in (("config.model", params.config), ("config.train", train_config)):
        for field in fields(config):
            value = getattr(config, field.name)
            arrays[f"{prefix}.{field.name}"] = np.array(
                np.nan if value is None else value, dtype=np.float64
            )
    arrays["state.iteration"] = np.array(float(iteration))
    arrays["state.codes"] = np.asarray(codes, dtype=np.float64)
    save_arrays(path, arrays)


def _entry_value(values: np.ndarray, kind, what: str):
    """A stored entry as a value of the field type ``kind``."""
    if typing.get_origin(kind) is tuple:
        if values.ndim != 1:
            raise FileFormatError(f"{what} has shape {values.shape}, expected a vector")
        return tuple(_entry_value(item, typing.get_args(kind)[0], what) for item in values)
    if values.ndim != 0:
        raise FileFormatError(f"{what} has shape {values.shape}, expected a scalar")
    value = float(values)
    if kind == float | None:
        if math.isnan(value):
            return None
        kind = float
    if not math.isfinite(value):
        raise FileFormatError(f"{what} holds {value}, expected a finite number")
    if kind is not float and not value.is_integer():
        raise FileFormatError(f"{what} holds {value}, expected an integer")
    return kind(value)


def load_checkpoint(path) -> TrainState:
    """Rebuild a TrainState from a file written by save_checkpoint; the
    float64 weights on disk are rounded to PARAM_DTYPE."""
    arrays = load_arrays(path)

    def grab(name: str) -> np.ndarray:
        if name not in arrays:
            raise FileFormatError(f"{path}: checkpoint missing entry {name!r}")
        return arrays[name]

    def read(name: str, kind):
        return _entry_value(grab(name), kind, f"{path}: checkpoint entry {name!r}")

    def read_config(cls, prefix: str):
        types = typing.get_type_hints(cls)
        return cls(**{field.name: read(f"{prefix}.{field.name}", types[field.name])
                      for field in fields(cls)})

    model_config = read_config(ModelConfig, "config.model")
    train_config = read_config(TrainConfig, "config.train")

    param_arrays = {
        name: values.astype(PARAM_DTYPE)
        for name, values in arrays.items()
        if not name.startswith(("config.", "state.", "anchors."))
    }
    try:
        params = ModelParams.from_arrays(model_config, param_arrays)
    except KeyError as exc:
        raise FileFormatError(f"{path}: checkpoint missing entry {exc.args[0]!r}") from None
    codes = grab("state.codes")
    if codes.ndim != 2 or codes.shape[1] != model_config.bits:
        raise FileFormatError(f"{path}: stored codes have shape {codes.shape}")
    if not np.all(np.abs(codes) == 1.0):
        raise DomainError(f"{path}: stored codes: entries must be +/-1")
    iteration = read("state.iteration", int)
    if not 0 <= iteration <= train_config.outer_iters:
        raise FileFormatError(f"{path}: checkpoint entry 'state.iteration' holds {iteration}, "
                              f"outside 0..{train_config.outer_iters}")
    try:
        anchors = AnchorBank.from_arrays(arrays)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: checkpoint {exc}") from None
    return TrainState(
        params=params,
        train_config=train_config,
        codes=codes,
        iteration=iteration,
        anchors=anchors,
    )


class AlternatingTrainer:
    """Drives the three-phase loop over a dataset with both splits."""

    def __init__(self, dataset: Dataset, model_config: ModelConfig, train_config: TrainConfig):
        self._attach(dataset, model_config, train_config)
        init_rng = np.random.default_rng([train_config.seed, 0])
        self.params = ModelParams.initialize(model_config, init_rng)
        self._refresh_hash_bias()
        # Per-bit balanced random codes: a zero column mean removes the
        # class-independent pull that Sum_j sim_ij * code_j otherwise exerts
        # on every sampled query, which is what lets the first network phase
        # learn class structure instead of a shared common mode.
        column = np.repeat([-1.0, 1.0], [self.db_size // 2, self.db_size - self.db_size // 2])
        self.codes = np.stack(
            [init_rng.permutation(column) for _ in range(model_config.bits)], axis=1
        )
        self.anchors: AnchorBank | None = None
        self.iteration = 0

    def _attach(self, dataset: Dataset, model_config: ModelConfig, train_config: TrainConfig):
        """Bind the dataset and both configs; the caller sets the trainer state."""
        dataset.require_both_splits()
        images = dataset.train_images
        if images.shape[1:] != (model_config.image_side, model_config.image_side,
                                model_config.in_channels):
            raise ContractError(
                f"AlternatingTrainer: dataset images {images.shape[1:]} do not match "
                f"model input {(model_config.image_side,) * 2 + (model_config.in_channels,)}"
            )
        self.model_config = model_config
        self.train_config = train_config
        self.train_images = images
        self.train_labels = dataset.train_labels
        self.db_size = len(self.train_labels)
        self.history: list[dict] = []
        self._weights = self._resolve_weights()
        self._descriptors: np.ndarray | None = None

    @classmethod
    def from_checkpoint(cls, path, dataset: Dataset) -> "AlternatingTrainer":
        """Resume from a checkpoint; nothing is initialized or encoded."""
        state = load_checkpoint(path)
        trainer = cls.__new__(cls)
        trainer._attach(dataset, state.params.config, state.train_config)
        if state.codes.shape != (trainer.db_size, trainer.model_config.bits):
            raise ContractError(
                f"from_checkpoint: stored codes {state.codes.shape} do not match "
                f"{(trainer.db_size, trainer.model_config.bits)}"
            )
        config = trainer.model_config
        expected = (dataset.num_classes, config.parts, config.refined_channels)
        if state.anchors is not None and state.anchors.table.shape != expected:
            raise ContractError(
                f"from_checkpoint: stored anchors {state.anchors.table.shape} do not match "
                f"[classes, parts, dim] {expected}"
            )
        trainer.params = state.params
        trainer.codes = state.codes
        trainer.anchors = state.anchors
        trainer.iteration = state.iteration
        return trainer

    def save(self, path) -> None:
        save_checkpoint(path, self.params, self.train_config, self.codes,
                        self.iteration, self.anchors)

    def _refresh_hash_bias(self) -> None:
        """Reset each bit's threshold to the mean training projection.

        Pooled relu descriptors are entrywise positive, so raw projections
        share one dominant direction: without recentering, every bit takes
        the same sign on the whole database and the code updates collapse
        onto a single constant code.  Thresholding each projection at its
        database mean keeps the bits balanced; rerunning this at every
        outer iteration tracks the slowly moving descriptor distribution.
        The reset is idempotent while the weights are unchanged, and the
        bias still receives ordinary gradients inside the network phase.

        Keeps the training descriptors [db_size, descriptor_dim] it encodes.
        They do not depend on the hash bias, so until the weights move again
        they also feed the code phase and the anchor phase.
        """
        self._descriptors = encode_images(self.params, self.train_images)[1]
        mean = self._descriptors.mean(axis=0)
        self.params.hash_bias.data[...] = self.params.hash_weight.data @ mean

    def _resolve_weights(self) -> LossWeights:
        config = self.train_config
        if config.spatial_weight is None or config.channel_weight is None:
            subset = min(config.samples_per_epoch, self.db_size)
            auto = auto_weights(self.model_config.bits, subset * self.db_size, config.margin)
            return LossWeights(
                spatial=auto.spatial if config.spatial_weight is None else config.spatial_weight,
                channel=auto.channel if config.channel_weight is None else config.channel_weight,
                margin=config.margin,
            )
        return LossWeights(spatial=config.spatial_weight, channel=config.channel_weight,
                           margin=config.margin)

    def exchange_active(self, iteration: int) -> bool:
        return self.train_config.exchange and iteration >= warmup_iters(self.train_config)

    def _iteration_rng(self, iteration: int) -> np.random.Generator:
        return np.random.default_rng([self.train_config.seed, iteration + 1])

    def _theta_batch(self, batch: np.ndarray, rate: float, rng, exchanging: bool) -> float:
        """One SGD step on the batch mean of the per-sample objective."""
        with ad.Tape() as tape:
            features = forward_features(self.params, self.train_images[batch])
            part_vecs = features.part_vecs
            if exchanging:
                labels = self.train_labels[batch]
                mask = draw_keep_mask(rng, (len(batch), self.model_config.parts))
                part_vecs = exchange_features(part_vecs, self.anchors.rows(labels), mask)
            relaxed = hash_layer(self.params, descriptor(part_vecs, features.global_vec))
            sim_rows = build_similarity(self.train_labels[batch], self.train_labels)
            total = total_objective(relaxed, features, self.codes, sim_rows,
                                    self.model_config.bits, self._weights)
            loss = ad.scale(
                total, 1.0 / (len(batch) * self.db_size * self.model_config.bits)
            )
        tape.backward(loss)
        decay = self.train_config.weight_decay
        for tens in self.params.named().values():
            if tens.grad is None:
                continue
            tens.data -= rate * (tens.grad + decay * tens.data)
            tens.grad = None
        return loss.item()

    def _theta_phase(self, iteration: int, rng, subset: np.ndarray, exchanging: bool):
        config = self.train_config
        rate = learning_rate_at(config, iteration)
        losses = []
        for _ in range(config.epochs_per_iter):
            order = rng.permutation(subset)
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                losses.append(self._theta_batch(batch, rate, rng, exchanging))
        return (float(np.mean(losses)) if losses else None), rate

    def _code_phase(self, subset: np.ndarray):
        """Fit the discrete codes to the subset's own relaxed codes.

        The relaxed codes are tanh(W d - b) on the subset rows of the
        current database descriptors.  Exchanging is never applied here:
        the stored codes stand in for the database items at query time, so
        they track what encoding each item would produce, not an
        anchor-blended variant of it.

        Returns the code objective (None when no sweep runs) and the number
        of code entries the sweeps changed.
        """
        config = self.train_config
        if config.code_sweeps == 0:
            return None, 0
        relaxed = hash_layer(self.params, ad.tensor(self._descriptors[subset])).data
        relaxed = relaxed.astype(np.float64)
        sim = build_similarity(self.train_labels[subset], self.train_labels)
        bits = self.model_config.bits
        before = self.codes
        self.codes = sweep_codes(relaxed, before, sim, bits, config.code_sweeps)
        flipped = int(np.count_nonzero(self.codes != before))
        objective = batch_similarity_loss(ad.tensor(relaxed), self.codes, sim, bits).item()
        return objective, flipped

    def _anchor_phase(self):
        """Refresh the anchors from the part slices of the database descriptors."""
        parts = self.model_config.parts
        part_vecs = self._descriptors.reshape(self.db_size, parts + 1, -1)[:, :parts]
        fresh = compute_anchor_bank(part_vecs, self.train_labels)
        drift = 0.0 if self.anchors is None else float(np.mean(
            [np.linalg.norm(delta) for delta in fresh.table - self.anchors.table]))
        self.anchors = fresh
        return drift

    def run_iteration(self) -> dict:
        """One outer iteration: weight phase, code phase, anchor phase.

        The metrics it returns (and appends to ``history``) include the
        wall seconds of each phase: ``bias_seconds`` sums the database bias
        refreshes, then ``theta_seconds``, ``code_seconds`` and
        ``anchor_seconds``; a phase that does not run counts 0.0.
        ``codes_flipped`` counts the database code entries the code phase
        changed (0 when it does not run).
        """
        t = self.iteration
        if t >= self.train_config.outer_iters:
            raise ContractError(f"run_iteration: iteration {t} beyond schedule")
        seconds = dict.fromkeys(("bias", "theta", "code", "anchor"), 0.0)

        def timed(phase, step, *args):
            started = time.perf_counter()
            result = step(*args)
            seconds[phase] += time.perf_counter() - started
            return result

        rng = self._iteration_rng(t)
        exchanging = self.exchange_active(t)
        timed("bias", self._refresh_hash_bias)
        if exchanging and self.anchors is None:
            # resumed or hand-built state without a bank
            timed("anchor", self._anchor_phase)
        subset = rng.choice(self.db_size, size=min(self.train_config.samples_per_epoch,
                                                   self.db_size), replace=False)

        theta_loss, rate = timed("theta", self._theta_phase, t, rng, subset, exchanging)
        if theta_loss is not None:
            logger.info("iter=%d phase=theta loss=%.6f seconds=%.3f",
                        t, theta_loss, seconds["theta"])
            # the weights moved, so re-center the thresholds and re-encode
            # the database before the code and anchor phases read it
            timed("bias", self._refresh_hash_bias)

        code_objective, codes_flipped = timed("code", self._code_phase, subset)
        if code_objective is not None:
            logger.info("iter=%d phase=v loss=%.6f seconds=%.3f",
                        t, code_objective, seconds["code"])

        anchor_drift = None
        if self.train_config.exchange:
            anchor_drift = timed("anchor", self._anchor_phase)
            logger.info("iter=%d phase=anchor loss=%.6f seconds=%.3f",
                        t, anchor_drift, seconds["anchor"])

        metrics = {"iteration": t, "lr": rate, "theta_loss": theta_loss,
                   "code_objective": code_objective, "codes_flipped": codes_flipped,
                   "anchor_drift": anchor_drift,
                   **{f"{phase}_seconds": spent for phase, spent in seconds.items()}}
        self.history.append(metrics)
        self.iteration = t + 1
        return metrics

    def train(self, checkpoint_path=None) -> list[dict]:
        """Run the remaining iterations; checkpoint after each if a path is given."""
        while self.iteration < self.train_config.outer_iters:
            self.run_iteration()
            if checkpoint_path is not None:
                self.save(checkpoint_path)
        return self.history

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Discrete codes for new images (no exchange at encode time)."""
        return encode_images(self.params, images)[0]

    def encode_descriptors(self, images: np.ndarray) -> np.ndarray:
        return encode_images(self.params, images)[1]

    def database_descriptors(self) -> np.ndarray:
        """Training database descriptors under the current weights: those of
        the last bias refresh, encoded afresh only when none ran since this
        trainer was built, as after a resume at the end of the schedule."""
        if self._descriptors is None:
            self._descriptors = self.encode_descriptors(self.train_images)
        return self._descriptors
