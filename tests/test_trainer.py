"""Tests for the alternating trainer: schedules, code updates, resume."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import finehash.autodiff as ad
import finehash.trainer as trainer_module
from finehash.anchors import AnchorBank, exchange_features
from finehash.checkpoint import load_arrays, save_arrays
from finehash.config import default_run_config
from finehash.data import CHANNELS, Dataset, SynthConfig, build_similarity, generate_synthetic
from finehash.errors import (ContractError, DimensionError, DomainError, FileFormatError,
                             NumericError)
from finehash.losses import batch_similarity_loss, total_objective
from finehash.model import ModelConfig, ModelParams, descriptor, forward_features, hash_layer
from finehash.trainer import (
    AlternatingTrainer,
    TrainConfig,
    encode_images,
    learning_rate_at,
    load_checkpoint,
    save_checkpoint,
    sweep_codes,
    update_code_column,
    warmup_iters,
)
from helpers import (enumerate_code_column, float64_params, naive_frobenius_objective,
                     relative_error)

SMALL_MODEL = ModelConfig(parts=2, bits=8, image_side=16, backbone_channels=(6, 8),
                          backbone_pools=(2, 2), refined_channels=8)
SMALL_SYNTH = SynthConfig(num_classes=3, per_class=6, queries_per_class=2, image_side=16,
                          parts_per_image=2, patch_size=4, position_jitter=0.5,
                          pixel_noise=0.01, pattern_scale=0.5, seed=9)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SMALL_SYNTH)


def small_train(**overrides) -> TrainConfig:
    base = dict(outer_iters=3, epochs_per_iter=1, batch_size=6, samples_per_epoch=12,
                warmup_fraction=0.34, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


class TestSchedules:
    def test_defaults(self):
        config = TrainConfig()
        assert config.outer_iters == 15
        assert config.epochs_per_iter == 2
        assert config.batch_size == 64
        assert config.learning_rate == 1e-3
        assert config.weight_decay == 1e-4
        assert config.lr_drop_points == (0.6, 0.8)
        assert config.exchange

    def test_lr_boundaries_fifteen_iters(self):
        config = TrainConfig(outer_iters=15)
        rates = [learning_rate_at(config, t) for t in range(15)]
        assert rates[:9] == [1e-3] * 9
        assert rates[9:12] == pytest.approx([1e-4] * 3)
        assert rates[12:] == pytest.approx([1e-5] * 3)

    def test_lr_boundaries_ten_iters(self):
        config = TrainConfig(outer_iters=10)
        assert learning_rate_at(config, 5) == 1e-3
        assert learning_rate_at(config, 6) == pytest.approx(1e-4)
        assert learning_rate_at(config, 8) == pytest.approx(1e-5)

    def test_lr_custom_factor(self):
        config = TrainConfig(outer_iters=10, lr_drop_points=(0.5,), lr_drop_factor=0.5)
        assert learning_rate_at(config, 4) == 1e-3
        assert learning_rate_at(config, 5) == pytest.approx(5e-4)

    def test_warmup_quarter_of_fifteen(self):
        assert warmup_iters(TrainConfig(outer_iters=15, warmup_fraction=0.25)) == 4

    def test_warmup_full_and_zero(self):
        assert warmup_iters(TrainConfig(outer_iters=4, warmup_fraction=1.0)) == 4
        assert warmup_iters(TrainConfig(outer_iters=4, warmup_fraction=0.0)) == 0

    @pytest.mark.parametrize("kwargs", [
        {"outer_iters": 0}, {"batch_size": 0}, {"samples_per_epoch": 0},
        {"learning_rate": 0.0}, {"lr_drop_factor": 0.0}, {"lr_drop_points": (1.5,)},
        {"weight_decay": -1.0}, {"warmup_fraction": 1.5}, {"spatial_weight": -0.1},
        {"margin": -0.1}, {"seed": -1}, {"epochs_per_iter": -1},
        {"seed": 2**53 + 1},  # a checkpoint's float64 would round it to 2**53
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ContractError):
            TrainConfig(**kwargs)


def random_instance(rng, m, n, bits):
    relaxed = rng.uniform(-1.0, 1.0, size=(m, bits))
    codes = np.where(rng.random((n, bits)) < 0.5, -1.0, 1.0)
    sim = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
    return relaxed, codes, sim


def code_objective(relaxed, codes, sim, bits):
    """The objective the code phase reports: the similarity loss in float64."""
    return batch_similarity_loss(ad.tensor(relaxed), codes, sim, bits).item()


class TestCodeColumn:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 8))
            bits = int(rng.integers(2, 6))
            relaxed, codes, sim = random_instance(rng, m, n, bits)
            col = int(rng.integers(0, bits))
            fast = update_code_column(relaxed, codes, sim, bits, col)
            oracle = enumerate_code_column(relaxed, codes, sim, bits, col)
            assert np.array_equal(fast, oracle[:, col])

    def test_zero_relaxed_ties_keep_previous(self):
        rng = np.random.default_rng(3)
        _, codes, sim = random_instance(rng, 4, 5, 3)
        relaxed = np.zeros((4, 3))
        for col in range(3):
            assert np.array_equal(update_code_column(relaxed, codes, sim, 3, col),
                                  codes[:, col])

    def test_dead_bit_column_tie(self):
        # the updated column of relaxed is all zero, so every margin term
        # cancels exactly and the previous signs survive
        relaxed = np.array([[0.0, 0.7], [0.0, -0.3]])
        codes = np.array([[1.0, -1.0], [-1.0, -1.0]])
        sim = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert np.array_equal(update_code_column(relaxed, codes, sim, 2, 0), codes[:, 0])

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(5)
        relaxed, codes, sim = random_instance(rng, 6, 5, 4)
        perm = rng.permutation(6)
        direct = update_code_column(relaxed, codes, sim, 4, 2)
        permuted = update_code_column(relaxed[perm], codes, sim[perm], 4, 2)
        assert np.array_equal(direct, permuted)

    def test_single_pair_exact(self):
        # one sample, one database item: margin = bits*sim*u_k - u_k (u . v - u_k v_k)
        relaxed = np.array([[0.5, -0.5]])
        codes = np.array([[1.0, 1.0]])
        sim = np.array([[1.0]])
        # margin for col 0: 2*1*0.5 - 0.5*(-0.5*1) = 1.25 > 0
        assert update_code_column(relaxed, codes, sim, 2, 0)[0] == 1.0
        # margin for col 1: 2*1*(-0.5) - (-0.5)*(0.5*1) = -0.75 < 0
        assert update_code_column(relaxed, codes, sim, 2, 1)[0] == -1.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        relaxed, codes, sim = random_instance(rng, 3, 4, 2)
        with pytest.raises(ContractError):
            update_code_column(relaxed, codes, sim, 2, 2)
        with pytest.raises(DimensionError):
            update_code_column(relaxed, codes, sim[:, :3], 2, 0)
        with pytest.raises(DomainError):
            update_code_column(relaxed, codes * 2.0, sim, 2, 0)


class TestSweep:
    def test_objective_never_increases(self):
        rng = np.random.default_rng(23)
        relaxed, codes, sim = random_instance(rng, 20, 30, 8)
        objective = code_objective(relaxed, codes, sim, 8)
        for _ in range(3):
            for col in range(8):
                codes[:, col] = update_code_column(relaxed, codes, sim, 8, col)
                after = code_objective(relaxed, codes, sim, 8)
                assert after <= objective + 1e-8
                objective = after

    def test_sweep_equals_column_loop(self):
        rng = np.random.default_rng(29)
        relaxed, codes, sim = random_instance(rng, 10, 12, 5)
        manual = codes.copy()
        for col in range(5):
            manual[:, col] = update_code_column(relaxed, manual, sim, 5, col)
        assert np.array_equal(sweep_codes(relaxed, codes, sim, 5), manual)

    def test_sweep_input_not_mutated(self):
        rng = np.random.default_rng(37)
        relaxed, codes, sim = random_instance(rng, 5, 6, 4)
        before = codes.copy()
        sweep_codes(relaxed, codes, sim, 4)
        assert np.array_equal(codes, before)

    def test_frobenius_matches_naive(self):
        rng = np.random.default_rng(41)
        relaxed, codes, sim = random_instance(rng, 7, 9, 4)
        fast = code_objective(relaxed, codes, sim, 4)
        assert fast == pytest.approx(naive_frobenius_objective(relaxed, codes, sim, 4),
                                     rel=1e-12)


class TestTrainerLoop:
    def test_iteration_metrics_and_history(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        metrics = trainer.run_iteration()
        assert metrics["iteration"] == 0
        assert metrics["theta_loss"] > 0.0
        assert metrics["code_objective"] > 0.0
        assert metrics["anchor_drift"] == 0.0
        assert trainer.iteration == 1
        second = trainer.run_iteration()
        assert second["anchor_drift"] > 0.0

    def test_metrics_carry_phase_seconds(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train(outer_iters=2))
        trainer.train()
        phases = ("bias_seconds", "theta_seconds", "code_seconds", "anchor_seconds")
        assert len(trainer.history) == 2
        for metrics in trainer.history:
            for field in phases:
                assert isinstance(metrics[field], float)
                # each phase ran: two bias refreshes, a network, code and anchor phase
                assert metrics[field] > 0.0
        untrained = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                       small_train(epochs_per_iter=0, exchange=False))
        metrics = untrained.run_iteration()
        assert metrics["anchor_seconds"] == 0.0
        assert metrics["bias_seconds"] > 0.0

    def test_metrics_count_codes_flipped(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train(outer_iters=2))
        for _ in range(2):
            before = trainer.codes.copy()
            metrics = trainer.run_iteration()
            assert type(metrics["codes_flipped"]) is int
            assert metrics["codes_flipped"] == np.count_nonzero(trainer.codes != before)
        assert trainer.history[0]["codes_flipped"] > 0

    def test_theta_loss_decreases(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                     small_train(outer_iters=4, epochs_per_iter=2))
        history = trainer.train()
        assert history[-1]["theta_loss"] < history[0]["theta_loss"]
        assert history[-1]["code_objective"] < history[0]["code_objective"]

    def test_database_codes_stay_binary(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.train()
        assert trainer.codes.shape == (18, 8)
        assert np.all(np.abs(trainer.codes) == 1.0)

    def test_epochs_zero_leaves_weights_untouched(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                     small_train(epochs_per_iter=0))
        before = {name: arr.copy() for name, arr in trainer.params.arrays().items()}
        metrics = trainer.run_iteration()
        assert metrics["theta_loss"] is None
        for name, arr in trainer.params.arrays().items():
            assert np.array_equal(arr, before[name])

    def test_single_iteration_schedule(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                     small_train(outer_iters=1))
        history = trainer.train()
        assert len(history) == 1
        with pytest.raises(ContractError):
            trainer.run_iteration()

    def test_full_warmup_matches_no_exchange(self, small_dataset):
        # with exchange never activating, the rng draws line up exactly
        config_a = small_train(outer_iters=3, exchange=True, warmup_fraction=1.0)
        config_b = small_train(outer_iters=3, exchange=False)
        a = AlternatingTrainer(small_dataset, SMALL_MODEL, config_a)
        b = AlternatingTrainer(small_dataset, SMALL_MODEL, config_b)
        a.train()
        b.train()
        for name, arr in a.params.arrays().items():
            assert np.array_equal(arr, b.params.arrays()[name])
        assert np.array_equal(a.codes, b.codes)

    def test_exchange_changes_trajectory(self, small_dataset):
        with_exchange = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                           small_train(warmup_fraction=0.0))
        without = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                     small_train(exchange=False))
        with_exchange.train()
        without.train()
        assert not np.array_equal(with_exchange.params.arrays()["hash.weight"],
                                  without.params.arrays()["hash.weight"])

    def test_image_shape_mismatch_rejected(self, small_dataset):
        with pytest.raises(ContractError):
            AlternatingTrainer(small_dataset, ModelConfig(image_side=32), small_train())

    def test_missing_query_split_rejected(self):
        images = np.zeros((4, 16, 16, 3))
        data = Dataset(images=images, labels=np.array([0, 0, 1, 1]),
                       splits=np.array(["train-db"] * 4))
        with pytest.raises(ContractError):
            AlternatingTrainer(data, SMALL_MODEL, small_train())


class TestSharedEncoding:
    """The code and anchor phases read the database encoding of the bias refresh."""

    def test_code_phase_matches_per_image_relaxed_codes(self, small_dataset):
        config = small_train()
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, config)
        codes_before = trainer.codes.copy()
        metrics = trainer.run_iteration()
        subset = np.random.default_rng([config.seed, 1]).choice(
            trainer.db_size, size=min(config.samples_per_epoch, trainer.db_size), replace=False
        )
        relaxed_ref = np.empty((len(subset), SMALL_MODEL.bits))
        for row, index in enumerate(subset):
            features = forward_features(trainer.params, small_dataset.train_images[index])
            relaxed_ref[row] = hash_layer(trainer.params,
                                          descriptor(features.part_vecs, features.global_vec)).data
        labels = small_dataset.train_labels
        sim = build_similarity(labels[subset], labels)
        expected = sweep_codes(relaxed_ref, codes_before, sim, SMALL_MODEL.bits)
        assert np.array_equal(trainer.codes, expected)
        assert metrics["code_objective"] == code_objective(
            relaxed_ref, trainer.codes, sim, SMALL_MODEL.bits
        )

    def test_one_iteration_encodes_the_database_twice(self, small_dataset, monkeypatch):
        config = small_train()
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, config)
        images = []

        def counted(params, stack):
            images.append(int(np.prod(np.shape(stack)[:-3])))
            return forward_features(params, stack)

        monkeypatch.setattr(trainer_module, "forward_features", counted)
        trainer.run_iteration()
        samples = min(config.samples_per_epoch, trainer.db_size)
        # network phase per sample, plus the refreshes before and after it
        assert sum(images) == config.epochs_per_iter * samples + 2 * trainer.db_size


class TestResume:
    def test_checkpoint_round_trip(self, small_dataset, tmp_path):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.run_iteration()
        path = tmp_path / "ckpt.fht1"
        trainer.save(path)
        state = load_checkpoint(path)
        assert state.iteration == 1
        assert state.train_config == trainer.train_config
        assert state.params.config == SMALL_MODEL
        assert np.array_equal(state.codes, trainer.codes)
        for name, arr in trainer.params.arrays().items():
            assert np.array_equal(state.params.arrays()[name], arr)
        assert state.anchors is not None
        for class_id in state.anchors.classes:
            assert np.array_equal(state.anchors.get(class_id),
                                  trainer.anchors.get(class_id))

    def test_largest_exact_seed_round_trips(self, small_dataset, tmp_path):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train(seed=2**53))
        path = tmp_path / "ckpt.fht1"
        trainer.save(path)
        assert load_checkpoint(path).train_config.seed == 2**53

    def test_explicit_weights_round_trip(self, small_dataset, tmp_path):
        config = small_train(spatial_weight=0.5, channel_weight=0.0)
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, config)
        path = tmp_path / "ckpt.fht1"
        trainer.save(path)
        state = load_checkpoint(path)
        assert state.train_config.spatial_weight == 0.5
        assert state.train_config.channel_weight == 0.0
        assert state.anchors is None

    def test_resume_replays_exact_trajectory(self, small_dataset, tmp_path):
        config = small_train(outer_iters=4)
        straight = AlternatingTrainer(small_dataset, SMALL_MODEL, config)
        stopped = AlternatingTrainer(small_dataset, SMALL_MODEL, config)
        straight.run_iteration()
        straight.run_iteration()
        stopped.run_iteration()
        stopped.run_iteration()
        path = tmp_path / "ckpt.fht1"
        stopped.save(path)
        resumed = AlternatingTrainer.from_checkpoint(path, small_dataset)
        assert resumed.iteration == 2
        straight.train()
        resumed.train()
        for name, arr in straight.params.arrays().items():
            assert np.array_equal(resumed.params.arrays()[name], arr)
        assert np.array_equal(resumed.codes, straight.codes)
        for class_id in straight.anchors.classes:
            assert np.array_equal(resumed.anchors.get(class_id),
                                  straight.anchors.get(class_id))

    def test_checkpoint_with_in_channels_entry_resumes(self, small_dataset, tmp_path):
        # files from before images were fixed to RGB store config.model.in_channels:
        # loading skips the entry, and the first kernel's shape still holds it to 3
        config = small_train(outer_iters=2)
        straight = AlternatingTrainer(small_dataset, SMALL_MODEL, config)
        straight.run_iteration()
        path = tmp_path / "old.fht1"
        straight.save(path)
        arrays = load_arrays(path)
        arrays["config.model.in_channels"] = np.array(3.0)
        save_arrays(path, arrays)
        resumed = AlternatingTrainer.from_checkpoint(path, small_dataset)
        assert resumed.iteration == 1
        straight.train()
        resumed.train()
        for name, arr in straight.params.arrays().items():
            assert np.array_equal(resumed.params.arrays()[name], arr)
        assert np.array_equal(resumed.codes, straight.codes)
        arrays["config.model.in_channels"] = np.array(1.0)
        arrays["backbone.0.kernel"] = arrays["backbone.0.kernel"][:, :, :1]
        save_arrays(path, arrays)
        with pytest.raises(FileFormatError, match="'backbone.0.kernel' has shape"):
            load_checkpoint(path)

    def test_checkpoint_with_one_code_sweep_entry_resumes(self, small_dataset, tmp_path):
        # older files store config.train.code_sweeps; 1, the trainer's one
        # pass, resumes on the straight run's trajectory, and 2 would not
        straight = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train(outer_iters=2))
        straight.run_iteration()
        path = tmp_path / "old.fht1"
        straight.save(path)
        arrays = load_arrays(path)
        arrays["config.train.code_sweeps"] = np.array(1.0)
        save_arrays(path, arrays)
        resumed = AlternatingTrainer.from_checkpoint(path, small_dataset)
        straight.train()
        resumed.train()
        for name, arr in straight.params.arrays().items():
            assert np.array_equal(resumed.params.arrays()[name], arr)
        assert np.array_equal(resumed.codes, straight.codes)
        arrays["config.train.code_sweeps"] = np.array(2.0)
        save_arrays(path, arrays)
        with pytest.raises(FileFormatError,
                           match="entry 'config.train.code_sweeps' holds 2, expected 1"):
            load_checkpoint(path)

    def test_checkpoint_missing_entry(self, tmp_path):
        path = tmp_path / "bad.fht1"
        save_arrays(path, {"config.model.parts": np.array(2.0)})
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_wrong_database_size_rejected(self, small_dataset, tmp_path):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        path = tmp_path / "ckpt.fht1"
        trainer.save(path)
        other = generate_synthetic(SynthConfig(num_classes=3, per_class=4,
                                               queries_per_class=2, image_side=16,
                                               parts_per_image=2, patch_size=4, seed=1))
        with pytest.raises(ContractError):
            AlternatingTrainer.from_checkpoint(path, other)

    def test_resume_makes_no_forward_pass(self, small_dataset, tmp_path, monkeypatch):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.run_iteration()
        path = tmp_path / "ckpt.fht1"
        trainer.save(path)
        calls = []

        def counted(params, stack):
            calls.append(len(stack))
            return forward_features(params, stack)

        monkeypatch.setattr(trainer_module, "forward_features", counted)
        resumed = AlternatingTrainer.from_checkpoint(path, small_dataset)
        assert calls == []
        assert np.array_equal(resumed.codes, trainer.codes)

    def test_on_disk_config_names(self, tmp_path):
        # the entry names, shapes and encodings of the checkpoint format; older
        # files also store config.model.in_channels and config.train.code_sweeps
        params = ModelParams.initialize(SMALL_MODEL, np.random.default_rng(0))
        entries = {
            "config.model.parts": 2.0,
            "config.model.bits": 8.0,
            "config.model.image_side": 16.0,
            "config.model.in_channels": 3.0,
            "config.model.backbone_channels": [6.0, 8.0],
            "config.model.backbone_pools": [2.0, 2.0],
            "config.model.refined_channels": 8.0,
            "config.train.outer_iters": 3.0,
            "config.train.epochs_per_iter": 1.0,
            "config.train.batch_size": 6.0,
            "config.train.samples_per_epoch": 12.0,
            "config.train.learning_rate": 0.002,
            "config.train.lr_drop_points": [0.5],
            "config.train.lr_drop_factor": 0.5,
            "config.train.weight_decay": 0.0,
            "config.train.warmup_fraction": 0.34,
            "config.train.exchange": 0.0,
            "config.train.code_sweeps": 1.0,
            "config.train.spatial_weight": np.nan,
            "config.train.channel_weight": 0.125,
            "config.train.margin": 0.3,
            "config.train.seed": 7.0,
        }
        arrays = dict(params.arrays())
        arrays.update({name: np.array(value) for name, value in entries.items()})
        arrays["state.iteration"] = np.array(2.0)
        arrays["state.codes"] = np.ones((4, 8))
        path = tmp_path / "pinned.fht1"
        save_arrays(path, arrays)
        state = load_checkpoint(path)
        expected = small_train(learning_rate=0.002, lr_drop_points=(0.5,), lr_drop_factor=0.5,
                               weight_decay=0.0, exchange=False, channel_weight=0.125,
                               margin=0.3)
        assert state.params.config == SMALL_MODEL
        assert state.train_config == expected
        assert state.iteration == 2
        # and save_checkpoint writes exactly those entries back, the older two aside
        save_checkpoint(tmp_path / "again.fht1", params, expected, np.ones((4, 8)), 2)
        written = {name: values for name, values in load_arrays(tmp_path / "again.fht1").items()
                   if name.startswith("config.")}
        del entries["config.model.in_channels"], entries["config.train.code_sweeps"]
        assert sorted(written) == sorted(entries)
        for name, value in entries.items():
            np.testing.assert_array_equal(written[name], np.array(value), err_msg=name)

    @pytest.mark.parametrize("name, value", [
        ("hash.weight", None),
        ("config.model.parts", np.array([2.0, 2.0])),
        ("config.model.bits", np.array(np.nan)),
        ("config.model.bits", np.array(8.5)),
        ("config.train.exchange", np.array(np.nan)),
        ("config.model.backbone_channels", np.array(6.0)),
        ("state.iteration", np.array(1.5)),
        ("config.train.learning_rate", np.array(np.nan)),  # float
        ("config.train.margin", np.array(np.inf)),
        ("config.train.channel_weight", np.array(-np.inf)),  # float | None: NaN alone is None
        ("config.train.lr_drop_points", np.array([0.5, np.inf])),  # tuple of floats
        ("anchors.1", None),  # class ids (0, 2)
        ("anchors.1", np.zeros((2, 7))),  # mixed anchor shapes
        ("config.train.exchange", np.array(2.0)),  # a bool is 0 or 1
        ("config.train.exchange", np.array(-7.0)),
        ("config.train.code_sweeps", np.array(2.0)),  # older files: one sweep only
        ("config.train.code_sweeps", np.array(1.5)),
        ("anchors.0", None),  # class ids (1, 2)
    ])
    def test_malformed_checkpoint_names_entry(self, tmp_path, name, value):
        path, arrays = self._saved_with_anchors(tmp_path)
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
        save_arrays(path, arrays)
        with pytest.raises(FileFormatError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize("entries, name", [
        ({"anchors.x": np.zeros((2, 8))}, "anchors.x"),  # a class id that is no integer
        # every class one shape, but not the stored config's [parts, refined_channels]
        ({f"anchors.{c}": np.zeros((3, 8)) for c in range(3)}, "anchors.0"),
        ({"anchors.1": np.where(np.eye(2, 8) == 1, np.nan, 0.0)}, "anchors.1"),
        ({"anchors.2": np.full((2, 8), -np.inf)}, "anchors.2"),
    ], ids=["stray-name", "one-other-shape", "nan", "inf"])
    def test_malformed_anchor_entries_name_entry(self, tmp_path, entries, name):
        path, arrays = self._saved_with_anchors(tmp_path)
        save_arrays(path, {**arrays, **entries})
        with pytest.raises(FileFormatError, match=rf"ckpt\.fht1: checkpoint .*'{name}'"):
            load_checkpoint(path)

    @staticmethod
    def _saved_with_anchors(tmp_path):
        """A checkpoint with a 3-class bank and its entries."""
        path = tmp_path / "ckpt.fht1"
        params = ModelParams.initialize(SMALL_MODEL, np.random.default_rng(0))
        bank = AnchorBank(np.zeros((3, SMALL_MODEL.parts, SMALL_MODEL.refined_channels)))
        save_checkpoint(path, params, small_train(), np.ones((4, 8)), 1, bank)
        return path, load_arrays(path)

    def test_checkpoint_bytes_pinned(self, tmp_path):
        # the whole layout, without and with anchors: entry names, order, shapes, values
        params = ModelParams.initialize(SMALL_MODEL, np.random.default_rng(0))
        codes = np.where(np.arange(4 * 8).reshape(4, 8) % 3 == 0, 1.0, -1.0)
        bank = AnchorBank(np.arange(3 * 2 * 8).reshape(3, 2, 8) / 7.0)
        path = tmp_path / "pinned.fht1"
        for anchors, digest in (
                (None, "a35fec5b5a11dac0a20ace289cc071d629dc19db4c5526f6463de76d038ba57b"),
                (bank, "8e02e92c8a4006c78e256e356fe14c58179c1a311805bb86ed5ce782c3cabec3")):
            save_checkpoint(path, params, small_train(), codes, 2, anchors)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name, edit, problem", [
        ("hash.bias", lambda values: np.where(np.arange(values.size) == 1, np.nan, values),
         "NaN, Inf"),
        ("hash.weight", lambda values: -np.inf * np.ones_like(values), "NaN, Inf"),
        ("backbone.1.kernel", lambda values: values + 1e300, "beyond float32 range"),
        ("local.kernel", lambda values: np.zeros(values.shape[:3] + (30,)),
         r"has shape \(3, 3, 8, 30\), expected \(3, 3, 8, 8\)"),
        ("attention.bias", lambda values: values[None], "has shape"),
        ("local.gate", lambda values: np.zeros(3), "is not a weight of the model"),
    ])
    def test_invalid_weight_names_file_and_entry(self, tmp_path, name, edit, problem):
        path = tmp_path / "ckpt.fht1"
        params = ModelParams.initialize(SMALL_MODEL, np.random.default_rng(0))
        save_checkpoint(path, params, small_train(), np.ones((4, 8)), 1)
        arrays = load_arrays(path)
        arrays[name] = edit(arrays.get(name))
        save_arrays(path, arrays)
        with pytest.raises(FileFormatError,
                           match=rf"ckpt\.fht1: checkpoint entry '{name}' .*{problem}"):
            load_checkpoint(path)


class TestInitialization:
    def test_initial_codes_balanced_per_bit(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        assert np.all(np.abs(trainer.codes) == 1.0)
        assert np.array_equal(trainer.codes.sum(axis=0), np.zeros(SMALL_MODEL.bits))

    def test_hash_bias_is_mean_projection(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        descriptors = encode_images(trainer.params, small_dataset.train_images)[1]
        expected = trainer.params.hash_weight.data @ descriptors.mean(axis=0)
        np.testing.assert_allclose(trainer.params.hash_bias.data, expected, atol=1e-12)

    def test_zero_hash_row_keeps_plus_one_bit(self, small_dataset):
        # the sign(0) = +1 convention must survive threshold refreshes
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL,
                                     small_train(epochs_per_iter=0))
        trainer.params.hash_weight.data[0, :] = 0.0
        trainer.run_iteration()
        assert trainer.params.hash_bias.data[0] == 0.0
        codes = trainer.encode(small_dataset.query_images)
        assert np.all(codes[:, 0] == 1.0)

    def test_codes_track_thresholds_not_raw_projections(self, small_dataset):
        # with entrywise-positive descriptors, unthresholded projections
        # give every image the same sign pattern; the trained pipeline
        # must do better than one repeated code
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        codes = trainer.encode(small_dataset.train_images)
        assert len({row.tobytes() for row in codes.astype(np.int8)}) > 1


class TestEncoding:
    def test_encode_shapes_and_values(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.run_iteration()
        codes = trainer.encode(small_dataset.query_images)
        assert codes.shape == (6, 8)
        assert np.all(np.abs(codes) == 1.0)
        descriptors = trainer.encode_descriptors(small_dataset.query_images)
        assert descriptors.shape == (6, SMALL_MODEL.descriptor_dim)
        assert np.all(np.isfinite(descriptors))

    def test_encode_deterministic(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        first = trainer.encode(small_dataset.query_images)
        second = trainer.encode(small_dataset.query_images)
        assert np.array_equal(first, second)

    def test_encode_ignores_anchor_bank(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.train()
        baseline = trainer.encode(small_dataset.query_images)
        trainer.anchors = AnchorBank(trainer.anchors.table + 100.0)
        assert np.array_equal(trainer.encode(small_dataset.query_images), baseline)

    def test_chunked_encoding_equals_one_image_at_a_time(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.run_iteration()
        images = small_dataset.images
        assert len(images) > trainer_module.ENCODE_CHUNK  # more than one chunk
        # the default architecture too, whose stacks of ENCODE_CHUNK images
        # are what query (one image) compares against
        default = ModelConfig(bits=16)
        default_images = np.random.default_rng(3).random(
            (2 * trainer_module.ENCODE_CHUNK + 3, default.image_side, default.image_side,
             CHANNELS))
        for params, images in ((trainer.params, images),
                               (ModelParams.initialize(default, np.random.default_rng(4)),
                                default_images)):
            codes, descriptors = encode_images(params, images)
            for i in range(len(images)):
                row_codes, row_descriptors = encode_images(params, images[i : i + 1])
                assert np.array_equal(row_codes[0], codes[i])
                assert np.array_equal(row_descriptors[0], descriptors[i])

    def test_nan_written_into_weights_raises_at_next_encode(self, small_dataset):
        # as a diverging SGD step would write it: in place, past tensor()'s check
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.params.hash_weight.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="^matmul: "):
            encode_images(trainer.params, small_dataset.query_images[:2])

    def test_empty_stack_gives_empty_arrays(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        codes, descriptors = encode_images(trainer.params, np.zeros((0, 0, 0, 3)))
        assert codes.shape == (0, SMALL_MODEL.bits)
        assert descriptors.shape == (0, SMALL_MODEL.descriptor_dim)

    def test_encode_images_pair_consistent(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        codes, descriptors = encode_images(trainer.params, small_dataset.query_images[:2])
        assert np.array_equal(codes, trainer.encode(small_dataset.query_images[:2]))
        assert descriptors.shape == (2, SMALL_MODEL.descriptor_dim)


class TestBatchIndependence:
    def test_batch_gradients_equal_sum_of_single_image_gradients(self, small_dataset):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train(warmup_fraction=0.0))
        trainer.run_iteration()  # leaves an anchor bank and moved weights
        params, labels = float64_params(trainer.params), trainer.train_labels
        batch = np.array([3, 11, 0, 16, 7])
        mask = np.array([[1, 0], [0, 0], [1, 1], [0, 1], [1, 0]])

        def gradients(rows):
            with ad.Tape() as tape:
                features = forward_features(params, trainer.train_images[batch[rows]])
                part_vecs = exchange_features(features.part_vecs,
                                              trainer.anchors.table[labels[batch[rows]]],
                                              mask[rows])
                relaxed = hash_layer(params, descriptor(part_vecs, features.global_vec))
                total = total_objective(relaxed, features, trainer.codes,
                                        build_similarity(labels[batch[rows]], labels),
                                        SMALL_MODEL.bits, spatial=0.3, channel=0.2,
                                        margin=0.9)
            tape.backward(total)
            return {name: tens.grad.copy() for name, tens in params.named().items()}

        batched = gradients(slice(None))
        singles = [gradients(slice(i, i + 1)) for i in range(len(batch))]
        for name, grad in batched.items():
            summed = sum(single[name] for single in singles)
            assert relative_error(grad, summed) < 1e-10, name


class TestFloat32Engine:
    """The network computes in the dtype of its parameters: float32 as
    initialized or loaded, float64 for a float64 copy of the weights."""

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_float32_encoding_within_stated_tolerance(self, iterations):
        config = default_run_config()
        dataset = generate_synthetic(config.synth)
        trainer = AlternatingTrainer(dataset, replace(config.model, bits=16), config.train)
        for _ in range(iterations):
            trainer.run_iteration()
        codes, descriptors = encode_images(trainer.params, dataset.images)
        codes_64, descriptors_64 = encode_images(float64_params(trainer.params), dataset.images)
        assert descriptors.dtype == np.float32 and descriptors_64.dtype == np.float64
        row_error = (np.linalg.norm(descriptors - descriptors_64, axis=1)
                     / np.linalg.norm(descriptors_64, axis=1))
        assert row_error.max() <= 1e-5
        assert np.mean(codes == codes_64) >= 0.99

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_step_runs_in_parameter_dtype(self, small_dataset, monkeypatch, dtype):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train(warmup_fraction=0.0))
        trainer.run_iteration()  # leaves an anchor bank, so the step exchanges
        if dtype == np.float64:
            trainer.params = float64_params(trainer.params)
        assert trainer.params.dtype == dtype
        seen = []
        backward = ad.Tape.backward

        def watched(grad_fn):
            def run(grad):
                step = grad_fn(grad)
                seen.extend([grad.dtype, step.dtype])
                return step
            return run

        def recorded(tape, loss):
            # backward consumes the tape, so every gradient dtype is read
            # while it runs: each output's gradient and each contribution
            for out, inputs in tape._records:
                seen.append(out.data.dtype)
                inputs[:] = [(tens, watched(grad_fn)) for tens, grad_fn in inputs]
            backward(tape, loss)
            seen.extend(tens.grad.dtype for tens in trainer.params.named().values())

        monkeypatch.setattr(ad.Tape, "backward", recorded)
        trainer._theta_batch(np.arange(6), 1e-3, np.random.default_rng(0), exchanging=True)
        assert len(seen) > 100
        assert set(seen) == {np.dtype(dtype)}
        assert all(tens.data.dtype == dtype for tens in trainer.params.named().values())
        assert encode_images(trainer.params, small_dataset.query_images)[1].dtype == dtype

    def test_default_batch_step_peak_memory(self):
        # tracemalloc peak of one 64-image exchanging step on the default
        # architecture at 16 bits, numpy 2.4.6: 24.4 MB, reached in
        # gated_conv2d's backward, with 15.0 MB live at the end of the forward
        # pass.  It was 31.7 MB, reached in the forward pass (27.5 MB live at
        # its end), while the tape kept each conv's padded input and the
        # pre-activation of each relu after a conv: 26.6 MB with only the
        # padded inputs kept (TestFusedRelu checks that one per op), 31.2 MB
        # with only the four conv2d pre-activations.  Earlier designs read
        # 32.3 MB or more (a stack of gated copies of the base map, the whole
        # tape kept through backward, im2col columns in one piece).  The bound
        # leaves 23%
        config = default_run_config()
        trainer = AlternatingTrainer(generate_synthetic(config.synth),
                                     replace(config.model, bits=16),
                                     replace(config.train, epochs_per_iter=0))
        trainer.run_iteration()  # leaves an anchor bank, so the step exchanges
        tracemalloc.start()
        try:
            trainer._theta_batch(np.arange(64), 1e-3, np.random.default_rng(0),
                                 exchanging=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"

    def test_checkpoint_round_trips_float32_weights_bit_equal(self, small_dataset, tmp_path):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        trainer.run_iteration()
        path = tmp_path / "ckpt.fht1"
        trainer.save(path)
        assert all(values.dtype == np.float64 for values in load_arrays(path).values())
        loaded = load_checkpoint(path).params.arrays()
        for name, values in trainer.params.arrays().items():
            assert values.dtype == np.float32 and loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], values)

    def test_float64_checkpoint_weights_load_as_float32(self, small_dataset, tmp_path):
        trainer = AlternatingTrainer(small_dataset, SMALL_MODEL, small_train())
        rng = np.random.default_rng(3)
        weights = {name: values + 1e-9 * rng.standard_normal(values.shape)
                   for name, values in float64_params(trainer.params).arrays().items()}
        assert any(not np.array_equal(values.astype(np.float32), values)
                   for values in weights.values())
        path = tmp_path / "ckpt.fht1"
        save_checkpoint(path, ModelParams.from_arrays(SMALL_MODEL, weights),
                        trainer.train_config, trainer.codes, 0)
        params = load_checkpoint(path).params
        assert params.dtype == np.float32
        for name, values in params.arrays().items():
            assert np.array_equal(values, weights[name].astype(np.float32))
        codes, descriptors = encode_images(params, small_dataset.query_images)
        assert np.all(np.abs(codes) == 1.0)
        assert descriptors.dtype == np.float32 and np.all(np.isfinite(descriptors))
