"""Tests for the flat key = value config parser."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from finehash.config import KNOWN_KEYS, RunConfig, default_run_config, load_config
from finehash.data import SynthConfig
from finehash.errors import ConfigError, ContractError
from finehash.model import ModelConfig, ModelParams
from finehash.trainer import TrainConfig, load_checkpoint, save_checkpoint


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_file_equals_defaults(self, tmp_path):
        loaded = load_config(write(tmp_path, ""))
        assert loaded == default_run_config()

    def test_comments_and_blanks_only(self, tmp_path):
        loaded = load_config(write(tmp_path, "# just a comment\n\n   \n# another\n"))
        assert loaded == default_run_config()

    def test_default_values(self):
        config = default_run_config()
        assert config.model.bits == 32
        assert config.model.parts == 4
        assert config.train.outer_iters == 15
        assert config.train.learning_rate == 1e-3
        assert config.synth.num_classes == 8
        assert config.data_dir is None

    def test_synth_geometry_follows_model(self, tmp_path):
        loaded = load_config(write(tmp_path, "image_side = 16\nparts = 2\n"))
        assert loaded.synth.image_side == 16
        assert loaded.synth.parts_per_image == 2

    def test_default_run_config_is_load_config_without_file_or_flags(self):
        assert default_run_config() == load_config()

    def test_every_key_documented_in_readme(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
        assert sorted(key for key in KNOWN_KEYS if f"`{key}`" not in section) == []


class TestParsing:
    def test_full_file(self, tmp_path):
        loaded = load_config(write(tmp_path, """
# architecture
parts = 2
bits = 16
image_side = 16
backbone_channels = 8,16
backbone_pools = 2,2
refined_channels = 8

# schedule
outer_iters = 5          # short run
learning_rate = 0.002
lr_drop_points = 0.5,0.9
exchange = false
spatial_weight = 0.25
channel_weight = auto
seed = 3

# data
synth_classes = 4
synth_pattern_scale = 0.4
"""))
        assert loaded.model.parts == 2
        assert loaded.model.bits == 16
        assert loaded.model.backbone_channels == (8, 16)
        assert loaded.train.outer_iters == 5
        assert loaded.train.learning_rate == 0.002
        assert loaded.train.lr_drop_points == (0.5, 0.9)
        assert loaded.train.exchange is False
        assert loaded.train.spatial_weight == 0.25
        assert loaded.train.channel_weight is None
        assert loaded.train.seed == 3
        assert loaded.synth.num_classes == 4
        assert loaded.synth.pattern_scale == 0.4
        assert loaded.synth.image_side == 16
        assert loaded.synth.parts_per_image == 2

    def test_inline_comment(self, tmp_path):
        loaded = load_config(write(tmp_path, "bits = 24  # compact codes\n"))
        assert loaded.model.bits == 24

    def test_auto_weights_are_default(self, tmp_path):
        loaded = load_config(write(tmp_path, "spatial_weight = auto\n"))
        assert loaded.train.spatial_weight is None

    def test_relative_data_dir(self, tmp_path):
        nested = tmp_path / "configs"
        nested.mkdir()
        path = nested / "run.cfg"
        path.write_text("data_dir = ../datasets/run1\n")
        loaded = load_config(path)
        assert loaded.data_dir == nested / ".." / "datasets" / "run1"

    def test_flags_override_file_keys(self, tmp_path):
        loaded = load_config(write(tmp_path, "bits = 24\nseed = 3\n"),
                             {"bits": 16, "synth_seed": 5, "exchange": False})
        assert (loaded.model.bits, loaded.train.seed) == (16, 3)
        assert (loaded.synth.seed, loaded.train.exchange) == (5, False)

    def test_absolute_data_dir(self, tmp_path):
        loaded = load_config(write(tmp_path, f"data_dir = {tmp_path}/elsewhere\n"))
        assert loaded.data_dir == tmp_path / "elsewhere"


class TestErrors:
    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'bots'"):
            load_config(write(tmp_path, "bots = 16\n"))

    def test_in_channels_is_no_key(self, tmp_path):
        # images are RGB, so the channel count is no setting
        with pytest.raises(ConfigError, match="line 2: unknown key 'in_channels'"):
            load_config(write(tmp_path, "bits = 16\nin_channels = 3\n"))

    def test_code_sweeps_is_no_key(self, tmp_path):
        # the code phase makes one pass over the bit columns, which is no setting
        with pytest.raises(ConfigError, match="line 1: unknown key 'code_sweeps'"):
            load_config(write(tmp_path, "code_sweeps = 1\n"))

    def test_duplicate_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key 'bits'"):
            load_config(write(tmp_path, "bits = 16\nbits = 32\n"))

    def test_missing_equals_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write(tmp_path, "bits = 16\njust words\n"))

    def test_empty_value(self, tmp_path):
        with pytest.raises(ConfigError, match="no value"):
            load_config(write(tmp_path, "bits =\n"))

    def test_bad_int(self, tmp_path):
        with pytest.raises(ConfigError, match="'bits'"):
            load_config(write(tmp_path, "bits = many\n"))

    def test_bad_float(self, tmp_path):
        with pytest.raises(ConfigError, match="'learning_rate'"):
            load_config(write(tmp_path, "learning_rate = fast\n"))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="'exchange'"):
            load_config(write(tmp_path, "exchange = maybe\n"))

    def test_bad_list_element(self, tmp_path):
        with pytest.raises(ConfigError, match="'backbone_channels'"):
            load_config(write(tmp_path, "backbone_channels = 8,x\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_validation_propagates(self, tmp_path):
        with pytest.raises(ContractError):
            load_config(write(tmp_path, "bits = 0\n"))

    @pytest.mark.parametrize("line, name", [
        ("learning_rate = nan", "learning_rate"),  # float
        ("weight_decay = nan", "weight_decay"),
        ("margin = inf", "margin"),
        ("spatial_weight = nan", "spatial_weight"),  # float | None
        ("channel_weight = -inf", "channel_weight"),
        ("lr_drop_points = 0.5,nan", "lr drop point"),  # tuple of floats
        ("synth_pixel_noise = inf", "pixel_noise"),  # synthetic generator float
        ("synth_pattern_scale = nan", "pattern_scale"),
    ])
    def test_non_finite_float_rejected(self, tmp_path, line, name):
        with pytest.raises(ContractError, match=name):
            load_config(write(tmp_path, line + "\n"))


class TestRejectionNamesSource:
    @pytest.mark.parametrize("text, message", [
        ("synth_seed = -5\n", "SynthConfig: seed must be >= 0 (set: synth_seed on line 1)"),
        ("bits = 24\nlearning_rate = -1\nseed = 3\n",
         "TrainConfig: learning_rate must be > 0 (set: learning_rate on line 2, seed on line 3)"),
        # the group is named once, though ModelConfig's own messages omit it
        ("# model\nbits = 0\n", "ModelConfig: bits must be >= 1, got 0 (set: bits on line 2)"),
        # a code file holds at most MAX_BITS, so the width fails before training
        ("bits = 65536\n", "ModelConfig: bits must be <= 65535, the widest packed code, "
         "got 65536 (set: bits on line 1)"),
    ], ids=["synth", "train", "model", "model-bits-above-max"])
    def test_file_key(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(ContractError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {message}"

    def test_flag(self, tmp_path):
        with pytest.raises(ContractError) as info:
            load_config(flags={"synth_seed": -1})
        assert str(info.value) == ("SynthConfig: seed must be >= 0 "
                                   "(set: synth_seed on the command line)")
        path = write(tmp_path, "synth_seed = 3\nsynth_classes = 2\n")
        with pytest.raises(ContractError) as info:
            load_config(path, {"synth_seed": -1})
        assert str(info.value) == (f"{path}: SynthConfig: seed must be >= 0 (set: "
                                   "synth_classes on line 2, synth_seed on the command line)")

    def test_derived_field_names_its_model_key(self, tmp_path):
        # the generator's image side is the model's, so the model key is named
        path = write(tmp_path, "image_side = 4\nbackbone_pools = 1,1,1\n")
        with pytest.raises(ContractError) as info:
            load_config(path)
        assert str(info.value) == (f"{path}: SynthConfig: patch size 8 overflows image side 4 "
                                   "(set: image_side on line 1)")
        path = write(tmp_path, "synth_patch_size = 8\nbackbone_pools = 1,1,1\n")
        with pytest.raises(ContractError) as info:
            load_config(path, {"image_side": 4, "parts": 2})
        assert str(info.value) == (
            f"{path}: SynthConfig: patch size 8 overflows image side 4 (set: synth_patch_size "
            "on line 1, image_side on the command line, parts on the command line)")


# every field off its default, so a parser or checkpoint that drops one shows
NON_DEFAULT = RunConfig(
    model=ModelConfig(parts=2, bits=16, image_side=16, backbone_channels=(8, 12),
                      backbone_pools=(2, 1), refined_channels=12),
    train=TrainConfig(outer_iters=7, epochs_per_iter=3, batch_size=5, samples_per_epoch=40,
                      learning_rate=0.002, lr_drop_points=(0.5,), lr_drop_factor=0.5,
                      weight_decay=0.001, warmup_fraction=0.5, exchange=False,
                      spatial_weight=0.25, channel_weight=0.125, margin=0.3, seed=11),
    synth=SynthConfig(num_classes=5, per_class=7, queries_per_class=3, image_side=16,
                      parts_per_image=2, patch_size=4, position_jitter=0.25, pixel_noise=0.02,
                      pattern_scale=0.6, seed=13),
)
SYNTH_KEYS = {
    "synth_classes": "num_classes",
    "synth_per_class": "per_class",
    "synth_queries_per_class": "queries_per_class",
    "synth_patch_size": "patch_size",
    "synth_position_jitter": "position_jitter",
    "synth_pixel_noise": "pixel_noise",
    "synth_pattern_scale": "pattern_scale",
    "synth_seed": "seed",
}


def config_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return "auto" if value is None else str(value)


class TestFieldRoundTrip:
    @pytest.mark.parametrize("config", [NON_DEFAULT.model, NON_DEFAULT.train,
                                        NON_DEFAULT.synth])
    def test_every_field_is_off_default(self, config):
        default = type(config)()
        for field in fields(config):
            assert getattr(config, field.name) != getattr(default, field.name), field.name

    def test_config_file_round_trip(self, tmp_path):
        lines = [f"{field.name} = {config_value(getattr(config, field.name))}"
                 for config in (NON_DEFAULT.model, NON_DEFAULT.train)
                 for field in fields(config)]
        lines += [f"{key} = {config_value(getattr(NON_DEFAULT.synth, name))}"
                  for key, name in SYNTH_KEYS.items()]
        lines.append("data_dir = data")
        loaded = load_config(write(tmp_path, "\n".join(lines) + "\n"))
        assert loaded == RunConfig(model=NON_DEFAULT.model, train=NON_DEFAULT.train,
                                   synth=NON_DEFAULT.synth, data_dir=tmp_path / "data")

    def test_checkpoint_round_trip(self, tmp_path):
        model, train = NON_DEFAULT.model, NON_DEFAULT.train
        params = ModelParams.initialize(model, np.random.default_rng(0))
        path = tmp_path / "ckpt.fht1"
        save_checkpoint(path, params, train, np.ones((4, model.bits)), iteration=3)
        state = load_checkpoint(path)
        assert state.params.config == model
        assert state.train_config == train
        assert state.iteration == 3
