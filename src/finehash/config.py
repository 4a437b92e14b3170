"""Flat ``key = value`` run configuration files.

A config file collects model, training, and synthetic-data settings in one
flat namespace; ``#`` starts a comment, every key is optional, and an empty
file yields the library defaults.  Unknown and duplicate keys are config
errors naming the key, so typos fail loudly instead of training with a
silently ignored setting.  Path values resolve relative to the config file.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .data import SynthConfig
from .errors import ConfigError
from .model import ModelConfig
from .trainer import TrainConfig

_SYNTH_KEYS = {
    "synth_classes": "num_classes",
    "synth_per_class": "per_class",
    "synth_queries_per_class": "queries_per_class",
    "synth_patch_size": "patch_size",
    "synth_position_jitter": "position_jitter",
    "synth_pixel_noise": "pixel_noise",
    "synth_pattern_scale": "pattern_scale",
    "synth_seed": "seed",
}
# config key -> (dataclass, field name); model and schedule keys are the field names
_FIELDS = {
    **{f.name: (ModelConfig, f.name) for f in fields(ModelConfig)},
    **{f.name: (TrainConfig, f.name) for f in fields(TrainConfig)},
    **{key: (SynthConfig, name) for key, name in _SYNTH_KEYS.items()},
}
_TYPES = {cls: typing.get_type_hints(cls) for cls in (ModelConfig, TrainConfig, SynthConfig)}

KNOWN_KEYS = frozenset(_FIELDS) | {"data_dir"}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: architecture, schedule, data generator."""

    model: ModelConfig
    train: TrainConfig
    synth: SynthConfig
    data_dir: Path | None = None


def default_run_config() -> RunConfig:
    return _build({}, {}, {}, None)


def _build(model_kwargs: dict, train_kwargs: dict, synth_kwargs: dict,
           data_dir: Path | None) -> RunConfig:
    model = ModelConfig(**model_kwargs)
    # the generator renders what the model consumes, so geometry is shared
    synth_kwargs.setdefault("image_side", model.image_side)
    synth_kwargs.setdefault("parts_per_image", model.parts)
    return RunConfig(
        model=model,
        train=TrainConfig(**train_kwargs),
        synth=SynthConfig(**synth_kwargs),
        data_dir=data_dir,
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file; every omitted key keeps its default."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc

    kwargs: dict[type, dict] = {ModelConfig: {}, TrainConfig: {}, SynthConfig: {}}
    data_dir: Path | None = None
    seen: set[str] = set()

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
        seen.add(key)
        if not value:
            raise ConfigError(f"{path}: line {line_no}: key {key!r} has no value")

        def bad(expected: str):
            return ConfigError(
                f"{path}: line {line_no}: key {key!r} expects {expected}, got {value!r}"
            )

        if key == "data_dir":
            candidate = Path(value)
            data_dir = candidate if candidate.is_absolute() else path.parent / candidate
        else:
            cls, name = _FIELDS[key]
            kwargs[cls][name] = _parse(value, _TYPES[cls][name], bad)

    return _build(kwargs[ModelConfig], kwargs[TrainConfig], kwargs[SynthConfig], data_dir)


def _parse(text: str, kind, bad):
    """One value of a field typed ``kind``: an int, a float, a bool as
    true/false, a tuple as a comma list, or ``float | None`` with auto as None."""
    if typing.get_origin(kind) is tuple:
        return tuple(_parse(item, typing.get_args(kind)[0], bad) for item in text.split(","))
    if kind == float | None:
        return None if text == "auto" else _parse(text, float, bad)
    if kind is bool:
        if text not in ("true", "false"):
            raise bad("true or false")
        return text == "true"
    try:
        return kind(text)
    except ValueError:
        raise bad("an integer" if kind is int else "a number") from None
