"""Flat ``key = value`` run configuration files.

A config file collects model, training, and synthetic-data settings in one
flat namespace; ``#`` starts a comment, every key is optional, and an empty
file yields the library defaults.  Unknown and duplicate keys are config
errors naming the key, so typos fail loudly instead of training with a
silently ignored setting.  Path values resolve relative to the config file.
``load_config`` is the one builder: command-line flags are keys laid over
the file's, each config is validated once, and a rejected value names the
file and the keys of its group that the file (by line) or a flag set.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .data import SynthConfig
from .errors import ConfigError, ContractError
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
    return load_config()


def load_config(path: str | Path | None = None, flags: dict | None = None) -> RunConfig:
    """Parse a config file when one is given, lay ``flags`` (config key ->
    value, as the command line sets them) over its keys, and build each
    config once; every key set nowhere keeps its default."""
    values: dict[str, object] = {}
    origins: dict[str, str] = {}
    lines: list[str] = []
    if path is not None:
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc

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
        if key in values:
            raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}: line {line_no}: key {key!r} has no value")
        origins[key] = f"on line {line_no}"

        def bad(expected: str):
            return ConfigError(
                f"{path}: line {line_no}: key {key!r} expects {expected}, got {value!r}"
            )

        if key == "data_dir":
            candidate = Path(value)
            values[key] = candidate if candidate.is_absolute() else path.parent / candidate
        else:
            cls, name = _FIELDS[key]
            values[key] = _parse(value, _TYPES[cls][name], bad)
    for key, value in (flags or {}).items():
        values[key], origins[key] = value, "on the command line"

    def build(cls, **derived):
        """``derived`` maps a field to the (key, value) of the config it comes from."""
        keys = [key for key, (owner, _) in _FIELDS.items() if owner is cls and key in values]
        named = keys + [key for key, _ in derived.values() if key in values]
        try:
            return cls(**{name: value for name, (_, value) in derived.items()},
                       **{_FIELDS[key][1]: values[key] for key in keys})
        except ContractError as exc:
            where = "" if path is None else f"{path}: "
            # TrainConfig and SynthConfig name themselves in their messages already
            group = "" if str(exc).startswith(f"{cls.__name__}: ") else f"{cls.__name__}: "
            set_by = ", ".join(f"{key} {origins[key]}" for key in named)
            raise ContractError(f"{where}{group}{exc}"
                                + (f" (set: {set_by})" if named else "")) from None

    model = build(ModelConfig)
    train = build(TrainConfig)
    # the generator renders what the model consumes, so geometry is shared
    synth = build(SynthConfig, image_side=("image_side", model.image_side),
                  parts_per_image=("parts", model.parts))
    return RunConfig(model, train, synth, values.get("data_dir"))


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
