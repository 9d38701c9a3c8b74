"""Run configuration: flat `key = value` files with documented defaults.

Lines are `key = value`; `#` starts a comment; blank lines are ignored.
Unknown keys are rejected so typos fail fast. Every key has a default, so an
empty file is a valid configuration. Every value is range-checked at load:
`_validate` states the limits that no stage config states, then builds each
stage config once so that its own constructor checks the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dataio import SplitSpec
from .fcm import FcmConfig
from .imaging import AugmentParams, ClaheParams
from .nnet.training import TrainConfig


class ConfigError(Exception):
    pass


_ENHANCEMENTS = ("blur", "hist_eq", "clahe")


@dataclass
class RunConfig:
    # paths
    dataset_root: str = "dataset"
    output_dir: str = "out"
    # preprocessing
    image_size: int = 224
    background_threshold: int = 10
    enhancement: tuple[str, ...] = ("blur", "clahe")
    blur_kernel: int = 3
    clahe_tiles: int = 8
    clahe_clip_limit: float = 2.0
    # augmentation (training images only)
    augment_enabled: bool = True
    augment_rotation: float = 30.0
    augment_hflip: bool = True
    augment_vflip: bool = False
    augment_zoom: float = 0.1
    augment_shift: float = 0.1
    augment_shear: float = 10.0
    augment_brightness_lo: float = 0.9
    augment_brightness_hi: float = 1.1
    # fuzzy c-means stage
    fcm_clusters: int = 2
    fcm_m_initial: float = 2.0
    fcm_m_final: float = 2.0
    fcm_epsilon: float = 1e-6
    fcm_max_iter: int = 100
    fcm_mask_enabled: bool = False
    # training
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    early_stop_patience: int = 5
    lr_reduce_factor: float = 0.5
    lr_reduce_patience: int = 3
    dropout_rate: float = 0.3
    base_channels: int = 8
    # split + reproducibility
    train_fraction: float = 0.8
    seed: int = 1
    # synthetic dataset generator
    synth_per_class: int = 10

    def augment_params(self) -> AugmentParams:
        return AugmentParams(
            rotation_range=self.augment_rotation,
            allow_hflip=self.augment_hflip,
            allow_vflip=self.augment_vflip,
            zoom_range=self.augment_zoom,
            shift_range=self.augment_shift,
            shear_range=self.augment_shear,
            brightness_range=(self.augment_brightness_lo, self.augment_brightness_hi),
        )

    def clahe_params(self) -> ClaheParams:
        return ClaheParams(self.clahe_tiles, self.clahe_tiles, self.clahe_clip_limit)

    def fcm_config(self, seed: int) -> FcmConfig:
        return FcmConfig(
            c=self.fcm_clusters,
            m_initial=self.fcm_m_initial,
            m_final=self.fcm_m_final,
            epsilon=self.fcm_epsilon,
            max_iter=self.fcm_max_iter,
            seed=seed,
        )

    def train_config(self, seed: int) -> TrainConfig:
        """Every TrainConfig field but the seed comes from the key of the same name."""
        keys = (f.name for f in fields(TrainConfig) if f.name != "seed")
        return TrainConfig(seed=seed, **{key: getattr(self, key) for key in keys})

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_enhancement(raw: str) -> tuple[str, ...]:
    if raw.strip().lower() in ("", "none"):
        return ()
    steps = tuple(step.strip() for step in raw.split(","))
    for step in steps:
        if step not in _ENHANCEMENTS:
            raise ValueError(f"unknown enhancement {step!r}; choose from {_ENHANCEMENTS}")
    return steps


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Read a config file (optional) and apply CLI overrides on top."""
    config = RunConfig()
    field_types = {f.name: f for f in fields(RunConfig)}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in field_types:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(config, key, _convert(key, raw))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        setattr(config, key, value)
    _validate(config)
    return config


def _convert(key: str, raw: str):
    default = getattr(RunConfig(), key)
    if key == "enhancement":
        return _parse_enhancement(raw)
    if isinstance(default, bool):
        return _parse_bool(raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    return raw


def _validate(config: RunConfig) -> None:
    """Limits no stage config states, then every stage config built once."""
    checks = [
        (16 <= config.image_size <= 4096, "image_size must be in [16, 4096]"),
        (0 <= config.background_threshold < 255, "background_threshold must be in [0, 255)"),
        (config.blur_kernel >= 1 and config.blur_kernel % 2 == 1, "blur_kernel must be odd"),
        (config.blur_kernel <= config.image_size, "blur_kernel must be <= image_size"),
        (config.clahe_tiles <= config.image_size, "clahe_tiles must be <= image_size"),
        (config.fcm_clusters <= 256, "fcm_clusters must be <= 256 (label maps are 8-bit)"),
        (0 <= config.dropout_rate < 1, "dropout_rate must be in [0, 1)"),
        (config.base_channels >= 1, "base_channels must be >= 1"),
        (config.base_channels <= 256, "base_channels must be <= 256 (2.5 M weights)"),
        (config.synth_per_class >= 2, "synth_per_class must be >= 2"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        config.clahe_params()
        config.augment_params()
        config.fcm_config(seed=0)
        config.train_config(seed=0)
        SplitSpec(config.train_fraction)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
