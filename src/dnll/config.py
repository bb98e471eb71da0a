"""Training configuration and its flat key=value file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments,
dotted keys for the nested groups (``optimizer.base_lr``). Every field is
addressable; unknown keys are rejected by name so typos cannot silently
fall back to defaults. ``serialize_config`` emits the fully resolved
config in canonical order, which is what run manifests echo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import AugmentConfig
from .errors import ConfigError
from .optim import OptimizerConfig

SELECTION_MODES = ("EP", "EPM")
LEARNING_MODES = ("mutual", "self_only", "mutual_plus_self", "supervised")


@dataclass
class Seeds:
    model1: int = 1
    model2: int = 2
    data: int = 3
    sampler: int = 4
    augment: int = 5


@dataclass
class TrainConfig:
    lam: float = 1.0
    m: int = 1
    selection_mode: str = "EP"
    learning_mode: str = "mutual_plus_self"
    epochs: int = 30
    batch_size: int = 100
    labeled_fraction: float = 0.5
    ema_decay: float = 0.9
    lambda_ramp_epochs: int = 0
    hidden: tuple[int, ...] = (256, 128)
    activation: str = "relu"
    max_unlabeled: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    seeds: Seeds = field(default_factory=Seeds)

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(
                f"selection_mode {self.selection_mode!r} not in {SELECTION_MODES}"
            )
        if self.learning_mode not in LEARNING_MODES:
            raise ConfigError(
                f"learning_mode {self.learning_mode!r} not in {LEARNING_MODES}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 < self.labeled_fraction < 1.0:
            raise ConfigError(
                f"labeled_fraction must be in (0, 1), got {self.labeled_fraction}"
            )
        if self.lambda_ramp_epochs < 0:
            raise ConfigError("lambda_ramp_epochs must be >= 0")
        if self.max_unlabeled < 0:
            raise ConfigError("data.max_unlabeled must be >= 0 (0 = use all)")

    def effective_lambda(self, epoch: int) -> float:
        """Constant by default; optional linear ramp over the first epochs."""
        if self.lambda_ramp_epochs > 0:
            return self.lam * min(1.0, (epoch + 1) / self.lambda_ramp_epochs)
        return self.lam


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_hidden(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)


def _format(value) -> str:
    """Inverse of the parsers: booleans as true/false, hidden widths as a,b."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


# key -> (section, attribute, parser)
_SCHEMA = {
    "lambda": (None, "lam", float),
    "m": (None, "m", int),
    "selection_mode": (None, "selection_mode", str),
    "learning_mode": (None, "learning_mode", str),
    "epochs": (None, "epochs", int),
    "batch_size": (None, "batch_size", int),
    "labeled_fraction": (None, "labeled_fraction", float),
    "ema_decay": (None, "ema_decay", float),
    "lambda_ramp_epochs": (None, "lambda_ramp_epochs", int),
    "model.hidden": (None, "hidden", _parse_hidden),
    "model.activation": (None, "activation", str),
    "data.max_unlabeled": (None, "max_unlabeled", int),
    "optimizer.base_lr": ("optimizer", "base_lr", float),
    "optimizer.momentum": ("optimizer", "momentum", float),
    "optimizer.weight_decay": ("optimizer", "weight_decay", float),
    "optimizer.total_steps": ("optimizer", "total_steps", int),
    "optimizer.nesterov": ("optimizer", "nesterov", _parse_bool),
    "augment.weak": ("augment", "weak", str),
    "augment.strong": ("augment", "strong", str),
    "augment.crop_pad": ("augment", "crop_pad", int),
    "augment.flip_p": ("augment", "flip_p", float),
    "augment.noise_sigma": ("augment", "noise_sigma", float),
    "augment.per_submodel_streams": ("augment", "per_submodel_streams", _parse_bool),
    "seeds.model1": ("seeds", "model1", int),
    "seeds.model2": ("seeds", "model2", int),
    "seeds.data": ("seeds", "data", int),
    "seeds.sampler": ("seeds", "sampler", int),
    "seeds.augment": ("seeds", "augment", int),
}


def parse_config(text: str) -> TrainConfig:
    """Parse key=value text into a validated TrainConfig."""
    top: dict = {}
    sections: dict[str, dict] = {sec: {} for sec, _, _ in _SCHEMA.values() if sec}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        section, attr, parser = _SCHEMA[key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse value {raw_value!r}") from exc
        (top if section is None else sections[section])[attr] = value
    section_types = {f.name: f.default_factory for f in fields(TrainConfig)}
    return TrainConfig(
        **{sec: section_types[sec](**values) for sec, values in sections.items()}, **top
    )


def parse_config_file(path) -> TrainConfig:
    return parse_config(Path(path).read_text())


def serialize_config(cfg: TrainConfig) -> str:
    """Canonical key=value dump of every field (manifest echo format)."""
    lines = []
    for key, (section, attr, _) in _SCHEMA.items():
        owner = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key} = {_format(getattr(owner, attr))}")
    return "\n".join(lines) + "\n"
