"""Run configuration: a single JSON document with strict schema checking
and dotted-path overrides.

Every experiment is fully described by one RunConfig; the resolved
config (plus the master seed) is embedded in output files so any result
can be reproduced from the file alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .datagen import SyntheticSpec
from .errors import ConfigError
from .evalsel import HyperSpace
from .losses import VARIANTS, LossConfig
from .networks import NetworkConfig
from .trainer import TrainerConfig


@dataclass(frozen=True)
class NetworkSettings:
    """Network widths; input/output dims come from the data at run time."""

    feature_dim: int = 64
    projection_dim: int = 32
    f_hidden: tuple[int, ...] = (64, 64)
    p_hidden: tuple[int, ...] = (64,)

    def to_network_config(self, input_dim: int, num_classes: int) -> NetworkConfig:
        return NetworkConfig(input_dim=input_dim, num_classes=num_classes,
                             feature_dim=self.feature_dim,
                             projection_dim=self.projection_dim,
                             f_hidden=tuple(self.f_hidden),
                             p_hidden=tuple(self.p_hidden))


@dataclass(frozen=True)
class DatasetConfig:
    """Either a synthetic recipe or a CSV path, never both."""

    name: str = "synthetic"
    csv_path: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("dataset needs exactly one of csv_path or synthetic")


@dataclass(frozen=True)
class SplitConfig:
    setting: str | int = "high"
    target_domain: int = 0
    plan_path: str | None = None


@dataclass(frozen=True)
class SearchConfig:
    n_trials: int = 5
    space: HyperSpace = field(default_factory=HyperSpace)

    def __post_init__(self):
        if self.n_trials < 0:
            raise ConfigError(f"n_trials must be >= 0, got {self.n_trials}")


@dataclass(frozen=True)
class BenchmarkConfig:
    variants: tuple[str, ...] = VARIANTS
    settings: tuple[str, ...] = ("low", "high")
    reps: int = 3

    def __post_init__(self):
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown variants {sorted(unknown)}")
        if isinstance(self.reps, bool) or not isinstance(self.reps, int):
            raise ConfigError(f"reps must be an integer, got {self.reps!r}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        for s in self.settings:
            if str(s).lower() not in ("low", "high") and not isinstance(s, int):
                raise ConfigError(f"setting {s!r} must be 'low', 'high', or an integer")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    dataset: DatasetConfig = field(default_factory=lambda: DatasetConfig(
        synthetic=SyntheticSpec(num_classes=6, input_dim=16)))
    split: SplitConfig = field(default_factory=SplitConfig)
    network: NetworkSettings = field(default_factory=NetworkSettings)
    loss: LossConfig = field(default_factory=LossConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)


_TUPLE_FIELDS = {"f_hidden", "p_hidden", "variants", "settings",
                 "learning_rate", "lambda_xdom", "lambda_fair", "temperature",
                 "a", "b", "dropout"}


def _build(cls, doc: dict, path: str):
    """Construct dataclass ``cls`` from ``doc`` rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {type(doc).__name__}")
    spec = {f.name: f for f in fields(cls)}
    unknown = set(doc) - set(spec)
    if unknown:
        raise ConfigError(f"unknown key {path}{sorted(unknown)[0]!r}")
    kwargs = {}
    for name, value in doc.items():
        f = spec[name]
        sub = _NESTED.get((cls, name))
        if sub is not None and value is not None:
            kwargs[name] = _build(sub, value, f"{path}{name}.")
        elif isinstance(value, list) and (name in _TUPLE_FIELDS or cls is HyperSpace):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {path or 'config'} section: {exc}") from None


_NESTED = {
    (RunConfig, "dataset"): DatasetConfig,
    (RunConfig, "split"): SplitConfig,
    (RunConfig, "network"): NetworkSettings,
    (RunConfig, "loss"): LossConfig,
    (RunConfig, "trainer"): TrainerConfig,
    (RunConfig, "search"): SearchConfig,
    (RunConfig, "benchmark"): BenchmarkConfig,
    (DatasetConfig, "synthetic"): SyntheticSpec,
    (SearchConfig, "space"): HyperSpace,
}


def parse_override(text: str):
    """'a.b.c=value' -> (['a','b','c'], parsed value); values parse as
    JSON when possible, otherwise stay strings."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key.path=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_overrides(doc: dict, overrides) -> dict:
    for text in overrides or ():
        keys, value = parse_override(text)
        node = doc
        for k in keys[:-1]:
            nxt = node.setdefault(k, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"cannot descend into {k!r} in override {text!r}")
            node = nxt
        node[keys[-1]] = value
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    return _build(RunConfig, doc, "")


def load_config(path, overrides=None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(apply_overrides(doc, overrides))


def _plain(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in asdict(value).items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def to_provenance(cfg: RunConfig) -> dict:
    """JSON-safe resolved copy of the config for embedding in outputs.

    out_dir is dropped so identical experiments produce identical bytes
    no matter where they are written.
    """
    doc = _plain(cfg)
    doc.pop("out_dir", None)
    return doc
