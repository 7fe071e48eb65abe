"""Run configuration: a single JSON document with strict schema checking
and dotted-path overrides.

Every experiment is fully described by one RunConfig; the resolved
config (plus the master seed) is embedded in output files so any result
can be reproduced from the file alone.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .datagen import SyntheticSpec
from .errors import ConfigError, strict_json
from .evalsel import HyperSpace
from .losses import VARIANTS, LossConfig
from .trainer import TrainerConfig


@dataclass(frozen=True)
class NetworkSettings:
    """Network widths; input/output dims come from the data at run time."""

    feature_dim: int = 64
    projection_dim: int = 32
    f_hidden: tuple[int, ...] = (64, 64)
    p_hidden: tuple[int, ...] = (64,)


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
    settings: tuple[str | int, ...] = ("low", "high")
    reps: int = 3

    def __post_init__(self):
        # a repeated entry would run its cells twice and count them as reps
        for key in ("variants", "settings"):
            entries = getattr(self, key)
            if not entries:
                raise ConfigError(f"benchmark.{key} must not be empty")
            if len(set(entries)) != len(entries):
                raise ConfigError(f"benchmark.{key} repeats an entry: {list(entries)}")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown variants {sorted(unknown)}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        for s in self.settings:
            if s not in ("low", "high") and not isinstance(s, int):
                raise ConfigError(f"setting {s!r} must be 'low', 'high', or an integer")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=lambda: DatasetConfig(
        synthetic=SyntheticSpec(num_classes=6, input_dim=16)))
    split: SplitConfig = field(default_factory=SplitConfig)
    network: NetworkSettings = field(default_factory=NetworkSettings)
    loss: LossConfig = field(default_factory=LossConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)

    def __post_init__(self):
        # seeding keeps the low 32 bits of an integer, so a seed outside
        # this range would train the same models as another one
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        # every command trains with subseed(seed, "train"); a trainer.seed
        # of its own would be recorded in the outputs but never used
        if self.trainer.seed != 0:
            raise ConfigError(f"trainer.seed is derived from 'seed' and must stay 0, "
                              f"got {self.trainer.seed!r}; set 'seed' instead")


def _admits(hint, value) -> bool:
    """Whether ``value`` fits annotation ``hint`` as it is: a union when
    one arm does, a tuple item by item, a float also as an int, and an
    int or a float never as a bool."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        items = args[:1] * len(value) if args[-1:] == (...,) else args
        return len(items) == len(value) and all(map(_admits, items, value))
    if args:
        return any(_admits(arm, value) for arm in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _build(cls, doc: dict, path: str):
    """Construct dataclass ``cls`` from ``doc`` rejecting unknown keys.

    Field annotations drive the conversion: a field whose type (or a
    union arm of it) is a dataclass is built recursively, any other value
    must fit the annotation as it is (``_admits``; nothing is coerced, so
    the provenance records what was given), and a JSON list becomes a
    tuple exactly where the field is a ``tuple[...]``.
    """
    section = path.rstrip(".") or "config"    # path is "" or ends in "."
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be an object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key {path}{sorted(unknown)[0]!r}")
    kwargs = {}
    for name, value in doc.items():
        hint = hints[name]
        arms = typing.get_args(hint) or (hint,)
        sub = next((arm for arm in arms if is_dataclass(arm)), None)
        if sub is not None and not (value is None and type(None) in arms):
            kwargs[name] = _build(sub, value, f"{path}{name}.")
            continue
        if not _admits(hint, value):
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{path}{name} must be {kind}, got {value!r}")
        kwargs[name] = tuple(value) if typing.get_origin(hint) is tuple else value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {section} section: {exc}") from None


def parse_override(text: str):
    """'a.b.c=value' -> (['a','b','c'], parsed value); values parse as
    JSON when possible, otherwise stay strings (also JSON that the decoder
    cannot convert: an integer past Python's digit limit, deep nesting).
    An object that repeats a key is a ConfigError, not a string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key.path=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = strict_json(raw, ConfigError)
    except ConfigError as exc:
        raise ConfigError(f"override {text!r}: {exc}") from None
    except (ValueError, RecursionError):
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
            doc = strict_json(fh.read(), ConfigError)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, non-UTF-8 bytes, an integer past Python's digit
            # limit, a repeated key (ValueErrors all), or too deep nesting
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(apply_overrides(doc, overrides))


def to_provenance(cfg: RunConfig) -> dict:
    """JSON-safe resolved copy of the config for embedding in outputs.
    It holds no output directory, so identical experiments produce
    identical bytes no matter where they are written."""
    return asdict(cfg)
