"""Flat key-value run configuration whose schema is the config dataclasses.

The config file is a single flat JSON object. Its keys are the fields of
EncoderConfig (less vocab_size, which the vocabulary decides), of
CorruptionRates and of TrainConfig, plus RunConfig's corpus_path, run_dir and
max_vocab_size; each key takes its field's type and default. Unknown keys are
errors, not warnings: a silently ignored typo in a course switch would
invalidate an experiment. Validation happens before any model memory is
allocated.
"""

import json
from dataclasses import MISSING, dataclass, fields

from .courses import CorruptionRates
from .encoder import EncoderConfig
from .errors import ConfigError
from .fileio import atomic_open, read_json
from .trainer import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    encoder_overrides: dict
    rates: CorruptionRates
    train: TrainConfig
    corpus_path: str
    run_dir: str
    max_vocab_size: int = 8192

    def encoder_config(self, vocab_size) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, **self.encoder_overrides)


def _fields(cls, exclude=()):
    return {f.name: f for f in fields(cls) if f.name not in exclude}


_RUN = _fields(RunConfig, exclude=("encoder_overrides", "rates", "train"))
_ENCODER = _fields(EncoderConfig, exclude=("vocab_size",))
_RATES = _fields(CorruptionRates)
_TRAIN = _fields(TrainConfig)
_SCHEMA = {**_RUN, **_ENCODER, **_RATES, **_TRAIN}


def _coerce(key, value):
    kind = _SCHEMA[key].type
    accepted = (int, float) if kind is float else kind
    # bool is an int subclass: only a bool field takes true/false, and only those
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def parse_config(raw: dict) -> RunConfig:
    """Validate a flat mapping and split it into the typed config objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, field in _SCHEMA.items():
        if field.default is MISSING and key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    values = {k: _coerce(k, v) for k, v in raw.items()}

    def pick(schema):
        return {k: values[k] for k in schema if k in values}

    rates = CorruptionRates(**pick(_RATES))
    train = TrainConfig(**pick(_TRAIN))
    encoder_overrides = pick(_ENCODER)
    # fail fast on bad encoder fields without needing the vocabulary yet
    EncoderConfig(vocab_size=8, **encoder_overrides)
    return RunConfig(encoder_overrides=encoder_overrides, rates=rates, train=train, **pick(_RUN))


def load_config(path) -> RunConfig:
    return parse_config(read_json(path))


def default_config_dict(corpus_path, run_dir, **overrides):
    """A complete flat config: every key at its dataclass default."""
    defaults = {k: f.default for k, f in _SCHEMA.items() if f.default is not MISSING}
    return {"corpus_path": str(corpus_path), "run_dir": str(run_dir), **defaults, **overrides}


def save_config(config_dict, path):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(config_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")
