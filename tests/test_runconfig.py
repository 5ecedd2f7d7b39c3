import json
from dataclasses import fields

import pytest

from multicourse.courses import CorruptionRates
from multicourse.encoder import EncoderConfig
from multicourse.errors import ConfigError
from multicourse.fileio import read_json
from multicourse.runconfig import (
    RunConfig,
    default_config_dict,
    parse_config,
    save_config,
)
from multicourse import trainer as tr
from multicourse.trainer import TrainConfig

# the config keys are exactly these dataclass fields
SCHEMA_FIELDS = (
    [f for f in fields(RunConfig) if f.name in ("corpus_path", "run_dir", "max_vocab_size")]
    + [f for f in fields(EncoderConfig) if f.name != "vocab_size"]
    + list(fields(CorruptionRates))
    + list(fields(TrainConfig))
)
WRONG_VALUES = {
    bool: [1, 0, "true", None],
    int: [True, 2.0, "3", None, [1]],
    float: [True, "0.1", None, [1]],
    str: [True, 7, None],
}


def base_dict(**overrides):
    return default_config_dict("corpus.txt", "rundir", **overrides)


def test_defaults_parse():
    cfg = parse_config(base_dict())
    assert cfg.train.lambda_disc == 50.0
    # the optimizer recipe is fixed in the trainer, not configured
    assert (tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPSILON) == (0.9, 0.98, 1e-6)
    assert (tr.GRAD_CLIP_NORM, tr.WEIGHT_DECAY) == (2.0, 0.01)
    assert cfg.rates.mask_rate == 0.15
    assert cfg.encoder_overrides["max_relative_position"] == 128
    enc = cfg.encoder_config(vocab_size=100)
    assert enc.hidden_size == 128 and enc.generator_layers == 2 and enc.discriminator_layers == 4


def test_unknown_keys_are_errors():
    with pytest.raises(ConfigError) as err:
        parse_config(base_dict(std_corse=True))  # typo'd switch must not pass silently
    assert "std_corse" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(base_dict(vocab_size=100))  # the vocabulary decides it
    assert "vocab_size" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(base_dict(weight_mlm=1.0))  # per-loss weights are gone
    assert "weight_mlm" in str(err.value)


def test_default_config_dict_holds_every_key_at_its_default():
    raw = base_dict()
    assert set(raw) == {f.name for f in SCHEMA_FIELDS}
    cfg = parse_config(raw)
    bare = parse_config({"corpus_path": "corpus.txt", "run_dir": "rundir"})
    assert cfg.train == bare.train == TrainConfig()
    assert cfg.rates == bare.rates == CorruptionRates()
    assert cfg.encoder_config(100) == bare.encoder_config(100) == EncoderConfig(vocab_size=100)
    assert cfg.max_vocab_size == bare.max_vocab_size == 8192


@pytest.mark.parametrize("field", SCHEMA_FIELDS, ids=lambda f: f.name)
def test_wrongly_typed_values_rejected(field):
    for value in WRONG_VALUES[field.type]:
        with pytest.raises(ConfigError) as err:
            parse_config({**base_dict(), field.name: value})
        assert field.name in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("attention_heads", 0), ("attention_heads", -2),
    ("batch_size", 0), ("batch_size", -1),
    ("dropout_rate", 1.0), ("dropout_rate", -0.1),
    ("hidden_size", 0), ("hidden_size", -4),
    ("learning_rate", 0.0), ("learning_rate", -1.0),
    ("max_relative_position", 8), ("max_relative_position", 4),
    ("max_relative_position", 0), ("max_relative_position", -3),
    ("ffn_inner_size", 0), ("ffn_inner_size", -1),
    ("generator_layers", 0), ("generator_layers", -2), ("discriminator_layers", -1),
    ("max_seq_len", 1), ("max_seq_len", 0),
    ("checkpoint_every", -1), ("correction_start_step", -1), ("seed", -1),
    # keys of the fixed optimizer recipe: refused as unknown keys whatever the value
    ("grad_clip_norm", -1.0),
    ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta2", 1.0),
    ("adam_epsilon", 0.0), ("weight_decay", -1.0),
])
def test_out_of_range_values_rejected_at_parse_time(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(base_dict(**{key: value}))
    assert key in str(err.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("key", [f.name for f in SCHEMA_FIELDS if f.type is float])
def test_non_finite_floats_rejected(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(base_dict(**{key: value}))
    assert key in str(err.value)


def test_non_finite_floats_in_a_config_file_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_dict(learning_rate=float("nan"))), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(read_json(path))


def test_boundary_values_stay_valid():
    cfg = parse_config(base_dict(checkpoint_every=0, generator_layers=1, discriminator_layers=1,
                                 max_seq_len=2, seed=0))
    assert cfg.train.checkpoint_every == 0 and cfg.train.seed == 0


def test_rate_out_of_range_rejected_before_model_exists():
    with pytest.raises(ConfigError):
        parse_config(base_dict(mask_rate=0.7))
    with pytest.raises(ConfigError):
        parse_config(base_dict(insert_rate=-0.05))


def test_nonpositive_lambda_rejected():
    with pytest.raises(ConfigError):
        parse_config(base_dict(lambda_disc=0))
    with pytest.raises(ConfigError):
        parse_config(base_dict(lambda_disc=-3))


def test_missing_required_keys():
    raw = base_dict()
    del raw["corpus_path"]
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_type_errors_are_loud():
    with pytest.raises(ConfigError):
        parse_config(base_dict(batch_size="many"))
    with pytest.raises(ConfigError):
        parse_config(base_dict(std_course="yes"))


def test_bad_encoder_geometry_rejected():
    with pytest.raises(ConfigError):
        parse_config(base_dict(hidden_size=130))  # not divisible by 4 heads


def test_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    save_config(base_dict(total_steps=123, warmup_steps=10), path)
    cfg = parse_config(read_json(path))
    assert cfg.train.total_steps == 123 and cfg.train.warmup_steps == 10


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(read_json(path))


def test_non_object_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(read_json(path))
