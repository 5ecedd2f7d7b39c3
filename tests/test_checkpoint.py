import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from multicourse.checkpoint import (
    Checkpoint,
    build_model,
    config_digest,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import CheckpointFormatError, DigestMismatchError, InputError
from multicourse.vocab import Vocab

from helpers import bad_metadata, save_with_metadata

TOKENS = ["<pad>", "<mask>", "<cls>", "<unk>", "alpha", "beta", "gamma", "delta"]


def small_config(**kw):
    base = dict(vocab_size=8, hidden_size=16, generator_layers=1, discriminator_layers=1,
                attention_heads=2, ffn_inner_size=24, max_seq_len=12, dropout_rate=0.0)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture()
def saved(tmp_path):
    model = Model(small_config(), seed=7)
    vocab = Vocab(TOKENS)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model, vocab)
    return path, model, vocab


def test_round_trip_bit_exact(saved):
    path, model, vocab = saved
    ckpt = load_checkpoint(path)
    state = model.state()
    assert list(ckpt.params) == list(state)
    for name in state:
        np.testing.assert_array_equal(ckpt.params[name], state[name], err_msg=name)
    assert ckpt.vocab_tokens == TOKENS
    assert ckpt.config == model.config


def test_file_size_is_header_plus_blobs(saved):
    path, model, _ = saved
    header_len, _, _, table = read_header(path)
    total = sum(int(np.prod(shape)) for shape, _ in table.values())
    assert path.stat().st_size == header_len + 4 * total
    assert total == sum(p.data.size for p in model.params.values())


def test_magic_bytes(saved):
    path, _, _ = saved
    assert path.read_bytes()[:4] == b"MCL1"


def test_mismatched_config_refused(saved):
    path, _, vocab = saved
    other = small_config(hidden_size=32, ffn_inner_size=48)
    with pytest.raises(DigestMismatchError):
        load_checkpoint(path, expected_config=other, expected_vocab=vocab)
    load_checkpoint(path, expected_config=small_config(), expected_vocab=vocab)


def test_truncated_file_rejected(saved):
    path, _, _ = saved
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", ["prefix", "table"])
def test_a_file_cut_inside_the_header_is_refused(saved, keep):
    path, _, _ = saved
    raw = path.read_bytes()
    header_len = read_header(path)[0]
    path.write_bytes(raw[:30 if keep == "prefix" else header_len - 5])
    with pytest.raises(CheckpointFormatError, match="model.bin"):
        load_checkpoint(path)


def test_saving_a_model_or_a_checkpoint_of_its_state_writes_the_same_bytes(saved, tmp_path):
    path, model, vocab = saved
    other = tmp_path / "state.bin"
    save_checkpoint(other, Checkpoint(config=model.config, vocab_tokens=vocab.id_to_token,
                                      params=model.state(), digest=""))
    assert other.read_bytes() == path.read_bytes()


def test_loaded_parameters_are_writable_float32_arrays_that_share_no_element(saved):
    path, _, _ = saved
    params = load_checkpoint(path).params
    before = {name: arr.copy() for name, arr in params.items()}
    for name, arr in params.items():
        assert arr.dtype == np.float32 and arr.flags.c_contiguous and arr.flags.writeable, name
        arr[...] = 7.0
        for other, values in before.items():
            if other != name:
                np.testing.assert_array_equal(params[other], values, err_msg=f"{name} -> {other}")
        arr[...] = before[name]


def refused_without_allocating(path):
    """Loading `path` raises CheckpointFormatError naming it, and allocates no more
    than a few times the file's size on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match=path.name):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak < 4 * path.stat().st_size + (1 << 20)


def table_entry(raw, name):
    """Byte positions of a table entry's name length and ndim."""
    at = raw.index(name.encode())
    return at - 2, at + len(name)


CORRUPT_LENGTHS = {
    "header_length_below_the_prefix": lambda raw: struct.pack_into("<Q", raw, 4, 20),
    "header_length_past_the_file": lambda raw: struct.pack_into("<Q", raw, 4, len(raw) + 1),
    "header_length_2_to_the_62": lambda raw: struct.pack_into("<Q", raw, 4, 1 << 62),
    "meta_length": lambda raw: struct.pack_into("<I", raw, 44, 0xFFFFFFF0),
    "name_length": lambda raw: struct.pack_into("<H", raw, table_entry(raw, "head.itd.b")[0],
                                                0xFFFF),
    "ndim": lambda raw: struct.pack_into("<B", raw, table_entry(raw, "head.itd.b")[1], 255),
}


@pytest.mark.parametrize("field", list(CORRUPT_LENGTHS))
def test_a_corrupt_length_field_is_refused_without_allocating_its_claim(saved, field):
    path, _, _ = saved
    raw = bytearray(path.read_bytes())
    CORRUPT_LENGTHS[field](raw)
    path.write_bytes(bytes(raw))
    assert refused_without_allocating(path)


def test_a_shape_whose_count_overflows_int64_is_refused(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64, so an empty blob would pass a wrapped count
    path = tmp_path / "overflow.bin"
    empty = np.zeros((0, 0, 0, 0), dtype=np.float32)
    save_checkpoint(path, Checkpoint(config=small_config(), vocab_tokens=TOKENS, digest="",
                                     params={"wrapped": empty}))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<4I", raw, table_entry(raw, "wrapped")[1] + 1, *[65536] * 4)
    path.write_bytes(bytes(raw))
    assert refused_without_allocating(path)


def test_a_parameter_name_that_is_not_utf8_is_refused(saved):
    path, _, _ = saved
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"lm_head.bias")] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="model.bin.*not UTF-8"):
        read_header(path)


def test_corrupt_metadata_rejected(saved):
    path, _, _ = saved
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF  # inside the metadata JSON
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("case", ["extra_encoder_field", "missing_vocab", "not_json",
                                  "vocab_number", "vocab_of_numbers"])
def test_bad_metadata_raises_a_format_error_naming_the_file(saved, case, monkeypatch):
    path, model, _ = saved
    save_with_metadata(path, model, bad_metadata(model, TOKENS)[case], monkeypatch)
    with pytest.raises(CheckpointFormatError, match="model.bin"):
        load_checkpoint(path)


@pytest.mark.parametrize("shift", [4, -4])
def test_shifted_blob_offset_rejected(saved, shift):
    path, _, _ = saved
    raw = bytearray(path.read_bytes())
    # table entry: name length, name, ndim (1), one uint32 dim, uint64 offset
    at = raw.index(b"lm_head.bias") + len(b"lm_head.bias") + 1 + 4
    offset = int.from_bytes(raw[at:at + 8], "little")
    raw[at:at + 8] = (offset + shift).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="lm_head.bias"):
        load_checkpoint(path)


def test_bad_magic_rejected(saved):
    path, _, _ = saved
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_build_model_runs_forward(saved):
    path, model, _ = saved
    rebuilt = build_model(load_checkpoint(path))
    ids = np.array([[4, 5, 6]])
    mask = np.ones_like(ids)
    np.testing.assert_array_equal(
        rebuilt.encode_discriminator(ids, mask).data,
        model.encode_discriminator(ids, mask).data,
    )


def test_build_model_holds_the_checkpoints_arrays_without_a_random_init(saved, monkeypatch):
    path, _, _ = saved
    ckpt = load_checkpoint(path)

    def no_init(*args, **kwargs):
        raise AssertionError("build_model drew a random initialisation")

    monkeypatch.setattr(Model, "__init__", no_init)
    model = build_model(ckpt)
    assert list(model.params) == list(ckpt.params)
    for name, arr in ckpt.params.items():
        data = model.params[name].data
        assert data.dtype == np.float32 and data.tobytes() == arr.tobytes(), name
        assert np.shares_memory(data, arr), name


@pytest.mark.parametrize("damage, name", [
    ("missing", "head.itd.b"), ("extra", "extra.param"), ("misshaped", "lm_head.bias"),
])
def test_build_model_refuses_a_missing_extra_or_misshaped_parameter(saved, damage, name):
    params = dict(load_checkpoint(saved[0]).params)
    if damage == "missing":
        del params[name]
    else:
        params[name] = np.zeros(9, dtype=np.float32)
    with pytest.raises(InputError, match=name):
        build_model(replace(load_checkpoint(saved[0]), params=params))


def test_digest_changes_with_vocab():
    cfg = small_config()
    assert config_digest(cfg, TOKENS) != config_digest(cfg, TOKENS[:-1] + ["epsilon"])
