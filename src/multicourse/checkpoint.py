"""Binary checkpoint format: self-describing, little-endian, bit-exact.

Layout: magic "MCL1", uint64 header length, 32-byte sha256 of the metadata
JSON, the metadata (encoder config + vocabulary), a named-parameter table
with shapes and absolute blob offsets, then raw float32 little-endian
blobs in table order. File size is always header length + 4 * total
parameter count, and each offset is the header length plus 4 * the counts
of the parameters before it; a reader refuses any other offset, because
the digest covers the metadata only.

A load reads the header in one pass and parses it from memory, checking
every length field against the header before it reads what the field
describes, then reads the whole blob region with one `readinto` into a
single float32 buffer: the loaded parameters are non-overlapping views of
that buffer, in table order. A save writes the header in one write and then
each parameter's own buffer, without copying it.
"""

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, Model
from .errors import CheckpointFormatError, ConfigError, DigestMismatchError
from .fileio import atomic_open

MAGIC = b"MCL1"
# magic, header length, metadata digest, metadata length
_PREFIX = struct.Struct("<4sQ32sI")
_COUNT = struct.Struct("<I")  # parameter count, after the metadata
_NAME_LEN = struct.Struct("<H")
_OFFSET = struct.Struct("<Q")


@dataclass(eq=False)
class Checkpoint:
    config: EncoderConfig
    vocab_tokens: list
    params: dict  # name -> float32 ndarray, canonical order
    digest: str   # hex sha256 of the metadata JSON

    def total_parameters(self):
        return sum(a.size for a in self.params.values())


def _meta_bytes(config: EncoderConfig, vocab_tokens):
    meta = {"encoder": config.to_dict(), "vocab": list(vocab_tokens or [])}
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def config_digest(config: EncoderConfig, vocab_tokens):
    return hashlib.sha256(_meta_bytes(config, vocab_tokens)).hexdigest()


def save_checkpoint(path, model_or_checkpoint, vocab=None):
    """Write parameters in canonical order; save->load round-trips bit-exactly.

    The file is replaced whole: a failed save leaves any previous file as it was.
    """
    if isinstance(model_or_checkpoint, Checkpoint):
        ckpt = model_or_checkpoint
        config, tokens, params = ckpt.config, ckpt.vocab_tokens, ckpt.params
    else:
        model = model_or_checkpoint
        config = model.config
        tokens = vocab.id_to_token if vocab is not None else []
        params = {name: p.data for name, p in model.params.items()}

    meta = _meta_bytes(config, tokens)
    names = [name.encode() for name in params]
    arrays = list(params.values())
    header_len = (_PREFIX.size + len(meta) + _COUNT.size
                  + sum(_NAME_LEN.size + len(name) + 1 + 4 * arr.ndim + _OFFSET.size
                        for name, arr in zip(names, arrays)))
    header = [_PREFIX.pack(MAGIC, header_len, hashlib.sha256(meta).digest(), len(meta)),
              meta, _COUNT.pack(len(arrays))]
    offset = header_len
    for name, arr in zip(names, arrays):
        header.append(struct.pack(f"<H{len(name)}sB{arr.ndim}IQ",
                                  len(name), name, arr.ndim, *arr.shape, offset))
        offset += 4 * math.prod(arr.shape)

    with atomic_open(path, "wb") as fh:
        fh.write(b"".join(header))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))
    return Path(path)


def _read_header(fh, path):
    """read_header on an open file, left positioned at the first blob."""
    prefix = fh.read(_PREFIX.size)
    if prefix[:len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path} is not a checkpoint (bad magic)")
    if len(prefix) != _PREFIX.size:
        raise CheckpointFormatError(f"{path}: truncated checkpoint while reading the header")
    _, header_len, digest, meta_len = _PREFIX.unpack(prefix)
    size = os.fstat(fh.fileno()).st_size
    if not _PREFIX.size + _COUNT.size <= header_len <= size:
        raise CheckpointFormatError(
            f"{path}: header length {header_len} is outside [{_PREFIX.size + _COUNT.size}, "
            f"{size}], the fixed prefix to the file size")
    header = prefix + fh.read(header_len - _PREFIX.size)
    if len(header) != header_len:
        raise CheckpointFormatError(f"{path}: truncated checkpoint while reading the header")

    def past_header(end, what):
        if end > header_len:
            raise CheckpointFormatError(f"{path}: {what} runs past the {header_len}-byte header")

    pos = _PREFIX.size + meta_len
    past_header(pos + _COUNT.size, f"metadata length {meta_len}")
    meta_raw = header[_PREFIX.size:pos]
    if hashlib.sha256(meta_raw).digest() != digest:
        raise CheckpointFormatError(f"{path}: metadata does not match stored digest")
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: metadata is not JSON ({exc})") from None
    (n_params,) = _COUNT.unpack_from(header, pos)
    pos += _COUNT.size
    table = {}
    expected = header_len
    for i in range(n_params):
        past_header(pos + _NAME_LEN.size, f"table entry {i}")
        (name_len,) = _NAME_LEN.unpack_from(header, pos)
        pos += _NAME_LEN.size + name_len
        past_header(pos + 1, f"table entry {i}'s name length {name_len}")
        try:
            name = header[pos - name_len:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{path}: table entry {i}'s name is not UTF-8") from None
        ndim = header[pos]
        pos += 1
        past_header(pos + 4 * ndim + _OFFSET.size, f"parameter {name}'s {ndim} dimensions")
        shape = struct.unpack_from(f"<{ndim}I", header, pos)
        (offset,) = _OFFSET.unpack_from(header, pos + 4 * ndim)
        pos += 4 * ndim + _OFFSET.size
        if offset != expected:
            raise CheckpointFormatError(
                f"{path}: parameter {name} at offset {offset}, expected {expected}")
        expected += 4 * math.prod(shape)
        table[name] = (shape, offset)
    if pos != header_len:
        raise CheckpointFormatError(f"{path}: header length field disagrees with table")
    return header_len, digest.hex(), meta, table


def read_header(path):
    """Parse everything before the blobs: (header_len, digest_hex, meta, table).

    The table maps name -> (shape, offset) in file order; every offset must
    be where the blobs before it end. A length field that runs past the
    header, or a header length outside the file, raises CheckpointFormatError.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(path, expected_config: EncoderConfig = None, expected_vocab=None) -> Checkpoint:
    """Read and validate a checkpoint; refuses mismatched configs."""
    with open(path, "rb") as fh:
        header_len, digest_hex, meta, table = _read_header(fh, path)
        try:
            config = EncoderConfig(**meta["encoder"])
            tokens = meta["vocab"]
        except (TypeError, KeyError, ConfigError) as exc:
            raise CheckpointFormatError(
                f"{path}: bad metadata ({type(exc).__name__}: {exc})") from None
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise CheckpointFormatError(f"{path}: bad metadata (vocab must be a list of strings)")
        if expected_config is not None:
            want = config_digest(expected_config,
                                 tokens if expected_vocab is None else expected_vocab.id_to_token)
            if want != digest_hex:
                raise DigestMismatchError(
                    f"{path}: checkpoint digest {digest_hex[:12]}... does not match "
                    f"the expected config digest {want[:12]}..."
                )
        counts = [math.prod(shape) for shape, _ in table.values()]
        total = sum(counts)
        size = os.fstat(fh.fileno()).st_size
        if size != header_len + 4 * total:
            raise CheckpointFormatError(
                f"{path}: expected {header_len + 4 * total} bytes, found {size}"
            )
        flat = np.empty(total, dtype="<f4")
        if fh.readinto(flat) != 4 * total:
            raise CheckpointFormatError(f"{path}: truncated checkpoint while reading the blobs")
    params = {}
    start = 0
    for (name, (shape, _)), count in zip(table.items(), counts):
        params[name] = flat[start:start + count].reshape(shape)
        start += count
    return Checkpoint(config=config, vocab_tokens=tokens, params=params, digest=digest_hex)


def build_model(ckpt: Checkpoint) -> Model:
    return Model.from_state(ckpt.config, ckpt.params)
