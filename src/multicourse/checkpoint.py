"""Binary checkpoint format: self-describing, little-endian, bit-exact.

Layout: magic "MCL1", uint64 header length, 32-byte sha256 of the metadata
JSON, the metadata (encoder config + vocabulary), a named-parameter table
with shapes and absolute blob offsets, then raw float32 little-endian
blobs in table order. File size is always header length + 4 * total
parameter count, and each offset is the header length plus 4 * the counts
of the parameters before it; a reader refuses any other offset, because
the digest covers the metadata only.
"""

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, Model
from .errors import CheckpointFormatError, ConfigError, DigestMismatchError
from .fileio import atomic_open

MAGIC = b"MCL1"


@dataclass(eq=False)
class Checkpoint:
    config: EncoderConfig
    vocab_tokens: list
    params: dict  # name -> float32 ndarray, canonical order
    digest: str   # hex sha256 of the metadata JSON

    def total_parameters(self):
        return sum(int(np.prod(a.shape)) for a in self.params.values())


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
        params = model.state()

    meta = _meta_bytes(config, tokens)
    digest = hashlib.sha256(meta).digest()

    table = []
    for name, arr in params.items():
        entry = struct.pack("<H", len(name.encode())) + name.encode()
        entry += struct.pack("<B", arr.ndim)
        entry += b"".join(struct.pack("<I", d) for d in arr.shape)
        table.append((entry, arr))
    fixed = len(MAGIC) + 8 + 32 + 4 + len(meta) + 4
    table_len = sum(len(e) + 8 for e, _ in table)
    header_len = fixed + table_len

    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", header_len))
        fh.write(digest)
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(table)))
        offset = header_len
        for entry, arr in table:
            fh.write(entry)
            fh.write(struct.pack("<Q", offset))
            offset += 4 * int(np.prod(arr.shape))
        for _, arr in table:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return Path(path)


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return data


def read_header(path):
    """Parse everything before the blobs: (header_len, digest_hex, meta, table).

    The table maps name -> (shape, offset) in file order; every offset must
    be where the blobs before it end.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointFormatError(f"{path} is not a checkpoint (bad magic)")
        header_len = struct.unpack("<Q", _read_exact(fh, 8, "header length"))[0]
        digest = _read_exact(fh, 32, "digest")
        meta_len = struct.unpack("<I", _read_exact(fh, 4, "meta length"))[0]
        meta_raw = _read_exact(fh, meta_len, "metadata")
        if hashlib.sha256(meta_raw).digest() != digest:
            raise CheckpointFormatError(f"{path}: metadata does not match stored digest")
        try:
            meta = json.loads(meta_raw.decode("utf-8"))
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: metadata is not JSON ({exc})") from None
        n_params = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))[0]
        table = {}
        expected = header_len
        for _ in range(n_params):
            name_len = struct.unpack("<H", _read_exact(fh, 2, "name length"))[0]
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            ndim = struct.unpack("<B", _read_exact(fh, 1, "ndim"))[0]
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(ndim))
            offset = struct.unpack("<Q", _read_exact(fh, 8, "offset"))[0]
            if offset != expected:
                raise CheckpointFormatError(
                    f"{path}: parameter {name} at offset {offset}, expected {expected}")
            expected += 4 * int(np.prod(shape))
            table[name] = (shape, offset)
        if fh.tell() != header_len:
            raise CheckpointFormatError(f"{path}: header length field disagrees with table")
    return header_len, digest.hex(), meta, table


def load_checkpoint(path, expected_config: EncoderConfig = None, expected_vocab=None) -> Checkpoint:
    """Read and validate a checkpoint; refuses mismatched configs."""
    header_len, digest_hex, meta, table = read_header(path)
    try:
        config = EncoderConfig(**meta["encoder"])
        tokens = meta["vocab"]
    except (TypeError, KeyError, ConfigError) as exc:
        raise CheckpointFormatError(f"{path}: bad metadata ({type(exc).__name__}: {exc})") from None
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
    total = sum(int(np.prod(shape)) for shape, _ in table.values())
    size = Path(path).stat().st_size
    if size != header_len + 4 * total:
        raise CheckpointFormatError(
            f"{path}: expected {header_len + 4 * total} bytes, found {size}"
        )
    params = {}
    with open(path, "rb") as fh:
        for name, (shape, offset) in table.items():
            fh.seek(offset)
            count = int(np.prod(shape))
            raw = _read_exact(fh, 4 * count, f"blob {name}")
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
    return Checkpoint(config=config, vocab_tokens=tokens, params=params, digest=digest_hex)


def build_model(ckpt: Checkpoint) -> Model:
    return Model.from_state(ckpt.config, ckpt.params)
