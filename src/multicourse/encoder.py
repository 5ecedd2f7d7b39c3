"""Generator/discriminator transformer stacks over a shared embedding table.

Both stacks are post-norm transformer encoders with bucketed relative
position bias added to attention scores. The LM head is tied to the
embedding table (plus a learnable per-vocab bias); three independent
binary detection heads (rtd, std, itd) read the discriminator output.
"""

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError

NUM_REL_BUCKETS = 32
DETECTION_HEADS = ("rtd", "std", "itd")


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden_size: int = 128
    generator_layers: int = 2
    discriminator_layers: int = 4
    attention_heads: int = 4
    ffn_inner_size: int = 512
    max_relative_position: int = 128
    max_seq_len: int = 128
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be at least 1, got {self.hidden_size}")
        if self.attention_heads < 1:
            raise ConfigError(f"attention_heads must be at least 1, got {self.attention_heads}")
        if self.hidden_size % self.attention_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by attention_heads {self.attention_heads}"
            )
        if self.generator_layers > self.discriminator_layers:
            raise ConfigError(
                f"generator_layers {self.generator_layers} must not exceed "
                f"discriminator_layers {self.discriminator_layers}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.max_relative_position <= NUM_REL_BUCKETS // 4:
            # the log buckets span (NUM_REL_BUCKETS // 4, max_relative_position]
            raise ConfigError(f"max_relative_position must exceed {NUM_REL_BUCKETS // 4}, "
                              f"got {self.max_relative_position}")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the reserved ids and UNK")

    def to_dict(self):
        return asdict(self)


@lru_cache(maxsize=64)
def _bucket_matrix(n, num_buckets, max_distance):
    """Bucket index of (j - i) for every query/key pair of an n-token window."""
    pos = np.arange(n, dtype=np.int64)
    rel = pos[None, :] - pos[:, None]
    return relative_position_bucket(rel, num_buckets, max_distance)


def relative_position_bucket(relative_position, num_buckets=NUM_REL_BUCKETS, max_distance=128):
    """Map signed token distances to bucket ids, T5-style.

    Half the buckets encode direction; within a direction, half are exact
    small distances and the rest grow logarithmically, saturating at
    max_distance so any farther pair shares one bucket.
    """
    half = num_buckets // 2
    buckets = (relative_position > 0).astype(np.int64) * half
    dist = np.abs(relative_position)
    max_exact = half // 2
    large = max_exact + (
        np.log(np.maximum(dist, 1) / max_exact)
        / np.log(max_distance / max_exact)
        * (half - max_exact)
    ).astype(np.int64)
    large = np.minimum(large, half - 1)
    return buckets + np.where(dist < max_exact, dist, large)


class Model:
    """Shared-embedding generator/discriminator pair with detection heads."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.params = {}
        rng = np.random.default_rng(seed)
        c = config

        self._add("embedding.word", rng.normal(0, 0.02, (c.vocab_size, c.hidden_size)))
        self._add("lm_head.bias", np.zeros(c.vocab_size))
        for stack, layers in (("generator", c.generator_layers),
                              ("discriminator", c.discriminator_layers)):
            self._add(f"{stack}.rel_bias", rng.normal(0, 0.02, (NUM_REL_BUCKETS, c.attention_heads)))
            self._add(f"{stack}.embed_norm.gain", np.ones(c.hidden_size))
            self._add(f"{stack}.embed_norm.bias", np.zeros(c.hidden_size))
            for i in range(layers):
                p = f"{stack}.layer{i}"
                for name in ("wq", "wk", "wv", "wo"):
                    self._add(f"{p}.attn.{name}", rng.normal(0, 0.02, (c.hidden_size, c.hidden_size)))
                for name in ("bq", "bk", "bv", "bo"):
                    self._add(f"{p}.attn.{name}", np.zeros(c.hidden_size))
                self._add(f"{p}.norm_attn.gain", np.ones(c.hidden_size))
                self._add(f"{p}.norm_attn.bias", np.zeros(c.hidden_size))
                self._add(f"{p}.ffn.w1", rng.normal(0, 0.02, (c.hidden_size, c.ffn_inner_size)))
                self._add(f"{p}.ffn.b1", np.zeros(c.ffn_inner_size))
                self._add(f"{p}.ffn.w2", rng.normal(0, 0.02, (c.ffn_inner_size, c.hidden_size)))
                self._add(f"{p}.ffn.b2", np.zeros(c.hidden_size))
                self._add(f"{p}.norm_ffn.gain", np.ones(c.hidden_size))
                self._add(f"{p}.norm_ffn.bias", np.zeros(c.hidden_size))
        for head in DETECTION_HEADS:
            self._add(f"head.{head}.w", rng.normal(0, 0.02, c.hidden_size))
            self._add(f"head.{head}.b", np.zeros(1))

    def _add(self, name, value):
        self.params[name] = ad.Tensor(np.asarray(value, dtype=np.float32), requires_grad=True)

    # -- parameter access -------------------------------------------------

    def named_parameters(self):
        return self.params

    def state(self):
        """Parameter arrays keyed by name, in canonical order."""
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state):
        for name, p in self.params.items():
            if name not in state:
                raise InputError(f"missing parameter {name}")
            arr = np.asarray(state[name], dtype=np.float32)
            if arr.shape != p.data.shape:
                raise InputError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # -- encoding ----------------------------------------------------------

    def encode_generator(self, ids, mask, rng=None):
        return self._encode("generator", self.config.generator_layers, ids, mask, rng)

    def encode_discriminator(self, ids, mask, rng=None):
        return self._encode("discriminator", self.config.discriminator_layers, ids, mask, rng)

    def _encode(self, stack, layers, ids, mask, rng):
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(mask)
        if ids.ndim != 2 or mask.shape != ids.shape:
            raise InputError(f"expected (batch, seq) ids/mask, got {ids.shape} / {mask.shape}")
        n = ids.shape[1]
        if n > self.config.max_seq_len:
            raise InputError(f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}")
        if ids.size and ids.max() >= self.config.vocab_size:
            raise InputError(f"token id {ids.max()} outside vocabulary of size {self.config.vocab_size}")

        c = self.config
        heads, dh = c.attention_heads, c.hidden_size // c.attention_heads
        p = self.params
        dtype = p["embedding.word"].data.dtype

        x = ad.embedding(p["embedding.word"], ids)
        x = ad.layer_norm(x, p[f"{stack}.embed_norm.gain"], p[f"{stack}.embed_norm.bias"])
        x = ad.dropout(x, c.dropout_rate, rng)

        buckets = _bucket_matrix(n, NUM_REL_BUCKETS, c.max_relative_position)
        rel = ad.transpose(ad.embedding(p[f"{stack}.rel_bias"], buckets), (2, 0, 1))  # (H,n,n)
        # additive key-padding bias, large negative at padded keys
        pad_bias = ad.Tensor(((mask.astype(dtype) - 1.0) * 1e9)[:, None, None, :])

        b = ids.shape[0]
        for i in range(layers):
            pre = f"{stack}.layer{i}"
            q = ad.add(ad.matmul(x, p[f"{pre}.attn.wq"]), p[f"{pre}.attn.bq"])
            k = ad.add(ad.matmul(x, p[f"{pre}.attn.wk"]), p[f"{pre}.attn.bk"])
            v = ad.add(ad.matmul(x, p[f"{pre}.attn.wv"]), p[f"{pre}.attn.bv"])
            qh = ad.transpose(ad.reshape(q, (b, n, heads, dh)), (0, 2, 1, 3))
            kh = ad.transpose(ad.reshape(k, (b, n, heads, dh)), (0, 2, 1, 3))
            vh = ad.transpose(ad.reshape(v, (b, n, heads, dh)), (0, 2, 1, 3))
            scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
            scores = ad.add(ad.add(scores, rel), pad_bias)
            attn = ad.dropout(ad.softmax(scores), c.dropout_rate, rng)
            ctx = ad.reshape(ad.transpose(ad.matmul(attn, vh), (0, 2, 1, 3)), (b, n, c.hidden_size))
            proj = ad.add(ad.matmul(ctx, p[f"{pre}.attn.wo"]), p[f"{pre}.attn.bo"])
            proj = ad.dropout(proj, c.dropout_rate, rng)
            x = ad.layer_norm(ad.add(x, proj), p[f"{pre}.norm_attn.gain"], p[f"{pre}.norm_attn.bias"])
            f = ad.gelu(ad.add(ad.matmul(x, p[f"{pre}.ffn.w1"]), p[f"{pre}.ffn.b1"]))
            f = ad.add(ad.matmul(f, p[f"{pre}.ffn.w2"]), p[f"{pre}.ffn.b2"])
            f = ad.dropout(f, c.dropout_rate, rng)
            x = ad.layer_norm(ad.add(x, f), p[f"{pre}.norm_ffn.gain"], p[f"{pre}.norm_ffn.bias"])
        return x

    # -- heads ---------------------------------------------------------------

    def lm_logits(self, h, seq_idx, pos_idx):
        """Tied-head LM logits at selected positions: rows of h dotted with
        every embedding row, plus the per-vocab bias. Empty selection gives
        an empty (0, |V|) tensor."""
        rows = ad.gather_rows(h, seq_idx, pos_idx)
        table_t = ad.transpose(self.params["embedding.word"], (1, 0))
        return ad.add(ad.matmul(rows, table_t), self.params["lm_head.bias"])

    def lm_probs_detached(self, h_rows):
        """Softmax LM distribution for raw hidden rows, outside the graph."""
        table = self.params["embedding.word"].data
        logits = h_rows @ table.T + self.params["lm_head.bias"].data
        logits = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=-1, keepdims=True)

    def detection_logits(self, h, head):
        """Per-position binary logit for one of the rtd/std/itd heads."""
        if head not in DETECTION_HEADS:
            raise ConfigError(f"unknown detection head {head!r}")
        b, n, hid = h.data.shape
        w_col = ad.reshape(self.params[f"head.{head}.w"], (hid, 1))
        return ad.reshape(ad.add(ad.matmul(h, w_col), self.params[f"head.{head}.b"]), (b, n))

    def detection_probs_detached(self, h_data, head):
        """Sigmoid probability-of-original per position, outside the graph."""
        w = self.params[f"head.{head}.w"].data
        b = self.params[f"head.{head}.b"].data
        z = h_data @ w + b[0]
        return 1.0 / (1.0 + np.exp(-z))
