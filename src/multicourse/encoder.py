"""Generator/discriminator transformer stacks over a shared embedding table.

Both stacks are post-norm transformer encoders with bucketed relative
position bias added to attention scores. A pass packs the real tokens of
its right-padded batch once, and every op of a layer runs on those (T, h)
rows. A ragged pass is cut once by length where that saves the most
query-key cells, if it saves at least MIN_SPLIT_CELLS per head
(`attention_groups`); each group attends on its own (B_g, n_g) grid, n_g
its longest member, with the top-left block of the model's
relative-position buckets. A layer's attention is one `ad.attention` op: it
places the packed q, k and v rows in each group's grids by the group's
layout, scales the queries by 1/sqrt(d_head) and adds the relative-position
bias (`ad.relative_bias`) and then the constant key-padding bias (-1e9 at a
grid's padded keys) to the scores, so a padded key gets exactly zero
probability and gradient. Past the output projection, a layer makes three
more calls on the packed rows, nine tape ops with dropout on:
`ad.add_layer_norm` (the projection's dropout, the residual add and the
norm), `ad.ffn` (both FFN matmuls and the GELU) and `ad.add_layer_norm`
again. For their backward they keep the normalized rows, 1/sigma, the
dropout masks, and the GELU output and its derivative. A value lives while a
backward reads it (see `autodiff`): no sum, dropped array or GELU input
keeps its values on the tape, and neither do the embedding and its norm's
output, the q/k/v and output projections, the FFN output or the
relative-bias grids, since no backward reads them.

A pass returns the packed rows it is given, strictly increasing, every row
(the sequences' tokens in batch order) by default, through one path: it
drops the sequences that hold none of them before embedding, and its last
layer takes queries from those rows alone: a group read in part places its
reads in a (B_g, r) query grid, each sequence's in one row, r the most
reads any of its sequences has; a group read in full keeps its full grid.
Past its keys and values, that layer runs on the read rows alone, so a row
nothing reads is not computed. The LM head is tied to the embedding table
(plus a learnable per-vocab bias); three independent binary detection heads
(rtd, std, itd) read the discriminator output.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError

NUM_REL_BUCKETS = 32
DETECTION_HEADS = ("rtd", "std", "itd")
# a ragged pass splits its attention grid only when that saves this many
# query-key cells per head; below it the extra group costs more than it saves
MIN_SPLIT_CELLS = 64 * 64


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
        for name in ("generator_layers", "discriminator_layers", "ffn_inner_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.max_seq_len < 2:
            # a corruption plan needs two real tokens
            raise ConfigError(f"max_seq_len must be at least 2, got {self.max_seq_len}")
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


def _bucket_matrix(n, num_buckets, max_distance):
    """Bucket index of (j - i) for every query/key pair of an n-token window.
    It depends only on j - i, so a narrower window's matrix is its top-left block."""
    pos = np.arange(n, dtype=np.int64)
    rel = pos[None, :] - pos[:, None]
    return relative_position_bucket(rel, num_buckets, max_distance)


def attention_groups(lengths):
    """Split a pass's sequences by length into the groups attention runs on,
    each on its own grid: (members, width) pairs, a boolean member mask over
    the batch in batch order and the longest member's length.

    Sorted by length, the sequences are cut once where that minimises the
    attention cells, sum(members * width**2). The cut is taken only when it
    saves at least MIN_SPLIT_CELLS; otherwise the batch stays one group.
    """
    lengths = np.asarray(lengths)
    srt = np.sort(lengths)
    # width 1 keeps a grid for rows without a real token, as a padded pass had
    top = max(int(srt[-1]), 1) if srt.size else 1
    if srt.size > 1:
        # cutting after the k shortest puts them at width srt[k - 1], not top
        saved = np.arange(1, srt.size + 1) * (top * top - srt * srt)
        cut = int(np.argmax(saved))
        if saved[cut] >= MIN_SPLIT_CELLS:
            short = lengths <= srt[cut]
            return [(short, max(int(srt[cut]), 1)), (~short, top)]
    return [(np.ones(lengths.shape, dtype=bool), top)]


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


def _parameter_layout(config):
    """Every parameter's shape and initialiser, by name in canonical order: "normal"
    draws N(0, 0.02) from the model seed in this order, "zeros" and "ones" draw nothing."""
    c = config
    h = c.hidden_size
    layout = {"embedding.word": ((c.vocab_size, h), "normal"), "lm_head.bias": ((c.vocab_size,), "zeros")}
    for stack, layers in (("generator", c.generator_layers),
                          ("discriminator", c.discriminator_layers)):
        layout[f"{stack}.rel_bias"] = ((NUM_REL_BUCKETS, c.attention_heads), "normal")
        layout[f"{stack}.embed_norm.gain"] = ((h,), "ones")
        layout[f"{stack}.embed_norm.bias"] = ((h,), "zeros")
        for i in range(layers):
            p = f"{stack}.layer{i}"
            for name in ("wq", "wk", "wv", "wo"):
                layout[f"{p}.attn.{name}"] = ((h, h), "normal")
            for name in ("bq", "bk", "bv", "bo"):
                layout[f"{p}.attn.{name}"] = ((h,), "zeros")
            layout[f"{p}.norm_attn.gain"] = ((h,), "ones")
            layout[f"{p}.norm_attn.bias"] = ((h,), "zeros")
            layout[f"{p}.ffn.w1"] = ((h, c.ffn_inner_size), "normal")
            layout[f"{p}.ffn.b1"] = ((c.ffn_inner_size,), "zeros")
            layout[f"{p}.ffn.w2"] = ((c.ffn_inner_size, h), "normal")
            layout[f"{p}.ffn.b2"] = ((h,), "zeros")
            layout[f"{p}.norm_ffn.gain"] = ((h,), "ones")
            layout[f"{p}.norm_ffn.bias"] = ((h,), "zeros")
    for head in DETECTION_HEADS:
        layout[f"head.{head}.w"] = ((h,), "normal")
        layout[f"head.{head}.b"] = ((1,), "zeros")
    return layout


def _checked_state(config, state):
    """`state`'s arrays as float32 in canonical order, a float32 array kept as
    it is rather than copied; an unknown, missing or misshaped parameter
    raises InputError."""
    layout = _parameter_layout(config)
    unknown = sorted(set(state) - set(layout))
    if unknown:
        raise InputError(f"unknown parameters {', '.join(unknown)}")
    checked = {}
    for name, (shape, _) in layout.items():
        if name not in state:
            raise InputError(f"missing parameter {name}")
        arr = np.asarray(state[name], dtype=np.float32)
        if arr.shape != shape:
            raise InputError(f"shape mismatch for {name}: {arr.shape} vs {shape}")
        checked[name] = arr
    return checked


class Model:
    """Shared-embedding generator/discriminator pair with detection heads."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        draw = {"normal": lambda shape: rng.normal(0, 0.02, shape), "zeros": np.zeros, "ones": np.ones}
        self._build(config, {name: draw[init](shape)
                             for name, (shape, init) in _parameter_layout(config).items()})

    @classmethod
    def from_state(cls, config: EncoderConfig, state):
        """A model holding `state`'s arrays, as they are when float32 and as
        float32 copies otherwise, with no random initialisation; an unknown,
        missing or misshaped parameter raises InputError."""
        model = cls.__new__(cls)
        model._build(config, state)
        return model

    def _build(self, config, state):
        self.config = config
        # every attention grid's relative-position buckets are its top-left block
        self._buckets = _bucket_matrix(config.max_seq_len, NUM_REL_BUCKETS, config.max_relative_position)
        self.params = {name: ad.Tensor(arr, requires_grad=True)
                       for name, arr in _checked_state(config, state).items()}

    # -- parameter access -------------------------------------------------

    def named_parameters(self):
        return self.params

    def state(self):
        """Parameter arrays keyed by name, in canonical order."""
        return {name: p.data.copy() for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # -- encoding ----------------------------------------------------------

    def encode_generator(self, ids, mask, rng=None, rows=None):
        return self._encode("generator", self.config.generator_layers, ids, mask, rng, rows)

    def encode_discriminator(self, ids, mask, rng=None, rows=None):
        return self._encode("discriminator", self.config.discriminator_layers, ids, mask, rng, rows)

    def _encode(self, stack, layers, ids, mask, rng, rows):
        """Packed real-token rows `rows` (strictly increasing; every row when
        None) of a right-padded (ids, mask) grid, as a (len(rows), h) tensor,
        by one path: the last layer takes queries from the read rows alone.
        Reading no row records no op."""
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(mask)
        if ids.ndim != 2 or mask.shape != ids.shape:
            raise InputError(f"expected (batch, seq) ids/mask, got {ids.shape} / {mask.shape}")
        n = ids.shape[1]
        if n > self.config.max_seq_len:
            raise InputError(f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}")
        if ids.size and not 0 <= ids.min() <= ids.max() < self.config.vocab_size:
            raise InputError(f"token ids {ids.min()}..{ids.max()} outside vocabulary "
                             f"of size {self.config.vocab_size}")
        if not ((mask == 0) | (mask == 1)).all():
            raise InputError("attention mask values must be 0 or 1")
        if (mask[:, 1:] > mask[:, :-1]).any():
            raise InputError("attention mask rows must be right-padded: ones, then zeros")

        c = self.config
        p = self.params
        dtype = p["embedding.word"].data.dtype
        # every layer runs on the T real rows, in batch order; attention places
        # them in a padded grid per length group
        lengths = mask.sum(axis=1)
        n_real = int(lengths.sum())
        rows = ad._row_index(np.arange(n_real) if rows is None else rows, n_real)
        if not rows.size:
            return ad.Tensor(np.zeros((0, c.hidden_size), dtype=dtype))
        # each read row's sequence (nondecreasing) and position in it
        seq = np.repeat(np.arange(len(lengths)), lengths)[rows]
        pos = rows - (np.cumsum(lengths) - lengths)[seq]
        # drop the sequences holding no read row, and renumber the rows
        kept = np.bincount(seq, minlength=len(lengths)) > 0
        ids, mask, lengths = ids[kept], mask[kept], lengths[kept]
        seq = (np.cumsum(kept) - 1)[seq]
        rows = (np.cumsum(lengths) - lengths)[seq] + pos

        x = ad.embedding(p["embedding.word"], ids[mask.astype(bool)])
        x = ad.layer_norm(x, p[f"{stack}.embed_norm.gain"], p[f"{stack}.embed_norm.bias"])
        x = ad.dropout(x, c.dropout_rate, rng)

        # each group's attention layout: in every layer but the last, and in the last
        inner, last = [], []
        for members, width in attention_groups(lengths):
            sub = mask[members, :width]
            g = len(sub)
            group_rows = np.flatnonzero(np.repeat(members, lengths))  # the group's packed rows
            slots = np.flatnonzero(sub)  # and their cells in its grid
            # constant key-padding bias for the softmax, large negative at padded keys
            pad_bias = ((sub.astype(dtype) - 1.0) * 1e9)[:, None, None, :]
            # the last layer's queries are the group's reads: each sequence's in
            # its own row of a (g, r) grid, r the most any sequence has
            reads = np.flatnonzero(members[seq])
            local = (np.cumsum(members) - 1)[seq[reads]]
            counts = np.bincount(local, minlength=g)
            r = int(counts.max())
            cells = local * r + np.arange(reads.size) - (np.cumsum(counts) - counts)[local]
            partial = reads.size < group_rows.size
            # the full grid's (H, w, w) bias, unless only a pruned last layer would read it
            full = None if partial and layers == 1 else ad.relative_bias(
                p[f"{stack}.rel_bias"], self._buckets[:width, :width])
            rel = full  # a group read in full: its cells are its slots
            if partial:
                qpos = np.zeros(g * r, dtype=np.int64)
                qpos[cells] = pos[reads]
                rel = ad.relative_bias(p[f"{stack}.rel_bias"],
                                       self._buckets[qpos, :width].reshape(g, r, width))
            inner.append((group_rows, slots, group_rows, slots, full, pad_bias))
            last.append((group_rows, slots, reads, cells, rel, pad_bias))

        for i in range(layers):
            pre = f"{stack}.layer{i}"
            kv, layouts = x, inner
            if i == layers - 1:
                # past its keys and values every op is per row: the last layer
                # runs on the read rows
                x, layouts = ad.gather_rows(x, rows), last
            q = ad.matmul(x, p[f"{pre}.attn.wq"], p[f"{pre}.attn.bq"])
            k = ad.matmul(kv, p[f"{pre}.attn.wk"], p[f"{pre}.attn.bk"])
            v = ad.matmul(kv, p[f"{pre}.attn.wv"], p[f"{pre}.attn.bv"])
            ctx = ad.attention(q, k, v, layouts, c.attention_heads, c.dropout_rate, rng)
            proj = ad.matmul(ctx, p[f"{pre}.attn.wo"], p[f"{pre}.attn.bo"])
            x = ad.add_layer_norm(x, proj, p[f"{pre}.norm_attn.gain"], p[f"{pre}.norm_attn.bias"],
                                  c.dropout_rate, rng)
            f = ad.ffn(x, p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"], p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"])
            x = ad.add_layer_norm(x, f, p[f"{pre}.norm_ffn.gain"], p[f"{pre}.norm_ffn.bias"],
                                  c.dropout_rate, rng)
        return x

    # -- heads ---------------------------------------------------------------

    def lm_logits(self, rows):
        """Tied-head LM logits for hidden rows of any leading shape: each row
        dotted with every embedding row, plus the per-vocab bias. Zero rows
        give an empty (0, |V|) tensor."""
        table_t = ad.transpose(self.params["embedding.word"], (1, 0))
        return ad.matmul(rows, table_t, self.params["lm_head.bias"])

    def lm_probs_detached(self, h_rows):
        """Softmax of `lm_logits` for raw hidden rows, outside the graph."""
        with ad.no_tape():
            return ad.softmax(self.lm_logits(ad.Tensor(h_rows))).data

    def detection_logits(self, h, head):
        """One binary logit per hidden row, for one of the rtd/std/itd heads;
        `h` has any leading shape, which the logits keep."""
        if head not in DETECTION_HEADS:
            raise ConfigError(f"unknown detection head {head!r}")
        w_col = ad.reshape(self.params[f"head.{head}.w"], (h.data.shape[-1], 1))
        return ad.reshape(ad.matmul(h, w_col, self.params[f"head.{head}.b"]), h.data.shape[:-1])

    def detection_probs_detached(self, h_data, head):
        """Sigmoid of `detection_logits`: p(original) per raw hidden row, outside the graph."""
        with ad.no_tape():
            return 1.0 / (1.0 + np.exp(-self.detection_logits(ad.Tensor(h_data), head).data))
