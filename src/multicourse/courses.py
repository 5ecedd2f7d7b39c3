"""Corruption courses: masked, swapped, and inserted views of a batch.

Every view of a training step derives from the same original sequence.
The generator fills corrupted slots by sampling its own softmax (detached,
temperature 1, full vocabulary); the discriminator then labels each token
original-or-not. Position sets never touch padding.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError
from .vocab import MASK_ID


@dataclass(eq=False)
class TokenSequence:
    ids: np.ndarray
    attention_mask: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.attention_mask = np.asarray(self.attention_mask, dtype=np.int64)
        if self.ids.shape != self.attention_mask.shape:
            raise InputError("ids and attention_mask lengths differ")

    @classmethod
    def from_ids(cls, ids):
        ids = np.asarray(ids, dtype=np.int64)
        return cls(ids, np.ones_like(ids))

    @property
    def n_real(self):
        return int(self.attention_mask.sum())

    def copy(self):
        return TokenSequence(self.ids.copy(), self.attention_mask.copy())


@dataclass(frozen=True)
class CorruptionRates:
    mask_rate: float = 0.15
    swap_rate: float = 0.15
    insert_rate: float = 0.15

    def __post_init__(self):
        for name, rate in (("mask_rate", self.mask_rate),
                           ("swap_rate", self.swap_rate),
                           ("insert_rate", self.insert_rate)):
            if not 0.0 <= rate <= 0.5:
                raise ConfigError(f"{name} must lie in [0, 0.5], got {rate}")


@dataclass(eq=False)
class CorruptionPlan:
    mask_positions: np.ndarray   # sorted, within non-padding prefix
    swap_positions: np.ndarray   # sorted
    swap_sources: np.ndarray     # permuted: view[swap_positions[k]] = x[swap_sources[k]]
    insert_positions: np.ndarray  # sorted indices into the extended sequence
    extended_length: int


def _round_count(rate, n_real):
    # round-half-up keeps counts deterministic across platforms
    return int(np.floor(rate * n_real + 0.5))


def plan_corruption(x: TokenSequence, rates: CorruptionRates, rng) -> CorruptionPlan:
    """Sample the three position sets for one sequence.

    Mask/swap positions are uniform without replacement over real tokens;
    the swap permutation is uniform over all permutations of the chosen set
    (fixed points allowed); insertions claim distinct gaps among the
    n_real+1 slots between tokens.
    """
    n_real = x.n_real
    if n_real < 2:
        raise InputError(f"sequence too short to corrupt (n_real={n_real})")
    real = np.flatnonzero(x.attention_mask)
    n_mask = _round_count(rates.mask_rate, n_real)
    n_swap = _round_count(rates.swap_rate, n_real)
    n_ins = _round_count(rates.insert_rate, n_real)

    mask_pos = np.sort(rng.choice(real, size=n_mask, replace=False))
    swap_pos = np.sort(rng.choice(real, size=n_swap, replace=False))
    swap_src = swap_pos[rng.permutation(n_swap)]
    gaps = np.sort(rng.choice(n_real + 1, size=n_ins, replace=False))
    insert_pos = gaps + np.arange(n_ins)
    return CorruptionPlan(
        mask_positions=mask_pos.astype(np.int64),
        swap_positions=swap_pos.astype(np.int64),
        swap_sources=swap_src.astype(np.int64),
        insert_positions=insert_pos.astype(np.int64),
        extended_length=n_real + n_ins,
    )


def apply_mask(x: TokenSequence, plan: CorruptionPlan) -> TokenSequence:
    out = x.copy()
    out.ids[plan.mask_positions] = MASK_ID
    return out


def apply_swap(x: TokenSequence, plan: CorruptionPlan) -> TokenSequence:
    out = x.copy()
    out.ids[plan.swap_positions] = x.ids[plan.swap_sources]
    return out


def apply_insert(x: TokenSequence, plan: CorruptionPlan, max_len=None) -> TokenSequence:
    """Extended view with MASK at the planned slots; deleting them recovers x."""
    n_real = x.n_real
    ext = plan.extended_length
    if max_len is not None and ext > max_len:
        raise InputError(f"extended length {ext} exceeds max_seq_len {max_len}")
    ids = np.empty(ext, dtype=np.int64)
    keep = np.ones(ext, dtype=bool)
    keep[plan.insert_positions] = False
    ids[plan.insert_positions] = MASK_ID
    ids[keep] = x.ids[:n_real]
    return TokenSequence(ids, np.ones(ext, dtype=np.int64))


def splice_generator_samples(model, view: TokenSequence, g_hidden, positions, rng) -> TokenSequence:
    """Replace `positions` in a view with tokens sampled from the generator.

    Sampling reads the hidden states' values only; no gradient flows into
    the sampled token identities.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return view.copy()
    h = g_hidden.data if isinstance(g_hidden, ad.Tensor) else np.asarray(g_hidden)
    probs = model.lm_probs_detached(h[positions])
    out = view.copy()
    out.ids[positions] = sample_rows(probs, rng)
    return out


def sample_rows(probs, rng):
    """One categorical draw per row via inverse-CDF on a single uniform."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[:, -1] = 1.0
    draws = rng.random((probs.shape[0], 1))
    return (cdf < draws).sum(axis=-1).astype(np.int64)


# -- batched loss helpers ----------------------------------------------------


def _flatten_positions(position_lists):
    """(seq_idx, pos_idx) arrays for a list of per-sequence position arrays."""
    seq_idx, pos_idx = [], []
    for i, positions in enumerate(position_lists):
        seq_idx.extend([i] * len(positions))
        pos_idx.extend(int(p) for p in positions)
    return np.asarray(seq_idx, dtype=np.int64), np.asarray(pos_idx, dtype=np.int64)


def cross_entropy_at(model, g_hidden, position_lists, target_lists):
    """Mean CE over pooled positions, full-vocabulary logits from the tied head."""
    seq_idx, pos_idx = _flatten_positions(position_lists)
    if seq_idx.size == 0:
        return ad.constant(0.0, dtype=g_hidden.data.dtype)
    targets = np.concatenate([np.asarray(t, dtype=np.int64) for t in target_lists if len(t)])
    logits = model.lm_logits(g_hidden, seq_idx, pos_idx)
    return ad.softmax_cross_entropy(logits, targets)


def binary_detection_loss(model, d_hidden, head, position_lists, label_lists):
    """Mean BCE with the chosen head over pooled (sequence, position) pairs."""
    seq_idx, pos_idx = _flatten_positions(position_lists)
    if seq_idx.size == 0:
        return ad.constant(0.0, dtype=d_hidden.data.dtype)
    b, n, _ = d_hidden.data.shape
    logits = ad.reshape(model.detection_logits(d_hidden, head), (b * n,))
    flat_positions = seq_idx * n + pos_idx
    labels = np.zeros(b * n, dtype=d_hidden.data.dtype)
    labels[flat_positions] = np.concatenate(
        [np.asarray(l, dtype=d_hidden.data.dtype) for l in label_lists if len(l)]
    )
    return ad.sigmoid_bce(logits, labels, flat_positions)


# -- the five self-supervision losses ----------------------------------------


def loss_mlm(model, g_hidden, plans, originals):
    """CE at masked positions, targets = original tokens."""
    positions = [p.mask_positions for p in plans]
    targets = [x.ids[p.mask_positions] for x, p in zip(originals, plans)]
    return cross_entropy_at(model, g_hidden, positions, targets)


def loss_slm(model, g_hidden, plans, originals):
    """CE at swapped positions, targets = original tokens, same full-vocab head."""
    positions = [p.swap_positions for p in plans]
    targets = [x.ids[p.swap_positions] for x, p in zip(originals, plans)]
    return cross_entropy_at(model, g_hidden, positions, targets)


def original_labels(view: TokenSequence, x: TokenSequence):
    """1.0 where the view token equals the original, over real positions."""
    real = np.flatnonzero(x.attention_mask)
    return real, (view.ids[real] == x.ids[real]).astype(np.float32)


def _original_detection_loss(model, d_hidden, head, views, originals):
    positions, labels = [], []
    for view, x in zip(views, originals):
        real, lab = original_labels(view, x)
        positions.append(real)
        labels.append(lab)
    return binary_detection_loss(model, d_hidden, head, positions, labels)


def loss_rtd(model, d_hidden, views, originals):
    """BCE with the rtd head over all non-padding positions."""
    return _original_detection_loss(model, d_hidden, "rtd", views, originals)


def loss_std(model, d_hidden, views, originals):
    """BCE with the std head; a swap resampled back to the original counts as original."""
    return _original_detection_loss(model, d_hidden, "std", views, originals)


def itd_labels(plan: CorruptionPlan):
    """Original iff the extended position is not an inserted slot."""
    labels = np.ones(plan.extended_length, dtype=np.float32)
    labels[plan.insert_positions] = 0.0
    return labels


def loss_itd(model, d_hidden, views, plans):
    """BCE with the itd head over the extended sequences; labels are by
    construction, independent of what the generator sampled."""
    positions = [np.flatnonzero(v.attention_mask) for v in views]
    labels = [itd_labels(p) for p in plans]
    return binary_detection_loss(model, d_hidden, "itd", positions, labels)


# -- batch assembly -----------------------------------------------------------


def pad_batch(seqs, pad_id=0):
    """Right-pad sequences to a rectangular (ids, mask) pair."""
    n = max(len(s.ids) for s in seqs)
    ids = np.full((len(seqs), n), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), n), dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s.ids)] = s.ids
        mask[i, : len(s.ids)] = s.attention_mask
    return ids, mask


@dataclass(eq=False)
class CourseBatch:
    """Everything one step derives from the same underlying sequences: its
    views, the discriminator's notebooks and whether it ran self-correction."""
    originals: list
    plans: list
    masked: list
    swapped: list = field(default_factory=list)
    inserted: list = field(default_factory=list)
    itd_kept: list = field(default_factory=list)   # indices that fit max_seq_len
    rtd_views: list = field(default_factory=list)
    std_views: list = field(default_factory=list)
    itd_views: list = field(default_factory=list)
    notebooks: dict = field(default_factory=dict)  # course name -> per-sequence notebooks
    corrected: bool = False

    @property
    def kept_plans(self):
        """Plans of the sequences whose insert view fits max_seq_len."""
        return [self.plans[j] for j in self.itd_kept]
