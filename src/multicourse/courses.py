"""Corruption courses: masked, swapped, and inserted views of a batch.

Every view of a training step derives from the same original sequences. A
batch packs them once, sequence after sequence, with no padding, and each
view is one id array in that layout: `course_batch` turns the plans'
positions into rows of it once, and the view builders, the generator-sample
splice and every loss work elementwise on those rows, once per view set.
The generator fills corrupted slots by sampling its own softmax (detached,
temperature 1, full vocabulary); the discriminator then labels each token
original-or-not. Padding exists only in the grid `pad_batch` fills for an
encoder pass, which returns the same packed rows. Plans and insert views
stay per sequence: they fix the rng draw order and which sequences overflow.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, InputError
from .vocab import MASK_ID, PAD_ID

MIN_REAL_TOKENS = 2  # a corruption plan's minimum; the corpus loader drops shorter lines


@dataclass(eq=False)
class TokenSequence:
    """One sentence's token ids, unpadded: every position is a real token."""
    ids: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    @property
    def n_real(self):
        return len(self.ids)


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
    mask_positions: np.ndarray   # sorted
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
    if n_real < MIN_REAL_TOKENS:
        raise InputError(f"sequence too short to corrupt (n_real={n_real})")
    n_mask = _round_count(rates.mask_rate, n_real)
    n_swap = _round_count(rates.swap_rate, n_real)
    n_ins = _round_count(rates.insert_rate, n_real)

    mask_pos = np.sort(rng.choice(n_real, size=n_mask, replace=False))
    swap_pos = np.sort(rng.choice(n_real, size=n_swap, replace=False))
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


def apply_mask(ids, rows):
    """The cloze view: `ids` with MASK at `rows`."""
    out = ids.copy()
    out[rows] = MASK_ID
    return out


def apply_swap(ids, rows, source_rows):
    """The rearranged view: view[rows[k]] = ids[source_rows[k]]."""
    out = ids.copy()
    out[rows] = ids[source_rows]
    return out


def apply_insert(x: TokenSequence, plan: CorruptionPlan, max_len=None):
    """One sequence's extended view with MASK at the planned slots; deleting them recovers x."""
    ext = plan.extended_length
    if max_len is not None and ext > max_len:
        raise InputError(f"extended length {ext} exceeds max_seq_len {max_len}")
    ids = np.empty(ext, dtype=np.int64)
    keep = np.ones(ext, dtype=bool)
    keep[plan.insert_positions] = False
    ids[plan.insert_positions] = MASK_ID
    ids[keep] = x.ids
    return ids


def splice_generator_samples(model, view, g_hidden, rows, rng):
    """`view` with generator samples at `rows`, drawn from `g_hidden`, the
    generator's hidden rows aligned with `rows` (row k is sampled from g_hidden[k]).

    Sampling reads the hidden states' values only; no gradient flows into
    the sampled token identities.
    """
    if len(g_hidden) != len(rows):
        raise ContractError(f"{len(g_hidden)} hidden rows for {len(rows)} sampled rows")
    out = view.copy()
    out[rows] = sample_rows(model.lm_probs_detached(g_hidden), rng)
    return out


def sample_rows(probs, rng):
    """One categorical draw per row via inverse-CDF on a single uniform."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[:, -1] = 1.0
    draws = rng.random((probs.shape[0], 1))
    return (cdf < draws).sum(axis=-1).astype(np.int64)


# -- losses over blocks of hidden rows -----------------------------------------
# A loss reads one block of hidden rows, one row per target or label, and
# refuses a block of another size: every row of a view set for rtd/std/itd,
# and for the others the rows their pass was asked for (`rows` of
# `Model.encode_*`). `run_courses` hands each view set its own block.


def cross_entropy_at(model, g_hidden, targets):
    """Mean CE over hidden rows, one per target, full-vocabulary logits from the tied head."""
    return ad.softmax_cross_entropy(model.lm_logits(g_hidden), targets)


def binary_detection_loss(model, d_hidden, head, labels):
    """Mean BCE with the chosen head over hidden rows, one per label."""
    return ad.sigmoid_bce(model.detection_logits(d_hidden, head), labels)


# -- the five self-supervision losses ----------------------------------------


def loss_mlm(model, g_hidden, batch):
    """CE at masked rows, targets = original tokens; `g_hidden` holds the
    masked rows' hidden states in `mask_rows` order."""
    return cross_entropy_at(model, g_hidden, batch.ids[batch.mask_rows])


def loss_slm(model, g_hidden, batch):
    """CE at swapped rows, targets = original tokens, same full-vocab head;
    `g_hidden` holds the swapped rows' hidden states."""
    return cross_entropy_at(model, g_hidden, batch.ids[batch.swap_rows])


def original_labels(view, ids):
    """One label per row: 1.0 where the view token equals the original."""
    return (view == ids).astype(np.float32)


def loss_rtd(model, d_hidden, view, ids):
    """BCE with the rtd head over every row of the view."""
    return binary_detection_loss(model, d_hidden, "rtd", original_labels(view, ids))


def loss_std(model, d_hidden, view, ids):
    """BCE with the std head; a swap resampled back to the original counts as original."""
    return binary_detection_loss(model, d_hidden, "std", original_labels(view, ids))


def itd_labels(n_rows, insert_rows):
    """Original iff the row is not an inserted slot."""
    labels = np.ones(n_rows, dtype=np.float32)
    labels[insert_rows] = 0.0
    return labels


def loss_itd(model, d_hidden, batch):
    """BCE with the itd head over every row of the insert views; labels are
    by construction, independent of what the generator sampled."""
    labels = itd_labels(len(batch.inserted), batch.insert_rows)
    return binary_detection_loss(model, d_hidden, "itd", labels)


# -- batch assembly -----------------------------------------------------------


def pad_batch(ids, lengths):
    """Right-pad packed sequences of `lengths` into an (ids, mask) grid; mask is 1 at real tokens."""
    lengths = np.asarray(lengths)
    real = np.arange(lengths.max()) < lengths[:, None]
    grid = np.full(real.shape, PAD_ID, dtype=np.int64)
    grid[real] = ids
    return grid, real.astype(np.int64)


def _rows(lengths, position_lists):
    """Each sequence's positions as rows of its packing, sequence after sequence."""
    starts = np.repeat(np.cumsum(lengths) - lengths, [len(p) for p in position_lists])
    return starts + np.concatenate([np.zeros(0, np.int64), *position_lists])


@dataclass(eq=False)
class CourseBatch:
    """Everything one step derives from the same sequences. Each view is one
    int64 id array in the packed layout of `ids`, the originals sequence after
    sequence; the insert views pack the sequences in `itd_kept` the same way.
    The plans are kept as rows of those layouts, and each notebook files rows."""
    originals: list
    plans: list
    ids: np.ndarray
    lengths: np.ndarray
    mask_rows: np.ndarray
    swap_rows: np.ndarray
    swap_sources: np.ndarray          # rows: swapped[swap_rows[k]] = ids[swap_sources[k]]
    itd_kept: list                    # indices of the sequences whose insert view fits
    inserted: np.ndarray              # their insert views, packed
    inserted_lengths: np.ndarray
    insert_rows: np.ndarray           # rows of `inserted`
    masked: np.ndarray = None
    swapped: np.ndarray = None
    rtd_view: np.ndarray = None
    std_view: np.ndarray = None
    itd_view: np.ndarray = None
    notebooks: dict = field(default_factory=dict)  # course name -> ConfusionNotebook
    corrected: bool = False


def course_batch(originals, plans, inserted):
    """The packed originals, and every plan turned into rows once; `inserted`
    maps the index of each sequence whose insert view fits to that view."""
    lengths = np.array([x.n_real for x in originals], dtype=np.int64)
    kept = [plans[i] for i in inserted]
    inserted_lengths = np.array([p.extended_length for p in kept], dtype=np.int64)
    return CourseBatch(
        originals=originals, plans=plans,
        ids=np.concatenate([x.ids for x in originals]), lengths=lengths,
        mask_rows=_rows(lengths, [p.mask_positions for p in plans]),
        swap_rows=_rows(lengths, [p.swap_positions for p in plans]),
        swap_sources=_rows(lengths, [p.swap_sources for p in plans]),
        itd_kept=list(inserted),
        inserted=np.concatenate([np.zeros(0, np.int64), *inserted.values()]),
        inserted_lengths=inserted_lengths,
        insert_rows=_rows(inserted_lengths, [p.insert_positions for p in kept]),
    )
