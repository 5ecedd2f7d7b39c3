"""Self-correction courses built from the discriminator's confusion cells.

Each evaluated position falls in exactly one cell: pos1 (judged original,
was original), pos2 (judged original, was replaced), pos3 (judged replaced,
was original), pos4 (judged replaced, was replaced). The generator redoes
pos4 under a cleaned-up context; the discriminator retries pos2 and pos3
with the pos4 distractors restored. Insertion views carry no originals at
the inserted slots, so they are never corrected.
"""

from dataclasses import dataclass

import numpy as np

from .courses import TokenSequence, cross_entropy_at, binary_detection_loss, packed_rows
from .errors import ContractError
from .vocab import MASK_ID


@dataclass(eq=False)
class ConfusionNotebook:
    pos1: np.ndarray
    pos2: np.ndarray
    pos3: np.ndarray
    pos4: np.ndarray

    def cells(self):
        return self.pos1, self.pos2, self.pos3, self.pos4


def classify_confusion(x: TokenSequence, view: TokenSequence, d_probs) -> ConfusionNotebook:
    """Partition every position of x by (prediction, label).

    `d_probs` are detach-copied probabilities-of-original, one per position;
    prediction is original iff prob >= 0.5, label is original iff the view
    token equals the source token. Only equal-length views qualify (insertion
    views are rejected: there is nothing to restore at an inserted slot).
    """
    d_probs = np.asarray(d_probs)
    if len(view.ids) != len(x.ids) or len(d_probs) != len(x.ids):
        raise ContractError(f"confusion cells need aligned sequences, got view {len(view.ids)}, "
                            f"probabilities {len(d_probs)} vs {len(x.ids)} tokens")
    label_orig = view.ids == x.ids
    pred_orig = d_probs >= 0.5
    return ConfusionNotebook(
        pos1=np.flatnonzero(pred_orig & label_orig),
        pos2=np.flatnonzero(pred_orig & ~label_orig),
        pos3=np.flatnonzero(~pred_orig & label_orig),
        pos4=np.flatnonzero(~pred_orig & ~label_orig),
    )


def build_regeneration(x: TokenSequence, corrupted, notebook: ConfusionNotebook):
    """Masked-only-at-pos4 input plus the original tokens there.

    Every other position keeps its original token, so earlier corruption
    cannot distract the second generation attempt.
    """
    pos4 = notebook.pos4
    if pos4.size:
        is_corrupted = np.zeros(len(x.ids), dtype=bool)
        is_corrupted[np.asarray(corrupted, dtype=np.int64)] = True
        if not is_corrupted[pos4].all():
            raise ContractError("pos4 contains positions outside the corrupted set")
    regen = x.copy()
    regen.ids[pos4] = MASK_ID
    return regen, x.ids[pos4].copy(), pos4


def build_rediscrimination(x: TokenSequence, view: TokenSequence, notebook: ConfusionNotebook):
    """Course view with pos4 restored to originals; retry positions pos2|pos3.

    Labels: pos3 tokens are original (1), pos2 tokens are still replaced (0).
    """
    redisc = view.copy()
    redisc.ids[notebook.pos4] = x.ids[notebook.pos4]
    is_pos3 = np.zeros(len(x.ids), dtype=bool)
    is_pos3[notebook.pos3] = True
    retry = is_pos3.copy()
    retry[notebook.pos2] = True
    positions = np.flatnonzero(retry)
    labels = is_pos3[positions].astype(np.float32)
    return redisc, positions, labels


def loss_regeneration(model, g_hidden, regen_batch, first_row=0):
    """CE at pos4 only; same functional form as the first-pass cloze loss."""
    regens, targets, positions = zip(*regen_batch)
    return cross_entropy_at(model, g_hidden, packed_rows(regens, positions, first_row),
                            np.concatenate(targets))


def loss_rediscrimination(model, d_hidden, head, redisc_batch, first_row=0):
    """BCE at pos2|pos3 only, using the matching course head."""
    rediscs, positions, labels = zip(*redisc_batch)
    return binary_detection_loss(model, d_hidden, head, packed_rows(rediscs, positions, first_row),
                                 np.concatenate(labels))
