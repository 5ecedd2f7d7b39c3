"""Self-correction courses built from the discriminator's confusion cells.

Each evaluated position falls in exactly one cell: pos1 (judged original,
was original), pos2 (judged original, was replaced), pos3 (judged replaced,
was original), pos4 (judged replaced, was replaced). The generator redoes
pos4 under a cleaned-up context; the discriminator retries pos2 and pos3
with the pos4 distractors restored. Insertion views carry no originals at
the inserted slots, so they are never corrected. Views and cells are in a
batch's packed layout: each stream has one notebook, whose cells are rows of
its whole view set, and each builder runs once per view set.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .courses import cross_entropy_at, binary_detection_loss
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


def classify_confusion(ids, view, d_probs) -> ConfusionNotebook:
    """Partition every row of the originals `ids` by (prediction, label).

    `d_probs` are detach-copied probabilities-of-original, one per row;
    prediction is original iff prob >= 0.5, label is original iff the view
    token equals the source token. Only equal-length views qualify (insertion
    views are rejected: there is nothing to restore at an inserted slot).
    """
    d_probs = np.asarray(d_probs)
    if len(view) != len(ids) or len(d_probs) != len(ids):
        raise ContractError(f"confusion cells need aligned views, got view {len(view)}, "
                            f"probabilities {len(d_probs)} vs {len(ids)} tokens")
    label_orig = view == ids
    pred_orig = d_probs >= 0.5
    return ConfusionNotebook(
        pos1=np.flatnonzero(pred_orig & label_orig),
        pos2=np.flatnonzero(pred_orig & ~label_orig),
        pos3=np.flatnonzero(~pred_orig & label_orig),
        pos4=np.flatnonzero(~pred_orig & ~label_orig),
    )


def build_regeneration(ids, corrupted, notebook: ConfusionNotebook):
    """Masked-only-at-pos4 view, the original tokens there, and the pos4 rows.

    Every other row keeps its original token, so earlier corruption cannot
    distract the second generation attempt.
    """
    pos4 = notebook.pos4
    if not np.isin(pos4, corrupted).all():
        raise ContractError("pos4 contains positions outside the corrupted set")
    regen = ids.copy()
    regen[pos4] = MASK_ID
    return regen, ids[pos4], pos4


def build_rediscrimination(ids, view, notebook: ConfusionNotebook):
    """Course view with pos4 restored to originals; retry rows pos2|pos3 and their labels.

    Labels: pos3 tokens are original (1), pos2 tokens are still replaced (0).
    """
    redisc = view.copy()
    redisc[notebook.pos4] = ids[notebook.pos4]
    is_pos3 = np.zeros(len(ids), dtype=bool)
    is_pos3[notebook.pos3] = True
    retry = is_pos3.copy()
    retry[notebook.pos2] = True
    rows = np.flatnonzero(retry)
    return redisc, rows, is_pos3[rows].astype(np.float32)


def loss_regeneration(model, g_hidden, regen, course_rows):
    """CE summed over pos4 and divided by `course_rows`, its first-pass course's rows (no pos4:
    an exact 0). `g_hidden` holds the pos4 rows' hidden states."""
    _, targets, _ = regen
    loss = cross_entropy_at(model, g_hidden, targets)
    return ad.scale(loss, len(targets) / course_rows) if len(targets) else loss


def loss_rediscrimination(model, d_hidden, head, redisc, course_rows):
    """BCE with the course's head summed over pos2|pos3 and divided by `course_rows`, as for
    regeneration. `d_hidden` holds the retry rows' hidden states."""
    _, _, labels = redisc
    loss = binary_detection_loss(model, d_hidden, head, labels)
    return ad.scale(loss, len(labels) / course_rows) if len(labels) else loss
