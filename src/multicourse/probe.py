"""Binary sentence-classification probe on the discriminator's CLS slot.

Each sentence is encoded with a prepended CLS token; the discriminator runs
in eval mode and a single logistic layer is trained on the CLS hidden
state. A pass computes only the CLS rows it reads. The encoder stays
frozen, so the probe featurizes once and fits fast: the layer is one flat
float32 [w; b] under full-batch Adam on the closed-form BCE gradient, off
the autodiff tape, bit for bit the same fit run through the tape.
"""

import numpy as np

from . import autodiff as ad
from .courses import pad_batch
from .errors import InputError
from .fileio import text_lines
from .vocab import CLS_ID

HOLDOUT_FRACTION = 0.2
FEATURIZE_BATCH = 64  # sequences per frozen encoder pass
FIT_EPOCHS, FIT_LR = 300, 0.05  # full-batch Adam on the logistic layer


def read_labeled_sentences(path):
    """Parse 'label<TAB>sentence' lines into (sentence, label) pairs; no vocabulary needed."""
    labeled = []
    for lineno, line in enumerate(text_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            label, text = line.split("\t", 1)
            label = int(label)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: expected 'label<TAB>sentence'") from exc
        if label not in (0, 1):
            raise InputError(f"{path}:{lineno}: label must be 0 or 1")
        labeled.append((text, label))
    if not labeled:
        raise InputError(f"probe dataset {path} is empty")
    if len({label for _, label in labeled}) < 2:
        raise InputError(f"probe dataset {path} contains a single class")
    return labeled


def encode_labeled(labeled, vocab, max_seq_len):
    """(ids, label) pairs, each sentence cut to leave room for the CLS token."""
    return [(vocab.encode(text)[: max_seq_len - 1], label) for text, label in labeled]


def load_labeled_dataset(path, vocab, max_seq_len):
    """Read 'label<TAB>sentence' lines into (ids, label) pairs."""
    return encode_labeled(read_labeled_sentences(path), vocab, max_seq_len)


def _featurize(model, examples):
    """CLS hidden states from a frozen discriminator, eval mode."""
    feats = []
    seqs = [[CLS_ID] + list(ids) for ids, _ in examples]
    with ad.no_tape():
        for start in range(0, len(seqs), FEATURIZE_BATCH):
            batch = seqs[start:start + FEATURIZE_BATCH]
            lengths = np.array([len(s) for s in batch])
            cls_rows = np.cumsum(lengths) - lengths
            h = model.encode_discriminator(*pad_batch(np.concatenate(batch), lengths), None, cls_rows)
            feats.append(h.data)
    return np.concatenate(feats, axis=0)


def _fit_logistic(features, labels, seed):
    """Full-batch Adam on mean BCE for a single linear layer, without the tape.

    The parameters are one float32 vector [w; b], and each epoch takes the
    closed-form gradient, x.T @ g for w and the sum of g for b, where
    g = (sigmoid(x @ w + b) - y) / n. Each element goes through the float32
    arithmetic of `ad.matmul` with a bias and `ad.sigmoid_bce` on a tape, in
    the same order, so the fit has the taped loop's bits (tests/test_probe.py
    keeps that loop as the oracle).
    """
    rng = np.random.default_rng(seed)
    n, dim = features.shape
    p = np.zeros(dim + 1, dtype=np.float32)
    p[:dim] = rng.normal(0, 0.01, dim)
    x = np.asarray(features, dtype=np.float32)
    y = labels.astype(np.float32)
    grad = np.empty_like(p)
    m = v = 0.0
    for t in range(1, FIT_EPOCHS + 1):
        z = x @ p[:dim]
        z += p[dim]
        g = (1.0 / (1.0 + np.exp(-z)) - y) / np.float32(n)
        grad[:dim] = x.T @ g
        grad[dim] = g.sum()
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad ** 2
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        p = p - FIT_LR * mh / (np.sqrt(vh) + 1e-8)
    return p[:dim], float(p[dim])


def probe_train_eval(model, examples, seed=0):
    """Train the probe layer, return held-out accuracy.

    Splits deterministically under `seed`. A dataset with a single class
    cannot be probed and raises.
    """
    labels = np.asarray([label for _, label in examples], dtype=np.int64)
    if len(np.unique(labels)) < 2:
        raise InputError("probe dataset contains a single class")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    n_hold = max(1, int(len(examples) * HOLDOUT_FRACTION))
    hold, fit = order[:n_hold], order[n_hold:]
    if len(np.unique(labels[fit])) < 2:
        raise InputError("training split contains a single class")

    features = _featurize(model, examples)
    w, b = _fit_logistic(features[fit], labels[fit], seed)
    predictions = (features[hold] @ w + b) >= 0.0
    return float((predictions == labels[hold].astype(bool)).mean())

