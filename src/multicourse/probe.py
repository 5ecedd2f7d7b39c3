"""Binary sentence-classification probe on the discriminator's CLS slot.

Each sentence is encoded with a prepended CLS token; the discriminator runs
in eval mode and a single logistic layer is trained on the CLS hidden
state. A pass computes only the CLS rows it reads. The encoder stays
frozen, so the probe featurizes once and fits fast.
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


def load_labeled_dataset(path, vocab, max_seq_len):
    """Read 'label<TAB>sentence' lines into (ids, label) pairs."""
    examples = []
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
        examples.append((vocab.encode(text), label))
    if not examples:
        raise InputError(f"probe dataset {path} is empty")
    return [(ids[: max_seq_len - 1], label) for ids, label in examples]


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
    """Full-batch Adam on BCE for a single linear layer."""
    rng = np.random.default_rng(seed)
    n, dim = features.shape
    w = ad.Tensor(rng.normal(0, 0.01, (dim, 1)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    x = ad.Tensor(features.astype(np.float32))
    y = labels.astype(np.float32)
    m = {id(w): 0.0, id(b): 0.0}
    v = {id(w): 0.0, id(b): 0.0}
    for t in range(1, FIT_EPOCHS + 1):
        w.grad = b.grad = None
        with ad.Tape() as tape:
            logits = ad.reshape(ad.matmul(x, w, b), (n,))
            loss = ad.sigmoid_bce(logits, y)
            tape.backward(loss)
        for p in (w, b):
            m[id(p)] = 0.9 * m[id(p)] + 0.1 * p.grad
            v[id(p)] = 0.999 * v[id(p)] + 0.001 * p.grad ** 2
            mh = m[id(p)] / (1 - 0.9 ** t)
            vh = v[id(p)] / (1 - 0.999 ** t)
            p.data = p.data - FIT_LR * mh / (np.sqrt(vh) + 1e-8)
    return w.data[:, 0], float(b.data[0])


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

