"""Binary sentence-classification probe on the discriminator's CLS slot.

Each sentence is encoded with a prepended CLS token; the discriminator runs
in eval mode and a single logistic layer is trained on the CLS hidden
state. With the encoder frozen this featurizes once and fits fast; the
fine-tune flag instead backprops into the discriminator as well.
"""

import logging

import numpy as np

from . import autodiff as ad
from .courses import pad_batch, TokenSequence
from .errors import InputError
from .vocab import CLS_ID

log = logging.getLogger(__name__)


def load_labeled_dataset(path, vocab, max_seq_len):
    """Read 'label<TAB>sentence' lines into (ids, label) pairs."""
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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


def _cls_sequences(examples):
    return [TokenSequence.from_ids([CLS_ID] + list(ids)) for ids, _ in examples]


def _featurize(model, examples, batch_size=64):
    """CLS hidden states from a frozen discriminator, eval mode."""
    feats = []
    seqs = _cls_sequences(examples)
    with ad.no_tape():
        for start in range(0, len(seqs), batch_size):
            ids, mask = pad_batch(seqs[start:start + batch_size])
            h = model.encode_discriminator(ids, mask, rng=None)
            feats.append(h.data[:, 0, :].copy())
    return np.concatenate(feats, axis=0)


def _fit_logistic(features, labels, seed, epochs=300, lr=0.05):
    """Full-batch Adam on BCE for a single linear layer."""
    rng = np.random.default_rng(seed)
    n, dim = features.shape
    w = ad.Tensor(rng.normal(0, 0.01, (dim, 1)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    x = ad.Tensor(features.astype(np.float32))
    y = labels.astype(np.float32)
    m = {id(w): 0.0, id(b): 0.0}
    v = {id(w): 0.0, id(b): 0.0}
    for t in range(1, epochs + 1):
        w.grad = b.grad = None
        with ad.Tape() as tape:
            logits = ad.reshape(ad.add(ad.matmul(x, w), b), (n,))
            loss = ad.sigmoid_bce(logits, y)
            tape.backward(loss)
        for p in (w, b):
            m[id(p)] = 0.9 * m[id(p)] + 0.1 * p.grad
            v[id(p)] = 0.999 * v[id(p)] + 0.001 * p.grad ** 2
            mh = m[id(p)] / (1 - 0.9 ** t)
            vh = v[id(p)] / (1 - 0.999 ** t)
            p.data = p.data - lr * mh / (np.sqrt(vh) + 1e-8)
    return w.data[:, 0], float(b.data[0])


def probe_train_eval(model, examples, seed=0, holdout_fraction=0.2, fine_tune=False):
    """Train the probe layer, return held-out accuracy.

    Splits deterministically under `seed`. A dataset with a single class
    cannot be probed and raises. `fine_tune=True` first runs two epochs of
    plain low-rate SGD on the discriminator, in place on the caller's model.
    """
    labels = np.asarray([label for _, label in examples], dtype=np.int64)
    if len(np.unique(labels)) < 2:
        raise InputError("probe dataset contains a single class")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    n_hold = max(1, int(len(examples) * holdout_fraction))
    hold, fit = order[:n_hold], order[n_hold:]
    if len(np.unique(labels[fit])) < 2:
        raise InputError("training split contains a single class")

    if fine_tune:
        _fine_tune_encoder(model, [examples[i] for i in fit], seed)

    features = _featurize(model, examples)
    w, b = _fit_logistic(features[fit], labels[fit], seed)
    predictions = (features[hold] @ w + b) >= 0.0
    return float((predictions == labels[hold].astype(bool)).mean())


def _fine_tune_encoder(model, examples, seed, epochs=2, lr=5e-5, batch_size=16):
    """Lightly adapt the discriminator with a temporary classifier head."""
    rng = np.random.default_rng(seed)
    dim = model.config.hidden_size
    w = ad.Tensor(rng.normal(0, 0.01, (dim, 1)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    seqs = _cls_sequences(examples)
    labels = np.asarray([label for _, label in examples], dtype=np.float32)
    params = list(model.named_parameters().values()) + [w, b]
    for _ in range(epochs):
        for start in range(0, len(seqs), batch_size):
            ids, mask = pad_batch(seqs[start:start + batch_size])
            y = labels[start:start + batch_size]
            for p in params:
                p.grad = None
            with ad.Tape() as tape:
                h = model.encode_discriminator(ids, mask, rng=None)
                cls = ad.gather_rows(h, np.arange(len(y)), np.zeros(len(y), dtype=np.int64))
                logits = ad.reshape(ad.add(ad.matmul(cls, w), b), (len(y),))
                loss = ad.sigmoid_bce(logits, y)
                tape.backward(loss)
            for p in params:
                if p.grad is not None:
                    p.data = p.data - np.float32(lr) * p.grad
