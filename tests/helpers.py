"""Shared oracles, the finite-difference gradient harness and malformed checkpoints.

Oracles are written first and stay independent of the code paths they
check: scalar loops, float64 arithmetic, no calls into the autodiff ops.
"""

import json
import math

import numpy as np

from multicourse import autodiff as ad
from multicourse import checkpoint


# -- scalar oracles -------------------------------------------------------------


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for kk in range(k):
                s += float(a[i, kk]) * float(b[kk, j])
            out[i, j] = s
    return out


def scalar_softmax_ce(logits, targets):
    """Mean -log softmax[target] by explicit exp/sum loops."""
    total = 0.0
    for row, t in zip(logits, targets):
        denom = sum(math.exp(float(z)) for z in row)
        total += -math.log(math.exp(float(row[t])) / denom)
    return total / len(targets)


def scalar_bce(logits, labels):
    """Mean -[y log s + (1-y) log(1-s)] evaluated scalar by scalar."""
    total = 0.0
    for z, y in zip(logits, labels):
        s = 1.0 / (1.0 + math.exp(-float(z)))
        total += -(y * math.log(s) + (1 - y) * math.log(1.0 - s))
    return total / len(logits)


def scalar_dot(u, v):
    return sum(float(a) * float(b) for a, b in zip(u, v))


# -- finite differences -----------------------------------------------------------


def relative_error(a, b, floor=1e-3):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_gradient(loss_fn, tensor, index, h=1e-3):
    """Central difference d loss / d tensor[index]; loss_fn() -> scalar Tensor."""
    original = tensor.data[index]
    tensor.data[index] = original + h
    hi = float(loss_fn().data)
    tensor.data[index] = original - h
    lo = float(loss_fn().data)
    tensor.data[index] = original
    return (hi - lo) / (2.0 * h)


def check_gradients(make_loss, tensors32, tensors64, coords, h=1e-3, rtol=1e-3, reference=None):
    """Analytic float32 grads vs float64-forward central differences.

    `make_loss(tensors)` builds the scalar loss from a dict of leaf
    tensors; `coords` is a list of (name, index) pairs to probe. The
    differences read `reference(tensors)` when given, else `make_loss`.
    """
    reference = reference or make_loss
    for t in tensors32.values():
        t.grad = None
    with ad.Tape() as tape:
        loss = make_loss(tensors32)
        tape.backward(loss)
    failures = []
    for name, index in coords:
        analytic = float(tensors32[name].grad[index])
        fd = fd_gradient(lambda: reference(tensors64), tensors64[name], index, h)
        err = relative_error(analytic, fd)
        if err > rtol:
            failures.append((name, index, analytic, fd, err))
    return failures


def float64_twin(tensors):
    """Float64 copies of a dict of float32 leaf tensors."""
    twins = {}
    for name, t in tensors.items():
        twin = ad.Tensor(t.data.astype(np.float64), requires_grad=t.requires_grad)
        twins[name] = twin
    return twins


def promote_model_to_float64(model):
    """In-place dtype promotion; ops are dtype-generic so forward follows."""
    for p in model.named_parameters().values():
        p.data = p.data.astype(np.float64)
    return model


# -- what a tape holds -----------------------------------------------------------------


def owned_closure_arrays(ops, inputs):
    """(dtype, shape) of each array that recorded ops hold, through their
    output gradient slots and through their backwards' closures and the
    tensors, slots, functions, lists and tuples those hold, one per block of
    memory, sorted. Views of an input (a tensor's data or an array) are left
    out."""
    arrays, seen = [], set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, ad.Tensor):
            walk(obj.data)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                walk(cell.cell_contents)
        elif hasattr(obj, "grad"):  # a gradient slot
            walk(obj.grad)

    for op in ops:
        walk(op.out)
        walk(op.backward)
    owned = []
    for a in arrays:
        held = [getattr(x, "data", x) for x in inputs] + owned
        if not any(np.shares_memory(a, b) for b in held):
            owned.append(a)
    return sorted((a.dtype.name, a.shape) for a in owned)


# -- malformed checkpoints ------------------------------------------------------------


def save_with_metadata(path, model, meta_bytes, monkeypatch):
    """A checkpoint of `model` whose metadata is `meta_bytes`, under the digest of those bytes."""
    with monkeypatch.context() as m:
        m.setattr(checkpoint, "_meta_bytes", lambda config, tokens: meta_bytes)
        checkpoint.save_checkpoint(path, model)


def bad_metadata(model, tokens):
    """Metadata bytes that pass the digest check but describe no checkpoint."""
    good = {"encoder": model.config.to_dict(), "vocab": list(tokens)}
    return {
        "extra_encoder_field": json.dumps({**good, "encoder": {**good["encoder"], "depth": 3}}).encode(),
        "missing_vocab": json.dumps({"encoder": good["encoder"]}).encode(),
        "not_json": b"encoder: 16",
        "vocab_number": json.dumps({**good, "vocab": 5}).encode(),
        "vocab_of_numbers": json.dumps({**good, "vocab": ["[PAD]", 3]}).encode(),
    }
