"""Dense-tensor arithmetic with tape-based reverse-mode autodiff.

Float32 by default. A Tape records every differentiable op in execution
order (which is already topological); backward walks the list once in
reverse. No tape active means forward-only: that is how detached passes
(sampling, metrics) are run.

A tensor's gradient lives apart from its values, in a small slot
(`_GradSlot`). An op's backward captures the arrays it reads and the slot of
each input it sends a gradient to, never a tensor, and the tape keeps each
output's slot, never the output. So a value lives while a backward reads it:
once the forward code lets go of a tensor, its values are freed unless some
recorded backward reads them, as matmul reads its operands.

A tape runs backward once. Backward takes each op's output gradient off its
slot as the op consumes it, so afterwards only leaves hold a `.grad`: the
parameters, and any tensor that no recorded op produced.

Every last-axis row reduction of softmax, layer norm and cross-entropy is one
numpy call over all rows, where numpy would reduce a short axis row by row:
`_row_max` is an exact `np.maximum.reduceat`, and `_row_sum` a matrix-vector
product with ones, which rounds unlike a pairwise `sum(axis=-1)`.

`ffn` and `add_layer_norm` record their chain of these ops on the active
tape, op by op. `attention` takes packed query, key and value rows and
builds each group's padded grids inside itself, so no op moves rows into
or out of a grid.
"""

import numpy as np

from .errors import ContractError, DimensionError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
_LAYER_NORM_EPS = 1e-5  # added to each row's variance before layer norm's 1/sqrt
_GELU_BLOCK = 1 << 16  # elements per slice of gelu's chain: its temporaries fit in L2
# erf(x) ~ x * P(x^2) / Q(x^2) on [-4, 4], coefficients highest power first
# (the float32 fit Eigen and XLA use); beyond +-4, erf rounds to +-1 in float32.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


class _GradSlot:
    """Where a tensor's gradient collects, apart from its values: the
    gradient (None until one arrives) and the shape it must have, fixed when
    the tensor is made."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape):
        self.grad = None
        self.shape = shape

    def accumulate(self, g):
        if g.shape != self.shape:
            raise DimensionError(f"grad shape {g.shape} != tensor shape {self.shape}")
        if self.grad is None:
            # safe to alias: gradients are never mutated in place
            self.grad = g
        else:
            self.grad = self.grad + g


class Tensor:
    """A dense array plus the slot its gradient collects in."""

    __slots__ = ("data", "grad_slot", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad_slot = _GradSlot(arr.shape)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self):
        return self.grad_slot.grad

    @grad.setter
    def grad(self, g):
        self.grad_slot.grad = g

    def accumulate_grad(self, g):
        self.grad_slot.accumulate(g)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _slot(t):
    """The slot a backward sends t's gradient to; None when t needs none."""
    return t.grad_slot if t.requires_grad else None


class _TapeOp:
    """One recorded op: its output's gradient slot and its backward."""

    __slots__ = ("out", "backward")

    def __init__(self, out, backward):
        self.out = out
        self.backward = backward


_TAPE_STACK = []


class Tape:
    """Execution-ordered record of ops; confined to one training thread."""

    def __init__(self):
        self.ops = []
        self._spent = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise ContractError("a tape must exit before the tapes entered after it")
        _TAPE_STACK.pop()
        return False

    def backward(self, loss):
        """Seed d(loss)/d(loss)=1 and propagate through the tape in reverse.

        Each recorded op is visited exactly once; ops that did not
        contribute to `loss` carry no gradient and are skipped. An op's
        output gradient is taken off its slot before the op uses it, so a
        gradient lives from its first consumer's backward until its
        producer's, and only leaves keep theirs. A second backward on the
        same tape raises ContractError: it would add every gradient again.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._spent:
            raise ContractError("this tape has already run backward")
        self._spent = True
        loss.accumulate_grad(np.ones_like(loss.data))
        for op in reversed(self.ops):
            g, op.out.grad = op.out.grad, None
            if g is not None:
                op.backward(g)


class _NoTape:
    """Suspends recording inside an enclosing Tape (detached forward passes)."""

    def __enter__(self):
        _TAPE_STACK.append(None)
        return None

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


def no_tape():
    return _NoTape()


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out, backward):
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.ops.append(_TapeOp(out.grad_slot, backward))


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def constant(value, dtype=np.float32):
    return Tensor(np.asarray(value, dtype=dtype))


def add(a, b):
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)
    ga, gb = _slot(a), _slot(b)

    def backward(g):
        if ga is not None:
            ga.accumulate(_unbroadcast(g, ga.shape))
        if gb is not None:
            gb.accumulate(_unbroadcast(g, gb.shape))

    _record(out, backward)
    return out


def mul(a, b):
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)
    ga, gb = _slot(a), _slot(b)
    # each side's gradient reads the other side's values
    x, y = (a.data if gb is not None else None), (b.data if ga is not None else None)

    def backward(g):
        if ga is not None:
            ga.accumulate(_unbroadcast(g * y, ga.shape))
        if gb is not None:
            gb.accumulate(_unbroadcast(g * x, gb.shape))

    _record(out, backward)
    return out


def scale(a, s):
    s = a.data.dtype.type(s)
    out = Tensor(a.data * s, a.requires_grad)
    ga = a.grad_slot

    def backward(g):
        ga.accumulate(g * s)

    _record(out, backward)
    return out


def matmul(a, b, bias=None):
    """a @ b, plus `bias` broadcast over the product's last axis when given.

    A 2-D `b` folds the leading axes of `a` into one 2-D product, forward and
    backward, and adds the bias in place on it; two batched operands broadcast
    as numpy does and take no bias."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    if b.data.ndim > 2:
        if bias is not None:
            raise ContractError("a matmul bias needs a 2-D right operand")
        return _batched_matmul(a, b)
    a2 = a.data.reshape(-1, a.data.shape[-1])
    y = a2 @ b.data
    if bias is not None:
        y += bias.data
    ga, gb, g_bias = _slot(a), _slot(b), None if bias is None else _slot(bias)
    out = Tensor(y.reshape(a.data.shape[:-1] + b.data.shape[-1:]),
                 ga is not None or gb is not None or g_bias is not None)
    # each operand's gradient reads the other operand's values
    a2, b2 = (a2 if gb is not None else None), (b.data if ga is not None else None)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if ga is not None:
            ga.accumulate((g2 @ b2.T).reshape(ga.shape))
        if gb is not None:
            gb.accumulate(a2.T @ g2)
        if g_bias is not None:
            g_bias.accumulate(_unbroadcast(g, g_bias.shape))

    _record(out, backward)
    return out


def _batched_matmul(a, b):
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)
    ga, gb = _slot(a), _slot(b)
    a_t = a.data.swapaxes(-1, -2) if gb is not None else None
    b_t = b.data.swapaxes(-1, -2) if ga is not None else None

    def backward(g):
        if ga is not None:
            ga.accumulate(_unbroadcast(g @ b_t, ga.shape))
        if gb is not None:
            gb.accumulate(_unbroadcast(a_t @ g, gb.shape))

    _record(out, backward)
    return out


def transpose(a, axes):
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes), a.requires_grad)
    inverse = tuple(np.argsort(axes))
    ga = a.grad_slot

    def backward(g):
        ga.accumulate(g.transpose(inverse))

    _record(out, backward)
    return out


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), a.requires_grad)
    ga = a.grad_slot

    def backward(g):
        ga.accumulate(g.reshape(ga.shape))

    _record(out, backward)
    return out


def embedding(table, ids):
    """Gather rows of `table` by an integer index array of any shape.

    The backward sorts the flat ids (stably), sums each run of equal ids'
    gradient rows with `np.add.reduceat` and writes the sums into a zero
    table with one assignment; rows no id names get an exact-zero gradient.
    """
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], table.requires_grad)
    gt, dtype = table.grad_slot, table.data.dtype

    def backward(g):
        acc = np.zeros(gt.shape, dtype)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            srt = flat[order]
            starts = np.flatnonzero(np.concatenate(([True], srt[1:] != srt[:-1])))
            rows = g.reshape((-1,) + gt.shape[1:])[order]
            acc[srt[starts]] = np.add.reduceat(rows, starts, axis=0)
        gt.accumulate(acc)

    _record(out, backward)
    return out


def relative_bias(table, buckets):
    """Per-head bias table[buckets[..., q, k], h] of an (n_buckets, H) table,
    laid out (..., H, q, k): the head axis goes before the bucket ids' last
    two axes, as attention scores hold it. The backward sums each head's
    gradient into its table column with one `np.bincount`."""
    buckets = np.asarray(buckets)
    if buckets.ndim < 2:
        raise DimensionError(f"relative_bias needs (..., q, k) bucket ids, got {buckets.shape}")
    # np.take copies whole (H,) rows, far faster here than fancy indexing
    out = Tensor(np.ascontiguousarray(np.moveaxis(np.take(table.data, buckets, axis=0), -1, -3)),
                 table.requires_grad)
    gt, dtype = table.grad_slot, table.data.dtype

    def backward(g):
        flat = buckets.reshape(-1)
        acc = np.empty(gt.shape, dtype)
        for h in range(acc.shape[1]):
            acc[:, h] = np.bincount(flat, weights=g[..., h, :, :].reshape(-1), minlength=acc.shape[0])
        gt.accumulate(acc)

    _record(out, backward)
    return out


def _row_index(index, n_rows):
    """An int64 index of strictly increasing rows in [0, n_rows); any other raises."""
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or (index[1:] <= index[:-1]).any():
        raise ContractError("a row index must be strictly increasing")
    if index.size and (index[0] < 0 or index[-1] >= n_rows):
        raise ContractError(f"row index {index[0]}..{index[-1]} outside [0, {n_rows})")
    return index


def gather_rows(x, index):
    """Rows index[k] of x, along its first axis. The rows must be strictly
    increasing (ContractError otherwise), so the backward adds their gradient
    into x's with one indexed add. Every row is x itself, and records no op."""
    index = _row_index(index, x.data.shape[0])
    if index.size == x.data.shape[0]:
        return x
    out = Tensor(x.data[index], x.requires_grad)
    gx, dtype = x.grad_slot, x.data.dtype

    def backward(g):
        if gx.grad is None:
            acc = np.zeros(gx.shape, dtype)
            acc[index] = g
        else:  # into a copy: the gradient x holds may alias another's
            acc = gx.grad.copy()
            acc[index] += g
        gx.grad = acc

    _record(out, backward)
    return out


def _row_max(x):
    """x.max(axis=-1, keepdims=True), bit for bit (max is exact in any order),
    as one reduceat over the flat rows."""
    w = x.shape[-1]
    flat = x.reshape(-1)
    return np.maximum.reduceat(flat, np.arange(0, flat.size, w)).reshape(*x.shape[:-1], 1)


def _row_sum(x):
    """Each last-axis row's sum, keepdims, as one matrix-vector product with
    ones: within w * eps * sum|x| of the exact sum for width w."""
    w = x.shape[-1]
    return (x.reshape(-1, w) @ np.ones(w, x.dtype)).reshape(*x.shape[:-1], 1)


def _softmax_grad(g, p, out=None):
    """The gradient (g - sum(g * p)) * p reaching a softmax's input from the
    gradient g of its output p, written into `out` when given (it may be g)."""
    dot = _row_sum(g * p)
    gx = np.subtract(g, dot, out=out)
    gx *= p
    return gx


def softmax(x, bias=None):
    """Row softmax over the last axis, shift-stabilized by the row's exact max
    and normalized by its `_row_sum`. A constant `bias` array (no gradient),
    broadcast against x, is added into the output buffer first: a large
    negative bias, such as a key-padding mask, gives its entries an
    exact-zero probability and gradient."""
    if bias is None:
        s = x.data - _row_max(x.data)
    else:
        s = x.data + bias
        s -= _row_max(s)
    np.exp(s, out=s)
    s /= _row_sum(s)
    out = Tensor(s, x.requires_grad)
    gx = x.grad_slot

    def backward(g):
        gx.accumulate(_softmax_grad(g, s))

    _record(out, backward)
    return out


def _horner(coeffs, x2):
    acc = x2 * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= x2
    acc += coeffs[-1]
    return acc


def _erf(x):
    """Rational erf in the dtype of `x`; a new array."""
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    out = _horner(_ERF_P, x2)
    out *= x
    out /= _horner(_ERF_Q, x2)
    return out


def _gelu_slope(u, cdf):
    """GELU's derivative Phi(u) + u * phi(u) from u and Phi(u), with the
    exact normal density phi; a new array."""
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return cdf + u * pdf


def gelu(x):
    """Erf-based GELU, x * Phi(x). Its erf is a rational fit whose largest
    absolute error against the exact erf is below 5e-7 in float32 and 1e-7 in
    float64 (tests/test_autodiff.py pins both); the backward pass uses the
    exact normal density. When a tape records the op, it computes the
    derivative in forward and keeps it for its backward, which reads x only
    to hand it its gradient; otherwise it computes no derivative.

    The chain runs over flat slices of _GELU_BLOCK elements, so its
    temporaries stay in cache; being elementwise, it gives the whole-array
    chain's values bit for bit."""
    u = x.data.reshape(-1)
    y = np.empty_like(u)
    taped = _active_tape() is not None and x.requires_grad
    slope = np.empty_like(u) if taped else None
    for i in range(0, u.size, _GELU_BLOCK):
        block = slice(i, i + _GELU_BLOCK)
        cdf = _erf(u[block] * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5
        np.multiply(u[block], cdf, out=y[block])
        if taped:
            slope[block] = _gelu_slope(u[block], cdf)
    out = Tensor(y.reshape(x.data.shape), x.requires_grad)
    if not taped:
        return out  # nothing records the op, so nothing reads the derivative
    slope = slope.reshape(x.data.shape)
    gx = x.grad_slot

    def backward(g):
        gx.accumulate(g * slope)

    _record(out, backward)
    return out


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then gain*x+bias.
    Every row mean, forward and backward, is its `_row_sum` divided by the
    width; the variance is the mean square of the centred row."""
    h = x.data.shape[-1]
    xhat = x.data - _row_sum(x.data) / h
    var = _row_sum(xhat * xhat) / h
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(_LAYER_NORM_EPS))
    xhat *= inv
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y, x.requires_grad or gain.requires_grad or bias.requires_grad)
    g_x, g_gain, g_bias, gain_data = _slot(x), _slot(gain), _slot(bias), gain.data

    def backward(g):
        if g_gain is not None:
            g_gain.accumulate(_unbroadcast(g * xhat, g_gain.shape))
        if g_bias is not None:
            g_bias.accumulate(_unbroadcast(g, g_bias.shape))
        if g_x is not None:
            gx = g * gain_data
            mean_gx_xhat = _row_sum(gx * xhat) / h
            gx -= _row_sum(gx) / h
            gx -= xhat * mean_gx_xhat
            gx *= inv
            g_x.accumulate(gx)

    _record(out, backward)
    return out


def ffn(x, w1, b1, w2, b2):
    """The feed-forward block gelu(x @ w1 + b1) @ w2 + b2.

    It records `matmul`, `gelu` and `matmul` on the tape, so its arithmetic
    is theirs. A value lives while a backward reads it: `gelu` keeps its
    derivative instead of its input, so the GELU input is freed, and the
    backward keeps two (rows, ffn) arrays, the GELU output and its
    derivative. Off the tape it computes no derivative.
    """
    return matmul(gelu(matmul(x, w1, b1)), w2, b2)


def add_layer_norm(x, y, gain, bias, rate, rng):
    """layer_norm(x + dropout(y, rate, rng), gain, bias) for same-shape x and
    y: a sublayer's residual add and layer norm.

    It records `dropout`, `add` and `layer_norm` on the tape, so its
    arithmetic and its dropout draw are theirs. A value lives while a
    backward reads it, and no backward reads the dropped y or the sum, so
    both are freed and the backward keeps the normalized rows, 1/sigma and
    the bool keep mask.
    """
    if x.data.shape != y.data.shape:
        raise DimensionError(f"add_layer_norm shapes differ: {x.data.shape} and {y.data.shape}")
    return layer_norm(add(x, dropout(y, rate, rng)), gain, bias)


def dropout(x, rate, rng):
    """Inverted dropout; identity when rate=0 or rng=None.

    Each element draws a uniform 16-bit integer from `rng` and is kept when
    the draw is at least cut = min(round(rate * 65536), 65535); kept elements
    are scaled by 1 / (1 - rate). So the drop rate is cut / 65536, a multiple
    of 1/65536 (0.1 drops 0.100006 of the elements), and a rate just below 1
    still keeps 1/65536 of them. The mask is stored as bool.
    """
    if rng is None or rate == 0.0:
        return x
    keep = _keep_mask(x.data.shape, rate, rng)
    s = x.data.dtype.type(1.0 / (1.0 - rate))
    out = Tensor(_dropped(x.data, keep, s), x.requires_grad)
    gx = x.grad_slot

    def backward(g):
        gx.accumulate(_dropped(g, keep, s))

    _record(out, backward)
    return out


def _keep_mask(shape, rate, rng):
    """Dropout's bool keep mask: a uniform 16-bit draw per element from `rng`,
    kept when at least cut = min(round(rate * 65536), 65535)."""
    cut = min(round(rate * 65536), 65535)
    return rng.integers(0, 65536, shape, dtype=np.uint16) >= cut


def _dropped(x, keep, s, out=None):
    """x * s with the dropped elements zeroed, written into `out` when given
    (it may be x); the same arithmetic maps a gradient back through dropout."""
    y = np.multiply(x, s, out=out)
    y *= keep
    return y


def attention(q, k, v, layouts, heads, rate, rng):
    """Multi-head scaled dot-product attention of packed query rows q against
    packed key and value rows k and v, each (rows, h), with additive biases
    and attention dropout, as one tape op.

    Each layout (kv_rows, kv_cells, q_rows, q_cells, bias, pad_bias) is one
    group: rows kv_rows of k and v fill cells kv_cells of zero (g, w) grids,
    and rows q_rows of q cells q_cells of a zero (g, r) grid. Each index is
    strictly increasing, and no row is in two layouts (ContractError
    otherwise). The constant array `pad_bias`, (g, 1, 1, w) in q's dtype,
    gives g and w; the tensor `bias`, (heads, r, w) or (g, heads, r, w),
    gives r. The queries are scaled by 1 / sqrt(h / heads), `bias` is added
    in place to the (g, heads, r, w) scores, and `softmax` adds `pad_bias`
    into its own buffer: a large negative `pad_bias` at a padded key gives
    it an exact-zero probability and gradient. Dropout draws `dropout`'s
    16-bit mask, group by group. Context row i is query row i's; a row that
    no layout names gets zeros.

    The op keeps each group's grids, softmax and bool keep mask for its
    backward. Its arithmetic is that of placing the rows by 0/1 matmuls and
    chaining `scale`, `reshape`, `transpose`, batched `matmul`, `add`,
    `softmax` and `dropout`, in the same order, so both give the same bits.
    """
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.shape != k.data.shape
            or q.data.shape[1] != k.data.shape[1] or heads < 1 or k.data.shape[1] % heads):
        raise DimensionError(f"attention shapes incompatible: q {q.data.shape}, k {k.data.shape}, "
                             f"v {v.data.shape}, {heads} heads")
    h = q.data.shape[1]
    dh = h // heads
    s = q.data.dtype.type(1.0 / np.sqrt(dh))
    d = q.data.dtype.type(1.0 / (1.0 - rate)) if rng is not None and rate != 0.0 else None

    def grid(x, rows, cells, n):  # rows of x in cells of an (n, h) zero grid
        out = np.zeros((n, h), dtype=x.dtype)
        out[cells] = x if rows.size == len(x) else x[rows]  # every row: x itself
        return out

    def split(x, g, n):  # (g * n, h) data as (g, heads, n, dh) views
        return x.reshape(g, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # the inverse of split, into a new array
        return x.transpose(0, 2, 1, 3).reshape(-1, h)

    out = np.zeros_like(q.data)
    q_taken, kv_taken = np.zeros(len(q.data), dtype=bool), np.zeros(len(k.data), dtype=bool)
    groups = []
    for kv_rows, kv_cells, q_rows, q_cells, bias, pad_bias in layouts:
        g, w = pad_bias.shape[0], pad_bias.shape[-1]
        r = bias.data.shape[-2] if bias.data.ndim > 1 else -1
        if pad_bias.shape != (g, 1, 1, w) or bias.data.shape not in ((heads, r, w), (g, heads, r, w)):
            raise DimensionError(f"attention bias {bias.data.shape} and key padding "
                                 f"{pad_bias.shape} do not fit {heads} heads")
        kv_rows, q_rows = _row_index(kv_rows, len(k.data)), _row_index(q_rows, len(q.data))
        kv_cells, q_cells = _row_index(kv_cells, g * w), _row_index(q_cells, g * r)
        if kv_rows.size != kv_cells.size or q_rows.size != q_cells.size:
            raise ContractError(f"{kv_rows.size} key rows for {kv_cells.size} cells, "
                                f"{q_rows.size} query rows for {q_cells.size} cells")
        if q_taken[q_rows].any() or kv_taken[kv_rows].any():
            raise ContractError("two attention layouts name one row")
        q_taken[q_rows] = kv_taken[kv_rows] = True
        qg = grid(q.data, q_rows, q_cells, g * r)
        qg *= s
        qh = split(qg, g, r)
        kh = split(grid(k.data, kv_rows, kv_cells, g * w), g, w)
        vh = split(grid(v.data, kv_rows, kv_cells, g * w), g, w)
        p = qh @ kh.swapaxes(-1, -2)
        p += bias.data
        # the public op on an untaped tensor, so a trace that wraps autodiff's ops
        # still times every attention softmax; its new buffer replaces the scores
        p = softmax(Tensor(p), pad_bias).data
        keep = None if d is None else _keep_mask(p.shape, rate, rng)
        attn = p if keep is None else _dropped(p, keep, d)
        out[q_rows] = merge(attn @ vh)[q_cells]
        groups.append((kv_rows, kv_cells, q_rows, q_cells, _slot(bias), g, r, qh, kh, vh, p, keep))
    slots = [_slot(x) for x in (q, k, v)]
    out = Tensor(out, any(slot is not None for slot in slots)
                 or any(group[4] is not None for group in groups))
    dtype = q.data.dtype

    def backward(grad):
        gq, gk, gv = (None if slot is None else np.zeros(slot.shape, dtype) for slot in slots)
        for kv_rows, kv_cells, q_rows, q_cells, g_bias, g, r, qh, kh, vh, p, keep in groups:
            gc = split(grid(grad, q_rows, q_cells, g * r), g, r)
            if gv is not None:
                attn = p if keep is None else _dropped(p, keep, d)
                gv[kv_rows] = merge(attn.swapaxes(-1, -2) @ gc)[kv_cells]
                del attn  # one grid-sized array at a time beside the softmax
            if gq is None and gk is None and g_bias is None:
                continue
            gs = gc @ vh.swapaxes(-1, -2)
            if keep is not None:
                _dropped(gs, keep, d, out=gs)
            _softmax_grad(gs, p, out=gs)
            if g_bias is not None:
                g_bias.accumulate(_unbroadcast(gs, g_bias.shape))
            if gq is not None:
                gq[q_rows] = merge(gs @ kh)[q_cells] * s
            if gk is not None:
                gk[kv_rows] = (qh.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2).reshape(-1, h)[kv_cells]
        for slot, gx in zip(slots, (gq, gk, gv)):
            if gx is not None:
                slot.accumulate(gx)

    _record(out, backward)
    return out


def tensor_sum(x):
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype), x.requires_grad)
    gx, dtype = x.grad_slot, x.data.dtype

    def backward(g):
        gx.accumulate(np.broadcast_to(g, gx.shape).astype(dtype))

    _record(out, backward)
    return out


def softmax_cross_entropy(logits, targets):
    """Mean over rows of -log softmax(logits)[target].

    The logits are 2-D with one row per target (DimensionError otherwise).
    An empty target list yields an exact-zero constant with no gradient.
    Each row's log-sum-exp, and the backward's softmax, shift by the row's
    exact max and sum by `_row_sum`.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != logits.data.shape[:1]:
        raise DimensionError(f"targets shape {targets.shape} needs logits of one row per "
                             f"target, got {logits.data.shape}")
    n = targets.shape[0]
    if n == 0:
        return constant(0.0, dtype=logits.data.dtype)
    vocab = logits.data.shape[-1]
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError(f"target id outside [0, {vocab})")
    z = logits.data
    m = _row_max(z)
    lse = m[:, 0] + np.log(_row_sum(np.exp(z - m))[:, 0])
    rows = np.arange(n)
    losses = lse - z[rows, targets]
    out = Tensor(np.asarray(losses.mean(), dtype=z.dtype), logits.requires_grad)
    gz = logits.grad_slot

    def backward(g):
        soft = np.exp(z - m)
        soft /= _row_sum(soft)
        soft[rows, targets] -= 1.0
        gz.accumulate(g * soft / z.dtype.type(n))

    _record(out, backward)
    return out


def sigmoid_bce(logits, labels):
    """Mean binary cross-entropy with logits over every element.

    Uses the stable form max(z,0) - y*z + log1p(exp(-|z|)). The labels must
    have the logits' shape; empty logits give an exact-zero loss with no
    gradient.
    """
    y = np.asarray(labels, dtype=logits.data.dtype)
    if y.shape != logits.data.shape:
        raise DimensionError(f"labels shape {y.shape} != logits shape {logits.data.shape}")
    if y.size == 0:
        return constant(0.0, dtype=logits.data.dtype)
    z = logits.data
    losses = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(np.asarray(losses.mean(), dtype=z.dtype), logits.requires_grad)
    gz = logits.grad_slot

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        gz.accumulate(g * (sig - y) / z.dtype.type(z.size))

    _record(out, backward)
    return out


def add_n(tensors):
    """Sum a non-empty list of same-shape tensors pairwise left to right."""
    total = tensors[0]
    for t in tensors[1:]:
        total = add(total, t)
    return total
