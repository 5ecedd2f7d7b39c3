import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf as exact_erf
from scipy.special import logsumexp, softmax

from multicourse import autodiff as ad
from multicourse.encoder import NUM_REL_BUCKETS, _bucket_matrix
from multicourse.errors import ContractError, DimensionError

from helpers import (
    check_gradients,
    fd_gradient,
    float64_twin,
    owned_closure_arrays,
    scalar_bce,
    scalar_softmax_ce,
    triple_loop_matmul,
)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def t(data, grad=True):
    return ad.Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


# -- matmul -----------------------------------------------------------------


def test_matmul_identity():
    out = ad.matmul(t(np.eye(2)), t([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])


def test_matmul_orthogonal_rows():
    out = ad.matmul(t([[1.0, 0.0]]), t([[0.0], [5.0]]))
    np.testing.assert_allclose(out.data, [[0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    out = ad.matmul(t(a), t(b))
    oracle = triple_loop_matmul(a, b)
    assert np.abs(out.data - oracle).max() < 1e-6
    # frozen from the triple-loop oracle run at this seed
    np.testing.assert_allclose(
        out.data,
        [[0.6368871898851176, 0.4705869902113864],
         [-0.9682714087528002, -1.187129566171948],
         [0.6076148379026907, -0.1679961924606932]],
        atol=1e-6,
    )


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_batched_broadcast_gradients():
    # a 2-D b takes the folded path; a batched b broadcasts over a's batch axis
    for b_shape in [(4, 5), (1, 4, 5)]:
        tensors = {
            "a": t(np.random.default_rng(0).normal(size=(2, 3, 4))),
            "b": t(np.random.default_rng(1).normal(size=b_shape)),
        }

        def make_loss(ts):
            return ad.tensor_sum(ad.mul(ad.matmul(ts["a"], ts["b"]), ts["a_like"]))

        # weight the sum so gradients are non-uniform
        weights = np.random.default_rng(2).normal(size=(2, 3, 5))
        tensors["a_like"] = ad.Tensor(weights.astype(np.float32))
        twins = float64_twin(tensors)
        b_end = (0,) * (len(b_shape) - 2)
        coords = [("a", (0, 1, 2)), ("a", (1, 2, 3)), ("b", b_end + (0, 0)), ("b", b_end + (3, 4))]
        assert check_gradients(make_loss, tensors, twins, coords) == [], b_shape


@pytest.mark.parametrize("a_shape, strided, a_grad, b_grad", [
    ((2, 2, 3, 4), False, True, True),
    ((2, 3, 4), True, True, True),
    ((2, 3, 4), False, False, True),
    ((2, 3, 4), False, True, False),
], ids=["4d", "strided", "a_frozen", "b_frozen"])
def test_folded_matmul_matches_numpy_and_finite_differences(a_shape, strided, a_grad, b_grad):
    rng = np.random.default_rng(3)
    a = rng.normal(size=a_shape).astype(np.float32)
    if strided:
        a = np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)
        assert not a.flags.c_contiguous
    b = rng.normal(size=(4, 5)).astype(np.float32)
    tensors = {"a": ad.Tensor(a, requires_grad=a_grad), "b": ad.Tensor(b, requires_grad=b_grad),
               "w": ad.Tensor(rng.normal(size=a_shape[:-1] + (5,)).astype(np.float32))}
    np.testing.assert_allclose(ad.matmul(tensors["a"], tensors["b"]).data, np.matmul(a, b),
                               rtol=1e-5, atol=1e-6)

    def make_loss(ts):
        return ad.tensor_sum(ad.mul(ad.matmul(ts["a"], ts["b"]), ts["w"]))

    coords = [(name, tuple(int(rng.integers(s)) for s in tensors[name].shape))
              for name in ("a", "b") if tensors[name].requires_grad for _ in range(4)]
    assert check_gradients(make_loss, tensors, float64_twin(tensors), coords) == []
    for name in ("a", "b"):
        assert (tensors[name].grad is None) != tensors[name].requires_grad


# -- fused losses -----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = t(np.zeros((1, 4)))
    loss = ad.softmax_cross_entropy(logits, [1])
    assert abs(float(loss.data) - LN4) < 1e-6


def test_cross_entropy_saturated_margin():
    row = np.zeros((1, 4), dtype=np.float32)
    row[0, 2] = 30.0
    loss = ad.softmax_cross_entropy(t(row), [2])
    assert float(loss.data) < 1e-9


def test_cross_entropy_matches_scalar_enumeration():
    logits = [[0.3, -1.2, 0.7], [2.0, 0.1, -0.5]]
    targets = [2, 0]
    loss = ad.softmax_cross_entropy(t(logits), targets)
    assert abs(float(loss.data) - scalar_softmax_ce(logits, targets)) < 1e-6
    assert abs(float(loss.data) - 0.4035664987586196) < 1e-6  # frozen oracle value


def test_cross_entropy_rejects_out_of_range_target():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(t(np.zeros((2, 3))), [0, 3])


@pytest.mark.parametrize("shape, targets", [((3, 4), [1]), ((1, 4), [1, 2]), ((2, 4), []),
                                             ((4,), [1]), ((1, 1, 4), [1])],
                         ids=["more_rows", "fewer_rows", "rows_for_no_target", "1d", "3d"])
def test_cross_entropy_refuses_logits_without_one_row_per_target(shape, targets):
    with pytest.raises(DimensionError):
        ad.softmax_cross_entropy(t(np.arange(np.prod(shape), dtype=np.float32).reshape(shape)),
                                 targets)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = t([[0.2, -0.4, 1.1]])
    with ad.Tape() as tape:
        loss = ad.softmax_cross_entropy(logits, [0])
        tape.backward(loss)
    z = logits.data[0]
    soft = np.exp(z - z.max())
    soft /= soft.sum()
    expected = soft.copy()
    expected[0] -= 1.0
    np.testing.assert_allclose(logits.grad[0], expected, rtol=1e-5)


def test_bce_logit_zero_is_ln2():
    for label in (0.0, 1.0):
        loss = ad.sigmoid_bce(t([0.0]), [label])
        assert abs(float(loss.data) - LN2) < 1e-6


def test_bce_saturated():
    loss = ad.sigmoid_bce(t([30.0]), [1.0])
    assert float(loss.data) < 1e-9


def test_bce_matches_scalar_oracle():
    zs = [0.5, -1.5, 2.0, -0.3, 0.9]
    ys = [1, 0, 1, 1, 0]
    loss = ad.sigmoid_bce(t(zs), ys)
    assert abs(float(loss.data) - scalar_bce(zs, ys)) < 1e-7
    assert abs(float(loss.data) - 0.5795854784812893) < 1e-7  # frozen oracle value


def test_bce_empty_positions_is_exact_zero():
    logits = t(np.zeros(0))
    with ad.Tape() as tape:
        loss = ad.sigmoid_bce(logits, [])
        total = ad.add(loss, ad.tensor_sum(ad.scale(logits, 0.0)))
        tape.backward(total)
    assert float(loss.data) == 0.0
    assert logits.grad is None or np.all(logits.grad == 0.0)


def test_bce_labels_must_match_logits_shape():
    with pytest.raises(DimensionError):
        ad.sigmoid_bce(t([0.5, -1.5, 2.0]), [1.0, 0.0])
    with pytest.raises(DimensionError):
        ad.sigmoid_bce(t(np.zeros((2, 2))), [1.0, 0.0, 1.0, 0.0])


def test_bce_no_naive_sigmoid_blowup():
    # the naive sigma-then-log form would produce inf at |z| = 500
    loss = ad.sigmoid_bce(t([500.0, -500.0]), [0.0, 1.0])
    assert np.isfinite(float(loss.data))
    assert abs(float(loss.data) - 500.0) < 1e-3


# -- backward contracts -------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = t([1.0, 2.0, 3.0])
    with ad.Tape() as tape:
        tape.backward(ad.tensor_sum(x))
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_of_half_square_is_x():
    x = t([1.0, -2.0, 3.0])
    with ad.Tape() as tape:
        tape.backward(ad.scale(ad.tensor_sum(ad.mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, x.data)


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0])
    with ad.Tape() as tape:
        y = ad.scale(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_double_use_accumulates_both_paths():
    x = t([1.0, 2.0])
    with ad.Tape() as tape:
        # loss = sum(x) + sum(3x): grad should be 1 + 3
        loss = ad.add(ad.tensor_sum(x), ad.tensor_sum(ad.scale(x, 3.0)))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 4.0])


def test_no_tape_means_no_recording():
    x = t([1.0, 2.0])
    with ad.Tape() as tape:
        with ad.no_tape():
            ad.tensor_sum(ad.mul(x, x))
        assert tape.ops == []


def test_backward_leaves_a_grad_only_on_leaves():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(4, 3)))
    w = t(rng.normal(size=(3, 3)))
    gain, bias = t(np.ones(3)), t(np.zeros(3))
    frozen = t(rng.normal(size=(4, 3)), grad=False)
    with ad.no_tape():
        detached = ad.scale(x, 2.0)  # requires a gradient, but no recorded op made it
    with ad.Tape() as tape:
        h = ad.layer_norm(ad.gelu(ad.matmul(ad.add(x, detached), w)), gain, bias)
        loss = ad.tensor_sum(ad.mul(h, frozen))
        tape.backward(loss)
    assert len(tape.ops) == 6
    assert all(op.out.grad is None for op in tape.ops)
    for leaf in (x, w, gain, bias, detached):
        assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape
    assert frozen.grad is None


def test_a_tape_runs_backward_once():
    x = t([1.0, 2.0])
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.scale(x, 3.0))
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_a_tape_exiting_out_of_order_is_refused():
    outer, inner = ad.Tape(), ad.Tape()
    with outer:
        inner.__enter__()
        with pytest.raises(ContractError):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)  # the stack is untouched: unwind it in order
    assert ad._active_tape() is None


def test_backward_memory_stays_within_a_few_layer_arrays():
    # 24 x (matmul -> gelu -> layer_norm) on (256, 64): kept, the intermediate
    # gradients would be 72 such arrays; dropped, only the parameter gradients
    # grow and a few arrays are in flight at once
    rng = np.random.default_rng(6)
    x = t(rng.normal(size=(256, 64)))
    layers = [(t(rng.normal(scale=0.125, size=(64, 64))), t(np.ones(64)), t(np.zeros(64)))
              for _ in range(24)]
    one_array = x.data.nbytes
    param_bytes = sum(p.data.nbytes for layer in layers for p in layer)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            h = x
            for w, gain, bias in layers:
                h = ad.layer_norm(ad.gelu(ad.matmul(h, w)), gain, bias)
            loss = ad.tensor_sum(h)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start - param_bytes < 6 * one_array


def test_a_taped_chain_holds_only_what_its_backwards_read():
    # 24 x (matmul -> dropout -> add) on (512, 128): once forward ends, the
    # tape holds each matmul's input rows and each dropout's bool mask; no
    # backward reads a matmul's or a dropout's output, so neither is held
    rng = np.random.default_rng(7)
    x = t(rng.normal(size=(512, 128)))
    weights = [t(rng.normal(scale=0.05, size=(128, 128))) for _ in range(24)]
    one_array, one_mask = x.data.nbytes, x.data.size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with ad.Tape():
            h = x
            for w in weights:
                h = ad.add(h, ad.dropout(ad.matmul(h, w), 0.1, rng))
            held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # the 23 sums the matmuls past the first read, the last sum, which the
    # caller holds, and 24 masks; the rest is the tape's bookkeeping
    rows_and_masks = 24 * one_array + 24 * one_mask
    assert rows_and_masks <= held < rows_and_masks + one_array // 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("vocab", [4, 106, 8192])
def test_cross_entropy_matches_scipy_logsumexp(vocab, dtype):
    rng = np.random.default_rng(vocab)
    z = (rng.normal(size=(37, vocab)) * 6).astype(dtype)
    targets = rng.integers(0, vocab, size=37)
    logits = ad.Tensor(z, requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.softmax_cross_entropy(logits, targets)
        tape.backward(loss)
    z64 = z.astype(np.float64)
    expected = (logsumexp(z64, axis=-1) - z64[np.arange(37), targets]).mean()
    grad = softmax(z64, axis=-1)
    grad[np.arange(37), targets] -= 1.0
    eps = np.finfo(dtype).eps
    assert abs(float(loss.data) - expected) <= 16 * eps * abs(expected)
    np.testing.assert_allclose(logits.grad, grad / 37, rtol=0, atol=32 * eps / 37)


# -- row reductions ---------------------------------------------------------------

ROW_WIDTHS = (1, 2, 7, 8, 9, 11, 16, 100, 128, 129)


def row_cases(width, dtype):
    """(name, array) pairs to reduce along the last axis: plain rows, rows of
    -1e9 padding, +-inf and NaN, 4-D and non-contiguous views, and no rows."""
    rng = np.random.default_rng(width)
    x = (rng.normal(size=(48, width)) * 10).astype(dtype)
    x[3, ::2] = -1e9
    x[4] = -1e9
    x[5, 0] = np.inf
    x[6, -1] = -np.inf
    x[7] = -np.inf
    x[8, width // 2] = np.nan
    x[9, 0] = x[9, -1] = np.nan
    return [("2d", x), ("4d", x.reshape(2, 3, 8, width)),
            ("transposed", np.ascontiguousarray(x.T).T),
            ("4d_transposed", x.reshape(2, 3, 8, width).transpose(2, 0, 1, 3)),
            ("no_rows", x[:0])]


def bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", ROW_WIDTHS)
def test_row_max_is_numpys_last_axis_max_bit_for_bit(width, dtype):
    for name, x in row_cases(width, dtype):
        got, expected = ad._row_max(x), x.max(axis=-1, keepdims=True)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        np.testing.assert_array_equal(bits(got), bits(expected), err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", ROW_WIDTHS)
def test_row_sum_is_within_width_eps_of_the_exact_sum(width, dtype):
    for name, x in row_cases(width, dtype):
        x = np.where(np.isfinite(x), x, dtype(1.5))  # a sum over inf or NaN has no error bound
        got = ad._row_sum(x)
        assert got.dtype == x.dtype and got.shape == x.shape[:-1] + (1,), name
        exact = np.array([math.fsum(row) for row in x.reshape(-1, width).astype(np.float64)])
        bound = width * np.finfo(dtype).eps * np.abs(x).reshape(-1, width).sum(axis=-1)
        assert (np.abs(got.reshape(-1) - exact) <= bound).all(), name


@pytest.mark.parametrize("width", [11, 128])
def test_a_padded_key_gets_exact_zero_probability_and_gradient(width):
    rng = np.random.default_rng(width)
    x = t(rng.normal(size=(3, 4, width, width)) * 4)  # (groups, heads, queries, keys)
    pad = np.zeros((3, 1, 1, width), dtype=np.float32)
    pad[0, ..., width // 2:] = -1e9
    pad[2, ..., 1:] = -1e9  # one real key
    with ad.Tape() as tape:
        s = ad.softmax(x, pad)
        tape.backward(ad.tensor_sum(ad.mul(s, t(rng.normal(size=x.data.shape), grad=False))))
    padded = np.broadcast_to(pad < 0, x.data.shape)
    assert (s.data[padded] == 0.0).all() and (x.grad[padded] == 0.0).all()
    assert (s.data[~padded] > 0.0).all()
    assert (s.data[2, ..., 0] == 1.0).all()
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=width * np.finfo(np.float32).eps)


# -- structural ops -----------------------------------------------------------


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(4, 7)) * 5)
    s = ad.softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
def test_softmax_rows_sum_to_one_property(rows, cols, seed):
    x = t(np.random.default_rng(seed).normal(size=(rows, cols)) * 10)
    assert np.abs(ad.softmax(x).data.sum(axis=-1) - 1.0).max() < 1e-6


def test_layer_norm_statistics_before_gain_bias():
    rng = np.random.default_rng(5)
    x = t(rng.normal(2.0, 3.0, size=(6, 32)))
    gain = t(np.ones(32), grad=False)
    bias = t(np.zeros(32), grad=False)
    out = ad.layer_norm(x, gain, bias).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def test_dropout_inverted_scaling_and_determinism():
    x = t(np.ones((100, 10)))
    m1 = ad.dropout(x, 0.25, np.random.default_rng(9)).data
    m2 = ad.dropout(x, 0.25, np.random.default_rng(9)).data
    np.testing.assert_array_equal(m1, m2)
    kept = m1 != 0.0
    np.testing.assert_allclose(m1[kept], 1.0 / 0.75, rtol=1e-6)
    assert ad.dropout(x, 0.0, np.random.default_rng(9)) is x
    assert ad.dropout(x, 0.25, None) is x


def _closure_value(fn, name):
    """The value a closure `fn` captured under `name`."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


@pytest.mark.parametrize("rate, shape, seed", [
    (0.1, (7, 13), 0), (0.25, (4, 3, 16), 1), (0.5, (1000,), 2), (0.9, (64, 8), 3),
])
def test_dropout_mask_is_a_16_bit_threshold_draw(rate, shape, seed):
    x = t(np.ones(shape))
    with ad.Tape() as tape:
        out = ad.dropout(x, rate, np.random.default_rng(seed))
    keep = _closure_value(tape.ops[-1].backward, "keep")
    assert keep.dtype == np.bool_
    oracle = (np.random.default_rng(seed).integers(0, 65536, shape, dtype=np.uint16)
              >= round(rate * 65536))
    np.testing.assert_array_equal(keep, oracle)
    np.testing.assert_array_equal(out.data != 0.0, oracle)


def test_dropout_keeps_the_fraction_its_cut_sets():
    n, rate = 1_000_000, 0.1
    out = ad.dropout(t(np.ones(n), grad=False), rate, np.random.default_rng(4))
    p = 1.0 - round(rate * 65536) / 65536
    kept = np.count_nonzero(out.data) / n
    assert abs(kept - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("rate, cut", [(1e-6, 0), (0.99999, 65535)])
def test_dropout_extreme_rates_stay_finite(rate, cut):
    # round(0.99999 * 65536) is 65535; a cut of 65536 would drop every element
    x = t(np.ones((1024, 1024)))
    with ad.Tape() as tape:
        out = ad.dropout(x, rate, np.random.default_rng(5))
        keep = _closure_value(tape.ops[-1].backward, "keep")
        tape.backward(ad.tensor_sum(out))
    draws = np.random.default_rng(5).integers(0, 65536, x.data.shape, dtype=np.uint16)
    np.testing.assert_array_equal(keep, draws >= cut)
    assert keep.any()
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
    np.testing.assert_array_equal(out.data[keep], np.float32(1.0 / (1.0 - rate)))
    np.testing.assert_array_equal(out.data[~keep], 0.0)
    np.testing.assert_array_equal(x.grad, out.data)


def test_dropout_keeps_float64():
    x = ad.Tensor(np.random.default_rng(6).normal(size=(8, 8)), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.dropout(x, 0.3, np.random.default_rng(7))
        tape.backward(ad.tensor_sum(out))
    assert out.data.dtype == np.float64 and x.grad.dtype == np.float64
    np.testing.assert_array_equal(x.grad[out.data == 0.0], 0.0)


def test_embedding_gather_and_scatter_grad():
    table = t(np.arange(12, dtype=np.float32).reshape(4, 3))
    ids = np.array([[0, 2, 2], [1, 0, 3]])
    with ad.Tape() as tape:
        out = ad.embedding(table, ids)
        tape.backward(ad.tensor_sum(out))
    np.testing.assert_allclose(out.data[0, 1], table.data[2])
    expected_counts = np.array([2.0, 1.0, 2.0, 1.0])[:, None] * np.ones((4, 3))
    np.testing.assert_allclose(table.grad, expected_counts)


@pytest.mark.parametrize("case", ["word_ids", "bucket_grid", "empty"])
def test_embedding_backward_matches_add_at_oracle(case):
    """The sort-and-reduceat backward against np.add.at summed in float64."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    if case == "word_ids":
        table, ids = t(rng.normal(size=(12, 5))), np.array([7, 0, 3, 7, 7, 11, 0, 3, 5])
    elif case == "bucket_grid":
        table = t(rng.normal(size=(NUM_REL_BUCKETS, 4)))
        ids = _bucket_matrix(128, NUM_REL_BUCKETS, 128)
    else:
        table, ids = t(rng.normal(size=(6, 3))), np.zeros((2, 0), dtype=np.int64)
    w = rng.normal(size=ids.shape + table.data.shape[1:]).astype(np.float32)
    with ad.Tape() as tape:
        out = ad.embedding(table, ids)
        tape.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(w))))
    oracle = np.zeros(table.data.shape)
    np.add.at(oracle, ids, w.astype(np.float64))
    magnitude = np.zeros(table.data.shape)
    np.add.at(magnitude, ids, np.abs(w.astype(np.float64)))
    assert table.grad.dtype == np.float32
    # float32 sums of up to a few thousand terms, against their magnitude
    assert (np.abs(table.grad - oracle) <= 1e-5 * magnitude).all()
    missed = np.setdiff1d(np.arange(table.data.shape[0]), ids)
    assert (table.grad[missed] == 0.0).all()
    if case == "word_ids":
        assert missed.size > 0


@pytest.mark.parametrize("case", ["full_grid", "query_grid"])
def test_relative_bias_matches_a_lookup_and_an_add_at_oracle(case):
    """Each head's bias at the bucket ids, laid out (..., H, q, k), and the
    bincount backward against np.add.at summed in float64."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    table = t(rng.normal(size=(NUM_REL_BUCKETS, 4)))
    full = _bucket_matrix(128, NUM_REL_BUCKETS, 128)
    # the full (w, w) block, or each of 3 sequences' 5 read rows of it
    buckets = full if case == "full_grid" else full[rng.integers(0, 128, size=(3, 5))]
    w = rng.normal(size=buckets.shape[:-2] + (4,) + buckets.shape[-2:]).astype(np.float32)
    with ad.Tape() as tape:
        out = ad.relative_bias(table, buckets)
        tape.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(w))))
    assert out.data.shape == w.shape
    for h in range(4):
        np.testing.assert_array_equal(out.data[..., h, :, :], table.data[buckets, h])
    oracle = np.zeros(table.data.shape)
    magnitude = np.zeros(table.data.shape)
    for h in range(4):
        np.add.at(oracle[:, h], buckets, w[..., h, :, :].astype(np.float64))
        np.add.at(magnitude[:, h], buckets, np.abs(w[..., h, :, :].astype(np.float64)))
    assert table.grad.dtype == np.float32
    # float64 sums rounded once to float32
    assert (np.abs(table.grad - oracle) <= 1e-6 * magnitude).all()
    missed = np.setdiff1d(np.arange(NUM_REL_BUCKETS), buckets)
    assert (table.grad[missed] == 0.0).all()


def test_relative_bias_needs_query_and_key_axes():
    with pytest.raises(DimensionError):
        ad.relative_bias(t(np.zeros((4, 2))), np.arange(3))


def test_gather_rows_selects_and_scatters():
    x = t(np.arange(24, dtype=np.float32).reshape(8, 3))
    with ad.Tape() as tape:
        rows = ad.gather_rows(x, [3, 4, 6])
        tape.backward(ad.tensor_sum(ad.scale(rows, 2.0)))
    np.testing.assert_allclose(rows.data, x.data[[3, 4, 6]])
    picked = np.zeros(8, dtype=bool)
    picked[[3, 4, 6]] = True
    assert (x.grad[picked] == 2.0).all()
    assert (x.grad[~picked] == 0.0).all()


def test_gather_rows_of_every_row_in_order_is_its_input_and_records_no_op():
    x = t(np.arange(24, dtype=np.float32).reshape(8, 3))
    with ad.Tape() as tape:
        assert ad.gather_rows(x, np.arange(8)) is x
        assert tape.ops == []
        order = [0, 1, 2, 3, 4, 5, 7]  # every row but one
        rows = ad.gather_rows(x, order)
        assert len(tape.ops) == 1
        tape.backward(ad.tensor_sum(ad.mul(rows, ad.constant(np.arange(21).reshape(7, 3)))))
    np.testing.assert_array_equal(rows.data, x.data[order])
    np.testing.assert_array_equal(x.grad[order], np.arange(21).reshape(7, 3))
    np.testing.assert_array_equal(x.grad[6], 0.0)


@pytest.mark.parametrize("index", [[4, 3], [[1, 2]]], ids=["unordered", "2d"])
def test_gather_rows_refuses_an_index_that_is_not_strictly_increasing(index):
    # a repeated row is test_row_ops_reject_a_repeated_pair's case
    with pytest.raises(ContractError):
        ad.gather_rows(t(np.zeros((8, 3))), index)


@pytest.mark.parametrize("op", ["gather_rows"])
def test_row_ops_add_into_a_copy_of_a_held_gradient(op):
    a, b = t(np.ones((5, 2))), t(np.ones((5, 2)))
    with ad.Tape() as tape:
        rows = getattr(ad, op)(a, [0, 3])
        # add's backward hands a and b one gradient array, before the row op runs
        loss = ad.add(ad.tensor_sum(ad.scale(rows, 2.0)), ad.tensor_sum(ad.add(a, b)))
        tape.backward(loss)
    expected = np.ones((5, 2), dtype=np.float32)
    expected[[0, 3]] += 2.0
    np.testing.assert_array_equal(a.grad, expected)
    np.testing.assert_array_equal(b.grad, np.ones((5, 2)))


@pytest.mark.parametrize("op", [
    lambda: ad.gather_rows(t(np.zeros((8, 3))), [3, 4, 3]),
], ids=["gather_rows"])
def test_row_ops_reject_a_repeated_pair(op):
    with pytest.raises(ContractError):
        op()


@pytest.mark.parametrize("op", [
    lambda: ad.gather_rows(t(np.zeros((8, 3))), [3, 8]),
], ids=["gather_rows"])
def test_row_ops_reject_a_row_outside_the_array(op):
    with pytest.raises(ContractError):
        op()


def test_matmul_bias_on_a_batched_right_operand_is_refused():
    with pytest.raises(ContractError):
        ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((2, 4, 5))), t(np.zeros(5)))


# -- attention ------------------------------------------------------------------


def _placement(rows, cells, n_rows, n_cells, dtype):
    """The constant 0/1 matrix that puts row rows[j] in cell cells[j]."""
    m = np.zeros((n_cells, n_rows), dtype=dtype)
    m[cells, rows] = 1.0
    return ad.Tensor(m)


def _attention_chain(q, k, v, layouts, heads, rate, rng):
    """The op chain `ad.attention` fuses, one tape op per step. Each group's
    grids are placed from the packed rows, and its contexts back, by 0/1
    matmuls, which are exact: each cell and each row sums one product."""
    (n_q, h), dtype = q.data.shape, q.data.dtype
    dh = h // heads
    qs = ad.scale(q, 1.0 / np.sqrt(dh))
    contexts = []
    for kv_rows, kv_cells, q_rows, q_cells, bias, pad_bias in layouts:
        g, w, r = pad_bias.shape[0], pad_bias.shape[-1], bias.data.shape[-2]
        at_kv = _placement(kv_rows, kv_cells, len(k.data), g * w, dtype)
        at_q = _placement(q_rows, q_cells, n_q, g * r, dtype)

        def split(x, n):
            return ad.transpose(ad.reshape(x, (g, n, heads, dh)), (0, 2, 1, 3))

        qh, kh, vh = (split(ad.matmul(at_q, qs), r), split(ad.matmul(at_kv, k), w),
                      split(ad.matmul(at_kv, v), w))
        scores = ad.add(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), bias)
        attn = ad.dropout(ad.softmax(scores, pad_bias), rate, rng)
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, vh), (0, 2, 1, 3)), (g * r, h))
        contexts.append(ad.matmul(ad.transpose(at_q, (1, 0)), ctx))
    return ad.add_n(contexts)


def _attention_inputs(case, dtype, seed=0):
    """(q, k, v, layouts, heads), 12 wide in 3 heads: 15 packed key rows of
    three sequences, 3, 7 and 5 long in batch order, whose first and last form
    a (2, 5) grid, so the short one pads 2 keys, and whose middle one is a
    (1, 7) grid. Queries from every row, with a (H, w, w) bias per group
    ("padded_full_grid"); from 11 read rows, the first group read in part into
    a (2, 3) grid with a (g, H, r, w) bias and the second in full
    ("query_grid"); or from both groups read in part, with one more query row
    that no layout names ("query_rows")."""
    rng = np.random.default_rng(seed)
    h, heads = 12, 3
    leaf = lambda shape: ad.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    a_rows, a_slots = np.r_[0:3, 10:15], np.r_[0:3, 5:10]
    b_rows, b_slots = np.arange(3, 10), np.arange(7)
    a_pad = np.zeros((2, 1, 1, 5), dtype=dtype)
    a_pad[0, ..., 3:] = -1e9
    b_pad = np.zeros((1, 1, 1, 7), dtype=dtype)
    if case == "padded_full_grid":
        n_q = 15
        a_q, b_q = (a_rows, a_slots, leaf((heads, 5, 5))), (b_rows, b_slots, leaf((heads, 7, 7)))
    elif case == "query_grid":
        # read rows 1, 3-9, 11, 13 and 14: query rows 0 and 8-10 are the first group's
        n_q = 11
        a_q = ([0, 8, 9, 10], [0, 3, 4, 5], leaf((2, heads, 3, 5)))
        b_q = (np.arange(1, 8), b_slots, leaf((heads, 7, 7)))
    else:
        # query row 2 is in no layout
        n_q = 6
        a_q = ([0, 4, 5], [0, 2, 3], leaf((2, heads, 2, 5)))
        b_q = ([1, 3], [0, 1], leaf((1, heads, 2, 7)))
    q, k, v = leaf((n_q, h)), leaf((15, h)), leaf((15, h))
    layouts = [(a_rows, a_slots, np.asarray(a_q[0]), np.asarray(a_q[1]), a_q[2], a_pad),
               (b_rows, b_slots, np.asarray(b_q[0]), np.asarray(b_q[1]), b_q[2], b_pad)]
    return q, k, v, layouts, heads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.0])
@pytest.mark.parametrize("case", ["padded_full_grid", "query_grid", "query_rows"])
def test_attention_is_the_op_chain_it_fuses_bit_for_bit(case, rate, dtype):
    results = []
    for attend in (ad.attention, _attention_chain):
        q, k, v, layouts, heads = _attention_inputs(case, dtype)
        biases = [layout[4] for layout in layouts]
        weights = ad.Tensor(np.random.default_rng(1).normal(size=q.data.shape).astype(dtype))
        rng = np.random.default_rng(2)
        with ad.Tape() as tape:
            out = attend(q, k, v, layouts, heads, rate, rng)
            tape.backward(ad.tensor_sum(ad.mul(out, weights)))
        results.append((out.data, [x.grad for x in (q, k, v, *biases)], rng.random()))
    (fused, fused_grads, fused_next), (chain, chain_grads, chain_next) = results
    assert fused.dtype == dtype and fused.shape == q.data.shape
    np.testing.assert_array_equal(fused, chain)
    for name, got, want in zip("q k v bias0 bias1".split(), fused_grads, chain_grads):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert fused_next == chain_next  # both drew the same dropout masks
    if case == "query_rows":  # a query row no layout names has no context and no gradient
        np.testing.assert_array_equal(fused[2], 0.0)
        np.testing.assert_array_equal(fused_grads[0][2], 0.0)


def test_attention_keeps_only_its_grids_softmax_and_keep_mask_for_backward():
    q, k, v, layouts, heads = _attention_inputs("padded_full_grid", np.float32)
    with ad.Tape() as tape:
        ad.attention(q, k, v, layouts, heads, 0.1, np.random.default_rng(3))
    # per group: the query, key and value grids as (g, H, n, d_head) views,
    # the softmax and the keep mask
    assert owned_closure_arrays(tape.ops, [q, k, v, *(a for lay in layouts for a in lay)]) == [
        ("bool", (1, 3, 7, 7)), ("bool", (2, 3, 5, 5)),
        *[("float32", (1, 3, 7, 4))] * 3, ("float32", (1, 3, 7, 7)),
        *[("float32", (2, 3, 5, 4))] * 3, ("float32", (2, 3, 5, 5))]


def _attention_shape_case(name):
    """Arguments to `ad.attention` for 4 rows of width 6 in a (2, 4) grid, one
    of them misshaped as `name` says."""
    shapes = {"q": (4, 6), "k": (4, 6), "v": (4, 6), "bias": (2, 4, 4), "pad_bias": (2, 1, 1, 4)}
    heads = 4 if name == "heads_split_h" else 2
    shapes.update({"k_2d": {"k": (1, 4, 6)}, "v_width": {"v": (4, 4)}, "q_width": {"q": (4, 8)},
                   "q_groups": {"bias": (3, 2, 4, 4)}, "q_rows": {"q": (1, 4, 6)},
                   "q_4d": {"q": (1, 1, 4, 6)}, "rows_without_groups": {"pad_bias": (2, 4)}
                   }.get(name, {}))
    q, k, v, bias = (t(np.zeros(shapes[n])) for n in ("q", "k", "v", "bias"))
    cells = [0, 1, 4, 5]
    layout = (np.arange(4), cells, np.arange(4), cells, bias, np.zeros(shapes["pad_bias"], np.float32))
    return q, k, v, [layout], heads


@pytest.mark.parametrize("name", ["k_2d", "v_width", "q_width", "heads_split_h", "q_groups",
                                  "q_rows", "q_4d", "rows_without_groups"])
def test_attention_refuses_mismatched_shapes(name):
    # q, k and v must be rows of one width that the heads split, pad_bias a
    # (g, 1, 1, w) array and the bias (H, r, w) or (g, H, r, w)
    q, k, v, layouts, heads = _attention_shape_case(name)
    with pytest.raises(DimensionError):
        ad.attention(q, k, v, layouts, heads, 0.0, None)


def _with_index(layout, field, index):
    return layout[:field] + (np.asarray(index),) + layout[field + 1:]


@pytest.mark.parametrize("bad", [
    lambda lay: [_with_index(lay, 1, [1, 0, 4, 5])],
    lambda lay: [_with_index(lay, 0, [0, 1, 1, 2])],
    lambda lay: [_with_index(lay, 2, [0, 1, 2])],
    lambda lay: [_with_index(lay, 3, [0, 1, 4, 8])],
    lambda lay: [_with_index(_with_index(lay, 2, [0, 1]), 3, [0, 1]),
                 _with_index(_with_index(lay, 2, [1, 2]), 3, [4, 5])],
], ids=["unordered_cells", "repeated_rows", "rows_without_cells", "cell_outside_the_grid",
        "row_in_two_layouts"])
def test_attention_refuses_a_layout_whose_indices_do_not_pair(bad):
    q, k, v, (layout,), heads = _attention_shape_case("valid")
    ad.attention(q, k, v, [layout], heads, 0.0, None)  # the layout as built is accepted
    with pytest.raises(ContractError):
        ad.attention(q, k, v, bad(layout), heads, 0.0, None)


# -- the fused layer tail ---------------------------------------------------------


def _ffn_chain(x, w1, b1, w2, b2):
    """The op chain `ad.ffn` fuses, one tape op per step."""
    return ad.matmul(ad.gelu(ad.matmul(x, w1, b1)), w2, b2)


def _add_layer_norm_chain(x, y, gain, bias, rate, rng):
    """The op chain `ad.add_layer_norm` fuses, one tape op per step."""
    return ad.layer_norm(ad.add(x, ad.dropout(y, rate, rng)), gain, bias)


def _layer_tail_inputs(dtype, seed=0):
    """Leaves for a layer tail on 9 rows of width 12 with an FFN of width 20:
    rows x, a sublayer output y, both norms' gains and biases and the FFN's
    weights and biases."""
    rng = np.random.default_rng(seed)
    shapes = {"x": (9, 12), "y": (9, 12), "gain1": (12,), "bias1": (12,), "gain2": (12,),
              "bias2": (12,), "w1": (12, 20), "b1": (20,), "w2": (20, 12), "b2": (12,)}
    leaves = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    leaves["gain1"] += 1.0
    leaves["gain2"] += 1.0
    return {name: ad.Tensor(a.astype(dtype), requires_grad=True) for name, a in leaves.items()}


def _layer_tail(ffn, add_layer_norm, part, ts, rate, rng):
    """One of the tail's fused ops, or the whole tail as `Model._encode` runs
    it, through the given implementations of the two."""
    ffn_args = lambda x: (x, ts["w1"], ts["b1"], ts["w2"], ts["b2"])
    if part == "ffn":
        return ffn(*ffn_args(ts["x"]))
    x = add_layer_norm(ts["x"], ts["y"], ts["gain1"], ts["bias1"], rate, rng)
    if part == "add_layer_norm":
        return x
    return add_layer_norm(x, ffn(*ffn_args(x)), ts["gain2"], ts["bias2"], rate, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.0])
@pytest.mark.parametrize("part", ["ffn", "add_layer_norm", "layer_tail"])
def test_the_fused_layer_tail_is_the_op_chain_it_fuses_bit_for_bit(part, rate, dtype):
    results = []
    for ops in ((ad.ffn, ad.add_layer_norm), (_ffn_chain, _add_layer_norm_chain)):
        ts = _layer_tail_inputs(dtype)
        weights = ad.Tensor(np.random.default_rng(1).normal(size=(9, 12)).astype(dtype))
        rng = np.random.default_rng(2)
        with ad.Tape() as tape:
            out = _layer_tail(*ops, part, ts, rate, rng)
            tape.backward(ad.tensor_sum(ad.mul(out, weights)))
        results.append((out.data, {n: x.grad for n, x in ts.items() if x.grad is not None},
                        rng.random()))
    (fused, fused_grads, fused_next), (chain, chain_grads, chain_next) = results
    assert fused.dtype == dtype and fused.shape == (9, 12)
    np.testing.assert_array_equal(fused, chain)
    used = {"ffn": 5, "add_layer_norm": 4, "layer_tail": 10}[part]
    assert len(fused_grads) == used and set(fused_grads) == set(chain_grads)
    for name, got in fused_grads.items():
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, chain_grads[name], err_msg=name)
    assert fused_next == chain_next  # both drew the same dropout masks


def test_ffn_keeps_only_the_gelu_output_and_its_derivative_for_its_backward():
    ts = _layer_tail_inputs(np.float32)
    inputs = [ts[n] for n in ("x", "w1", "b1", "w2", "b2")]
    with ad.Tape() as tape:
        ad.ffn(*inputs)
    assert owned_closure_arrays(tape.ops, inputs) == [("float32", (9, 20))] * 2


def test_add_layer_norm_keeps_only_the_normalized_rows_1_over_sigma_and_the_keep_mask():
    ts = _layer_tail_inputs(np.float32)
    inputs = [ts[n] for n in ("x", "y", "gain1", "bias1")]
    with ad.Tape() as tape:
        ad.add_layer_norm(*inputs, 0.1, np.random.default_rng(3))
    assert owned_closure_arrays(tape.ops, inputs) == [
        ("bool", (9, 12)), ("float32", (9, 1)), ("float32", (9, 12))]


def test_the_fused_layer_tail_records_nothing_untaped_and_ffn_skips_the_derivative(monkeypatch):
    def no_slope(u, cdf):
        raise AssertionError("an unrecorded ffn computed the GELU derivative")

    monkeypatch.setattr(ad, "_gelu_slope", no_slope)
    ts = _layer_tail_inputs(np.float32)
    frozen = {n: ad.Tensor(x.data) for n, x in ts.items()}
    with ad.Tape() as tape:
        with ad.no_tape():
            untaped = _layer_tail(ad.ffn, ad.add_layer_norm, "layer_tail", ts, 0.1,
                                  np.random.default_rng(2))
        # on a tape, but no input needs a gradient
        _layer_tail(ad.ffn, ad.add_layer_norm, "layer_tail", frozen, 0.1, np.random.default_rng(2))
        assert tape.ops == []
    monkeypatch.undo()
    with ad.Tape() as tape:
        taped = _layer_tail(ad.ffn, ad.add_layer_norm, "layer_tail", ts, 0.1,
                            np.random.default_rng(2))
    assert len(tape.ops) == 9  # add_layer_norm's 3 ops, ffn's 3 and add_layer_norm's 3
    np.testing.assert_array_equal(untaped.data, taped.data)


@pytest.mark.parametrize("op, args", [
    ("ffn", ((9, 12), (11, 20), (20,), (20, 12), (12,))),
    ("ffn", ((9, 12), (12, 20), (20,), (19, 12), (12,))),
    ("add_layer_norm", ((9, 12), (8, 12), (12,), (12,))),
], ids=["ffn_w1", "ffn_w2", "add_layer_norm"])
def test_the_fused_layer_tail_refuses_mismatched_shapes(op, args):
    tensors = [t(np.zeros(shape)) for shape in args]
    extra = (0.0, None) if op == "add_layer_norm" else ()
    with pytest.raises(DimensionError):
        getattr(ad, op)(*tensors, *extra)


# -- finite-difference checks on every differentiable op ------------------------


def _exact_gelu(x):
    """x * Phi(x) with scipy's erf, forward only: the float64 oracle that the
    gelu case's finite differences read, since the op's rational erf is not
    the exact function its backward differentiates."""
    return ad.Tensor(x.data * 0.5 * (1.0 + exact_erf(x.data / np.sqrt(2.0))))


def _fd_case(name):
    """(leaf tensors, loss builder, float64 reference loss builder or None) for one op."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    reference = None
    if name == "add":
        tensors = {"a": t(rng.normal(size=(3, 4))), "b": t(rng.normal(size=(4,)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.add(ts["a"], ts["b"]), ts["w"]))
        w = rng.normal(size=(3, 4))
    elif name == "mul":
        tensors = {"a": t(rng.normal(size=(3, 4))), "b": t(rng.normal(size=(3, 4)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.mul(ts["a"], ts["b"]), ts["w"]))
        w = rng.normal(size=(3, 4))
    elif name == "gelu":
        tensors = {"a": t(rng.normal(size=(3, 4)) * 2)}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.gelu(ts["a"]), ts["w"]))
        reference = lambda ts: ad.tensor_sum(ad.mul(_exact_gelu(ts["a"]), ts["w"]))
        w = rng.normal(size=(3, 4))
    elif name == "softmax":
        tensors = {"a": t(rng.normal(size=(3, 5)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.softmax(ts["a"]), ts["w"]))
        w = rng.normal(size=(3, 5))
    elif name == "softmax_bias":
        tensors = {"a": t(rng.normal(size=(3, 5)))}
        bias = rng.normal(size=5).astype(np.float32)
        bias[3] = -1e9  # a padded key
        make = lambda ts: ad.tensor_sum(ad.mul(ad.softmax(ts["a"], bias), ts["w"]))
        w = rng.normal(size=(3, 5))
    elif name == "ffn":
        tensors = {"a": t(rng.normal(size=(3, 4)) * 2), "w1": t(rng.normal(size=(4, 5))),
                   "b1": t(rng.normal(size=(5,))), "w2": t(rng.normal(size=(5, 4))),
                   "b2": t(rng.normal(size=(4,)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.ffn(ts["a"], ts["w1"], ts["b1"], ts["w2"], ts["b2"]),
                                               ts["w"]))
        reference = lambda ts: ad.tensor_sum(ad.mul(ad.matmul(
            _exact_gelu(ad.matmul(ts["a"], ts["w1"], ts["b1"])), ts["w2"], ts["b2"]), ts["w"]))
        w = rng.normal(size=(3, 4))
    elif name == "add_layer_norm":
        # the residual add, dropout from a re-seeded rng, and the norm
        tensors = {"a": t(rng.normal(size=(3, 8)) * 2), "y": t(rng.normal(size=(3, 8))),
                   "gain": t(rng.normal(1, 0.2, size=(8,))),
                   "bias": t(rng.normal(0, 0.2, size=(8,)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.add_layer_norm(
            ts["a"], ts["y"], ts["gain"], ts["bias"], 0.3, np.random.default_rng(8)), ts["w"]))
        w = rng.normal(size=(3, 8))
    elif name == "layer_norm":
        tensors = {"a": t(rng.normal(size=(3, 8)) * 2),
                   "gain": t(rng.normal(1, 0.2, size=(8,))),
                   "bias": t(rng.normal(0, 0.2, size=(8,)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.layer_norm(ts["a"], ts["gain"], ts["bias"]), ts["w"]))
        w = rng.normal(size=(3, 8))
    elif name == "transpose_reshape":
        tensors = {"a": t(rng.normal(size=(2, 3, 4)))}
        make = lambda ts: ad.tensor_sum(
            ad.mul(ad.reshape(ad.transpose(ts["a"], (0, 2, 1)), (2, 12)), ts["w"]))
        w = rng.normal(size=(2, 12))
    elif name == "cross_entropy":
        tensors = {"a": t(rng.normal(size=(4, 6)))}
        make = lambda ts: ad.softmax_cross_entropy(ts["a"], [1, 0, 5, 3])
        w = None
    elif name == "bce":
        tensors = {"a": t(rng.normal(size=(6,)))}
        make = lambda ts: ad.sigmoid_bce(ts["a"], [1, 0, 1, 1, 0, 0])
        w = None
    elif name in ("matmul_bias_2d", "matmul_bias_3d"):
        a_shape = (3, 4) if name == "matmul_bias_2d" else (2, 3, 4)
        tensors = {"a": t(rng.normal(size=a_shape)), "b": t(rng.normal(size=(4, 5))),
                   "bias": t(rng.normal(size=(5,)))}
        make = lambda ts: ad.tensor_sum(ad.mul(ad.matmul(ts["a"], ts["b"], ts["bias"]), ts["w"]))
        w = rng.normal(size=a_shape[:-1] + (5,))
    elif name == "embedding":
        tensors = {"a": t(rng.normal(size=(5, 4)))}
        ids = np.array([[0, 3, 3], [2, 1, 0]])
        make = lambda ts: ad.tensor_sum(ad.mul(ad.embedding(ts["a"], ids), ts["w"]))
        w = rng.normal(size=(2, 3, 4))
    elif name == "attention":
        # 3 query rows against 8 key rows of 2 sequences, 3 and 5 long, in a
        # (2, 5) grid, the queries in a (2, 2) grid with a (g, H, r, w) bias, and
        # dropout from a re-seeded rng
        tensors = {"a": t(rng.normal(size=(3, 4))), "k": t(rng.normal(size=(8, 4))),
                   "v": t(rng.normal(size=(8, 4))), "bias": t(rng.normal(size=(2, 2, 2, 5)))}
        pad_bias = np.zeros((2, 1, 1, 5), dtype=np.float32)
        pad_bias[0, ..., 3:] = -1e9
        layout = lambda ts: [(np.arange(8), [0, 1, 2, 5, 6, 7, 8, 9], [0, 1, 2], [0, 2, 3],
                              ts["bias"], pad_bias)]
        make = lambda ts: ad.tensor_sum(ad.mul(ad.attention(
            ts["a"], ts["k"], ts["v"], layout(ts), 2, 0.3, np.random.default_rng(8)), ts["w"]))
        w = rng.normal(size=(3, 4))
    elif name == "relative_bias":
        tensors = {"a": t(rng.normal(size=(6, 3)))}
        buckets = rng.integers(0, 6, size=(2, 3, 4))
        make = lambda ts: ad.tensor_sum(ad.mul(ad.relative_bias(ts["a"], buckets), ts["w"]))
        w = rng.normal(size=(2, 3, 3, 4))
    else:
        raise AssertionError(name)
    if w is not None:
        tensors["w"] = ad.Tensor(w.astype(np.float32))
    return tensors, make, reference


@pytest.mark.parametrize("op_name", [
    "add", "mul", "gelu", "softmax", "softmax_bias", "layer_norm", "transpose_reshape",
    "cross_entropy", "bce", "embedding", "matmul_bias_2d", "matmul_bias_3d",
    "relative_bias", "attention", "ffn", "add_layer_norm",
])
def test_gradients_match_finite_differences(op_name):
    tensors, make, reference = _fd_case(op_name)
    twins = float64_twin(tensors)
    rng = np.random.default_rng(17)
    coords = []
    for name, tensor in tensors.items():
        if not tensor.requires_grad:
            continue
        flat = [np.unravel_index(i, tensor.data.shape)
                for i in rng.choice(tensor.data.size, size=min(4, tensor.data.size), replace=False)]
        coords.extend((name, idx) for idx in flat)
    failures = check_gradients(make, tensors, twins, coords, reference=reference)
    assert failures == [], f"gradient mismatches: {failures}"


def test_softmax_bias_zeroes_a_masked_key_and_its_gradient():
    rng = np.random.default_rng(12)
    x = t(rng.normal(size=(2, 3, 6)) * 4)
    bias = np.zeros((2, 1, 6), dtype=np.float32)
    bias[0, 0, 4] = -1e9
    with ad.Tape() as tape:
        s = ad.softmax(x, bias)
        tape.backward(ad.tensor_sum(ad.mul(s, t(rng.normal(size=(2, 3, 6)), grad=False))))
    assert (s.data[0, :, 4] == 0.0).all() and (x.grad[0, :, 4] == 0.0).all()
    assert (s.data[1] > 0.0).all()
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
    # the unmasked entries are the softmax of x plus the bias
    np.testing.assert_allclose(s.data[1], ad.softmax(t(x.data[1])).data, rtol=1e-6)
    np.testing.assert_allclose(s.data[0][:, [0, 1, 2, 3, 5]],
                               ad.softmax(t(x.data[0][:, [0, 1, 2, 3, 5]])).data, rtol=1e-6)


def test_dropout_gradient_uses_same_mask():
    x = t(np.random.default_rng(1).normal(size=(5, 5)))
    with ad.Tape() as tape:
        out = ad.dropout(x, 0.4, np.random.default_rng(2))
        keep = (out.data != 0).astype(np.float32) / 0.6
        tape.backward(ad.tensor_sum(out))
    np.testing.assert_allclose(x.grad, keep)


@pytest.mark.parametrize("dtype, bound", [(np.float32, 5e-7), (np.float64, 1e-7)])
def test_rational_erf_max_error_against_scipy(dtype, bound):
    x = np.linspace(-10.0, 10.0, 2_000_001).astype(dtype)
    got = ad._erf(x)
    assert got.dtype == dtype
    assert np.abs(got.astype(np.float64) - exact_erf(x.astype(np.float64))).max() <= bound


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2061, 96), (9, 20)], ids=["ragged_blocks", "one_block"])
def test_blocked_gelu_equals_the_whole_array_chain_bit_for_bit(dtype, shape):
    rng = np.random.default_rng(12)
    x = ad.Tensor((rng.normal(size=shape) * 4).astype(dtype), requires_grad=True)
    g = rng.normal(size=shape).astype(dtype)
    cdf = ad._erf(x.data * ad._INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    slope = ad._gelu_slope(x.data, cdf)
    with ad.Tape() as tape:
        out = ad.gelu(x)
        kept = [c.cell_contents for c in tape.ops[-1].backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        # d/d(out) of sum(out * g) is g exactly
        tape.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(g))))
    assert out.data.dtype == x.grad.dtype == dtype
    np.testing.assert_array_equal(out.data, x.data * cdf)
    assert len(kept) == 1
    np.testing.assert_array_equal(kept[0], slope)
    np.testing.assert_array_equal(x.grad, g * slope)


def test_all_forward_values_finite_on_finite_inputs():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(4, 8)) * 50)
    for out in (ad.softmax(x), ad.gelu(x),
                ad.layer_norm(x, t(np.ones(8)), t(np.zeros(8))),
                ad.sigmoid_bce(ad.reshape(x, (32,)), np.ones(32)),
                ad.softmax_cross_entropy(x, [0, 1, 2, 3])):
        assert np.isfinite(out.data).all()
