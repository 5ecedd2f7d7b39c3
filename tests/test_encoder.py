import numpy as np
import pytest

from multicourse import autodiff as ad
from multicourse.encoder import (
    EncoderConfig,
    Model,
    MIN_SPLIT_CELLS,
    NUM_REL_BUCKETS,
    attention_groups,
    relative_position_bucket,
    _bucket_matrix,
)
from multicourse.errors import ConfigError, ContractError, InputError

from helpers import (check_gradients, fd_gradient, owned_closure_arrays, promote_model_to_float64,
                     relative_error, scalar_dot)


def tiny_config(**kw):
    base = dict(vocab_size=32, hidden_size=16, generator_layers=1, discriminator_layers=2,
                attention_heads=2, ffn_inner_size=24, max_relative_position=128,
                max_seq_len=16, dropout_rate=0.1)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture()
def model():
    return Model(tiny_config(), seed=0)


def batch(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return ids, np.ones_like(ids)


def padded(rows, width):
    """Right-padded (ids, mask) of token rows at `width`; padding ids are arbitrary."""
    ids = np.full((len(rows), width), 20, dtype=np.int64)
    mask = np.zeros_like(ids)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = 1
    return ids, mask


def token_rows(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [list(rng.integers(4, 32, size=n)) for n in lengths]


# -- config contracts ---------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        tiny_config(hidden_size=15)


def test_config_rejects_deep_generator():
    with pytest.raises(ConfigError):
        tiny_config(generator_layers=3, discriminator_layers=2)


# -- encoding contracts ---------------------------------------------------------


def test_encode_deterministic_under_fixed_seed(model):
    ids, mask = batch([[4, 5, 6, 7, 8]])
    a = model.encode_generator(ids, mask, np.random.default_rng(5)).data
    b = model.encode_generator(ids, mask, np.random.default_rng(5)).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [1, 7, 16])
def test_encode_output_shapes(model, n):
    ids, mask = batch([list(range(4, 4 + n))])
    for encode in (model.encode_generator, model.encode_discriminator):
        assert encode(ids, mask).data.shape == (n, 16)


def test_encode_rejects_overlength(model):
    ids, mask = batch([list(range(17))])
    with pytest.raises(InputError):
        model.encode_generator(ids, mask)


def test_encode_rejects_out_of_vocab(model):
    ids, mask = batch([[4, 99]])
    with pytest.raises(InputError):
        model.encode_generator(ids, mask)


@pytest.mark.parametrize("ids, mask", [
    ([[4, -1, 5]], [[1, 1, 1]]),
    ([[4, 6, 5]], [[1, 2, 1]]),
    ([[4, 6, 5]], [[1, 1, -1]]),
], ids=["negative_id", "mask_2", "mask_negative"])
def test_encode_rejects_negative_ids_and_non_binary_masks(model, ids, mask):
    for encode in (model.encode_generator, model.encode_discriminator):
        with pytest.raises(InputError):
            encode(np.asarray(ids), np.asarray(mask))


@pytest.mark.parametrize("stack", ["generator", "discriminator"])
def test_encode_returns_only_the_real_rows(model, stack):
    ids = np.array([[4, 5, 6, 7], [8, 9, 0, 0], [10, 0, 0, 0]])
    mask = (ids != 0).astype(np.int64)
    h = getattr(model, f"encode_{stack}")(ids, mask, np.random.default_rng(1)).data
    assert h.shape == (7, 16)
    assert (np.abs(h).sum(axis=-1) > 0).all()


@pytest.mark.parametrize("mask", [[[0, 1, 1]], [[1, 0, 1]], [[1, 1, 1], [0, 0, 1]]],
                         ids=["left_padded", "hole", "second_row"])
def test_encode_rejects_a_mask_that_is_not_right_padded(model, mask):
    mask = np.asarray(mask)
    ids = np.full(mask.shape, 4)
    for encode in (model.encode_generator, model.encode_discriminator):
        with pytest.raises(InputError):
            encode(ids, mask)


def test_generator_covers_mask_positions(model):
    # hidden states exist at every position, masked ones included
    ids, mask = batch([[4, 1, 6, 1, 8]])
    h = model.encode_generator(ids, mask)
    assert np.isfinite(h.data).all()


@pytest.mark.parametrize("stack", ["generator", "discriminator"])
def test_real_positions_ignore_other_rows_and_right_padding(stack):
    # without dropout a row's states at its real positions are the same in any
    # batch at any padded width: views of one width can share an encoder pass,
    # and a ragged pass may split its attention into length groups
    model = Model(tiny_config(dropout_rate=0.0, max_seq_len=96), seed=3)
    encode = getattr(model, f"encode_{stack}")
    short = [[4, 5, 6, 7, 8, 9, 10], [11, 12, 13], [14, 15, 16, 17, 18]]
    ragged = token_rows((80, 10, 10))
    assert len(attention_groups([80, 10, 10])) == 2
    for rows, widths in ((short, (7, 12)), (ragged, (80, 96))):
        alone = [encode(*batch([r])).data for r in rows]
        for width in widths:
            h = encode(*padded(rows, width)).data
            assert h.shape[0] == sum(map(len, rows))
            start = 0
            for r, want in zip(rows, alone):
                np.testing.assert_allclose(h[start:start + len(r)], want, rtol=1e-6, atol=1e-6)
                start += len(r)


def test_split_pass_is_deterministic_under_fixed_seed():
    model = Model(tiny_config(max_seq_len=80), seed=1)
    ids, mask = padded(token_rows((80, 10, 12, 9)), 80)
    assert len(attention_groups(mask.sum(axis=1))) == 2
    for encode in (model.encode_generator, model.encode_discriminator):
        a = encode(ids, mask, np.random.default_rng(5)).data
        b = encode(ids, mask, np.random.default_rng(5)).data
        other = encode(ids, mask, np.random.default_rng(6)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[:80], other[:80]) and not np.array_equal(a[80:], other[80:])


# -- a pass computes only the rows its caller reads ----------------------------------

STACKS = ["generator", "discriminator"]


def ragged_pass(dropout=0.0):
    """A model and a ragged batch of sequences of 70, 8, 6, 12 and 5 tokens
    (rows 0, 70, 78, 84 and 96 on), whose pass splits into two attention groups."""
    model = Model(tiny_config(dropout_rate=dropout, max_seq_len=70), seed=5)
    ids, mask = padded(token_rows((70, 8, 6, 12, 5), seed=9), 70)
    assert len(attention_groups(mask.sum(axis=1))) == 2
    return model, ids, mask


def read_rows(seed=0):
    """Increasing rows from the first, third and last sequences only: the
    second and fourth hold none, and the rest still split in two groups."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.choice(70, 9, replace=False), 78 + rng.choice(6, 3, replace=False),
                           [96, 100]])
    return np.sort(rows)


def weighted_sum_gradients(model, make_rows):
    """The hidden rows `make_rows()` returns, and every parameter gradient of sum(w * h) for them."""
    model.zero_grad()
    with ad.Tape() as tape:
        h = make_rows()
        w = ad.constant(np.random.default_rng(3).normal(size=h.data.shape))
        tape.backward(ad.tensor_sum(ad.mul(h, w)))
    return h.data, {n: p.grad for n, p in model.params.items() if p.grad is not None}


@pytest.mark.parametrize("stack", STACKS)
def test_a_pass_given_rows_returns_those_rows_of_the_full_pass(stack):
    model, ids, mask = ragged_pass()
    encode = getattr(model, f"encode_{stack}")
    rows = read_rows()
    full = encode(ids, mask).data
    h = encode(ids, mask, None, rows).data
    assert h.shape == (len(rows), 16)
    np.testing.assert_allclose(h, full[rows], rtol=0, atol=1e-6 * np.abs(full).max())


@pytest.mark.parametrize("stack", STACKS)
def test_a_pass_given_rows_has_the_gradients_of_the_full_pass_read_at_them(stack):
    model, ids, mask = ragged_pass()
    encode = getattr(model, f"encode_{stack}")
    rows = read_rows(1)
    _, pruned = weighted_sum_gradients(model, lambda: encode(ids, mask, None, rows))
    _, full = weighted_sum_gradients(model, lambda: ad.gather_rows(encode(ids, mask), rows))
    assert set(pruned) == set(full)
    largest = max(float(np.abs(g).max()) for g in full.values())
    for name, g in full.items():
        # the key bias's exact gradient is zero (the softmax ignores a shift of
        # every score of a query), so both sides hold rounding noise alone
        scale = largest if name.endswith(".attn.bk") else float(np.abs(g).max())
        np.testing.assert_allclose(pruned[name], g, rtol=0, atol=1e-6 * scale, err_msg=name)


@pytest.mark.parametrize("stack", STACKS)
def test_a_pass_given_no_rows_encodes_nothing(stack):
    model, ids, mask = ragged_pass(dropout=0.1)
    rng = np.random.default_rng(4)
    with ad.Tape() as tape:
        h = getattr(model, f"encode_{stack}")(ids, mask, rng, np.zeros(0, np.int64))
    assert h.data.shape == (0, 16) and tape.ops == []
    assert rng.random() == np.random.default_rng(4).random()  # no dropout mask was drawn


@pytest.mark.parametrize("stack", STACKS)
def test_an_empty_batch_encodes_to_no_rows(stack):
    # a pass given no rows reads every row, so an empty batch is a pass that reads none
    model, ids, mask = ragged_pass(dropout=0.1)
    rng = np.random.default_rng(4)
    with ad.Tape() as tape:
        h = getattr(model, f"encode_{stack}")(ids[:0], mask[:0], rng)
        assert tape.ops == []
        tape.backward(ad.tensor_sum(h))
    assert h.data.shape == (0, 16)
    assert rng.random() == np.random.default_rng(4).random()  # no dropout mask was drawn


@pytest.mark.parametrize("rows", [[3, 5, 3], [0, 101], [-1, 2], [5, 3]],
                         ids=["repeated", "past_the_end", "negative", "unordered"])
def test_a_pass_refuses_rows_that_repeat_or_fall_outside(rows):
    model, ids, mask = ragged_pass()
    for encode in (model.encode_generator, model.encode_discriminator):
        with pytest.raises(ContractError):
            encode(ids, mask, None, np.asarray(rows))


@pytest.mark.parametrize("stack", STACKS)
def test_a_pass_given_rows_is_deterministic_under_fixed_seed(stack):
    model, ids, mask = ragged_pass(dropout=0.1)
    encode = getattr(model, f"encode_{stack}")
    rows = read_rows(2)
    a = encode(ids, mask, np.random.default_rng(5), rows).data
    b = encode(ids, mask, np.random.default_rng(5), rows).data
    other = encode(ids, mask, np.random.default_rng(6), rows).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, other)


@pytest.mark.parametrize("stack", STACKS)
def test_a_pass_given_every_row_in_order_is_the_pass_given_none(stack):
    # a pass given no rows reads every row in order, so values, dropout draws
    # and gradients are bit-equal
    model, ids, mask = ragged_pass(dropout=0.1)
    encode = getattr(model, f"encode_{stack}")
    (h, grads), (h_every, grads_every) = (
        weighted_sum_gradients(model, lambda: encode(ids, mask, np.random.default_rng(7), rows))
        for rows in (None, np.arange(int(mask.sum()))))
    np.testing.assert_array_equal(h_every, h)
    assert set(grads_every) == set(grads)
    for name, g in grads.items():
        np.testing.assert_array_equal(grads_every[name], g, err_msg=name)


def test_a_one_layer_every_row_pass_records_eighteen_tape_ops():
    # the embedding, its norm and dropout, and the group's relative bias (4);
    # the layer's q/k/v projections and attention (4); the output projection
    # (1), add_layer_norm's dropout, add and norm (3), ffn's matmul, gelu and
    # matmul (3) and add_layer_norm's three again (3). Every row read gathers
    # nothing.
    model = Model(tiny_config(discriminator_layers=1), seed=0)
    ids, mask = padded(token_rows((5, 3, 4)), 5)
    assert len(attention_groups(mask.sum(axis=1))) == 1
    with ad.Tape() as tape:
        model.encode_discriminator(ids, mask, np.random.default_rng(0))
    assert len(tape.ops) == 18


def test_a_one_layer_pass_keeps_only_what_its_backwards_read():
    # 12 rows of width 16 in one (3, 5) grid, 2 heads of 8, ffn 24. Held: the
    # embedded ids; the embedding norm's and both tail norms' normalized rows
    # and 1/sigma; the three dropout masks; the dropped embedding rows that
    # q/k/v read; attention's (3, 2, 5, 8) q/k/v grids, softmax and mask and
    # its four row and cell indices; the contexts the output projection reads;
    # the norm output and GELU output the FFN matmuls read and the GELU
    # derivative. No embedding, norm, q/k/v, projection, FFN or sum output and
    # no relative-bias grid is held.
    model = Model(tiny_config(discriminator_layers=1), seed=0)
    ids, mask = padded(token_rows((5, 3, 4)), 5)
    with ad.Tape() as tape:
        model.encode_discriminator(ids, mask, np.random.default_rng(0))
    # the parameters, and the model's bucket matrix a relative bias reads
    constants = [*model.params.values(), model._buckets]
    assert owned_closure_arrays(tape.ops, constants) == [
        ("bool", (3, 2, 5, 5)), *[("bool", (12, 16))] * 3,
        ("float32", (3, 2, 5, 5)), *[("float32", (3, 2, 5, 8))] * 3,
        *[("float32", (12, 1))] * 3, *[("float32", (12, 16))] * 6,
        *[("float32", (12, 24))] * 2, *[("int64", (12,))] * 5]


def part_and_full_rows(seed=0):
    """Every row of the 70-token sequence and 2 + 3 rows of the 8- and 12-token
    ones, increasing: once the unread sequences are dropped, the pass splits
    into the read-in-part group of those two (width 12, at most 3 reads a
    sequence) and the read-in-full group of the long one."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(70), 70 + rng.choice(8, 2, replace=False),
                           84 + rng.choice(12, 3, replace=False)])
    return np.sort(rows)


@pytest.mark.parametrize("stack", STACKS)
def test_the_last_layer_attends_from_the_read_rows_of_a_group_read_in_part(stack, monkeypatch):
    model, ids, mask = ragged_pass()
    heads = model.config.attention_heads
    shapes = []
    softmax = ad.softmax

    def spy(x, bias=None):
        shapes.append(x.data.shape)
        return softmax(x, bias)

    monkeypatch.setattr(ad, "softmax", spy)
    getattr(model, f"encode_{stack}")(ids, mask, None, part_and_full_rows())
    full_grids = [(2, heads, 12, 12), (1, heads, 70, 70)]
    earlier = full_grids * (getattr(model.config, f"{stack}_layers") - 1)
    assert shapes == earlier + [(2, heads, 3, 12), (1, heads, 70, 70)]


# -- length groups ---------------------------------------------------------------


def attention_cells(groups):
    return sum(int(m.sum()) * w * w for m, w in groups)


@pytest.mark.parametrize("lengths, n_groups", [
    (np.random.default_rng(0).integers(8, 15, size=64), 1),  # a desk-scale pass
    (np.random.default_rng(1).integers(5, 15, size=24), 1),  # a small-scale pass
    ([64, 1], 1),                                          # saves 4095 cells
    ([65, 8], 2),                                          # saves 4161 cells
    ([120, 40, 60, 128, 45, 100, 50, 70], 2),
    (np.random.default_rng(2).integers(40, 129, size=16), 2),
    ([30], 1),
    ([0, 0], 1),
], ids=["desk", "small", "just_below", "just_above", "long_ragged", "long_random",
        "one_row", "empty_rows"])
def test_attention_groups_partition_the_batch_at_the_cheapest_cut(lengths, n_groups):
    lengths = np.asarray(lengths)
    groups = attention_groups(lengths)
    assert len(groups) == n_groups
    members = np.array([m for m, _ in groups])
    np.testing.assert_array_equal(members.sum(axis=0), np.ones(len(lengths)))
    for m, width in groups:
        assert m.any() and width == max(lengths[m].max(), 1)
    # the oracle: every single cut of the sorted batch, and no cut at all
    srt = np.sort(lengths)
    top = max(srt[-1], 1)
    costs = [k * max(srt[k - 1], 1) ** 2 + (len(srt) - k) * top ** 2 for k in range(1, len(srt))]
    one_group = len(srt) * top ** 2
    best = min(costs, default=one_group)
    want = best if one_group - best >= MIN_SPLIT_CELLS else one_group
    assert attention_cells(groups) == want


# -- relative position bias ------------------------------------------------------


def test_bucket_saturates_beyond_max_distance():
    far = relative_position_bucket(np.array([128, 129, 200, 1000]))
    assert len(set(far.tolist())) == 1
    far_neg = relative_position_bucket(np.array([-128, -129, -200, -1000]))
    assert len(set(far_neg.tolist())) == 1


def test_bucket_is_directional():
    assert relative_position_bucket(np.array([3]))[0] != relative_position_bucket(np.array([-3]))[0]


def test_bucket_matrix_depends_only_on_offset():
    m = _bucket_matrix(12, NUM_REL_BUCKETS, 128)
    for k in range(1, 4):
        np.testing.assert_array_equal(m[k:, k:], m[:-k, :-k])
    # so each attention grid's buckets are the top-left block of the model's widest
    np.testing.assert_array_equal(_bucket_matrix(128, NUM_REL_BUCKETS, 128)[:12, :12], m)
    model = Model(tiny_config(max_seq_len=40), seed=0)
    np.testing.assert_array_equal(model._buckets, _bucket_matrix(40, NUM_REL_BUCKETS, 128))


def test_bucket_range_within_table():
    m = _bucket_matrix(16, NUM_REL_BUCKETS, 128)
    assert m.min() >= 0 and m.max() < NUM_REL_BUCKETS


# -- LM head ------------------------------------------------------------------


def test_lm_logits_inner_product_geometry():
    cfg = tiny_config(vocab_size=8, hidden_size=8, attention_heads=2, max_seq_len=8)
    model = Model(cfg, seed=1)
    table = np.zeros((8, 8), dtype=np.float32)
    np.fill_diagonal(table, 1.0)  # orthogonal embedding rows
    model.params["embedding.word"].data = table
    model.params["lm_head.bias"].data = np.zeros(8, dtype=np.float32)
    h = ad.Tensor(np.zeros((3, 8), dtype=np.float32))
    h.data[1] = 10.0 * table[5]
    logits = model.lm_logits(ad.gather_rows(h, [1]))
    assert logits.data.shape == (1, 8)
    assert int(np.argmax(logits.data[0])) == 5


def test_lm_logits_softmax_rows_normalize(model):
    ids, mask = batch([[4, 5, 6, 7]])
    h = model.encode_generator(ids, mask)
    logits = model.lm_logits(ad.gather_rows(h, [1, 3]))
    probs = ad.softmax(logits).data
    np.testing.assert_allclose(probs.sum(axis=-1), [1.0, 1.0], atol=1e-6)


def test_lm_logits_against_dot_product_loop():
    cfg = tiny_config(vocab_size=5, hidden_size=6, attention_heads=2, ffn_inner_size=8)
    model = Model(cfg, seed=2)
    rng = np.random.default_rng(3)
    h = ad.Tensor(rng.normal(size=(3, 6)).astype(np.float32))
    logits = model.lm_logits(ad.gather_rows(h, [0, 1, 2])).data
    table = model.params["embedding.word"].data
    bias = model.params["lm_head.bias"].data
    for p in range(3):
        for v in range(5):
            want = scalar_dot(table[v], h.data[p]) + float(bias[v])
            assert abs(float(logits[p, v]) - want) < 1e-6


def test_lm_logits_empty_positions_gives_empty_tensor(model):
    ids, mask = batch([[4, 5, 6]])
    h = model.encode_generator(ids, mask)
    logits = model.lm_logits(ad.gather_rows(h, []))
    assert logits.data.shape == (0, 32)


def test_tied_head_tracks_embedding_mutation(model):
    ids, mask = batch([[4, 5, 6]])
    h = model.encode_discriminator(ids, mask)  # any hidden source
    before = model.lm_logits(ad.gather_rows(h, [0])).data.copy()
    model.params["embedding.word"].data[9] += 1.0
    after = model.lm_logits(ad.gather_rows(h, [0])).data
    assert after[0, 9] != before[0, 9]
    unchanged = [v for v in range(32) if v != 9]
    np.testing.assert_array_equal(after[0, unchanged], before[0, unchanged])


def test_embedding_receives_grads_from_both_paths(model):
    # generator LM path and discriminator input path both touch the table
    ids, mask = batch([[4, 5, 6, 7]])
    table = model.params["embedding.word"]

    table.grad = None
    with ad.Tape() as tape:
        h = model.encode_generator(ids, mask)
        loss = ad.softmax_cross_entropy(model.lm_logits(ad.gather_rows(h, [2])), [6])
        tape.backward(loss)
    assert table.grad is not None and np.abs(table.grad).sum() > 0

    model.zero_grad()
    with ad.Tape() as tape:
        h = model.encode_discriminator(ids, mask)
        logits = ad.reshape(model.detection_logits(h, "rtd"), (4,))
        loss = ad.sigmoid_bce(logits, np.ones(4))
        tape.backward(loss)
    assert table.grad is not None and np.abs(table.grad).sum() > 0


# -- detection heads ----------------------------------------------------------


def test_zero_head_gives_half_probability(model):
    model.params["head.rtd.w"].data[:] = 0.0
    model.params["head.rtd.b"].data[:] = 0.0
    ids, mask = batch([[4, 5, 6]])
    h = model.encode_discriminator(ids, mask)
    probs = model.detection_probs_detached(h.data, "rtd")
    np.testing.assert_allclose(probs, 0.5 * np.ones(3))


def test_heads_disagree_unless_weights_coincide(model):
    ids, mask = batch([[4, 5, 6]])
    h = model.encode_discriminator(ids, mask)
    rtd = model.detection_logits(h, "rtd").data
    std = model.detection_logits(h, "std").data
    itd = model.detection_logits(h, "itd").data
    assert not np.allclose(rtd, std)
    assert not np.allclose(rtd, itd)
    model.params["head.std.w"].data = model.params["head.rtd.w"].data.copy()
    model.params["head.std.b"].data = model.params["head.rtd.b"].data.copy()
    np.testing.assert_array_equal(model.detection_logits(h, "std").data, rtd)


def test_detection_logit_matches_scalar_dot(model):
    ids, mask = batch([[4, 5, 6, 7]])
    h = model.encode_discriminator(ids, mask)
    logits = model.detection_logits(h, "itd").data
    w = model.params["head.itd.w"].data
    b = float(model.params["head.itd.b"].data[0])
    for p in range(4):
        want = scalar_dot(w, h.data[p]) + b
        assert abs(float(logits[p]) - want) < 1e-7


def test_heads_keep_any_leading_shape(model):
    ids, mask = batch([[4, 5, 6, 7], [8, 9, 10, 11]])
    h = model.encode_discriminator(ids, mask)
    grid = model.detection_logits(ad.reshape(h, (2, 4, 16)), "std").data
    assert grid.shape == (2, 4)
    rows = model.detection_logits(ad.gather_rows(h, [3, 6]), "std").data
    assert rows.shape == (2,)
    np.testing.assert_allclose(rows, [grid[0, 3], grid[1, 2]], rtol=1e-6, atol=1e-7)
    lm = model.lm_logits(ad.reshape(h, (2, 4, 16))).data
    assert lm.shape == (2, 4, 32)
    np.testing.assert_allclose(lm[1, 2], model.lm_logits(ad.gather_rows(h, [6])).data[0],
                               rtol=1e-6, atol=1e-7)


def test_detached_heads_are_the_taped_heads(model):
    ids, mask = batch([[4, 5, 6, 7], [8, 9, 10, 11]])
    h = model.encode_discriminator(ids, mask)
    for head in ("rtd", "std", "itd"):
        logits = model.detection_logits(h, head).data
        np.testing.assert_array_equal(model.detection_probs_detached(h.data, head),
                                      1.0 / (1.0 + np.exp(-logits)))
    np.testing.assert_array_equal(model.lm_probs_detached(h.data),
                                  ad.softmax(model.lm_logits(h)).data)


def test_an_unknown_head_raises_config_error(model):
    h = model.encode_discriminator(*batch([[4, 5, 6]]))
    with pytest.raises(ConfigError):
        model.detection_logits(h, "mlm")
    with pytest.raises(ConfigError):
        model.detection_probs_detached(h.data, "mlm")


def test_rtd_only_gradient_leaves_other_heads_untouched(model):
    ids, mask = batch([[4, 5, 6, 7]])
    model.zero_grad()
    with ad.Tape() as tape:
        h = model.encode_discriminator(ids, mask)
        logits = ad.reshape(model.detection_logits(h, "rtd"), (4,))
        loss = ad.sigmoid_bce(logits, np.ones(4))
        tape.backward(loss)
    assert model.params["head.rtd.w"].grad is not None
    assert model.params["head.std.w"].grad is None
    assert model.params["head.itd.w"].grad is None
    assert model.params["head.std.b"].grad is None
    assert model.params["head.itd.b"].grad is None


# -- end-to-end gradient check through a tiny encoder -----------------------------


def _encoder_fd_failures(cfg, ids, mask, lm_rows, lm_targets, labels, seed=4, rows=None, extra=()):
    """(name, index, analytic, fd) for 20 sampled parameter entries, and one
    entry of each parameter named in `extra`, whose float32 gradient misses the
    float64 central difference by more than 1e-3. Both passes are given `rows`,
    which `lm_rows` and `labels` then index."""
    model32 = Model(cfg, seed=seed)
    model64 = promote_model_to_float64(Model(cfg, seed=seed))

    def loss_on(model):
        h = model.encode_generator(ids, mask, None, rows)
        ce = ad.softmax_cross_entropy(model.lm_logits(ad.gather_rows(h, lm_rows)), lm_targets)
        hd = model.encode_discriminator(ids, mask, None, rows)
        bce = ad.sigmoid_bce(model.detection_logits(hd, "rtd"), labels)
        return ad.add(ce, bce)

    model32.zero_grad()
    with ad.Tape() as tape:
        tape.backward(loss_on(model32))

    rng = np.random.default_rng(12)
    names = [n for n, p in model32.params.items() if p.grad is not None]
    picked = [names[j] for j in rng.choice(len(names), size=20, replace=False)] + list(extra)
    failures = []
    for name in picked:
        p32, p64 = model32.params[name], model64.params[name]
        idx = np.unravel_index(rng.integers(p32.data.size), p32.data.shape)
        fd = fd_gradient(lambda: loss_on(model64), p64, idx)
        analytic = float(p32.grad[idx])
        if relative_error(analytic, fd) > 1e-3:
            failures.append((name, idx, analytic, fd))
    return failures


def test_tiny_encoder_gradients_match_finite_differences():
    ids, mask = batch([[4, 9, 6, 21, 8]])
    failures = _encoder_fd_failures(tiny_config(dropout_rate=0.0), ids, mask,
                                    [1, 3], [9, 21], [1, 1, 0, 1, 0])
    assert failures == [], failures


def test_two_group_encoder_gradients_match_finite_differences():
    rows = token_rows((70, 8, 6), seed=7)
    ids, mask = padded(rows, 70)
    assert len(attention_groups(mask.sum(axis=1))) == 2
    lm_rows = [1, 3, 40, 72, 80]  # both groups: rows 70-77 and 78-83 are the short ones
    labels = np.random.default_rng(8).integers(0, 2, size=84)
    failures = _encoder_fd_failures(tiny_config(dropout_rate=0.0, max_seq_len=70), ids, mask,
                                    lm_rows, ids[mask == 1][lm_rows], labels)
    assert failures == [], failures


def test_pruned_encoder_gradients_match_finite_differences():
    # the short group is read in part and the long one in full
    _, ids, mask = ragged_pass()
    rows = part_and_full_rows(1)
    lm_rows = [0, 3, 70, 71, 74]
    labels = np.random.default_rng(8).integers(0, 2, size=len(rows))
    # the parameters the query grid reads: the relative bias and the last layers' queries
    extra = (("generator.rel_bias",) * 4 + ("discriminator.rel_bias",) * 4
             + ("generator.layer0.attn.wq", "generator.layer0.attn.bq",
                "discriminator.layer1.attn.wq", "discriminator.layer1.attn.bq"))
    failures = _encoder_fd_failures(tiny_config(dropout_rate=0.0, max_seq_len=70), ids, mask,
                                    lm_rows, ids[mask == 1][rows[lm_rows]], labels,
                                    rows=rows, extra=extra)
    assert failures == [], failures
