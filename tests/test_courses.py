import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicourse import autodiff as ad
from multicourse.courses import (
    CorruptionRates,
    TokenSequence,
    apply_insert,
    apply_mask,
    apply_swap,
    course_batch,
    itd_labels,
    loss_itd,
    loss_mlm,
    loss_rtd,
    loss_slm,
    loss_std,
    original_labels,
    pad_batch,
    plan_corruption,
    sample_rows,
    splice_generator_samples,
)
from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import ConfigError, ContractError, DimensionError, InputError
from multicourse.vocab import MASK_ID

from helpers import scalar_bce, scalar_softmax_ce

DATA = Path(__file__).parent / "data"


def seq(ids):
    return TokenSequence(ids)


def packed(views):
    """Views of several sequences as one packed id array and its lengths."""
    return np.concatenate(views), [len(v) for v in views]


def rng_(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = EncoderConfig(vocab_size=10, hidden_size=8, generator_layers=1,
                        discriminator_layers=1, attention_heads=2, ffn_inner_size=12,
                        max_seq_len=12, dropout_rate=0.0)
    return Model(cfg, seed=0)


# -- plans -------------------------------------------------------------------


def test_zero_rates_give_empty_plan():
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    assert plan.mask_positions.size == 0
    assert plan.swap_positions.size == 0
    assert plan.insert_positions.size == 0
    np.testing.assert_array_equal(apply_mask(x.ids, plan.mask_positions), x.ids)


def test_fifteen_percent_of_twenty_is_three():
    x = seq(list(range(4, 24)))
    plan = plan_corruption(x, CorruptionRates(0.15, 0.15, 0.15), rng_())
    assert len(plan.mask_positions) == 3
    assert len(plan.swap_positions) == 3
    assert len(plan.insert_positions) == 3


def test_plan_reproducible_and_matches_golden():
    golden = json.loads((DATA / "plan_golden.json").read_text())
    x = seq(golden["ids"])
    rates = CorruptionRates(*golden["rates"])
    a = plan_corruption(x, rates, np.random.default_rng(golden["seed"]))
    b = plan_corruption(x, rates, np.random.default_rng(golden["seed"]))
    for plan in (a, b):
        assert plan.mask_positions.tolist() == golden["mask_positions"]
        assert plan.swap_positions.tolist() == golden["swap_positions"]
        assert plan.swap_sources.tolist() == golden["swap_sources"]
        assert plan.insert_positions.tolist() == golden["insert_positions"]
        assert plan.extended_length == golden["extended_length"]


def test_rates_out_of_range_rejected():
    with pytest.raises(ConfigError):
        CorruptionRates(mask_rate=0.6)
    with pytest.raises(ConfigError):
        CorruptionRates(swap_rate=-0.1)


def test_too_short_sequence_rejected():
    with pytest.raises(InputError):
        plan_corruption(seq([4]), CorruptionRates(), rng_())


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2 ** 32 - 1))
def test_plan_counts_follow_rates(n_real, rseed):
    x = seq(list(range(4, 4 + n_real)))
    plan = plan_corruption(x, CorruptionRates(0.15, 0.3, 0.1), rng_(rseed))
    assert len(plan.mask_positions) == int(np.floor(0.15 * n_real + 0.5))
    assert len(plan.swap_positions) == int(np.floor(0.3 * n_real + 0.5))
    assert len(plan.insert_positions) == int(np.floor(0.1 * n_real + 0.5))
    assert plan.extended_length == n_real + len(plan.insert_positions)
    # permutation is a bijection on the swap set
    assert sorted(plan.swap_sources.tolist()) == sorted(plan.swap_positions.tolist())


# -- view construction -----------------------------------------------------------


def test_apply_mask_direct_substitution():
    # two packed sequences [4 5 6 7] [8 9]; rows 1, 3 and 5
    ids = np.array([4, 5, 6, 7, 8, 9])
    np.testing.assert_array_equal(apply_mask(ids, np.array([1, 3, 5])),
                                  [4, MASK_ID, 6, MASK_ID, 8, MASK_ID])
    np.testing.assert_array_equal(ids, [4, 5, 6, 7, 8, 9])  # the originals stay


def test_apply_mask_idempotent_on_masked():
    ids = np.array([4, MASK_ID, 6])
    np.testing.assert_array_equal(apply_mask(ids, np.array([1])), ids)


def test_apply_swap_two_cycle():
    # a two-cycle in each of two packed sequences
    ids = np.array([4, 5, 6, 7, 8, 9, 10])
    swapped = apply_swap(ids, np.array([0, 3, 4, 6]), np.array([3, 0, 6, 4]))
    np.testing.assert_array_equal(swapped, [7, 5, 6, 4, 10, 9, 8])


def test_apply_swap_empty_is_identity():
    ids = np.array([4, 5, 6])
    empty = np.zeros(0, np.int64)
    np.testing.assert_array_equal(apply_swap(ids, empty, empty), ids)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 24), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
def test_swap_preserves_multiset(lengths, rseed):
    rng = rng_(rseed)
    xs = [seq(rng.integers(4, 50, size=n).tolist()) for n in lengths]
    plans = [plan_corruption(x, CorruptionRates(0, 0.5, 0), rng) for x in xs]
    batch = course_batch(xs, plans, {})
    swapped = apply_swap(batch.ids, batch.swap_rows, batch.swap_sources)
    # each sequence keeps its own multiset: a swap never crosses sequences
    for x, view in zip(xs, np.split(swapped, np.cumsum(lengths)[:-1])):
        assert sorted(view.tolist()) == sorted(x.ids.tolist())
    untouched = np.setdiff1d(np.arange(len(batch.ids)), batch.swap_rows)
    np.testing.assert_array_equal(swapped[untouched], batch.ids[untouched])


def test_course_batch_rows_follow_each_sequence_start():
    xs = [seq([4, 5, 6, 7, 8]), seq([9, 8, 7]), seq(list(range(4, 14)))]
    rng = rng_(4)
    plans = [plan_corruption(x, CorruptionRates(0.3, 0.4, 0.3), rng) for x in xs]
    inserted = {0: apply_insert(xs[0], plans[0]), 2: apply_insert(xs[2], plans[2])}
    batch = course_batch(xs, plans, inserted)
    np.testing.assert_array_equal(batch.ids, np.concatenate([x.ids for x in xs]))
    assert batch.lengths.tolist() == [5, 3, 10]
    assert batch.itd_kept == [0, 2] and batch.inserted_lengths.tolist() == [
        plans[0].extended_length, plans[2].extended_length]
    np.testing.assert_array_equal(batch.inserted, np.concatenate([inserted[0], inserted[2]]))
    # oracle: a loop adding each sequence's start to its positions
    want = {"mask_rows": [], "swap_rows": [], "swap_sources": [], "insert_rows": []}
    start = 0
    for x, p in zip(xs, plans):
        want["mask_rows"] += [start + int(i) for i in p.mask_positions]
        want["swap_rows"] += [start + int(i) for i in p.swap_positions]
        want["swap_sources"] += [start + int(i) for i in p.swap_sources]
        start += x.n_real
    start = 0
    for j in (0, 2):
        want["insert_rows"] += [start + int(i) for i in plans[j].insert_positions]
        start += plans[j].extended_length
    for name, rows in want.items():
        assert getattr(batch, name).dtype == np.int64
        assert getattr(batch, name).tolist() == rows, name
    np.testing.assert_array_equal(batch.inserted[batch.insert_rows], MASK_ID)


def test_pad_batch_fills_a_right_padded_grid():
    ids, mask = pad_batch(np.array([4, 5, 6, 7, 8, 9]), [2, 4])
    np.testing.assert_array_equal(ids, [[4, 5, 0, 0], [6, 7, 8, 9]])
    np.testing.assert_array_equal(mask, [[1, 1, 0, 0], [1, 1, 1, 1]])
    assert ids.dtype == mask.dtype == np.int64


def test_apply_insert_single_gap():
    x = seq([4, 5])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    plan.insert_positions = np.array([1])
    plan.extended_length = 3
    np.testing.assert_array_equal(apply_insert(x, plan), [4, MASK_ID, 5])


def test_apply_insert_empty_is_identity():
    x = seq([4, 5, 6])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    np.testing.assert_array_equal(apply_insert(x, plan), x.ids)


def test_apply_insert_overflow_rejected():
    x = seq(list(range(4, 14)))
    plan = plan_corruption(x, CorruptionRates(0, 0, 0.3), rng_())
    with pytest.raises(InputError):
        apply_insert(x, plan, max_len=10)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2 ** 32 - 1))
def test_insert_then_delete_recovers_original(n_real, rseed):
    rng = rng_(rseed)
    x = seq(rng.integers(4, 50, size=n_real).tolist())
    plan = plan_corruption(x, CorruptionRates(0, 0, 0.5), rng)
    ext = apply_insert(x, plan)
    assert len(ext) == plan.extended_length
    assert (ext[plan.insert_positions] == MASK_ID).all()
    kept = np.setdiff1d(np.arange(plan.extended_length), plan.insert_positions)
    np.testing.assert_array_equal(ext[kept], x.ids)


# -- generator splicing --------------------------------------------------------


def test_splice_degenerate_distribution(tiny_model):
    # force a one-hot LM distribution by a huge bias on one vocab entry
    tiny_model.params["lm_head.bias"].data[:] = 0.0
    tiny_model.params["lm_head.bias"].data[7] = 1e4
    view = np.array([4, 5, 6, 8, 9])  # two packed sequences, one row sampled in each
    h = np.zeros((2, 8), dtype=np.float32)  # the hidden rows of the two sampled rows
    out = splice_generator_samples(tiny_model, view, h, np.array([1, 3]), rng_())
    np.testing.assert_array_equal(out, [4, 7, 6, 7, 9])
    tiny_model.params["lm_head.bias"].data[:] = 0.0


def test_splice_empty_positions_is_identity(tiny_model):
    view = np.array([4, 5, 6])
    h = np.zeros((0, 8), dtype=np.float32)
    out = splice_generator_samples(tiny_model, view, h, np.zeros(0, np.int64), rng_())
    np.testing.assert_array_equal(out, view)
    assert out is not view


def test_splice_refuses_hidden_rows_not_aligned_with_its_rows(tiny_model):
    # one hidden row for two sampled rows would otherwise broadcast one draw
    with pytest.raises(ContractError):
        splice_generator_samples(tiny_model, np.array([4, 5, 6]), np.zeros((1, 8), np.float32),
                                 np.array([0, 2]), rng_())


def test_splice_touches_only_its_positions(tiny_model):
    rng = rng_(5)
    view = np.array([4, 5, 6, 7, 8])
    rows = np.array([1, 4])
    h = rng.normal(size=(5, 8)).astype(np.float32)
    out = splice_generator_samples(tiny_model, view, h[rows], rows, rng)
    untouched = [0, 2, 3]
    np.testing.assert_array_equal(out[untouched], view[untouched])


def test_splice_draws_what_one_sequence_at_a_time_draws(tiny_model):
    rng = rng_(6)
    view = np.array([4, 5, 6, 7, 8, 9, 4])  # sequences of 3 and 4 rows
    h = rng.normal(size=(7, 8)).astype(np.float32)
    rows = np.array([0, 2, 4, 5])
    pooled = splice_generator_samples(tiny_model, view, h[rows], rows, rng_(9))
    draws, one_at_a_time = rng_(9), []
    for a, b, sampled in ((0, 3, [0, 2]), (3, 7, [1, 2])):
        one_at_a_time.append(splice_generator_samples(tiny_model, view[a:b], h[a:b][sampled],
                                                      np.array(sampled), draws))
    np.testing.assert_array_equal(pooled, np.concatenate(one_at_a_time))


def test_sample_frequencies_match_distribution():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    draws = sample_rows(np.tile(probs, (100_000, 1)), rng_(123))
    freq = np.bincount(draws, minlength=4) / 100_000
    assert np.abs(freq - probs).max() < 0.01


# -- losses against enumeration oracles ----------------------------------------


def _hidden_for(model, views):
    return model.encode_generator(*pad_batch(*packed(views)))


def _batch(xs, plans):
    return course_batch(xs, plans, {})


def test_loss_mlm_uniform_logits_is_ln_vocab(tiny_model):
    # zero embeddings at output rows -> logits constant -> uniform over V=10
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0.5, 0, 0), rng_(1))
    saved = tiny_model.params["embedding.word"].data.copy()
    tiny_model.params["embedding.word"].data[:] = 0.0
    try:
        h = _hidden_for(tiny_model, [apply_mask(x.ids, plan.mask_positions)])
        loss = loss_mlm(tiny_model, ad.gather_rows(h, plan.mask_positions), _batch([x], [plan]))
        assert abs(float(loss.data) - np.log(10)) < 1e-5
    finally:
        tiny_model.params["embedding.word"].data = saved


def test_loss_mlm_empty_everywhere_is_zero(tiny_model):
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    h = _hidden_for(tiny_model, [x.ids])
    loss = loss_mlm(tiny_model, ad.gather_rows(h, plan.mask_positions), _batch([x], [plan]))
    assert float(loss.data) == 0.0


def _starts(seqs):
    """Packed row of each sequence's first token, counted one sequence at a time."""
    starts, row = [], 0
    for s in seqs:
        starts.append(row)
        row += len(s)
    return starts


def _ce_oracle(model, h, seqs, position_lists, target_lists):
    table = model.params["embedding.word"].data
    bias = model.params["lm_head.bias"].data
    logits, targets = [], []
    for start, positions, targs in zip(_starts(seqs), position_lists, target_lists):
        for p, tgt in zip(positions, targs):
            row = [float(np.dot(table[v], h.data[start + p])) + float(bias[v])
                   for v in range(table.shape[0])]
            logits.append(row)
            targets.append(int(tgt))
    return scalar_softmax_ce(logits, targets)


def test_loss_mlm_matches_enumeration_oracle(tiny_model):
    xs = [seq([4, 5, 6, 7, 8]), seq([9, 8, 7, 6])]
    plans = [plan_corruption(x, CorruptionRates(0.4, 0, 0), rng_(i)) for i, x in enumerate(xs)]
    batch = _batch(xs, plans)
    views = [apply_mask(x.ids, p.mask_positions) for x, p in zip(xs, plans)]
    np.testing.assert_array_equal(apply_mask(batch.ids, batch.mask_rows), np.concatenate(views))
    h = _hidden_for(tiny_model, views)
    loss = loss_mlm(tiny_model, ad.gather_rows(h, batch.mask_rows), batch)
    oracle = _ce_oracle(tiny_model, h, views,
                        [p.mask_positions for p in plans],
                        [x.ids[p.mask_positions] for x, p in zip(xs, plans)])
    assert abs(float(loss.data) - oracle) < 1e-6


def test_loss_slm_matches_enumeration_oracle(tiny_model):
    xs = [seq([4, 5, 6, 7, 8, 9])]
    plans = [plan_corruption(xs[0], CorruptionRates(0, 0.4, 0), rng_(7))]
    views = [apply_swap(xs[0].ids, plans[0].swap_positions, plans[0].swap_sources)]
    h = _hidden_for(tiny_model, views)
    loss = loss_slm(tiny_model, ad.gather_rows(h, plans[0].swap_positions), _batch(xs, plans))
    oracle = _ce_oracle(tiny_model, h, views,
                        [plans[0].swap_positions],
                        [xs[0].ids[plans[0].swap_positions]])
    assert abs(float(loss.data) - oracle) < 1e-6
    # full-vocabulary logits: same head as the cloze course
    assert tiny_model.lm_logits(ad.gather_rows(h, [0])).data.shape[-1] == 10


def _bce_oracle(model, h, head, seqs, position_lists, label_lists):
    w = model.params[f"head.{head}.w"].data
    b = float(model.params[f"head.{head}.b"].data[0])
    logits, labels = [], []
    for start, positions, labs in zip(_starts(seqs), position_lists, label_lists):
        for p, y in zip(positions, labs):
            logits.append(float(np.dot(w, h.data[start + p])) + b)
            labels.append(float(y))
    return scalar_bce(logits, labels)


def test_loss_rtd_label_derivation_and_oracle(tiny_model):
    x = np.array([4, 5, 6, 7, 8, 9])
    view = np.array([4, 5, 9, 7, 8, 9])  # position 2 replaced
    h = tiny_model.encode_discriminator(*pad_batch(view, [6]))
    labels = original_labels(view, x)
    np.testing.assert_array_equal(labels, [1, 1, 0, 1, 1, 1])
    loss = loss_rtd(tiny_model, h, view, x)
    oracle = _bce_oracle(tiny_model, h, "rtd", [view], [range(6)], [labels])
    assert abs(float(loss.data) - oracle) < 1e-7


def test_loss_rtd_perfect_generator_all_original(tiny_model):
    x = np.array([4, 5, 6])
    h = tiny_model.encode_discriminator(*pad_batch(x, [3]))
    loss = loss_rtd(tiny_model, h, x.copy(), x)
    oracle = _bce_oracle(tiny_model, h, "rtd", [x], [[0, 1, 2]], [[1, 1, 1]])
    assert abs(float(loss.data) - oracle) < 1e-7


def test_loss_rtd_zero_head_is_ln2(tiny_model):
    saved_w = tiny_model.params["head.rtd.w"].data.copy()
    tiny_model.params["head.rtd.w"].data[:] = 0.0
    tiny_model.params["head.rtd.b"].data[:] = 0.0
    try:
        x = np.array([4, 5, 6, 7])
        h = tiny_model.encode_discriminator(*pad_batch(x, [4]))
        loss = loss_rtd(tiny_model, h, x.copy(), x)
        assert abs(float(loss.data) - np.log(2)) < 1e-6
    finally:
        tiny_model.params["head.rtd.w"].data = saved_w


def test_loss_std_resampled_original_counts_as_original(tiny_model):
    x = np.array([4, 5, 6, 7])
    # swap hit positions 1,2 but the generator resampled both originals
    view = np.array([4, 5, 6, 7])
    labels = original_labels(view, x)
    np.testing.assert_array_equal(labels, [1, 1, 1, 1])
    h = tiny_model.encode_discriminator(*pad_batch(view, [4]))
    loss = loss_std(tiny_model, h, view, x)
    assert abs(float(loss.data) - _bce_oracle(tiny_model, h, "std", [view], [range(4)], [labels])) < 1e-7


def test_loss_itd_labels_by_construction(tiny_model):
    xs = [seq([4, 5, 6, 7, 8, 9, 4, 5]), seq([6, 7, 8, 9])]
    plans = [plan_corruption(x, CorruptionRates(0, 0, 0.25), rng_(3)) for x in xs]
    exts = [apply_insert(x, p) for x, p in zip(xs, plans)]
    label_lists = [itd_labels(p.extended_length, p.insert_positions) for p in plans]
    assert label_lists[0].sum() == 8 and len(label_lists[0]) == 10
    # non-original fraction is exactly |i| / (n_real + |i|)
    assert (1 - label_lists[0]).sum() / len(label_lists[0]) == 2 / 10
    batch = course_batch(xs, plans, dict(enumerate(exts)))
    np.testing.assert_array_equal(itd_labels(len(batch.inserted), batch.insert_rows),
                                  np.concatenate(label_lists))
    h = tiny_model.encode_discriminator(*pad_batch(*packed(exts)))
    loss = loss_itd(tiny_model, h, batch)
    oracle = _bce_oracle(tiny_model, h, "itd", exts, [range(10), range(5)], label_lists)
    assert abs(float(loss.data) - oracle) < 1e-7


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("course", ["mlm", "slm", "rtd", "std", "itd"])
def test_each_loss_refuses_a_block_of_the_wrong_size(tiny_model, course, extra):
    xs = [seq([4, 5, 6, 7, 8, 9, 4, 5]), seq([6, 7, 8, 9])]
    plans = [plan_corruption(x, CorruptionRates(0.25, 0.25, 0.25), rng_(3)) for x in xs]
    batch = course_batch(xs, plans, {i: apply_insert(x, p)
                                     for i, (x, p) in enumerate(zip(xs, plans))})
    view = apply_swap(batch.ids, batch.swap_rows, batch.swap_sources)
    loss, n = {
        "mlm": (lambda h: loss_mlm(tiny_model, h, batch), len(batch.mask_rows)),
        "slm": (lambda h: loss_slm(tiny_model, h, batch), len(batch.swap_rows)),
        "rtd": (lambda h: loss_rtd(tiny_model, h, view, batch.ids), len(view)),
        "std": (lambda h: loss_std(tiny_model, h, view, batch.ids), len(view)),
        "itd": (lambda h: loss_itd(tiny_model, h, batch), len(batch.inserted)),
    }[course]
    rows = rng_(0).normal(size=(n + 1, 8)).astype(np.float32)
    assert np.isfinite(loss(ad.Tensor(rows[:n])).data)  # its own block: one row per target
    with pytest.raises(DimensionError):
        loss(ad.Tensor(rows[:n + extra]))


def test_loss_itd_no_insertions_all_original():
    plan = plan_corruption(seq([4, 5, 6]), CorruptionRates(0, 0, 0), rng_())
    np.testing.assert_array_equal(itd_labels(plan.extended_length, plan.insert_positions), [1, 1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 20), st.integers(0, 2 ** 32 - 1))
def test_itd_label_fraction_exact(n_real, rseed):
    x = seq(list(range(4, 4 + n_real)))
    plan = plan_corruption(x, CorruptionRates(0, 0, 0.15), rng_(rseed))
    labels = itd_labels(plan.extended_length, plan.insert_positions)
    k = len(plan.insert_positions)
    assert (1 - labels).sum() == k
    assert len(labels) == n_real + k


def test_padding_excluded_from_losses(tiny_model):
    x = np.array([4, 5, 6, 7, 8, 9, 4, 5])
    view = np.array([4, 9, 6, 7, 8, 9, 4, 6])  # sequences of 3 and 5 tokens
    ids, mask = pad_batch(view, [3, 5])
    assert ids.shape == (2, 5) and mask[0].tolist() == [1, 1, 1, 0, 0]
    h = tiny_model.encode_discriminator(ids, mask)
    assert h.data.shape == (8, 8)  # the packed real rows, 3 + 5
    labels = original_labels(view, x)
    loss = loss_rtd(tiny_model, h, view, x)
    oracle = _bce_oracle(tiny_model, h, "rtd", [view[:3], view[3:]], [range(3), range(5)],
                         [labels[:3], labels[3:]])
    assert abs(float(loss.data) - oracle) < 1e-7
