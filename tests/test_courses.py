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
from multicourse.errors import ConfigError, InputError
from multicourse.vocab import MASK_ID

from helpers import scalar_bce, scalar_softmax_ce

DATA = Path(__file__).parent / "data"


def seq(ids):
    return TokenSequence(ids)


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
    np.testing.assert_array_equal(apply_mask(x, plan).ids, x.ids)


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
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    plan.mask_positions = np.array([1, 3])
    np.testing.assert_array_equal(apply_mask(x, plan).ids, [4, MASK_ID, 6, MASK_ID])


def test_apply_mask_idempotent_on_masked():
    x = seq([4, MASK_ID, 6])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    plan.mask_positions = np.array([1])
    np.testing.assert_array_equal(apply_mask(x, plan).ids, x.ids)


def test_apply_swap_two_cycle():
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    plan.swap_positions = np.array([0, 3])
    plan.swap_sources = np.array([3, 0])
    np.testing.assert_array_equal(apply_swap(x, plan).ids, [7, 5, 6, 4])


def test_apply_swap_empty_is_identity():
    x = seq([4, 5, 6])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    np.testing.assert_array_equal(apply_swap(x, plan).ids, x.ids)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2 ** 32 - 1))
def test_swap_preserves_multiset(n_real, rseed):
    rng = rng_(rseed)
    x = seq(rng.integers(4, 50, size=n_real).tolist())
    plan = plan_corruption(x, CorruptionRates(0, 0.5, 0), rng)
    swapped = apply_swap(x, plan)
    assert sorted(swapped.ids.tolist()) == sorted(x.ids.tolist())
    untouched = np.setdiff1d(np.arange(n_real), plan.swap_positions)
    np.testing.assert_array_equal(swapped.ids[untouched], x.ids[untouched])


def test_apply_insert_single_gap():
    x = seq([4, 5])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    plan.insert_positions = np.array([1])
    plan.extended_length = 3
    np.testing.assert_array_equal(apply_insert(x, plan).ids, [4, MASK_ID, 5])


def test_apply_insert_empty_is_identity():
    x = seq([4, 5, 6])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    np.testing.assert_array_equal(apply_insert(x, plan).ids, x.ids)


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
    assert len(ext.ids) == plan.extended_length
    assert (ext.ids[plan.insert_positions] == MASK_ID).all()
    kept = np.setdiff1d(np.arange(plan.extended_length), plan.insert_positions)
    np.testing.assert_array_equal(ext.ids[kept], x.ids)


# -- generator splicing --------------------------------------------------------


def test_splice_degenerate_distribution(tiny_model):
    # force a one-hot LM distribution by a huge bias on one vocab entry
    tiny_model.params["lm_head.bias"].data[:] = 0.0
    tiny_model.params["lm_head.bias"].data[7] = 1e4
    view = seq([4, 5, 6])
    h = ad.Tensor(np.zeros((3, 8), dtype=np.float32))
    out = splice_generator_samples(tiny_model, view, h, [1], rng_())
    np.testing.assert_array_equal(out.ids, [4, 7, 6])
    tiny_model.params["lm_head.bias"].data[:] = 0.0


def test_splice_empty_positions_is_identity(tiny_model):
    view = seq([4, 5, 6])
    h = ad.Tensor(np.zeros((3, 8), dtype=np.float32))
    out = splice_generator_samples(tiny_model, view, h, [], rng_())
    np.testing.assert_array_equal(out.ids, view.ids)
    assert out.ids is not view.ids


def test_splice_touches_only_its_positions(tiny_model):
    rng = rng_(5)
    view = seq([4, 5, 6, 7, 8])
    h = ad.Tensor(rng.normal(size=(5, 8)).astype(np.float32))
    out = splice_generator_samples(tiny_model, view, h, [1, 4], rng)
    untouched = [0, 2, 3]
    np.testing.assert_array_equal(out.ids[untouched], view.ids[untouched])


def test_sample_frequencies_match_distribution():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    draws = sample_rows(np.tile(probs, (100_000, 1)), rng_(123))
    freq = np.bincount(draws, minlength=4) / 100_000
    assert np.abs(freq - probs).max() < 0.01


# -- losses against enumeration oracles ----------------------------------------


def _hidden_for(model, views):
    ids, mask = pad_batch(views)
    return model.encode_generator(ids, mask)


def test_loss_mlm_uniform_logits_is_ln_vocab(tiny_model):
    # zero embeddings at output rows -> logits constant -> uniform over V=10
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0.5, 0, 0), rng_(1))
    saved = tiny_model.params["embedding.word"].data.copy()
    tiny_model.params["embedding.word"].data[:] = 0.0
    try:
        h = _hidden_for(tiny_model, [apply_mask(x, plan)])
        loss = loss_mlm(tiny_model, h, [plan], [x])
        assert abs(loss.item() - np.log(10)) < 1e-5
    finally:
        tiny_model.params["embedding.word"].data = saved


def test_loss_mlm_empty_everywhere_is_zero(tiny_model):
    x = seq([4, 5, 6, 7])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0), rng_())
    h = _hidden_for(tiny_model, [x])
    assert loss_mlm(tiny_model, h, [plan], [x]).item() == 0.0


def _starts(seqs):
    """Packed row of each sequence's first token, counted one sequence at a time."""
    starts, row = [], 0
    for s in seqs:
        starts.append(row)
        row += len(s.ids)
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
    views = [apply_mask(x, p) for x, p in zip(xs, plans)]
    h = _hidden_for(tiny_model, views)
    loss = loss_mlm(tiny_model, h, plans, xs)
    oracle = _ce_oracle(tiny_model, h, views,
                        [p.mask_positions for p in plans],
                        [x.ids[p.mask_positions] for x, p in zip(xs, plans)])
    assert abs(loss.item() - oracle) < 1e-6


def test_loss_slm_matches_enumeration_oracle(tiny_model):
    xs = [seq([4, 5, 6, 7, 8, 9])]
    plans = [plan_corruption(xs[0], CorruptionRates(0, 0.4, 0), rng_(7))]
    views = [apply_swap(xs[0], plans[0])]
    h = _hidden_for(tiny_model, views)
    loss = loss_slm(tiny_model, h, plans, xs)
    oracle = _ce_oracle(tiny_model, h, views,
                        [plans[0].swap_positions],
                        [xs[0].ids[plans[0].swap_positions]])
    assert abs(loss.item() - oracle) < 1e-6
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
    x = seq([4, 5, 6, 7, 8, 9])
    view = seq([4, 5, 9, 7, 8, 9])  # position 2 replaced
    ids, mask = pad_batch([view])
    h = tiny_model.encode_discriminator(ids, mask)
    labels = original_labels(view, x)
    np.testing.assert_array_equal(labels, [1, 1, 0, 1, 1, 1])
    loss = loss_rtd(tiny_model, h, [view], [x])
    oracle = _bce_oracle(tiny_model, h, "rtd", [view], [range(6)], [labels])
    assert abs(loss.item() - oracle) < 1e-7


def test_loss_rtd_perfect_generator_all_original(tiny_model):
    x = seq([4, 5, 6])
    ids, mask = pad_batch([x])
    h = tiny_model.encode_discriminator(ids, mask)
    loss = loss_rtd(tiny_model, h, [x.copy()], [x])
    oracle = _bce_oracle(tiny_model, h, "rtd", [x], [[0, 1, 2]], [[1, 1, 1]])
    assert abs(loss.item() - oracle) < 1e-7


def test_loss_rtd_zero_head_is_ln2(tiny_model):
    saved_w = tiny_model.params["head.rtd.w"].data.copy()
    tiny_model.params["head.rtd.w"].data[:] = 0.0
    tiny_model.params["head.rtd.b"].data[:] = 0.0
    try:
        x = seq([4, 5, 6, 7])
        ids, mask = pad_batch([x])
        h = tiny_model.encode_discriminator(ids, mask)
        loss = loss_rtd(tiny_model, h, [x.copy()], [x])
        assert abs(loss.item() - np.log(2)) < 1e-6
    finally:
        tiny_model.params["head.rtd.w"].data = saved_w


def test_loss_std_resampled_original_counts_as_original(tiny_model):
    x = seq([4, 5, 6, 7])
    # swap hit positions 1,2 but the generator resampled both originals
    view = seq([4, 5, 6, 7])
    labels = original_labels(view, x)
    np.testing.assert_array_equal(labels, [1, 1, 1, 1])
    ids, mask = pad_batch([view])
    h = tiny_model.encode_discriminator(ids, mask)
    loss = loss_std(tiny_model, h, [view], [x])
    assert abs(loss.item() - _bce_oracle(tiny_model, h, "std", [view], [range(4)], [labels])) < 1e-7


def test_loss_itd_labels_by_construction(tiny_model):
    x = seq([4, 5, 6, 7, 8, 9, 4, 5])
    plan = plan_corruption(x, CorruptionRates(0, 0, 0.25), rng_(3))
    ext = apply_insert(x, plan)
    labels = itd_labels(plan)
    assert labels.sum() == 8 and len(labels) == 10
    # non-original fraction is exactly |i| / (n_real + |i|)
    assert (1 - labels).sum() / len(labels) == 2 / 10
    ids, mask = pad_batch([ext])
    h = tiny_model.encode_discriminator(ids, mask)
    loss = loss_itd(tiny_model, h, [plan])
    oracle = _bce_oracle(tiny_model, h, "itd", [ext], [range(10)], [labels])
    assert abs(loss.item() - oracle) < 1e-7


def test_loss_itd_no_insertions_all_original():
    labels = itd_labels(plan_corruption(seq([4, 5, 6]), CorruptionRates(0, 0, 0), rng_()))
    np.testing.assert_array_equal(labels, [1, 1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 20), st.integers(0, 2 ** 32 - 1))
def test_itd_label_fraction_exact(n_real, rseed):
    x = seq(list(range(4, 4 + n_real)))
    plan = plan_corruption(x, CorruptionRates(0, 0, 0.15), rng_(rseed))
    labels = itd_labels(plan)
    k = len(plan.insert_positions)
    assert (1 - labels).sum() == k
    assert len(labels) == n_real + k


def test_padding_excluded_from_losses(tiny_model):
    xs = [seq([4, 5, 6]), seq([7, 8, 9, 4, 5])]
    views = [seq([4, 9, 6]), seq([7, 8, 9, 4, 6])]
    ids, mask = pad_batch(views)
    assert ids.shape == (2, 5) and mask[0].tolist() == [1, 1, 1, 0, 0]
    h = tiny_model.encode_discriminator(ids, mask)
    assert h.data.shape == (8, 8)  # the packed real rows, 3 + 5
    labels = list(map(original_labels, views, xs))
    loss = loss_rtd(tiny_model, h, views, xs)
    oracle = _bce_oracle(tiny_model, h, "rtd", views, [range(3), range(5)], labels)
    assert abs(loss.item() - oracle) < 1e-7
