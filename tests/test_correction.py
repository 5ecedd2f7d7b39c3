from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicourse import autodiff as ad
from multicourse.correction import (
    build_rediscrimination,
    build_regeneration,
    classify_confusion,
    loss_rediscrimination,
    loss_regeneration,
)
from multicourse.courses import (
    CorruptionRates,
    TokenSequence,
    apply_mask,
    loss_mlm,
    pad_batch,
    plan_corruption,
)
from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import ContractError, DimensionError
from multicourse.vocab import MASK_ID

from helpers import scalar_bce, scalar_softmax_ce


def seq(ids):
    return np.asarray(ids, dtype=np.int64)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = EncoderConfig(vocab_size=10, hidden_size=8, generator_layers=1,
                        discriminator_layers=1, attention_heads=2, ffn_inner_size=12,
                        max_seq_len=12, dropout_rate=0.0)
    return Model(cfg, seed=3)


# -- confusion cells ------------------------------------------------------------


def test_perfect_generator_and_discriminator_all_pos1():
    x = seq([4, 5, 6])
    nb = classify_confusion(x, x.copy(), [0.9, 0.9, 0.9])
    assert nb.pos1.tolist() == [0, 1, 2]
    assert nb.pos2.size == nb.pos3.size == nb.pos4.size == 0


def test_missed_replacement_lands_in_pos2():
    x = seq([4, 5, 6])
    view = seq([4, 9, 6])
    nb = classify_confusion(x, view, [0.9, 0.7, 0.9])
    assert 1 in nb.pos2.tolist()


def test_full_table_mapping():
    x = seq([4, 5, 6])
    view = seq([4, 9, 6])  # position 1 replaced
    nb = classify_confusion(x, view, [0.2, 0.3, 0.9])
    assert nb.pos3.tolist() == [0]   # original flagged as replaced
    assert nb.pos4.tolist() == [1]   # replaced and caught
    assert nb.pos1.tolist() == [2]   # original and passed
    assert nb.pos2.size == 0


def test_length_mismatch_rejected_for_insertion_views():
    x = seq([4, 5, 6])
    extended = seq([4, MASK_ID, 5, 6])
    with pytest.raises(ContractError):
        classify_confusion(x, extended, [0.5] * 4)


def test_probability_count_must_match_sequence():
    x = seq([4, 5, 6])
    for probs in ([0.9, 0.9], [0.9] * 4):
        with pytest.raises(ContractError):
            classify_confusion(x, x.copy(), probs)


def test_threshold_boundary_is_original_prediction():
    x = seq([4])
    # pre: n>=1 evaluated; probability exactly 0.5 counts as predicting original
    nb = classify_confusion(x, x.copy(), [0.5])
    assert nb.pos1.tolist() == [0]


def _random_case(rng):
    n = int(rng.integers(2, 12))
    x = seq(rng.integers(4, 10, size=n).tolist())
    plan = plan_corruption(TokenSequence(x), CorruptionRates(0.3, 0, 0), rng)
    view = x.copy()
    # replace a random subset of the corrupted positions
    for p in plan.mask_positions:
        if rng.random() < 0.6:
            view[p] = 4 + (x[p] - 4 + 1) % 6
    probs = rng.random(n)
    return x, view, plan, probs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cells_tile_evaluated_positions(rseed):
    rng = np.random.default_rng(rseed)
    x, view, plan, probs = _random_case(rng)
    nb = classify_confusion(x, view, probs)
    merged = np.concatenate(nb.cells())
    real = np.arange(len(x))
    assert sorted(merged.tolist()) == real.tolist()
    assert np.intersect1d(nb.pos1, nb.pos2).size == 0
    # only corrupted positions can carry the "replaced" label
    assert np.isin(np.concatenate([nb.pos2, nb.pos4]), plan.mask_positions).all()


def test_packed_cells_are_each_sequences_cells_from_its_start():
    rng = np.random.default_rng(17)
    cases = [_random_case(rng) for _ in range(5)]
    x, view, probs = (np.concatenate([case[k] for case in cases]) for k in (0, 1, 3))
    packed = classify_confusion(x, view, probs)
    starts = np.cumsum([0] + [len(case[0]) for case in cases])
    one_at_a_time = [classify_confusion(xi, vi, pi) for xi, vi, _, pi in cases]
    for k, cell in enumerate(packed.cells()):
        want = np.concatenate([start + nb.cells()[k] for start, nb in zip(starts, one_at_a_time)])
        np.testing.assert_array_equal(cell, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_threshold_monotone(rseed):
    rng = np.random.default_rng(rseed)
    x, view, plan, probs = _random_case(rng)
    nb_low = classify_confusion(x, view, probs)
    bumped = np.minimum(probs + rng.random(len(probs)), 1.0)
    nb_high = classify_confusion(x, view, bumped)
    # raising probability-of-original can only move positions toward pos1/pos2
    predicted_original_low = set(nb_low.pos1.tolist()) | set(nb_low.pos2.tolist())
    predicted_original_high = set(nb_high.pos1.tolist()) | set(nb_high.pos2.tolist())
    assert predicted_original_low <= predicted_original_high


# -- correction corpora ----------------------------------------------------------


def test_regeneration_masks_exactly_pos4():
    x = seq([4, 5, 6, 7])
    view = seq([4, 9, 6, 8])  # positions 1,3 replaced
    nb = classify_confusion(x, view, [0.9, 0.2, 0.9, 0.1])
    regen, targets, positions = build_regeneration(x, [1, 3], nb)
    np.testing.assert_array_equal(positions, [1, 3])
    np.testing.assert_array_equal(regen, [4, MASK_ID, 6, MASK_ID])
    np.testing.assert_array_equal(targets, [5, 7])


def test_regeneration_restores_other_masks():
    # the rtd course view had masks at r={1,3}; only pos4={3} stays masked
    x = seq([4, 5, 6, 7])
    view = seq([4, 5, 6, 8])  # generator resampled position 1 correctly
    nb = classify_confusion(x, view, [0.9, 0.9, 0.9, 0.2])
    regen, targets, positions = build_regeneration(x, [1, 3], nb)
    np.testing.assert_array_equal(regen, [4, 5, 6, MASK_ID])
    assert regen[1] == 5  # restored, not MASK


def test_regeneration_empty_pos4_emits_nothing():
    x = seq([4, 5, 6])
    nb = classify_confusion(x, x.copy(), [0.9] * 3)
    regen, targets, positions = build_regeneration(x, [1], nb)
    np.testing.assert_array_equal(regen, x)
    assert targets.size == 0 and positions.size == 0


def test_regeneration_everything_failed_equals_masked_view():
    # two packed sequences [4 5 6 7] [8 9 10], masked at rows 1, 3 and 5
    x = seq([4, 5, 6, 7, 8, 9, 10])
    mask_rows = np.array([1, 3, 5])
    view = seq([4, 8, 6, 9, 8, 4, 10])
    nb = classify_confusion(x, view, [0.9, 0.1, 0.9, 0.1, 0.9, 0.2, 0.9])
    regen, _, _ = build_regeneration(x, mask_rows, nb)
    np.testing.assert_array_equal(regen, apply_mask(x, mask_rows))


def test_rediscrimination_restores_pos4_and_targets_pos2_pos3():
    x = seq([4, 5, 6, 7, 8])
    view = seq([4, 9, 6, 5, 8])  # 1 and 3 replaced
    probs = [0.9, 0.8, 0.2, 0.1, 0.9]  # 1 missed (pos2), 2 false alarm (pos3), 3 caught (pos4)
    nb = classify_confusion(x, view, probs)
    redisc, positions, labels = build_rediscrimination(x, view, nb)
    np.testing.assert_array_equal(redisc, [4, 9, 6, 7, 8])  # pos4 restored
    np.testing.assert_array_equal(positions, [1, 2])
    np.testing.assert_array_equal(labels, [0.0, 1.0])  # pos2 replaced, pos3 original


def test_rediscrimination_differs_from_view_exactly_at_pos4():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        x = seq(rng.integers(4, 10, size=n).tolist())
        plan = plan_corruption(TokenSequence(x), CorruptionRates(0.3, 0, 0), rng)
        view = x.copy()
        for p in plan.mask_positions:
            if rng.random() < 0.5:
                view[p] = 4 + (x[p] - 4 + 1) % 6
        nb = classify_confusion(x, view, rng.random(n))
        redisc, _, _ = build_rediscrimination(x, view, nb)
        differs = np.flatnonzero(redisc != view)
        must_differ = [p for p in nb.pos4 if view[p] != x[p]]
        assert sorted(differs.tolist()) == sorted(must_differ)
        # pos4 is always label-replaced, so it always actually differs
        assert sorted(must_differ) == sorted(nb.pos4.tolist())


def test_correction_builders_match_an_isin_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        x = seq(rng.integers(4, 10, size=n).tolist())
        view = x.copy()
        replaced = rng.random(n) < 0.4
        view[replaced] = 4 + (x[replaced] - 4 + 1) % 6
        nb = classify_confusion(x, view, rng.random(n))
        redisc, positions, labels = build_rediscrimination(x, view, nb)
        oracle = np.sort(np.concatenate([nb.pos2, nb.pos3]))
        assert positions.dtype == oracle.dtype
        np.testing.assert_array_equal(positions, oracle)
        np.testing.assert_array_equal(labels, np.isin(oracle, nb.pos3).astype(np.float32))
        assert labels.dtype == np.float32
        corrupted = np.flatnonzero(replaced | (rng.random(n) < 0.3))
        if nb.pos4.size and rng.random() < 0.5:
            corrupted = np.setdiff1d(corrupted, rng.choice(nb.pos4, 1))
        if nb.pos4.size and not np.isin(nb.pos4, corrupted).all():
            with pytest.raises(ContractError):
                build_regeneration(x, corrupted, nb)
        else:
            regen, targets, pos = build_regeneration(x, corrupted, nb)
            np.testing.assert_array_equal(pos, nb.pos4)
            np.testing.assert_array_equal(targets, x[nb.pos4])


def test_rediscrimination_empty_cells_zero_loss(tiny_model):
    x = seq([4, 5, 6])
    nb = classify_confusion(x, x.copy(), [0.9] * 3)
    redisc = build_rediscrimination(x, x.copy(), nb)
    h = tiny_model.encode_discriminator(*pad_batch(redisc[0], [3]))
    loss = loss_rediscrimination(tiny_model, ad.gather_rows(h, redisc[1]), "rtd", redisc,
                                 course_rows=3)
    assert float(loss.data) == 0.0


# -- correction losses vs oracles -------------------------------------------------


def test_loss_regeneration_matches_enumeration_oracle(tiny_model):
    # two packed sequences of 5 and 3 tokens, the second view set of a shared
    # pass; the loss reads that set's own block, its pos4 rows
    x = seq([4, 5, 6, 7, 8, 6, 5, 4])
    view = seq([4, 9, 6, 9, 8, 6, 9, 4])
    nb = classify_confusion(x, view, [0.9, 0.1, 0.9, 0.2, 0.9, 0.9, 0.3, 0.9])
    regen = build_regeneration(x, [1, 3, 6], nb)
    np.testing.assert_array_equal(regen[2], [1, 3, 6])
    h = tiny_model.encode_generator(*pad_batch(np.concatenate([x, regen[0]]), [5, 3, 5, 3]))
    table = tiny_model.params["embedding.word"].data
    bias = tiny_model.params["lm_head.bias"].data
    rows = [[float(np.dot(table[v], h.data[8 + p])) + float(bias[v]) for v in range(10)]
            for p in regen[2]]
    summed = scalar_softmax_ce(rows, [int(t) for t in regen[1]]) * len(rows)
    # with its own rows as the course's rows the loss is the mean over pos4
    for course_rows in (len(rows), 7):
        loss = loss_regeneration(tiny_model, ad.gather_rows(h, 8 + regen[2]), regen, course_rows)
        assert abs(float(loss.data) - summed / course_rows) < 1e-6


def test_loss_rediscrimination_matches_scalar_oracle(tiny_model):
    x = seq([4, 5, 6, 7, 8])
    view = seq([4, 9, 6, 5, 8])
    nb = classify_confusion(x, view, [0.9, 0.8, 0.2, 0.1, 0.9])
    redisc = build_rediscrimination(x, view, nb)
    h = tiny_model.encode_discriminator(*pad_batch(redisc[0], [5]))
    w = tiny_model.params["head.std.w"].data
    b = float(tiny_model.params["head.std.b"].data[0])
    logits = [float(np.dot(w, h.data[p])) + b for p in redisc[1]]
    summed = scalar_bce(logits, redisc[2].tolist()) * len(logits)
    # with its own rows as the course's rows the loss is the mean over pos2|pos3
    for course_rows in (len(logits), len(x)):
        loss = loss_rediscrimination(tiny_model, ad.gather_rows(h, redisc[1]), "std",
                                     redisc=redisc, course_rows=course_rows)
        assert abs(float(loss.data) - summed / course_rows) < 1e-7


def test_loss_regeneration_empty_is_zero(tiny_model):
    x = seq([4, 5, 6])
    nb = classify_confusion(x, x.copy(), [0.9] * 3)
    regen = build_regeneration(x, [], nb)
    h = tiny_model.encode_generator(*pad_batch(regen[0], [3]))
    # nothing was masked either: no rows over no course rows is 0, not 0/0
    loss = loss_regeneration(tiny_model, ad.gather_rows(h, regen[2]), regen, course_rows=0)
    assert float(loss.data) == 0.0


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("course", ["re_mlm", "re_rtd"])
def test_each_correction_loss_refuses_a_block_of_the_wrong_size(tiny_model, course, extra):
    x = seq([4, 5, 6, 7, 8])
    view = seq([4, 9, 6, 9, 8])
    nb = classify_confusion(x, view, [0.9, 0.1, 0.2, 0.8, 0.9])  # pos4 1, pos3 2, pos2 3
    regen, redisc = build_regeneration(x, [1, 3], nb), build_rediscrimination(x, view, nb)
    loss, n = {
        "re_mlm": (lambda h: loss_regeneration(tiny_model, h, regen, 2), len(regen[2])),
        "re_rtd": (lambda h: loss_rediscrimination(tiny_model, h, "rtd", redisc, 5),
                   len(redisc[1])),
    }[course]
    rows = np.random.default_rng(0).normal(size=(n + 1, 8)).astype(np.float32)
    assert np.isfinite(loss(ad.Tensor(rows[:n])).data)
    with pytest.raises(DimensionError):
        loss(ad.Tensor(rows[:n + extra]))


def test_a_pos4_row_weighs_in_re_mlm_what_a_masked_row_weighs_in_loss_mlm(tiny_model):
    x = seq([4, 5, 6, 7, 8, 6, 5, 4])
    masked = seq([1, 3, 4, 6])
    view = x.copy()
    view[masked] = 9
    # the discriminator caught rows 1 and 6 and missed rows 3 and 4
    nb = classify_confusion(x, view, [0.9, 0.1, 0.9, 0.8, 0.7, 0.9, 0.2, 0.9])
    regen = build_regeneration(x, masked, nb)
    np.testing.assert_array_equal(regen[2], [1, 6])
    hidden = np.random.default_rng(2).normal(size=(len(x), 8)).astype(np.float32)

    def hidden_grad(rows, loss_of):
        h = ad.Tensor(hidden[rows], requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(loss_of(h))
        return h.grad

    batch = SimpleNamespace(ids=x, mask_rows=masked)  # all that loss_mlm reads of a CourseBatch
    in_mlm = hidden_grad(masked, lambda h: loss_mlm(tiny_model, h, batch))[[0, 3]]
    in_re_mlm = hidden_grad(regen[2], lambda h: loss_regeneration(tiny_model, h, regen,
                                                                  len(masked)))
    assert np.abs(in_mlm).max() > 0
    np.testing.assert_allclose(in_re_mlm, in_mlm, rtol=1e-6, atol=0)
    # a mean over pos4 alone would weigh each of its rows 1/2, twice a masked row
    as_mean = hidden_grad(regen[2], lambda h: loss_regeneration(tiny_model, h, regen, 2))
    np.testing.assert_allclose(as_mean, 2 * in_mlm, rtol=1e-6, atol=0)
