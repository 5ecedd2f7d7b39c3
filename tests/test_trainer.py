import dataclasses
import logging

import numpy as np
import pytest

from multicourse import autodiff as ad
from multicourse import correction as corr
from multicourse import courses as crs
from multicourse import trainer as tr
from multicourse.courses import CorruptionRates, TokenSequence, pad_batch
from multicourse.encoder import EncoderConfig, Model, attention_groups
from multicourse.errors import ConfigError, InputError, NonFiniteLossError
from multicourse.trainer import (
    Adam,
    BatchSampler,
    TrainConfig,
    active_parameter_names,
    build_views,
    clip_gradients,
    compute_metrics,
    learning_rate_at,
    run_courses,
    step_losses,
    total_loss,
    train,
    train_step,
)
from multicourse.toycorpus import generate_corpus
from multicourse.vocab import build_vocab
from multicourse.trainer import load_corpus_sequences

from helpers import check_gradients, promote_model_to_float64


def small_encoder(vocab_size, dropout=0.1):
    return EncoderConfig(vocab_size=vocab_size, hidden_size=32, generator_layers=1,
                         discriminator_layers=2, attention_heads=2, ffn_inner_size=48,
                         max_seq_len=24, dropout_rate=dropout)


def small_train(**kw):
    base = dict(total_steps=50, warmup_steps=5, batch_size=6, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.txt"
    path.write_text("\n".join(generate_corpus(120, seed=5)) + "\n", encoding="utf-8")
    vocab = build_vocab(path, 4096)
    seqs = load_corpus_sequences(path, vocab, 24)
    return vocab, seqs


@pytest.fixture()
def setup(corpus):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab)), seed=1)
    return model, seqs, vocab


RATES = CorruptionRates(0.15, 0.15, 0.15)


# -- config ---------------------------------------------------------------------


def test_config_rejects_bad_lambda():
    with pytest.raises(ConfigError):
        small_train(lambda_disc=0.0)


def test_config_rejects_warmup_past_total():
    with pytest.raises(ConfigError):
        small_train(warmup_steps=50, total_steps=50)


def test_config_rejects_orphan_corrections():
    with pytest.raises(ConfigError):
        small_train(std_course=False, re_slm=True, re_std=False, re_mlm=False, re_rtd=False)


def test_enabled_losses_reflect_switches():
    cfg = small_train(std_course=False, itd_course=False, re_slm=False, re_std=False,
                      re_mlm=True, re_rtd=True)
    assert cfg.enabled_losses() == ("mlm", "re_mlm", "re_slm", "rtd", "re_rtd")[:2] + ("rtd", "re_rtd")


# -- learning rate schedule ---------------------------------------------------


def test_lr_peaks_at_warmup():
    cfg = small_train(warmup_steps=10, total_steps=100, learning_rate=3e-4)
    assert learning_rate_at(10, cfg) == pytest.approx(3e-4)
    assert learning_rate_at(5, cfg) == pytest.approx(1.5e-4)
    assert learning_rate_at(100, cfg) == 0.0
    assert learning_rate_at(55, cfg) == pytest.approx(3e-4 * 45 / 90)


# -- adam ----------------------------------------------------------------------


class ParameterHolder:
    """A model with only named parameters, for optimizer tests."""

    config = None

    def __init__(self, arrays):
        self.params = {n: ad.Tensor(a, requires_grad=True) for n, a in arrays.items()}

    def named_parameters(self):
        return self.params


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("field", ["learning_rate", "lambda_disc"])
def test_a_non_finite_learning_rate_or_lambda_is_refused(field, value):
    # a NaN passes `<= 0`: it would train step 0 and write NaN into every parameter
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_adam_matches_scalar_recurrence():
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=2, total_steps=10)
    holder = ParameterHolder({"p": np.array([0.02], dtype=np.float32)})
    opt = Adam(holder, cfg)
    grads = [0.3, -0.14]
    for g in grads:
        opt.step(holder, np.array([g], dtype=np.float32))

    # float64 hand recurrence, decoupled weight decay, linear warmup
    b1, b2, eps, wd = tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPSILON, tr.WEIGHT_DECAY
    p, m, v = 0.02, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        lr = 1e-3 * min(t / 2, (10 - t) / 8)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        p = p - lr * (mh / (np.sqrt(vh) + eps) + wd * p)
    assert abs(float(holder.params["p"].data[0]) - p) < 1e-8


def test_adam_zero_grads_apply_only_the_weight_decay_step(setup):
    model, seqs, _ = setup
    opt = Adam(model, small_train())
    before = model.state()
    model.zero_grad()
    params = model.named_parameters()
    grad, _ = clip_gradients([params[n] for n in opt.names], tr.GRAD_CLIP_NORM)
    lr = np.float32(opt.step(model, grad))  # all grads None -> zeros
    after = model.state()
    wd = np.float32(tr.WEIGHT_DECAY)
    for name in opt.names:
        p = before[name]
        # zero moments make the Adam term exactly 0, leaving p - lr * (0 + wd * p)
        np.testing.assert_array_equal(after[name], p - lr * (np.float32(0) + wd * p), err_msg=name)
    assert all(not np.array_equal(after[n], before[n]) for n in opt.names if before[n].any())
    assert not opt.m.any() and not opt.v.any()


def test_active_names_exclude_disabled_heads(setup):
    model, _, _ = setup
    names = active_parameter_names(model, small_train(std_course=False, itd_course=False,
                                                      re_slm=False, re_std=False))
    assert "head.std.w" not in names and "head.itd.b" not in names
    assert "head.rtd.w" in names
    full = active_parameter_names(model, small_train())
    assert "head.std.w" in full and "head.itd.b" in full


# -- clipping ---------------------------------------------------------------------


def test_clip_scales_to_cap():
    t1 = ad.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    t2 = ad.Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    t1.grad = np.array([2.4, 0.0, 0.0], dtype=np.float32)
    t2.grad = np.array([0.0, 3.2, 0.0, 0.0], dtype=np.float32)  # norm 4.0 = 2 x cap
    grad, pre = clip_gradients([t1, t2], 2.0)
    assert pre == pytest.approx(4.0)
    assert grad.dtype == np.float32 and grad.shape == (7,)
    post = np.sqrt(float((grad.astype(np.float64) ** 2).sum()))
    assert abs(post - 2.0) < 1e-5
    np.testing.assert_array_equal(grad, np.concatenate([t1.grad, t2.grad]) * np.float32(0.5))
    # the tensors keep their unscaled gradients
    np.testing.assert_array_equal(t1.grad, np.array([2.4, 0.0, 0.0], dtype=np.float32))
    np.testing.assert_array_equal(t2.grad, np.array([0.0, 3.2, 0.0, 0.0], dtype=np.float32))


def test_clip_leaves_small_gradients_alone():
    t1 = ad.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    t2 = ad.Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
    t3 = ad.Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    t1.grad = np.array([0.3, 0.4], dtype=np.float32)
    t3.grad = np.array([0.1], dtype=np.float32)
    grad, pre = clip_gradients([t1, t2, t3], 2.0)
    assert pre == pytest.approx(np.sqrt(0.26))
    # t2 has no gradient: its four elements are zeros in the flat layout
    np.testing.assert_array_equal(grad, np.array([0.3, 0.4, 0, 0, 0, 0, 0.1], dtype=np.float32))
    np.testing.assert_array_equal(t1.grad, np.array([0.3, 0.4], dtype=np.float32))
    assert t2.grad is None


def global_norm(grads, shapes):
    """np.linalg.norm of the gradients' float64 concatenation, a None read as zeros."""
    return np.linalg.norm(np.concatenate([
        np.zeros(int(np.prod(shapes[n]))) if g is None else g.astype(np.float64).ravel()
        for n, g in grads.items()]))


def test_clip_norm_is_the_float64_norm_of_the_flat_gradient():
    rng = np.random.default_rng(5)
    shapes = {"a": (40, 3), "b": (1000,), "none": (7, 11, 13), "c": (2, 9000), "d": (5,)}
    tensors = {n: ad.Tensor(np.zeros(s, np.float32), requires_grad=True) for n, s in shapes.items()}
    grads = {n: None if n == "none" else rng.normal(0, 0.5, s).astype(np.float32)
             for n, s in shapes.items()}
    for n, g in grads.items():
        tensors[n].grad = g
    grad, pre = clip_gradients(list(tensors.values()), 2.0)
    size = sum(int(np.prod(s)) for s in shapes.values())
    # a float64 sum of `size` squares is within size * eps of the exact sum
    assert pre == pytest.approx(global_norm(grads, shapes), rel=size * np.finfo(np.float64).eps)
    flat = np.concatenate([np.zeros(int(np.prod(shapes[n])), np.float32) if g is None
                           else g.ravel() for n, g in grads.items()])
    np.testing.assert_array_equal(grad, flat * np.float32(2.0 / pre))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_rejects_non_finite_norm(bad):
    t1 = ad.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    t2 = ad.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    t1.grad = np.array([30.0, 40.0], dtype=np.float32)
    t2.grad = np.array([bad, 1.0], dtype=np.float32)
    with pytest.raises(NonFiniteLossError):
        clip_gradients([t1, t2], 2.0)
    np.testing.assert_array_equal(t1.grad, [30.0, 40.0])
    np.testing.assert_array_equal(t2.grad, [bad, 1.0])


class PerParameterAdam:
    """The per-parameter clip by a given global norm and AdamW update that the
    flat optimizer replaced, on a dict of arrays: the reference it must match
    bit for bit."""

    def __init__(self, arrays, cfg):
        self.cfg = cfg
        self.params = {n: a.copy() for n, a in arrays.items()}
        self.m = {n: np.zeros_like(a) for n, a in arrays.items()}
        self.v = {n: np.zeros_like(a) for n, a in arrays.items()}
        self.t = 0

    def step(self, grads, total):
        cfg = self.cfg
        if total > tr.GRAD_CLIP_NORM:
            factor = np.float32(tr.GRAD_CLIP_NORM / total)
            grads = {n: None if g is None else g * factor for n, g in grads.items()}
        self.t += 1
        lr = np.float32(learning_rate_at(self.t, cfg))
        b1, b2 = np.float32(tr.ADAM_BETA1), np.float32(tr.ADAM_BETA2)
        eps = np.float32(tr.ADAM_EPSILON)
        wd = np.float32(tr.WEIGHT_DECAY)
        c1 = np.float32(1.0 - tr.ADAM_BETA1 ** self.t)
        c2 = np.float32(1.0 - tr.ADAM_BETA2 ** self.t)
        for n, p in self.params.items():
            g = grads[n] if grads[n] is not None else np.zeros_like(p)
            m = self.m[n] = b1 * self.m[n] + (np.float32(1) - b1) * g
            v = self.v[n] = b2 * self.v[n] + (np.float32(1) - b2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + eps)
            self.params[n] = p - lr * (update + wd * p)


def test_flat_adam_matches_the_per_parameter_update_bit_for_bit():
    cfg = TrainConfig(learning_rate=1e-2, warmup_steps=2, total_steps=10)
    rng = np.random.default_rng(21)
    shapes = {"a": (3, 5), "b": (7,), "c": (2, 3, 4), "wide": (2, tr._ADAM_BLOCK // 2 + 19),
              "none": (4, 6), "d": (1,)}
    arrays = {n: rng.normal(0, 0.5, s).astype(np.float32) for n, s in shapes.items()}
    total = sum(a.size for a in arrays.values())
    assert total > tr._ADAM_BLOCK and total % tr._ADAM_BLOCK  # a ragged last block
    holder = ParameterHolder(arrays)
    opt = Adam(holder, cfg)
    oracle = PerParameterAdam(arrays, cfg)
    for step in range(6):
        grads = {n: rng.normal(0, 3.0, s).astype(np.float32) for n, s in shapes.items()}
        if step % 2:
            grads["none"] = None
        for n, g in grads.items():
            holder.params[n].grad = g
        grad, norm = clip_gradients([holder.params[n] for n in opt.names], tr.GRAD_CLIP_NORM)
        opt.step(holder, grad)
        oracle.step(grads, norm)
        assert norm == pytest.approx(global_norm(grads, shapes),
                                     rel=total * np.finfo(np.float64).eps)
        assert norm > tr.GRAD_CLIP_NORM  # clipping is active
        for i, n in enumerate(opt.names):
            start, stop = opt.offsets[i], opt.offsets[i + 1]
            np.testing.assert_array_equal(holder.params[n].data, oracle.params[n], err_msg=n)
            np.testing.assert_array_equal(opt.m[start:stop].reshape(shapes[n]), oracle.m[n],
                                          err_msg=n)
            np.testing.assert_array_equal(opt.v[start:stop].reshape(shapes[n]), oracle.v[n],
                                          err_msg=n)


def test_a_step_writes_no_parameter_array_in_place(setup):
    model, seqs, _ = setup
    cfg = small_train()
    opt = Adam(model, cfg)
    rng = np.random.default_rng(8)
    for step in range(2):  # the second step starts from the first one's flat copy
        held = {n: p.data for n, p in model.params.items()}
        copies = {n: a.copy() for n, a in held.items()}
        train_step(model, seqs[4 * step:4 * step + 4], opt, cfg, RATES, rng, step)
        for name, arr in held.items():
            np.testing.assert_array_equal(arr, copies[name], err_msg=name)
        assert all(not np.array_equal(model.params[n].data, copies[n]) for n in opt.names)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_gradient_norm_changes_nothing(setup, monkeypatch, bad):
    model, seqs, _ = setup
    cfg = small_train()
    opt = Adam(model, cfg)
    rng = np.random.default_rng(9)
    train_step(model, seqs[:4], opt, cfg, RATES, rng, 0)
    assert opt.t == 1 and np.any(opt.m) and np.any(opt.v)
    backward = ad.Tape.backward
    grads = {}

    def poisoned_backward(tape, loss):
        backward(tape, loss)
        p = model.params["generator.layer0.ffn.w1"]
        g = p.grad.copy()
        g[0, 0] = bad
        p.grad = g
        grads.update({n: None if p.grad is None else p.grad.copy()
                      for n, p in model.params.items()})

    monkeypatch.setattr(ad.Tape, "backward", poisoned_backward)
    before, m, v = model.state(), opt.m.copy(), opt.v.copy()
    with pytest.raises(NonFiniteLossError, match="gradient norm"):
        train_step(model, seqs[4:8], opt, cfg, RATES, rng, 1)
    assert opt.t == 1
    np.testing.assert_array_equal(opt.m, m)
    np.testing.assert_array_equal(opt.v, v)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
        if grads[name] is None:
            assert p.grad is None, name
        else:
            np.testing.assert_array_equal(p.grad, grads[name], err_msg=name)


# -- total loss --------------------------------------------------------------------


def test_total_reduces_to_two_term_objective(setup):
    model, seqs, _ = setup
    cfg = small_train(std_course=False, itd_course=False,
                      re_mlm=False, re_rtd=False, re_slm=False, re_std=False)
    rng = np.random.default_rng(2)
    with ad.Tape():
        losses, _ = step_losses(model, seqs[:4], cfg, RATES, rng)
        assert set(losses) == {"mlm", "rtd"}
        total = total_loss(losses, cfg)
    want = np.float32(losses["mlm"].data) + np.float32(50.0) * np.float32(losses["rtd"].data)
    assert abs(float(total.data) - float(want)) < 1e-7 * abs(float(want))


def test_total_matches_hand_summed_components(setup):
    model, seqs, _ = setup
    cfg = small_train()
    rng = np.random.default_rng(3)
    with ad.Tape():
        losses, _ = step_losses(model, seqs[:4], cfg, RATES, rng)
        total = total_loss(losses, cfg)
    by_hand = np.float32(0.0)
    for name in tr.G_LOSSES:
        if name in losses:
            by_hand = np.float32(by_hand + np.float32(losses[name].data))
    for name in tr.D_LOSSES:
        if name in losses:
            by_hand = np.float32(by_hand + np.float32(50.0) * np.float32(losses[name].data))
    assert abs(float(total.data) - float(by_hand)) < 1e-7 * max(1.0, abs(float(by_hand)))


def test_zero_lambda_gradient_touches_only_generator_side(setup):
    model, seqs, _ = setup
    cfg = small_train(re_mlm=False, re_rtd=False, re_slm=False, re_std=False)
    model.zero_grad()
    rng = np.random.default_rng(4)
    with ad.Tape() as tape:
        losses, _ = step_losses(model, seqs[:4], cfg, RATES, rng)
        g_parts = [losses[n] for n in tr.G_LOSSES if n in losses]
        d_parts = [losses[n] for n in tr.D_LOSSES if n in losses]
        total = ad.add(ad.add_n(g_parts), ad.scale(ad.add_n(d_parts), 0.0))
        tape.backward(total)
    for name, p in model.named_parameters().items():
        if name.startswith("discriminator.") or name.startswith("head."):
            assert p.grad is None or not np.any(p.grad), name
        if name.startswith("generator.layer0.attn.wq"):
            assert p.grad is not None and np.any(p.grad), name


def test_non_finite_component_aborts(setup):
    model, seqs, _ = setup
    cfg = small_train()
    model.params["generator.layer0.ffn.w1"].data[0, 0] = np.nan
    rng = np.random.default_rng(5)
    opt = Adam(model, cfg)
    before = model.state()
    with pytest.raises(NonFiniteLossError):
        train_step(model, seqs[:4], opt, cfg, RATES, rng)
    after = model.state()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])
    assert opt.t == 0


# -- lambda scaling ---------------------------------------------------------------


def _gradients_at(model, seqs, cfg, seed):
    model.zero_grad()
    rng = np.random.default_rng(seed)
    with ad.Tape() as tape:
        losses, _ = step_losses(model, seqs, cfg, RATES, rng)
        tape.backward(total_loss(losses, cfg))
    return {n: (None if p.grad is None else p.grad.copy())
            for n, p in model.named_parameters().items()}


def test_doubling_lambda_exactly_doubles_discriminator_gradients(setup):
    model, seqs, _ = setup
    g1 = _gradients_at(model, seqs[:4], small_train(lambda_disc=50.0), seed=11)
    g2 = _gradients_at(model, seqs[:4], small_train(lambda_disc=100.0), seed=11)
    for name in g1:
        if name.startswith("discriminator.") or name.startswith("head."):
            if g1[name] is not None:
                np.testing.assert_array_equal(2.0 * g1[name], g2[name], err_msg=name)
        elif name.startswith("generator.") or name == "lm_head.bias":
            if g1[name] is not None:
                np.testing.assert_array_equal(g1[name], g2[name], err_msg=name)


# -- course switches over steps ------------------------------------------------------


def test_disabled_course_loss_zero_and_heads_frozen(setup):
    model, seqs, _ = setup
    cfg = small_train(std_course=False, itd_course=False, re_slm=False, re_std=False,
                      total_steps=6, warmup_steps=1)
    opt = Adam(model, cfg)
    w_std = model.params["head.std.w"].data.copy()
    b_std = model.params["head.std.b"].data.copy()
    w_itd = model.params["head.itd.w"].data.copy()
    rng = np.random.default_rng(6)
    for step in range(5):
        rec = train_step(model, seqs[:4], opt, cfg, RATES, rng, step)
        assert rec.losses["slm"] == 0.0 and rec.losses["std"] == 0.0
        assert rec.losses["itd"] == 0.0
        assert rec.losses["re_slm"] == 0.0 and rec.losses["re_std"] == 0.0
    np.testing.assert_array_equal(model.params["head.std.w"].data, w_std)
    np.testing.assert_array_equal(model.params["head.std.b"].data, b_std)
    np.testing.assert_array_equal(model.params["head.itd.w"].data, w_itd)


def test_correction_delayed_start(setup):
    model, seqs, _ = setup
    cfg = small_train(correction_start_step=3)
    rng = np.random.default_rng(7)
    with ad.Tape():
        early, _ = step_losses(model, seqs[:4], cfg, RATES, rng, step=0)
        late, _ = step_losses(model, seqs[:4], cfg, RATES, rng, step=3)
    assert "re_mlm" not in early and "re_rtd" not in early
    assert "re_mlm" in late and "re_std" in late


# -- determinism -----------------------------------------------------------------


def _run_steps(seqs, vocab, n_steps, seed):
    model = Model(small_encoder(len(vocab)), seed=seed)
    cfg = small_train(total_steps=n_steps + 1, warmup_steps=1, seed=seed)
    opt = Adam(model, cfg)
    rng = np.random.default_rng(cfg.seed)
    sampler = BatchSampler(len(seqs), cfg.batch_size)
    for step in range(n_steps):
        batch = [seqs[i] for i in sampler.next_indices(rng)]
        train_step(model, batch, opt, cfg, RATES, rng, step)
    return model.state()


def test_ten_steps_bit_identical_across_runs(corpus):
    vocab, seqs = corpus
    a = _run_steps(seqs, vocab, 10, seed=9)
    b = _run_steps(seqs, vocab, 10, seed=9)
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


# -- metrics ------------------------------------------------------------------------


def _manual_info(model):
    x1 = TokenSequence([4, 5, 6, 7, 8, 9])
    x2 = TokenSequence([10, 11, 12, 13])
    rng = np.random.default_rng(0)
    batch = build_views([x1, x2], CorruptionRates(0.34, 0, 0), rng, 24)
    # hand-craft the spliced view: one replacement caught, one missed, one resampled
    r = batch.mask_rows  # two rows of x1 (rows 0-5), then one of x2 (rows 6-9)
    assert len(r) == 3 and r[1] < 6 <= r[2]
    batch.rtd_view = batch.ids.copy()
    batch.rtd_view[r[0]] = 20
    batch.rtd_view[r[1]] = batch.ids[r[1]]  # resampled the original
    batch.rtd_view[r[2]] = 21
    probs = np.full(10, 0.9)
    probs[r[0]] = 0.1   # caught; r[2] missed
    batch.notebooks["rtd"] = corr.classify_confusion(batch.ids, batch.rtd_view, probs)
    return batch


def test_metrics_recount_oracle(corpus):
    vocab, _ = corpus
    model = Model(small_encoder(64), seed=0)
    batch = _manual_info(model)
    cfg = small_train(std_course=False, itd_course=False, re_slm=False, re_std=False)
    rec = compute_metrics(3, {}, 0.0, batch, 1e-4, cfg)
    # brute-force recount: 3 corrupted positions, 2 actually replaced, 1 caught
    assert rec.replace_rate == pytest.approx(2 / 3)
    assert rec.replace_accuracy == pytest.approx(1 / 2)
    assert rec.d_corrupted == 3 and rec.d_nonoriginal == 2
    # confusion cells tile all 10 evaluated positions
    assert sum(rec.pos_counts) == 10
    assert rec.step == 3 and rec.learning_rate == 1e-4


def test_metrics_omitted_when_no_positions(corpus):
    model = Model(small_encoder(64), seed=0)
    x = TokenSequence([4, 5, 6, 7])
    rng = np.random.default_rng(0)
    batch = build_views([x], CorruptionRates(0, 0, 0), rng, 24)
    batch.rtd_view = batch.ids.copy()
    batch.notebooks["rtd"] = corr.classify_confusion(batch.ids, batch.rtd_view, np.full(4, 0.9))
    cfg = small_train(std_course=False, itd_course=False, re_slm=False, re_std=False)
    rec = compute_metrics(0, {}, 0.0, batch, 1e-4, cfg)
    assert rec.replace_rate is None and rec.replace_accuracy is None
    row = rec.csv_row()
    assert row[len(tr.LOSS_NAMES) + 1] == "" and row[len(tr.LOSS_NAMES) + 2] == ""


def test_metrics_do_not_touch_params_or_rng(setup):
    model, seqs, _ = setup
    cfg = small_train()
    rng = np.random.default_rng(12)
    with ad.Tape():
        losses, batch = step_losses(model, seqs[:3], cfg, RATES, rng)
    before = model.state()
    rng_state = rng.bit_generator.state
    compute_metrics(0, losses, 1.0, batch, 1e-4, cfg)
    after = model.state()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])
    assert rng.bit_generator.state == rng_state


def test_label_balance_floor_holds_each_step(setup):
    model, seqs, _ = setup
    cfg = small_train()
    opt = Adam(model, cfg)
    rng = np.random.default_rng(13)
    for step in range(5):
        rec = train_step(model, seqs[:6], opt, cfg, RATES, rng, step)
        assert rec.itd_positions > 0
        bound = rec.itd_nonoriginal / rec.itd_positions
        assert rec.d_nonoriginal / rec.d_corrupted >= bound


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_metrics_equal_a_recount_from_the_views(corpus, seed):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab), dropout=0.0), seed=seed)
    cfg = small_train()
    rng = np.random.default_rng(seed)
    with ad.Tape():
        losses, batch = step_losses(model, seqs[6 * seed: 6 * seed + 6], cfg, RATES, rng)
    rec = compute_metrics(0, losses, 1.0, batch, 1e-4, cfg)
    starts = np.cumsum([0] + [x.n_real for x in batch.originals])
    # a view differs from its original only where its course corrupted it
    for view, field in ((batch.rtd_view, "mask_positions"), (batch.std_view, "swap_positions")):
        for x, start, plan in zip(batch.originals, starts, batch.plans):
            differs = np.flatnonzero(view[start:start + x.n_real] != x.ids)
            assert np.isin(differs, getattr(plan, field)).all()
    # brute force: compare the views with the originals, re-judge the rtd views
    probs = model.detection_probs_detached(
        model.encode_discriminator(*pad_batch(batch.rtd_view, batch.lengths)).data, "rtd")
    kept = replaced = caught = 0
    for x, start, plan in zip(batch.originals, starts, batch.plans):
        r = plan.mask_positions
        is_replaced = batch.rtd_view[start + r] != x.ids[r]
        kept += len(r)
        replaced += int(is_replaced.sum())
        caught += int((probs[start + r][is_replaced] < 0.5).sum())
    swapped = sum(len(p.swap_positions) for p in batch.plans)
    std_replaced = int((batch.std_view != np.concatenate([x.ids for x in batch.originals])).sum())
    inserted = sum(len(batch.plans[j].insert_positions) for j in batch.itd_kept)
    assert replaced > 0 and std_replaced > 0 and inserted > 0
    assert rec.replace_rate == replaced / kept
    assert rec.replace_accuracy == caught / replaced
    assert rec.pos_counts[1] + rec.pos_counts[3] == replaced and rec.pos_counts[3] == caught
    assert sum(rec.pos_counts) == sum(x.n_real for x in batch.originals)
    assert rec.d_nonoriginal == replaced + std_replaced + inserted
    assert rec.d_corrupted == kept + swapped + inserted
    assert rec.itd_nonoriginal == inserted


# -- dropout-free replay consistency ------------------------------------------------


@pytest.mark.parametrize("correction_start_step", [0, 3])
def test_evaluate_losses_matches_step_losses_without_dropout(corpus, correction_start_step):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab), dropout=0.0), seed=2)
    cfg = small_train(correction_start_step=correction_start_step)
    rng = np.random.default_rng(14)
    with ad.Tape():
        losses, batch = step_losses(model, seqs[:4], cfg, RATES, rng, step=0)
    replay = run_courses(model, batch, cfg)
    assert set(replay) == set(losses)
    for name in losses:
        assert float(replay[name].data) == pytest.approx(float(losses[name].data), abs=1e-7)


# -- encoder passes ------------------------------------------------------------------


@pytest.mark.parametrize("overrides, replay, passes", [
    ({}, False, (3, 2)),
    ({"itd_course": False}, False, (2, 2)),
    ({"correction_start_step": 1}, False, (2, 1)),
    ({}, True, (2, 2)),
], ids=["sampled", "no_itd", "before_correction", "replay"])
def test_encoder_passes_per_step(setup, monkeypatch, overrides, replay, passes):
    model, seqs, _ = setup
    cfg = small_train(**overrides)
    calls, pruned = {}, {}
    for stack in ("generator", "discriminator"):
        def counted(self, ids, mask, rng=None, rows=None, *, _stack=stack,
                    _encode=getattr(Model, f"encode_{stack}")):
            calls[_stack] = calls.get(_stack, 0) + 1
            pruned[_stack] = pruned.get(_stack, 0) + (rows is not None)
            return _encode(self, ids, mask, rng, rows)
        monkeypatch.setattr(Model, f"encode_{stack}", counted)
    with ad.Tape():
        _, batch = step_losses(model, seqs[:6], cfg, RATES, np.random.default_rng(15))
        if replay:
            calls.clear()
            pruned.clear()
            run_courses(model, batch, cfg)
    assert bool(batch.itd_kept) == cfg.itd_course
    assert (calls["generator"], calls["discriminator"]) == passes
    # every generator pass and the rediscrimination pass compute only the rows
    # they read; the rtd+std+itd pass reads every row
    assert (pruned["generator"], pruned["discriminator"]) == (passes[0], int(batch.corrected))


def test_one_discriminator_pass_scores_rtd_std_and_itd_as_their_own_passes(corpus):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab), dropout=0.0), seed=5)
    cfg = small_train()
    with ad.Tape():
        losses, batch = step_losses(model, seqs[:6], cfg, RATES, np.random.default_rng(17))
    assert batch.itd_kept and len(batch.inserted) > len(batch.ids)
    for course, view, lengths in (("rtd", batch.rtd_view, batch.lengths),
                                  ("std", batch.std_view, batch.lengths),
                                  ("itd", batch.itd_view, batch.inserted_lengths)):
        h = model.encode_discriminator(*pad_batch(view, lengths))
        if course == "itd":
            alone = crs.loss_itd(model, h, batch)
        else:
            alone = getattr(crs, f"loss_{course}")(model, h, view, batch.ids)
            notebook = corr.classify_confusion(
                batch.ids, view, model.detection_probs_detached(h.data, course))
            for got, want in zip(batch.notebooks[course].cells(), notebook.cells()):
                np.testing.assert_array_equal(got, want, err_msg=course)
        assert float(losses[course].data) == pytest.approx(float(alone.data), rel=1e-6), course


def _one_pass_per_course(model, batch, cfg):
    """Every enabled loss, each from one encoder pass over its own course's
    views; the generator and retry passes compute only the rows their loss reads."""
    def gen(view, rows):
        return model.encode_generator(*pad_batch(view, batch.lengths), None, rows)

    def disc(view, lengths=batch.lengths, rows=None):
        return model.encode_discriminator(*pad_batch(view, lengths), None, rows)

    on = cfg.enabled_losses()
    x = batch.ids
    losses = {"mlm": crs.loss_mlm(model, gen(batch.masked, batch.mask_rows), batch),
              "rtd": crs.loss_rtd(model, disc(batch.rtd_view), batch.rtd_view, x)}
    if "slm" in on:
        losses["slm"] = crs.loss_slm(model, gen(batch.swapped, batch.swap_rows), batch)
        losses["std"] = crs.loss_std(model, disc(batch.std_view), batch.std_view, x)
    if "itd" in on:
        losses["itd"] = crs.loss_itd(model, disc(batch.itd_view, batch.inserted_lengths), batch)
    for course, view, rows, regen, redisc in (
            ("rtd", batch.rtd_view, batch.mask_rows, "re_mlm", "re_rtd"),
            ("std", batch.std_view, batch.swap_rows, "re_slm", "re_std")):
        notebook = batch.notebooks.get(course)
        if regen in on:
            built = corr.build_regeneration(x, rows, notebook)
            losses[regen] = corr.loss_regeneration(model, gen(built[0], built[2]), built,
                                                   len(rows))
        if redisc in on:
            built = corr.build_rediscrimination(x, view, notebook)
            losses[redisc] = corr.loss_rediscrimination(model, disc(built[0], rows=built[1]),
                                                        course, built, len(x))
    return losses


def _loss_values_and_gradients(model, make_losses, cfg):
    model.zero_grad()
    with ad.Tape() as tape:
        losses = make_losses()
        tape.backward(total_loss(losses, cfg))
    return ({n: float(t.data) for n, t in losses.items()},
            {n: p.grad for n, p in model.named_parameters().items() if p.grad is not None})


@pytest.mark.parametrize("overrides", [
    {},
    {"std_course": False, "re_slm": False, "re_std": False},
    {"itd_course": False},
    {"re_rtd": False, "re_slm": False},
    {"re_mlm": False, "re_rtd": False},
], ids=["all", "no_std", "no_itd", "re_mlm_re_std", "re_slm_re_std"])
def test_shared_passes_match_one_pass_per_course(corpus, overrides):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab), dropout=0.0), seed=4)
    cfg = small_train(**overrides)
    with ad.Tape():
        _, batch = step_losses(model, seqs[:6], cfg, RATES, np.random.default_rng(16))
    shared, shared_grads = _loss_values_and_gradients(
        model, lambda: run_courses(model, batch, cfg), cfg)
    alone, alone_grads = _loss_values_and_gradients(
        model, lambda: _one_pass_per_course(model, batch, cfg), cfg)
    assert set(shared) == set(alone) == set(cfg.enabled_losses())
    for name in alone:
        assert shared[name] == pytest.approx(alone[name], rel=1e-6, abs=1e-12), name
    # a shared pass sums each weight gradient over more rows in one product,
    # so gradients agree to float32 rounding of the largest entry, not bitwise
    assert set(shared_grads) == set(alone_grads)
    largest = max(float(np.abs(g).max()) for g in alone_grads.values())
    for name, g in alone_grads.items():
        if name.endswith(".attn.bk"):
            # the key bias shifts every score of a query equally, which the
            # softmax ignores: its exact gradient is zero, and both sides
            # hold rounding noise that need not match
            for grads in (shared_grads, alone_grads):
                assert float(np.abs(grads[name]).max()) <= 1e-6 * largest, name
            continue
        scale = float(np.abs(g).max())
        np.testing.assert_allclose(shared_grads[name], g, rtol=1e-6, atol=1e-6 * scale,
                                   err_msg=name)


# -- the whole step's gradient ------------------------------------------------------


def _replay_case(tmp_path, case):
    """A hidden-16, 1+2-layer model after 5 training steps, the batch it then
    samples with every course on and correction from step 0, and the config.
    "toy" trains on single toy sentences; "ragged" on lines of 1-12 joined
    ones, so its passes split attention into two length groups."""
    rng = np.random.default_rng(3)
    if case == "toy":
        lines, max_len = generate_corpus(120, seed=5), 24
    else:
        counts = rng.integers(1, 13, size=60)
        sentences = generate_corpus(int(counts.sum()), seed=6)
        ends = np.cumsum(counts)
        lines, max_len = [" ".join(sentences[e - c:e]) for c, e in zip(counts, ends)], 128
    path = tmp_path / "lines.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = build_vocab(path, 4096)
    seqs = load_corpus_sequences(path, vocab, max_len)
    model = Model(EncoderConfig(vocab_size=len(vocab), hidden_size=16, generator_layers=1,
                                discriminator_layers=2, attention_heads=2, ffn_inner_size=24,
                                max_seq_len=max_len), seed=2)
    cfg = small_train(learning_rate=3e-3)
    opt = Adam(model, cfg)
    for step in range(5):
        train_step(model, [seqs[i] for i in rng.choice(len(seqs), 6, replace=False)], opt, cfg,
                   RATES, rng, step)
    with ad.no_tape():
        _, batch = step_losses(model, [seqs[i] for i in rng.choice(len(seqs), 6, replace=False)],
                               cfg, RATES, rng, step=5)
    return model, batch, cfg


@pytest.mark.parametrize("case", ["toy", "ragged"])
def test_the_whole_step_gradient_matches_float64_differences(tmp_path, case):
    # the objective a training step differentiates: nine losses over shared
    # passes, replayed dropout-free from the sampled batch and its notebooks
    model, batch, cfg = _replay_case(tmp_path, case)
    if case == "ragged":
        assert len(attention_groups(batch.lengths)) == 2
    twin = promote_model_to_float64(Model.from_state(model.config, model.state()))

    def objective(params):  # of the model or of its float64 twin
        losses = run_courses(model if params is model.params else twin, batch, cfg)
        assert len(losses) == 9
        return total_loss(losses, cfg)

    rng = np.random.default_rng(0)
    coords = [(name, np.unravel_index(flat, p.data.shape)) for name, p in model.params.items()
              for flat in rng.choice(p.data.size, min(2, p.data.size), replace=False)]
    assert not check_gradients(objective, model.params, twin.params, coords)
    # every parameter had a gradient: both relative biases, the last layers'
    # queries and every head among them
    assert all(p.grad is not None for p in model.params.values())


# -- the loop ---------------------------------------------------------------------


def test_train_decreases_loss_and_writes_outputs(corpus, tmp_path):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab)), seed=3)
    cfg = small_train(total_steps=40, warmup_steps=4, batch_size=8, seed=3)
    records = train(model, seqs, cfg, RATES, run_dir=tmp_path / "run", vocab=vocab)
    assert len(records) == 40
    first = np.mean([r.total_loss for r in records[:5]])
    last = np.mean([r.total_loss for r in records[-5:]])
    assert last < first
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert (tmp_path / "run" / "checkpoint_final.bin").exists()
    with open(tmp_path / "run" / "metrics.csv") as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == tr.METRICS_COLUMNS


def test_train_refuses_a_used_run_directory(corpus, tmp_path):
    vocab, seqs = corpus
    cfg = small_train(total_steps=3, warmup_steps=1)
    train(Model(small_encoder(len(vocab)), seed=0), seqs, cfg, RATES, run_dir=tmp_path, vocab=vocab)
    metrics = tmp_path / "metrics.csv"
    before = metrics.read_bytes()
    model = Model(small_encoder(len(vocab)), seed=1)
    with pytest.raises(InputError, match="metrics.csv"):
        train(model, seqs, dataclasses.replace(cfg, seed=1), RATES, run_dir=tmp_path, vocab=vocab,
              step_callback=lambda rec: pytest.fail("a step ran"))
    assert metrics.read_bytes() == before


def test_batch_sampler_covers_epoch():
    sampler = BatchSampler(10, 5)
    rng = np.random.default_rng(0)
    seen = sampler.next_indices(rng) + sampler.next_indices(rng)
    assert sorted(seen) == list(range(10))


def test_insert_overflow_skips_sequence(caplog):
    x_long = TokenSequence(list(range(4, 4 + 24)))
    x_short = TokenSequence([4, 5, 6, 7])
    rng = np.random.default_rng(1)
    with caplog.at_level(logging.WARNING):
        batch = build_views([x_long, x_short], CorruptionRates(0.15, 0.15, 0.15), rng, 24)
    assert batch.itd_kept == [1]
    assert batch.inserted_lengths.tolist() == [batch.plans[1].extended_length]
    assert len(batch.inserted) == batch.plans[1].extended_length
    assert "overflow" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        batch = build_views([x_long, x_short, x_long], CorruptionRates(0.15, 0.15, 0.15), rng, 24)
    assert batch.itd_kept == [1]
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "[0, 2]" in warnings[0].getMessage()


def test_disabled_courses_build_no_views(corpus, caplog):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab)), seed=1)
    cfg = small_train(std_course=False, itd_course=False, re_slm=False, re_std=False)
    x_long = TokenSequence(list(range(4, 4 + 24)))  # its insert view would overflow
    with caplog.at_level(logging.WARNING), ad.Tape():
        losses, batch = step_losses(model, [x_long] + seqs[:3], cfg, RATES,
                                    np.random.default_rng(1))
    assert batch.swapped is None and batch.inserted.size == 0 and batch.itd_kept == []
    assert "overflow" not in caplog.text
    assert set(losses) == {"mlm", "rtd", "re_mlm", "re_rtd"}
