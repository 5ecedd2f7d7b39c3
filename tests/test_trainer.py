import dataclasses
import logging

import numpy as np
import pytest

from multicourse import autodiff as ad
from multicourse import trainer as tr
from multicourse.courses import CorruptionRates, TokenSequence, pad_batch
from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import ConfigError, InputError, NonFiniteLossError
from multicourse.trainer import (
    Adam,
    BatchSampler,
    TrainConfig,
    active_parameter_names,
    build_views,
    clip_gradients,
    compute_metrics,
    evaluate_losses,
    learning_rate_at,
    step_losses,
    total_loss,
    train,
    train_step,
)
from multicourse.toycorpus import generate_corpus
from multicourse.vocab import build_vocab
from multicourse.trainer import load_corpus_sequences


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


def test_adam_matches_scalar_recurrence():
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=2, total_steps=10,
                      adam_beta1=0.9, adam_beta2=0.98, adam_epsilon=1e-6,
                      weight_decay=0.004, grad_clip_norm=0.0)

    class OneParam:
        def __init__(self):
            self.params = {"p": ad.Tensor(np.array([0.02], dtype=np.float32), requires_grad=True)}

        def named_parameters(self):
            return self.params

        config = None

    holder = OneParam()
    opt = Adam(holder, cfg)
    grads = [0.3, -0.14]
    for g in grads:
        holder.params["p"].grad = np.array([g], dtype=np.float32)
        opt.step(holder)

    # float64 hand recurrence, decoupled weight decay, linear warmup
    p, m, v = 0.02, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        lr = 1e-3 * min(t / 2, (10 - t) / 8)
        m = 0.9 * m + 0.1 * g
        v = 0.98 * v + 0.02 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.98 ** t)
        p = p - lr * (mh / (np.sqrt(vh) + 1e-6) + 0.004 * p)
    assert abs(float(holder.params["p"].data[0]) - p) < 1e-8


def test_adam_zero_grads_no_decay_is_identity(setup):
    model, seqs, _ = setup
    cfg = small_train(weight_decay=0.0)
    opt = Adam(model, cfg)
    before = model.state()
    model.zero_grad()
    opt.step(model)  # all grads None -> zeros
    after = model.state()
    for name in before:
        if name in opt.names:
            np.testing.assert_array_equal(before[name], after[name])


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
    pre = clip_gradients([t1, t2], 2.0)
    assert pre == pytest.approx(4.0)
    post = np.sqrt(float((t1.grad ** 2).sum() + (t2.grad ** 2).sum()))
    assert abs(post - 2.0) < 1e-5


def test_clip_leaves_small_gradients_alone():
    t1 = ad.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    t1.grad = np.array([0.3, 0.4], dtype=np.float32)
    clip_gradients([t1], 2.0)
    np.testing.assert_allclose(t1.grad, [0.3, 0.4])


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
    assert abs(total.item() - float(want)) < 1e-7 * abs(float(want))


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
    assert abs(total.item() - float(by_hand)) < 1e-7 * max(1.0, abs(float(by_hand)))


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
    x1 = TokenSequence.from_ids([4, 5, 6, 7, 8, 9])
    x2 = TokenSequence.from_ids([10, 11, 12, 13])
    rng = np.random.default_rng(0)
    batch = build_views([x1, x2], CorruptionRates(0.34, 0, 0), rng, 24)
    # hand-craft the spliced views: one replacement caught, one missed, one resampled
    batch.rtd_views = [x1.copy(), x2.copy()]
    p1 = batch.plans[0].mask_positions  # two positions
    batch.rtd_views[0].ids[p1[0]] = 20
    batch.rtd_views[0].ids[p1[1]] = x1.ids[p1[1]]  # resampled the original
    p2 = batch.plans[1].mask_positions  # one position
    batch.rtd_views[1].ids[p2[0]] = 21
    probs1 = np.full(6, 0.9)
    probs1[p1[0]] = 0.1   # caught
    probs2 = np.full(4, 0.9)  # missed
    from multicourse.correction import classify_confusion
    batch.notebooks["rtd"] = [
        classify_confusion(x, v, pr, pl.mask_positions)
        for x, v, pr, pl in zip([x1, x2], batch.rtd_views, [probs1, probs2], batch.plans)
    ]
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
    x = TokenSequence.from_ids([4, 5, 6, 7])
    rng = np.random.default_rng(0)
    batch = build_views([x], CorruptionRates(0, 0, 0), rng, 24)
    batch.rtd_views = [x.copy()]
    from multicourse.correction import classify_confusion
    batch.notebooks["rtd"] = [classify_confusion(x, x.copy(), np.full(4, 0.9), [])]
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
    # a view differs from its original only where its course corrupted it
    for views, field in ((batch.rtd_views, "mask_positions"), (batch.std_views, "swap_positions")):
        for x, view, plan in zip(batch.originals, views, batch.plans):
            assert np.isin(np.flatnonzero(view.ids != x.ids), getattr(plan, field)).all()
    # brute force: compare the views with the originals, re-judge the rtd views
    probs = model.detection_probs_detached(
        model.encode_discriminator(*pad_batch(batch.rtd_views)).data, "rtd")
    kept = replaced = caught = 0
    for i, (x, view, plan) in enumerate(zip(batch.originals, batch.rtd_views, batch.plans)):
        r = plan.mask_positions
        is_replaced = view.ids[r] != x.ids[r]
        kept += len(r)
        replaced += int(is_replaced.sum())
        caught += int((probs[i, r][is_replaced] < 0.5).sum())
    swapped = sum(len(p.swap_positions) for p in batch.plans)
    std_replaced = sum(int((v.ids != x.ids).sum()) for x, v in zip(batch.originals, batch.std_views))
    inserted = sum(len(p.insert_positions) for p in batch.kept_plans)
    assert replaced > 0 and std_replaced > 0 and inserted > 0
    assert rec.replace_rate == replaced / kept
    assert rec.replace_accuracy == caught / replaced
    assert rec.pos_counts[1] + rec.pos_counts[3] == replaced and rec.pos_counts[3] == caught
    assert sum(rec.pos_counts) == sum(x.n_real for x in batch.originals)
    assert rec.d_nonoriginal == replaced + std_replaced + inserted
    assert rec.d_corrupted == kept + swapped + inserted
    assert rec.itd_nonoriginal == inserted


# -- evaluate_losses consistency ----------------------------------------------------


@pytest.mark.parametrize("correction_start_step", [0, 3])
def test_evaluate_losses_matches_step_losses_without_dropout(corpus, correction_start_step):
    vocab, seqs = corpus
    model = Model(small_encoder(len(vocab), dropout=0.0), seed=2)
    cfg = small_train(correction_start_step=correction_start_step)
    rng = np.random.default_rng(14)
    with ad.Tape():
        losses, batch = step_losses(model, seqs[:4], cfg, RATES, rng, step=0)
    replay = evaluate_losses(model, batch, cfg)
    assert set(replay) == set(losses)
    for name in losses:
        assert float(replay[name].data) == pytest.approx(float(losses[name].data), abs=1e-7)


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
    x_long = TokenSequence.from_ids(list(range(4, 4 + 24)))
    x_short = TokenSequence.from_ids([4, 5, 6, 7])
    rng = np.random.default_rng(1)
    with caplog.at_level(logging.WARNING):
        batch = build_views([x_long, x_short], CorruptionRates(0.15, 0.15, 0.15), rng, 24)
    assert batch.itd_kept == [1]
    assert len(batch.inserted) == 1
    assert "overflow" in caplog.text
