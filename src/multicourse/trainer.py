"""Joint training of generator and discriminator over all enabled courses.

A step corrupts one batch into every course's views and runs the courses
(`run_courses`) in at most three generator and two discriminator passes.
Its CourseBatch is its one record: the views as packed id arrays, one
notebook per discriminator stream and whether correction ran; each course
function runs once per view set, not once per sequence. One clipped AdamW
update, its recipe fixed as module constants, follows on the generator
losses plus lambda-scaled discriminator losses, over one flat layout: the
active parameters' elements one parameter after another. `clip_gradients`
gathers the gradients into one new flat array and scales it; `Adam` keeps
its moments as two flat arrays and writes the new parameter values over that
array in cache-sized blocks, and it then backs every active parameter as
views, so no parameter array is written in place. Metrics: replace
rate/accuracy and confusion-cell counts, read off the notebooks.
"""

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import courses as crs
from . import correction as corr
from .errors import ConfigError, InputError, NonFiniteLossError
from .fileio import text_lines

log = logging.getLogger(__name__)

# float32 elements per optimizer block: its block of six arrays (384 KiB) stays in cache
_ADAM_BLOCK = 1 << 14

# the optimizer recipe of every run: AdamW's betas, epsilon and weight decay, and the norm clip
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPSILON = 1e-6
WEIGHT_DECAY = 0.01
GRAD_CLIP_NORM = 2.0

G_LOSSES = ("mlm", "slm", "re_mlm", "re_slm")
D_LOSSES = ("rtd", "std", "itd", "re_rtd", "re_std")
LOSS_NAMES = G_LOSSES + D_LOSSES

METRICS_COLUMNS = (
    ("step",)
    + tuple(f"loss_{n}" for n in LOSS_NAMES)
    + ("replace_rate", "replace_accuracy", "pos1", "pos2", "pos3", "pos4", "lr")
)


@dataclass(frozen=True)
class TrainConfig:
    lambda_disc: float = 50.0
    learning_rate: float = 5e-4
    warmup_steps: int = 400
    total_steps: int = 5000
    batch_size: int = 32
    seed: int = 0
    std_course: bool = True
    itd_course: bool = True
    re_mlm: bool = True
    re_rtd: bool = True
    re_slm: bool = True
    re_std: bool = True
    correction_start_step: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 < self.lambda_disc < np.inf:
            raise ConfigError(f"lambda_disc must be positive and finite, got {self.lambda_disc}")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError(
                f"warmup_steps {self.warmup_steps} must be below total_steps {self.total_steps}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.correction_start_step < 0:
            raise ConfigError(f"correction_start_step must be nonnegative, "
                              f"got {self.correction_start_step}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be nonnegative (0 = final only), "
                              f"got {self.checkpoint_every}")
        if (self.re_slm or self.re_std) and not self.std_course:
            raise ConfigError("re_slm/re_std need the swap course enabled")

    def enabled_losses(self):
        on = {"mlm": True, "rtd": True, "slm": self.std_course, "std": self.std_course,
              "itd": self.itd_course, "re_mlm": self.re_mlm, "re_rtd": self.re_rtd,
              "re_slm": self.re_slm, "re_std": self.re_std}
        return tuple(n for n in LOSS_NAMES if on[n])


@dataclass
class MetricsRecord:
    step: int
    losses: dict
    total_loss: float
    replace_rate: float | None
    replace_accuracy: float | None
    pos_counts: tuple
    learning_rate: float
    # label-balance diagnostics across the discriminator streams
    d_nonoriginal: int = 0
    d_corrupted: int = 0
    itd_nonoriginal: int = 0
    itd_positions: int = 0

    def csv_row(self):
        def fmt(v):
            return "" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
        row = [self.step]
        row += [fmt(self.losses.get(n, 0.0)) for n in LOSS_NAMES]
        row += [fmt(self.replace_rate), fmt(self.replace_accuracy)]
        row += list(self.pos_counts)
        row.append(fmt(self.learning_rate))
        return row


def build_views(seqs, rates, rng, max_seq_len, swap=True, insert=True):
    """Corruption plans plus the mask view for one batch, and the swap and
    insert views when those courses run. Every plan is drawn either way."""
    plans = [crs.plan_corruption(x, rates, rng) for x in seqs]
    inserted, skipped = {}, []
    for i, (x, p) in enumerate(zip(seqs, plans) if insert else ()):
        try:
            inserted[i] = crs.apply_insert(x, p, max_len=max_seq_len)
        except InputError:
            skipped.append(i)
    if skipped:
        log.warning("skipping sequences %s in insert course: extension overflows max_seq_len",
                    skipped)
    batch = crs.course_batch(seqs, plans, inserted)
    batch.masked = crs.apply_mask(batch.ids, batch.mask_rows)
    if swap:
        batch.swapped = crs.apply_swap(batch.ids, batch.swap_rows, batch.swap_sources)
    return batch


def step_losses(model, seqs, cfg: TrainConfig, rates, rng, step=0):
    """All enabled losses for one batch, recorded on the active tape.

    Returns (losses, batch); losses maps enabled loss names to scalar
    tensors, batch is the step's CourseBatch with its views and notebooks.
    """
    batch = build_views(seqs, rates, rng, model.config.max_seq_len,
                        swap=cfg.std_course, insert=cfg.itd_course)
    batch.corrected = step >= cfg.correction_start_step
    return run_courses(model, batch, cfg, rng), batch


def run_courses(model, batch: crs.CourseBatch, cfg: TrainConfig, rng=None):
    """Every enabled loss of one step; the view sets of a pass share its grid.

    The passes, in order: mlm+slm (generator), the off-tape insert pass,
    rtd+std+itd (discriminator), then for a `corrected` batch re_mlm+re_slm
    and re_rtd+re_std from the rtd/std notebooks. A pass computes only the
    rows its caller reads: the generator passes the masked and swapped rows,
    the inserted slots and pos4, the rediscrimination pass the retry rows,
    and the rtd+std+itd pass every row. `run_pass` alone knows where a view
    set's rows sit in a shared pass; it hands each set its own block, which
    its loss, splice or notebook reads whole. Given an rng the step samples:
    generator samples fill the rtd/std/itd views and the discriminator files
    its notebooks in the batch. Without one it replays those from the batch,
    dropout-free.
    """
    on = cfg.enabled_losses()
    sample = rng is not None
    x = batch.ids
    swap = "slm" in on
    losses = {}

    def run_pass(encode, views, row_sets=None, lengths=None):
        """Stack the view sets, each laid out by its own lengths (the batch's
        by default), run `encode` once over them, and return one tensor per
        set: the hidden states of its `row_sets` rows, or of its every row."""
        sizes, rows = [len(v) for v in views], None
        if row_sets is not None:
            starts = np.cumsum([0] + sizes[:-1])
            rows = np.concatenate([start + r for start, r in zip(starts, row_sets)])
            sizes = [len(r) for r in row_sets]
        lengths = np.concatenate(lengths or [batch.lengths] * len(views))
        h = encode(*crs.pad_batch(np.concatenate(views), lengths), rng, rows)
        ends = np.cumsum(sizes)
        return [ad.gather_rows(h, np.arange(end - n, end)) for n, end in zip(sizes, ends)]

    gen = run_pass(model.encode_generator, [batch.masked, batch.swapped][:1 + swap],
                   [batch.mask_rows, batch.swap_rows][:1 + swap])
    losses["mlm"] = crs.loss_mlm(model, gen[0], batch)
    if sample:
        batch.rtd_view = crs.splice_generator_samples(model, batch.masked, gen[0].data,
                                                      batch.mask_rows, rng)
    if swap:
        losses["slm"] = crs.loss_slm(model, gen[1], batch)
        if sample:
            batch.std_view = crs.splice_generator_samples(model, batch.swapped, gen[1].data,
                                                          batch.swap_rows, rng)
    if sample and batch.itd_kept:
        with ad.no_tape():
            ins, = run_pass(model.encode_generator, [batch.inserted], [batch.insert_rows],
                            [batch.inserted_lengths])
        batch.itd_view = crs.splice_generator_samples(model, batch.inserted, ins.data,
                                                      batch.insert_rows, rng)

    views = [batch.rtd_view, batch.std_view][:1 + swap]
    lengths = [batch.lengths] * len(views)
    itd = "itd" in on and batch.itd_kept
    if itd:
        views.append(batch.itd_view)
        lengths.append(batch.inserted_lengths)
    disc = run_pass(model.encode_discriminator, views, lengths=lengths)
    losses["rtd"] = crs.loss_rtd(model, disc[0], batch.rtd_view, x)
    if sample:
        batch.notebooks["rtd"] = corr.classify_confusion(
            x, batch.rtd_view, model.detection_probs_detached(disc[0].data, "rtd"))
    if swap:
        losses["std"] = crs.loss_std(model, disc[1], batch.std_view, x)
        if sample:
            batch.notebooks["std"] = corr.classify_confusion(
                x, batch.std_view, model.detection_probs_detached(disc[1].data, "std"))
    if itd:
        losses["itd"] = crs.loss_itd(model, disc[-1], batch)
    if not batch.corrected:
        return losses

    books = batch.notebooks
    regen = {name: corr.build_regeneration(x, corrupted, books[book])
             for name, book, corrupted in (("re_mlm", "rtd", batch.mask_rows),
                                           ("re_slm", "std", batch.swap_rows)) if name in on}
    course_rows = {"re_mlm": len(batch.mask_rows), "re_slm": len(batch.swap_rows)}
    if regen:
        blocks = run_pass(model.encode_generator, [view for view, _, _ in regen.values()],
                          [pos4 for _, _, pos4 in regen.values()])
        for block, (name, built) in zip(blocks, regen.items()):
            losses[name] = corr.loss_regeneration(model, block, built, course_rows[name])
    redisc = {name: corr.build_rediscrimination(x, view, books[name[3:]])
              for name, view in (("re_rtd", batch.rtd_view), ("re_std", batch.std_view)) if name in on}
    if redisc:
        blocks = run_pass(model.encode_discriminator, [view for view, _, _ in redisc.values()],
                          [retry for _, retry, _ in redisc.values()])
        for block, (name, built) in zip(blocks, redisc.items()):
            losses[name] = corr.loss_rediscrimination(model, block, name[3:], built, len(x))
    return losses


def total_loss(losses, cfg: TrainConfig):
    """Generator losses plus lambda_disc-scaled discriminator losses.

    Absent (disabled) courses contribute exactly zero. Any non-finite
    component aborts the step before gradients exist.
    """
    for name, t in losses.items():
        if not np.isfinite(t.data):
            raise NonFiniteLossError(f"loss {name} is {float(t.data)} — aborting step")
    return ad.add_n([ad.scale(losses[n], cfg.lambda_disc) if n in D_LOSSES else losses[n]
                     for n in LOSS_NAMES if n in losses])


# -- optimizer ---------------------------------------------------------------


def learning_rate_at(step, cfg: TrainConfig):
    """Linear warmup to the peak, then linear decay to zero; step is 1-based."""
    if step <= cfg.warmup_steps:
        return cfg.learning_rate * step / max(cfg.warmup_steps, 1)
    return cfg.learning_rate * (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps)


def active_parameter_names(model, cfg: TrainConfig):
    """All parameters except dedicated heads of courses that never run."""
    skip = set()
    if not cfg.std_course:
        skip |= {"head.std.w", "head.std.b"}
    if not cfg.itd_course:
        skip |= {"head.itd.w", "head.itd.b"}
    return [n for n in model.named_parameters() if n not in skip]


def clip_gradients(tensors, max_norm):
    """The tensors' gradients as one new flat float32 array, in tensor order
    (zeros where a gradient is None), scaled so their global norm is at most
    max_norm, and that norm before scaling. The norm is one float64 sum of
    squares over the flat array; einsum casts it in blocks, so no float64 copy
    of the whole array is made. A non-finite norm raises NonFiniteLossError;
    no gradient is ever changed."""
    parts = []
    for t in tensors:
        g = t.grad
        parts.append(np.zeros(t.data.size, np.float32) if g is None else g.reshape(-1))
    flat = np.concatenate(parts, dtype=np.float32)
    total = np.sqrt(np.einsum("i,i->", flat, flat, dtype=np.float64))
    if not np.isfinite(total):
        raise NonFiniteLossError(f"global gradient norm is {total} — aborting step")
    if total > max_norm:
        flat *= np.float32(max_norm / total)
    return flat, total


class Adam:
    """AdamW with bias correction and the linear warmup/decay schedule.

    The moments `m` and `v` are flat float32 arrays over the active
    parameters, each parameter's elements at `offsets[i]:offsets[i + 1]` in
    `names` order, the layout `clip_gradients` gives their gradients.
    """

    def __init__(self, model, cfg: TrainConfig):
        self.cfg = cfg
        self.names = active_parameter_names(model, cfg)
        params = model.named_parameters()
        self.offsets = np.cumsum([0] + [params[n].data.size for n in self.names]).tolist()
        size = self.offsets[-1]
        self.m = np.zeros(size, np.float32)
        self.v = np.zeros(size, np.float32)
        self.t = 0
        # each block's pieces of parameters: (index in names, start, stop) within the parameter
        self._pieces = [[(i, max(lo, a) - a, min(lo + _ADAM_BLOCK, b) - a)
                         for i, (a, b) in enumerate(zip(self.offsets, self.offsets[1:]))
                         if a < lo + _ADAM_BLOCK and b > lo]
                        for lo in range(0, size, _ADAM_BLOCK)]

    def step(self, model, grad):
        """One decoupled-weight-decay Adam update of the active parameters by
        `grad`, their flat gradient from `clip_gradients`, which the update
        takes over as the parameters' new storage.

        One block of `_ADAM_BLOCK` elements at a time, the block's current
        parameter values are copied into scratch, and once `m` and `v` have
        read the block's gradient the new values are written over it. Then
        each parameter's `data` becomes its view of `grad`: no parameter
        array is written in place.
        """
        self.t += 1
        lr = np.float32(learning_rate_at(self.t, self.cfg))
        b1, b2 = np.float32(ADAM_BETA1), np.float32(ADAM_BETA2)
        one_b1, one_b2 = np.float32(1) - b1, np.float32(1) - b2
        eps = np.float32(ADAM_EPSILON)
        wd = np.float32(WEIGHT_DECAY)
        c1 = np.float32(1.0 - ADAM_BETA1 ** self.t)
        c2 = np.float32(1.0 - ADAM_BETA2 ** self.t)
        params = model.named_parameters()
        current = [params[n].data.reshape(-1) for n in self.names]
        scratch = np.empty((3, _ADAM_BLOCK), np.float32)
        for start, pieces in zip(range(0, grad.size, _ADAM_BLOCK), self._pieces):
            stop = min(start + _ADAM_BLOCK, grad.size)
            g, m, v = grad[start:stop], self.m[start:stop], self.v[start:stop]
            p, s1, s2 = scratch[:, :stop - start]
            np.concatenate([current[i][a:b] for i, a, b in pieces], out=p)
            # m = b1 * m + (1 - b1) * g
            np.multiply(m, b1, out=m)
            np.multiply(g, one_b1, out=s1)
            np.add(m, s1, out=m)
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(g, g, out=s1)
            np.multiply(s1, one_b2, out=s1)
            np.multiply(v, b2, out=v)
            np.add(v, s1, out=v)
            # update = (m / c1) / (sqrt(v / c2) + eps)
            np.divide(v, c2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, eps, out=s1)
            np.divide(m, c1, out=s2)
            np.divide(s2, s1, out=s2)
            # p = p - lr * (update + wd * p), over the block's gradient
            np.multiply(p, wd, out=s1)
            np.add(s2, s1, out=s2)
            np.multiply(s2, lr, out=s2)
            np.subtract(p, s2, out=g)
        for n, start, stop in zip(self.names, self.offsets, self.offsets[1:]):
            params[n].data = grad[start:stop].reshape(params[n].data.shape)
        return float(lr)


# -- metrics -------------------------------------------------------------------


def compute_metrics(step, losses, total, batch: crs.CourseBatch, lr, cfg: TrainConfig):
    """Replace rate/accuracy on the rtd stream, confusion-cell counts, and
    the discriminator label-balance tallies. Reads detached data only.

    A course's view differs from its original only at the course's corrupted
    positions, so a notebook's pos2|pos4 are the replaced tokens and pos4
    the ones the discriminator caught.
    """
    cells = [len(cell) for cell in batch.notebooks["rtd"].cells()]
    kept = len(batch.mask_rows)
    replaced = cells[1] + cells[3]
    replace_rate = replaced / kept if kept else None
    replace_accuracy = cells[3] / replaced if replaced else None

    d_nonorig = replaced
    d_corrupted = kept
    if cfg.std_course:
        std = batch.notebooks["std"]
        d_corrupted += len(batch.swap_rows)
        d_nonorig += len(std.pos2) + len(std.pos4)
    itd_nonorig = itd_total = 0
    if cfg.itd_course:
        itd_nonorig = len(batch.insert_rows)
        itd_total = len(batch.inserted)
        d_nonorig += itd_nonorig
        d_corrupted += itd_nonorig

    return MetricsRecord(
        step=step,
        losses={n: float(losses[n].data) if n in losses else 0.0 for n in LOSS_NAMES},
        total_loss=total,
        replace_rate=replace_rate,
        replace_accuracy=replace_accuracy,
        pos_counts=tuple(cells),
        learning_rate=lr,
        d_nonoriginal=d_nonorig,
        d_corrupted=d_corrupted,
        itd_nonoriginal=itd_nonorig,
        itd_positions=itd_total,
    )


# -- the step and the loop -----------------------------------------------------


def train_step(model, seqs, opt: Adam, cfg: TrainConfig, rates, rng, step=0):
    """One co-training step; a non-finite loss or gradient norm aborts before any update."""
    model.zero_grad()
    with ad.Tape() as tape:
        losses, batch = step_losses(model, seqs, cfg, rates, rng, step)
        total = total_loss(losses, cfg)
        tape.backward(total)
    del tape  # its ops hold the step's activations: free them before the optimizer's flat arrays
    params = model.named_parameters()
    grad, _ = clip_gradients([params[n] for n in opt.names], GRAD_CLIP_NORM)
    lr = opt.step(model, grad)
    return compute_metrics(step, losses, float(total.data), batch, lr, cfg)


class MetricsWriter:
    """Writes one fixed-schema CSV row per step to a new file; an existing one is another run's."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self._fh = open(self.path, "x", newline="", encoding="utf-8")
        except FileExistsError:
            raise InputError(f"{self.path} already exists; use a new run directory") from None
        self._writer = csv.writer(self._fh)
        self._writer.writerow(METRICS_COLUMNS)

    def append(self, record: MetricsRecord):
        self._writer.writerow(record.csv_row())
        self._fh.flush()

    def close(self):
        self._fh.close()


def load_corpus_sequences(path, vocab, max_seq_len):
    """Tokenize a one-sentence-per-line corpus into trainable sequences."""
    seqs = []
    skipped = 0
    for line in text_lines(path):
        ids = vocab.encode(line.strip())
        if len(ids) < crs.MIN_REAL_TOKENS:
            skipped += 1
            continue
        seqs.append(crs.TokenSequence(ids[:max_seq_len]))
    if not seqs:
        raise InputError(f"corpus {path} has no usable sentences")
    if skipped:
        log.info("dropped %d sentences shorter than %d tokens", skipped, crs.MIN_REAL_TOKENS)
    return seqs


class BatchSampler:
    """Epoch-shuffled index cycling, deterministic under the step rng."""

    def __init__(self, n_sequences, batch_size):
        self.n = n_sequences
        self.batch_size = batch_size
        self._pool = []

    def next_indices(self, rng):
        out = []
        while len(out) < self.batch_size:
            if not self._pool:
                self._pool = list(rng.permutation(self.n))
            out.append(self._pool.pop())
        return out


def train(model, sequences, cfg: TrainConfig, rates, run_dir=None, vocab=None,
          step_callback=None):
    """Run cfg.total_steps of co-training; returns the metric records.

    Writes metrics.csv and periodic/final checkpoints into run_dir when
    given (checkpoints need `vocab` for a self-contained file).
    """
    from .checkpoint import save_checkpoint

    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model, cfg)
    sampler = BatchSampler(len(sequences), cfg.batch_size)
    writer = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        writer = MetricsWriter(run_dir / "metrics.csv")
    records = []
    try:
        for step in range(cfg.total_steps):
            batch = [sequences[i] for i in sampler.next_indices(rng)]
            try:
                rec = train_step(model, batch, opt, cfg, rates, rng, step)
            except NonFiniteLossError:
                log.exception("step %d aborted, parameters left unchanged", step)
                raise
            records.append(rec)
            if writer:
                writer.append(rec)
            if step_callback:
                step_callback(rec)
            if run_dir is not None and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(run_dir / f"checkpoint_step{step + 1}.bin", model, vocab)
            if step % 200 == 0:
                log.info("step %d total_loss %.4f mlm %.4f rtd %.4f", step, rec.total_loss,
                         rec.losses["mlm"], rec.losses["rtd"])
        if run_dir is not None:
            save_checkpoint(run_dir / "checkpoint_final.bin", model, vocab)
    finally:
        if writer:
            writer.close()
    return records
