"""Joint training of generator and discriminator over all enabled courses.

One step builds every view from the same batch and walks the course table
COURSES: generator passes that sample, discriminator passes on the spliced
samples, then the rtd and std self-correction courses; the same walk replays
a captured step. The step's CourseBatch is its one record: views, notebooks
and whether correction ran. One clipped AdamW update follows on the enabled
generator losses plus lambda-scaled discriminator losses. Metrics: replace
rate/accuracy and confusion-cell counts, read off the notebooks.
"""

import csv
import logging
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import courses as crs
from . import correction as corr
from .errors import ConfigError, InputError, NonFiniteLossError

log = logging.getLogger(__name__)

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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_epsilon: float = 1e-6
    grad_clip_norm: float = 2.0
    weight_decay: float = 0.01
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
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.lambda_disc <= 0:
            raise ConfigError(f"lambda_disc must be positive, got {self.lambda_disc}")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError(
                f"warmup_steps {self.warmup_steps} must be below total_steps {self.total_steps}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
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


@dataclass(frozen=True)
class Course:
    """One encoder pass of the step, switched on by enabled_losses() `name`.

    It encodes CourseBatch field `view` and applies the `courses` function
    named `loss`, looked up at call time, to the hidden states and the
    CourseBatch fields in `args`; a row without a loss samples off the tape.
    `corrupted` is the plan field of the course's positions: a generator row
    splices its samples there into `spliced`; a discriminator row with
    `corrections` (regeneration, rediscrimination loss) sorts them into notebooks.
    """
    name: str
    encoder: str
    view: str
    loss: str | None
    args: tuple = ()
    plans: str = "plans"
    corrupted: str | None = None
    spliced: str | None = None
    corrections: tuple = ()


# One step: the generator phase, the discriminator phase on its spliced
# samples, then self-correction from the rtd and std notebooks.
COURSES = (
    Course("mlm", "generator", "masked", "loss_mlm", ("plans", "originals"),
           corrupted="mask_positions", spliced="rtd_views"),
    Course("slm", "generator", "swapped", "loss_slm", ("plans", "originals"),
           corrupted="swap_positions", spliced="std_views"),
    Course("itd", "generator", "inserted", None, plans="kept_plans",
           corrupted="insert_positions", spliced="itd_views"),
    Course("rtd", "discriminator", "rtd_views", "loss_rtd", ("rtd_views", "originals"),
           corrupted="mask_positions", corrections=("re_mlm", "re_rtd")),
    Course("std", "discriminator", "std_views", "loss_std", ("std_views", "originals"),
           corrupted="swap_positions", corrections=("re_slm", "re_std")),
    Course("itd", "discriminator", "itd_views", "loss_itd", ("itd_views", "kept_plans")),
)


def build_views(seqs, rates, rng, max_seq_len):
    """Corruption plans plus the mask/swap/insert views for one batch."""
    plans = [crs.plan_corruption(x, rates, rng) for x in seqs]
    batch = crs.CourseBatch(originals=seqs, plans=plans,
                            masked=[crs.apply_mask(x, p) for x, p in zip(seqs, plans)],
                            swapped=[crs.apply_swap(x, p) for x, p in zip(seqs, plans)])
    for i, (x, p) in enumerate(zip(seqs, plans)):
        try:
            batch.inserted.append(crs.apply_insert(x, p, max_len=max_seq_len))
            batch.itd_kept.append(i)
        except InputError:
            log.warning("skipping sequence %d in insert course: extension overflows max_seq_len", i)
    return batch


def step_losses(model, seqs, cfg: TrainConfig, rates, rng, step=0):
    """All enabled losses for one batch, recorded on the active tape.

    Returns (losses, batch); losses maps enabled loss names to scalar
    tensors, batch is the step's CourseBatch with its views and notebooks.
    """
    batch = build_views(seqs, rates, rng, model.config.max_seq_len)
    batch.corrected = step >= cfg.correction_start_step
    return run_courses(model, batch, cfg, rng, sample=True), batch


def evaluate_losses(model, batch: crs.CourseBatch, cfg: TrainConfig, rng=None):
    """Recompute enabled losses from a captured step's frozen views.

    Unlike step_losses this resamples nothing: spliced views, notebooks,
    and hence the regeneration/rediscrimination inputs are data. Used for
    gradient checking and fixed-point evaluations.
    """
    return run_courses(model, batch, cfg, rng, sample=False)


def run_courses(model, batch: crs.CourseBatch, cfg: TrainConfig, rng, sample):
    """Walk COURSES, then the correction courses, in the order rng is drawn.

    Sampling splices generator samples into the batch and files the
    discriminator's notebooks in `batch.notebooks`; a replay reads both
    from the batch and skips the sampling-only insert pass.
    """
    on = cfg.enabled_losses()
    losses = {}
    for c in COURSES:
        views = getattr(batch, c.view)
        if c.name not in on or not views or not (sample or c.loss):
            continue
        ids, mask = crs.pad_batch(views)
        with ad.no_tape() if c.loss is None else nullcontext():
            h = getattr(model, f"encode_{c.encoder}")(ids, mask, rng)
        if c.loss:
            losses[c.name] = getattr(crs, c.loss)(model, h, *(getattr(batch, a) for a in c.args))
        plans = getattr(batch, c.plans)
        if sample and c.spliced:
            setattr(batch, c.spliced, [
                crs.splice_generator_samples(
                    model, v, h.data[i, : len(v.ids)], getattr(p, c.corrupted), rng)
                for i, (v, p) in enumerate(zip(views, plans))
            ])
        elif sample and c.corrections:
            probs = model.detection_probs_detached(h.data, c.name)
            batch.notebooks[c.name] = [
                corr.classify_confusion(x, v, probs[i, : len(v.ids)], getattr(p, c.corrupted),
                                        course=c.name)
                for i, (x, v, p) in enumerate(zip(batch.originals, views, plans))
            ]

    for c in COURSES:
        if not (batch.corrected and set(c.corrections) & set(on)):
            continue
        regen_name, redisc_name = c.corrections
        notebooks = batch.notebooks[c.name]
        regen = [corr.build_regeneration(x, getattr(p, c.corrupted), nb)
                 for x, p, nb in zip(batch.originals, batch.plans, notebooks)]
        redisc = [corr.build_rediscrimination(x, v, nb)
                  for x, v, nb in zip(batch.originals, getattr(batch, c.view), notebooks)]
        if regen_name in on:
            h = model.encode_generator(*crs.pad_batch([r[0] for r in regen]), rng)
            losses[regen_name] = corr.loss_regeneration(model, h, regen)
        if redisc_name in on:
            h = model.encode_discriminator(*crs.pad_batch([r[0] for r in redisc]), rng)
            losses[redisc_name] = corr.loss_rediscrimination(model, h, c.name, redisc)
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
    """Scale gradients in place so the global norm is at most max_norm; a
    non-finite norm raises NonFiniteLossError and leaves every gradient as it was."""
    total = np.sqrt(sum(float((t.grad.astype(np.float64) ** 2).sum())
                        for t in tensors if t.grad is not None))
    if not np.isfinite(total):
        raise NonFiniteLossError(f"global gradient norm is {total} — aborting step")
    if max_norm > 0 and total > max_norm:
        factor = np.float32(max_norm / total)
        for t in tensors:
            if t.grad is not None:
                t.grad = t.grad * factor
    return total


class Adam:
    """AdamW with bias correction and the linear warmup/decay schedule."""

    def __init__(self, model, cfg: TrainConfig):
        self.cfg = cfg
        self.names = active_parameter_names(model, cfg)
        params = model.named_parameters()
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}
        self.t = 0

    def step(self, model):
        """One decoupled-weight-decay Adam update over the active parameters."""
        self.t += 1
        cfg = self.cfg
        lr = np.float32(learning_rate_at(self.t, cfg))
        b1, b2 = np.float32(cfg.adam_beta1), np.float32(cfg.adam_beta2)
        eps = np.float32(cfg.adam_epsilon)
        wd = np.float32(cfg.weight_decay)
        c1 = np.float32(1.0 - cfg.adam_beta1 ** self.t)
        c2 = np.float32(1.0 - cfg.adam_beta2 ** self.t)
        params = model.named_parameters()
        for n in self.names:
            p = params[n]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[n] = b1 * self.m[n] + (np.float32(1) - b1) * g
            v = self.v[n] = b2 * self.v[n] + (np.float32(1) - b2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + eps)
            p.data = p.data - lr * (update + wd * p.data)
        return float(lr)


# -- metrics -------------------------------------------------------------------


def compute_metrics(step, losses, total, batch: crs.CourseBatch, lr, cfg: TrainConfig):
    """Replace rate/accuracy on the rtd stream, confusion-cell counts, and
    the discriminator label-balance tallies. Reads detached data only.

    A course's view differs from its original only at the course's corrupted
    positions, so a notebook's pos2|pos4 are the replaced tokens and pos4
    the ones the discriminator caught.
    """
    cells = [0, 0, 0, 0]
    for nb in batch.notebooks["rtd"]:
        for i, cell in enumerate(nb.cells()):
            cells[i] += len(cell)
    kept = sum(len(plan.mask_positions) for plan in batch.plans)
    replaced = cells[1] + cells[3]
    replace_rate = replaced / kept if kept else None
    replace_accuracy = cells[3] / replaced if replaced else None

    d_nonorig = replaced
    d_corrupted = kept
    if cfg.std_course:
        d_corrupted += sum(len(plan.swap_positions) for plan in batch.plans)
        d_nonorig += sum(len(nb.pos2) + len(nb.pos4) for nb in batch.notebooks["std"])
    itd_nonorig = itd_total = 0
    if cfg.itd_course:
        for plan in batch.kept_plans:
            itd_nonorig += len(plan.insert_positions)
            itd_total += plan.extended_length
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
    params = model.named_parameters()
    clip_gradients([params[n] for n in opt.names], cfg.grad_clip_norm)
    lr = opt.step(model)
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


def load_corpus_sequences(path, vocab, max_seq_len, min_tokens=2):
    """Tokenize a one-sentence-per-line corpus into trainable sequences."""
    seqs = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ids = vocab.encode(line.strip())
            if len(ids) < min_tokens:
                skipped += 1
                continue
            seqs.append(crs.TokenSequence.from_ids(ids[:max_seq_len]))
    if not seqs:
        raise InputError(f"corpus {path} has no usable sentences")
    if skipped:
        log.info("dropped %d sentences shorter than %d tokens", skipped, min_tokens)
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
