"""Run one benchmark workload in this process: set up, time operations, check outputs.

`run.py` starts this file in a fresh process with BLAS threads pinned. It
prints one `name value unit` line per metric and, as its last line, the
result as one JSON object. Load is one closed-loop client: each operation
(a training step, or a soup cycle) starts when the previous one ends.

Untraced (`--trace 0`) it reports the end-to-end metrics and leaves the
program unmodified. Traced (`--trace 1`) every layer is wrapped and records
every other timed operation; it reports the per-layer metrics of the
recorded operations, and the difference between the medians of recorded and
pass-through operations as the tracing overhead.
"""

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import multicourse  # noqa: E402
from multicourse import checkpoint, errors, probe, soups, trainer  # noqa: E402
from multicourse.courses import CorruptionRates  # noqa: E402
from multicourse.encoder import Model  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from reference import ReferenceLayer, ReferenceSetup  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = HERE / "out"


class StopRun(Exception):
    """Raised from the step callback to end `trainer.train` when the run is over."""


class Timer:
    """Closed-loop clock: `workload.warmup_ops` untimed operations, then timed
    ones until `seconds` have passed and at least two have run.

    After each operation, outside its time, the workload's reference layer
    runs once (see reference.py). `before_op(k)` runs before timed operation
    k and says whether that operation is traced; both are stored with it.
    """

    def __init__(self, workload, seconds, before_op=lambda k: False):
        self.reference = ReferenceLayer(*workload.reference)
        self.warmup_ops = workload.warmup_ops
        self.seconds = seconds
        self.before_op = before_op
        self.ops = []
        self.seen = 0
        self.start = None
        self.traced = False

    def record(self, end, **op):
        """Log one finished operation; True once the timed window is over."""
        op["ref_ms"] = self.reference.run_ms()
        self.seen += 1
        if self.seen > self.warmup_ops:
            self.ops.append(dict(op, traced=self.traced))
            if end - self.start >= self.seconds and len(self.ops) >= 2:
                return True
        if self.seen >= self.warmup_ops:
            self.traced = self.before_op(len(self.ops))
            self.start = self.start or perf_counter()
        return False


def tail(values):
    """(value, percentile): the highest whole percentile with at least ten
    samples above it; the median when there are too few samples for that."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    for p in range(99, 50, -1):
        v = float(np.percentile(xs, p))
        if int((xs > v).sum()) >= 10:
            return v, p
    return float(np.percentile(xs, 50)), 50


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed_setups(workload, seed, work_dir):
    """Set up SETUP_REPEATS times from scratch, each followed by the set-up reference.

    Returns the last set-up's inputs and the median set-up time in seconds,
    on the reference scale and on the wall clock.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        gc.collect()  # so no set-up pays for collecting the previous one's garbage
        t0 = perf_counter()
        loaded = inputs.setup(workload, seed, work_dir)
        seconds = perf_counter() - t0
        wall.append(seconds)
        scaled.append(seconds * ReferenceSetup.nominal_ms / ReferenceSetup(work_dir).run_ms())
    return loaded, statistics.median(scaled), statistics.median(wall)


class CountingSequences(list):
    """The corpus as `trainer.train` indexes it, counting the real tokens it samples."""

    def __init__(self, sequences):
        super().__init__(sequences)
        self.lengths = [s.n_real for s in sequences]
        self.tokens = 0

    def __getitem__(self, i):
        self.tokens += self.lengths[i]
        return super().__getitem__(i)


def finite_losses(rec):
    return math.isfinite(rec.total_loss) and all(math.isfinite(v) for v in rec.losses.values())


def check_metrics_csv(path, records):
    """Steps whose metrics.csv row is missing or differs; all of them if the header is wrong."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != trainer.METRICS_COLUMNS:
        return {r.step for r in records}, 0
    rows = rows[1:]
    bad = {r.step for i, r in enumerate(records)
           if i >= len(rows) or rows[i] != [str(v) for v in r.csv_row()]}
    return bad, max(0, len(rows) - len(records))


def check_checkpoint(path, state, config, vocab):
    """The file reloads under the expected digest, at the documented size, bit-exactly."""
    ck = checkpoint.load_checkpoint(path, expected_config=config, expected_vocab=vocab)
    header_len = checkpoint.read_header(path)[0]
    return (ck.digest == checkpoint.config_digest(config, vocab.id_to_token)
            and Path(path).stat().st_size == header_len + 4 * ck.total_parameters()
            and list(ck.params) == list(state)
            and all(np.array_equal(ck.params[n], a) for n, a in state.items()))


def run_train(workload, seed, seconds, work_dir, tracer):
    loaded, *setup_s = timed_setups(workload, seed, work_dir)
    layers = {}
    if tracer:
        layers.update(tracing.setup_metrics(tracer.spans(), SETUP_REPEATS))
    model, vocab = loaded.model, loaded.vocab
    cfg = trainer.TrainConfig(warmup_steps=workload.warmup_steps, total_steps=10 ** 9,
                              batch_size=workload.batch_size, seed=seed,
                              checkpoint_every=workload.checkpoint_every)
    run_dir = work_dir / "run"
    sequences = CountingSequences(loaded.sequences)
    timer = make_timer(workload, seconds, tracer)
    records = []
    state = {"start": perf_counter(), "tokens": 0}

    def on_step(rec):
        end = perf_counter()
        records.append(rec)
        over = timer.record(end, ms=(end - state["start"]) * 1e3,
                            tokens=sequences.tokens - state["tokens"], loss=rec.total_loss)
        if over:
            raise StopRun
        state["tokens"] = sequences.tokens
        state["start"] = perf_counter()

    aborted = 0
    try:
        trainer.train(model, sequences, cfg, CorruptionRates(), run_dir=run_dir, vocab=vocab,
                      step_callback=on_step)
    except StopRun:
        pass
    except errors.NonFiniteLossError:
        aborted = 1  # the step that raised; training cannot go on from it
    if tracer:
        tracer.uninstall()

    failed = {r.step for r in records if not finite_losses(r)}
    bad_rows, extra_rows = check_metrics_csv(run_dir / "metrics.csv", records)
    failed |= bad_rows
    final = run_dir / "checkpoint_final.bin"
    checkpoint.save_checkpoint(final, model, vocab)
    try:
        ckpt_ok = check_checkpoint(final, model.state(), loaded.config, vocab)
    except errors.MulticourseError:
        ckpt_ok = False
    attempted = len(records) + aborted + extra_rows + 1
    failed_n = len(failed) + aborted + extra_rows + (not ckpt_ok)

    end_to_end, extra = summarise(workload, timer.ops, setup_s)
    losses = [op["loss"] for op in timer.ops]
    extra["loss_tail"] = float(np.mean(losses[-max(1, len(losses) // 5):]))
    extra["failed_fraction"] = failed_n / attempted
    if tracer:
        layers.update(traced_layers(tracer, timer.ops))
    return end_to_end, extra, layers, attempted, failed_n, timer.ops


def summarise(workload, ops, setup_s):
    """End-to-end metrics on the reference scale, and their wall-clock originals.

    Each operation's time is scaled by the reference run right after it.
    """
    def metrics(ms):
        value, percentile = tail(ms)
        tokens_per_s = sum(op["tokens"] for op in ops) / (sum(ms) / 1e3)
        return {"op_ms_p50": statistics.median(ms), "op_ms_tail": value,
                "tokens_per_s": tokens_per_s}, percentile

    wall_ms = [op["ms"] for op in ops]
    scaled_ms = [op["ms"] * workload.reference_ms / op["ref_ms"] for op in ops]
    end_to_end, tail_p = metrics(scaled_ms)
    end_to_end["setup_s"], end_to_end["peak_rss_mb"] = setup_s[0], peak_rss_mb()
    wall, _ = metrics(wall_ms)
    extra = {f"wall_{name}": value for name, value in wall.items()}
    extra.update(wall_setup_s=setup_s[1],
                 reference_ms=statistics.median(op["ref_ms"] for op in ops),
                 op_tail_percentile=tail_p, timed_ops=len(ops))
    return end_to_end, extra


def make_timer(workload, seconds, tracer):
    if tracer is None:
        return Timer(workload, seconds)
    # Even operations record, odd ones pass through; the odd checkpoint periods of the
    # workloads put every other periodic save into a recorded operation. The wrappers
    # stay installed: patching functions in and out between operations would keep the
    # interpreter's specialised bytecode from warming up and slow every operation.
    def before_op(k):
        if k == 0:
            tracer.reset()  # drop the warm-up's spans
        tracer.on = k % 2 == 0
        return tracer.on

    return Timer(workload, seconds, before_op)


def traced_layers(tracer, ops):
    traced = [op["ms"] for op in ops if op["traced"]]
    untraced = [op["ms"] for op in ops if not op["traced"]]
    out = tracing.op_metrics(tracer.spans(), tracer.counters, len(traced), statistics.fmean(traced))
    out["trace.op_ms_p50"] = statistics.median(traced)
    out["trace.untraced_op_ms_p50"] = statistics.median(untraced)
    out["trace.overhead_ms"] = out["trace.op_ms_p50"] - out["trace.untraced_op_ms_p50"]
    return out


def param_hashes(params):
    return {name: hashlib.blake2b(np.ascontiguousarray(a)).digest() for name, a in params.items()}


def check_soup(loaded, expected, weights, ingredients, merged, soup, soup_path, accuracy):
    """Ingredients loaded bit-exactly, the soup is the float64 weighted mean to
    float32 rounding, and it reloads bit-exactly at the documented size."""
    digest = checkpoint.config_digest(loaded.config, loaded.vocab.id_to_token)
    if any(ck.digest != digest or param_hashes(ck.params) != ref
           for ck, ref in zip(ingredients, expected)):
        return False
    if list(merged.params) != list(ingredients[0].params):
        return False
    for name, got in merged.params.items():
        stack = np.stack([ck.params[name] for ck in ingredients]).astype(np.float64)
        want = np.tensordot(weights.values, stack, axes=1)
        ulp = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
        if got.dtype != np.float32 or not (np.abs(got.astype(np.float64) - want) <= ulp).all():
            return False
    header_len = checkpoint.read_header(soup_path)[0]
    return (soup.digest == digest
            and soup_path.stat().st_size == header_len + 4 * soup.total_parameters()
            and all(np.array_equal(soup.params[n], a) for n, a in merged.params.items())
            and 0.0 <= accuracy <= 1.0)


def run_soup(workload, seed, seconds, work_dir, tracer):
    loaded, *setup_s = timed_setups(workload, seed, work_dir)
    layers = {}
    if tracer:
        layers.update(tracing.setup_metrics(tracer.spans(), SETUP_REPEATS))
    runs = loaded.manifest.runs
    expected = []
    for i in range(len(runs)):
        init = Model(loaded.config, seed=inputs.ingredient_seed(seed, i))
        expected.append(param_hashes(init.state()))
    probe_tokens = sum(len(ids) + 1 for ids, _ in loaded.examples)  # + CLS
    soup_path = work_dir / "soup.bin"
    timer = make_timer(workload, seconds, tracer)
    attempted = failed = 0
    k = 0
    over = False
    while not over:
        ingredients = merged = soup = None  # let the previous cycle's arrays go first
        scores = np.random.default_rng([seed, 2, k]).uniform(0.5, 1.5, len(runs))
        weights = soups.score_runs(loaded.manifest, scores.tolist())
        t0 = perf_counter()
        try:
            ingredients = [checkpoint.load_checkpoint(run.checkpoint) for run in runs]
            merged = soups.merge_checkpoints(ingredients, weights)
            checkpoint.save_checkpoint(soup_path, merged)
            t1 = perf_counter()
            soup = checkpoint.load_checkpoint(soup_path, expected_config=loaded.config,
                                              expected_vocab=loaded.vocab)
            accuracy = probe.probe_train_eval(checkpoint.build_model(soup), loaded.examples, seed=k)
            t2 = perf_counter()
            ok = check_soup(loaded, expected, weights, ingredients, merged, soup, soup_path, accuracy)
        except errors.MulticourseError:
            t1 = t2 = perf_counter()
            ok = False
        attempted += 1
        failed += not ok
        over = timer.record(t2, ms=(t2 - t0) * 1e3, tokens=probe_tokens,
                            soup_ms=(t1 - t0) * 1e3, probe_ms=(t2 - t1) * 1e3)
        k += 1
    if tracer:
        tracer.uninstall()

    end_to_end, extra = summarise(workload, timer.ops, setup_s)
    extra["failed_fraction"] = failed / attempted
    for part in ("soup_ms", "probe_ms"):
        values = [op[part] for op in timer.ops]
        extra[f"wall_{part}_p50"] = statistics.median(values)
        extra[f"wall_{part}_tail"] = tail(values)[0]
    if tracer:
        layers.update(traced_layers(tracer, timer.ops))
    return end_to_end, extra, layers, attempted, failed, timer.ops


EXTRA_UNITS = {"wall_setup_s": "s", "wall_op_ms_p50": "ms", "wall_op_ms_tail": "ms",
               "wall_tokens_per_s": "tokens/s", "reference_ms": "ms",
               "op_tail_percentile": "percentile", "timed_ops": "count", "loss_tail": "nats",
               "failed_fraction": "ratio", "wall_soup_ms_p50": "ms", "wall_soup_ms_tail": "ms",
               "wall_probe_ms_p50": "ms", "wall_probe_ms_tail": "ms"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if Path(multicourse.__file__).resolve().parent != ROOT / "src" / "multicourse":
        sys.exit(f"multicourse imported from {multicourse.__file__}, not from this checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    workload = inputs.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = run_train if workload.kind == "train" else run_soup
    try:
        end_to_end, extra, layers, attempted, failed, ops = run(
            workload, args.seed, args.seconds, work_dir, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    values = layers if args.trace else end_to_end
    if set(values) != {m["name"] for m in listed}:
        sys.exit(f"metrics {sorted(set(values) ^ {m['name'] for m in listed})} "
                 "disagree with BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    env = environment()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted, "failed": failed,
              "metrics": metrics,
              "extra": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in extra.items()},
              "ops": ops}
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.save(OUT_DIR / f"{workload.name}-spans.npz")

    print(f"# {tag} attempted={attempted} failed={failed}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in {**metrics, **record["extra"]}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
