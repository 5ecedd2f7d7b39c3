"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The program is traced from outside: `Tracer.install` wraps the public
functions of each layer everywhere a caller looks them up (a module that
imported a function by name holds its own reference), records one span per
call (name, start, end, parent) in flat arrays, and counts work at the same
boundaries. `uninstall` puts the original functions back; an untraced run
never installs them and executes the program unmodified.
"""

import array
import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

AUTODIFF_OPS = ("matmul", "softmax", "gelu", "layer_norm", "dropout", "embedding",
                "gather_rows", "softmax_cross_entropy", "sigmoid_bce")
ELEMENTWISE_OPS = ("add", "mul", "scale", "transpose", "reshape", "tensor_sum")


# -- counters: hook(counters, args, result, raised) after each wrapped call ----

def _count_encoded(c, args, out, raised):
    ids, mask = args[1], args[2]
    c["encoder.positions"] += np.size(ids)
    c["encoder.real_positions"] += int(np.sum(mask))


def _count_insert(c, args, out, raised):
    c["courses.itd_attempted"] += 1
    c["courses.itd_kept"] += not raised


def _count_splice(c, args, out, raised):
    c["courses.sampled_tokens"] += len(args[3])


def _count_regen(c, args, out, raised):
    c["correction.regen_positions"] += len(out[2])


def _count_retry(c, args, out, raised):
    c["correction.retry_positions"] += len(out[1])


def _count_tape(c, args, out, raised):
    c["autodiff.tape_ops"] += len(args[0].ops)


def _count_save(c, args, out, raised):
    c["checkpoint.save_bytes"] += os.path.getsize(out)


def _count_load(c, args, out, raised):
    c["checkpoint.load_bytes"] += os.path.getsize(args[0])


def _count_merge(c, args, out, raised):
    checkpoints = args[0]
    c["soups.merged_values"] += len(checkpoints) * sum(a.size for a in checkpoints[0].params.values())


def _count_probe(c, args, out, raised):
    c["probe.examples"] += len(args[1])


# (module, attribute or Class.method, span name, counter hook). A function is
# wrapped in every package module that holds it, under the span name of the
# module that defines it, unless a row names the importing module itself.
WRAPPED = (
    [("multicourse.autodiff", op, f"autodiff.{op}", None) for op in AUTODIFF_OPS]
    + [("multicourse.autodiff", op, "autodiff.elementwise", None) for op in ELEMENTWISE_OPS]
    + [
        ("multicourse.autodiff", "Tape.backward", "autodiff.backward", _count_tape),
        ("multicourse.encoder", "Model.__init__", "encoder.init", None),
        ("multicourse.encoder", "Model.encode_generator", "encoder.gen", _count_encoded),
        ("multicourse.encoder", "Model.encode_discriminator", "encoder.disc", _count_encoded),
        ("multicourse.encoder", "Model.lm_logits", "encoder.head", None),
        ("multicourse.encoder", "Model.detection_logits", "encoder.head", None),
        ("multicourse.encoder", "Model.lm_probs_detached", "encoder.head", None),
        ("multicourse.encoder", "Model.detection_probs_detached", "encoder.head", None),
        ("multicourse.courses", "plan_corruption", "courses.plan", None),
        ("multicourse.courses", "apply_mask", "courses.view", None),
        ("multicourse.courses", "apply_swap", "courses.view", None),
        ("multicourse.courses", "apply_insert", "courses.view", _count_insert),
        ("multicourse.courses", "pad_batch", "courses.view", None),
        ("multicourse.courses", "splice_generator_samples", "courses.splice", _count_splice),
        ("multicourse.courses", "loss_mlm", "courses.loss", None),
        ("multicourse.courses", "loss_slm", "courses.loss", None),
        ("multicourse.courses", "loss_rtd", "courses.loss", None),
        ("multicourse.courses", "loss_std", "courses.loss", None),
        ("multicourse.courses", "loss_itd", "courses.loss", None),
        ("multicourse.courses", "cross_entropy_at", "courses.loss", None),
        ("multicourse.courses", "binary_detection_loss", "courses.loss", None),
        ("multicourse.correction", "classify_confusion", "correction.classify", None),
        ("multicourse.correction", "build_regeneration", "correction.build", _count_regen),
        ("multicourse.correction", "build_rediscrimination", "correction.build", _count_retry),
        ("multicourse.correction", "loss_regeneration", "correction.loss", None),
        ("multicourse.correction", "loss_rediscrimination", "correction.loss", None),
        # correction imported these two by name; its calls belong to its own loss time
        ("multicourse.correction", "cross_entropy_at", "correction.loss", None),
        ("multicourse.correction", "binary_detection_loss", "correction.loss", None),
        ("multicourse.trainer", "BatchSampler.next_indices", "trainer.data_wait", None),
        ("multicourse.trainer", "train_step", "trainer.step", None),
        ("multicourse.trainer", "step_losses", "trainer.forward", None),
        ("multicourse.trainer", "total_loss", "trainer.forward", None),
        ("multicourse.trainer", "clip_gradients", "trainer.optimizer", None),
        ("multicourse.trainer", "Adam.step", "trainer.optimizer", None),
        ("multicourse.trainer", "compute_metrics", "trainer.metrics", None),
        ("multicourse.trainer", "MetricsWriter.append", "trainer.metrics", None),
        ("multicourse.trainer", "load_corpus_sequences", "trainer.corpus_load", None),
        ("multicourse.checkpoint", "save_checkpoint", "checkpoint.save", _count_save),
        ("multicourse.checkpoint", "load_checkpoint", "checkpoint.load", _count_load),
        ("multicourse.soups", "merge_checkpoints", "soups.merge", _count_merge),
        ("multicourse.probe", "probe_train_eval", "probe", _count_probe),
        ("multicourse.toycorpus", "generate_corpus", "toycorpus.generate", None),
        ("multicourse.toycorpus", "write_probe_dataset", "toycorpus.generate", None),
        ("multicourse.vocab", "build_vocab", "vocab.build", None),
    ]
)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "multicourse" or name.startswith("multicourse."))]


def lookup_sites(row, rows):
    """(namespace, attribute, original) for every place a caller finds `row`'s target."""
    module_name, attr, _, _ = row
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(owner, attr)
    if original.__module__ != module_name:
        return [(owner, attr, original)]
    claimed = {(r[0], r[1]) for r in rows if r is not row}
    return [(m, attr, original) for m in package_modules()
            if vars(m).get(attr) is original and (m.__name__, attr) not in claimed]


class Tracer:
    """In-memory span recorder; one per traced run, confined to its thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.on = False
        self._patched = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; only between operations."""
        if getattr(self, "stack", None):
            raise RuntimeError("tracer reset inside an open span")
        self.sid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.counters = defaultdict(float)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, count=None):
        sid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.sid.append(sid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(i)
            out, raised = None, True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
                if count is not None:
                    count(tracer.counters, args, out, raised)

        return traced

    def install(self):
        """Wrap every layer and start recording."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for row in WRAPPED:
            for namespace, attr, original in lookup_sites(row, WRAPPED):
                setattr(namespace, attr, self.wrap(original, row[2], row[3]))
                self._patched.append((namespace, attr, original))
        self.on = True

    def uninstall(self):
        """Stop recording and restore every original. A reference a caller took
        while installed stays a wrapper, which passes straight through."""
        self.on = False
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched = []

    def spans(self):
        """A copy of the recorded spans as a SpanTable."""
        return SpanTable(np.array(self.sid, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                         np.array(self.start), np.array(self.end), list(self.names))

    def save(self, path):
        """Write the recorded spans (name id, parent index, start, end) and the names."""
        t = self.spans()
        np.savez(path, sid=t.sid, parent=t.parent, start=t.start, end=t.end, names=np.array(t.names))


class SpanTable:
    """Recorded spans as arrays; a parent is an index into the same arrays, -1 for none."""

    def __init__(self, sid, parent, start, end, names):
        self.sid, self.parent = np.asarray(sid), np.asarray(parent)
        self.start, self.end = np.asarray(start), np.asarray(end)
        self.names = list(names)
        self.duration = self.end - self.start

    def self_time(self):
        """Each span's duration minus the durations of its direct children."""
        child = np.zeros_like(self.duration)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.duration[nested])
        return self.duration - child

    def _mask(self, names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.sid, ids)

    def under(self, ancestors):
        """Mask of spans with an ancestor named in `ancestors`."""
        target = self._mask(ancestors)
        found = np.zeros(len(self.sid), dtype=bool)
        up = self.parent.copy()
        while (up >= 0).any():
            live = up >= 0
            found[live] |= target[up[live]]
            up[live] = self.parent[up[live]]
        return found

    def count(self, *names):
        return int(self._mask(names).sum())

    def self_s(self, *names):
        return float(self.self_time()[self._mask(names)].sum())

    def inclusive_s(self, *names, within=None):
        mask = self._mask(names)
        if within is not None:
            mask &= self.under(within)
        return float(self.duration[mask].sum())


def setup_metrics(spans, repeats):
    """Set-up layer times, in ms per set-up."""
    ms = 1e3 / repeats
    return {
        "toycorpus.generate_ms": spans.self_s("toycorpus.generate") * ms,
        "vocab.build_ms": spans.self_s("vocab.build") * ms,
        "trainer.corpus_load_ms": spans.self_s("trainer.corpus_load") * ms,
        "encoder.init_ms": spans.self_s("encoder.init") * ms,
    }


def op_metrics(spans, counters, n_ops, op_ms_mean):
    """Per-operation layer metrics of a traced window of `n_ops` operations.

    `*_ms` are self times, except the trainer phases, which are inclusive so
    that with `trainer.remainder_ms` they add up to `trainer.step_ms`, and
    `probe.encode_ms`, which is the encoder passes under `probe_train_eval`.
    """
    ms = 1e3 / n_ops
    c = counters

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {}
    for op in AUTODIFF_OPS + ("elementwise",):
        out[f"autodiff.{op}.calls"] = spans.count(f"autodiff.{op}") / n_ops
        out[f"autodiff.{op}.fwd_ms"] = spans.self_s(f"autodiff.{op}") * ms
    out["autodiff.backward_ms"] = spans.self_s("autodiff.backward") * ms
    out["autodiff.tape_ops"] = c["autodiff.tape_ops"] / n_ops

    out["encoder.gen_passes"] = spans.count("encoder.gen") / n_ops
    out["encoder.disc_passes"] = spans.count("encoder.disc") / n_ops
    out["encoder.gen_ms"] = spans.self_s("encoder.gen") * ms
    out["encoder.disc_ms"] = spans.self_s("encoder.disc") * ms
    out["encoder.head_ms"] = spans.self_s("encoder.head") * ms
    out["encoder.positions"] = c["encoder.positions"] / n_ops
    out["encoder.real_fraction"] = ratio("encoder.real_positions", "encoder.positions")

    for part in ("plan", "view", "splice", "loss"):
        out[f"courses.{part}_ms"] = spans.self_s(f"courses.{part}") * ms
    out["courses.sampled_tokens"] = c["courses.sampled_tokens"] / n_ops
    out["courses.itd_kept_fraction"] = ratio("courses.itd_kept", "courses.itd_attempted")

    for part in ("classify", "build", "loss"):
        out[f"correction.{part}_ms"] = spans.self_s(f"correction.{part}") * ms
    out["correction.regen_positions"] = c["correction.regen_positions"] / n_ops
    out["correction.retry_positions"] = c["correction.retry_positions"] / n_ops

    phases = {
        "trainer.data_wait_ms": spans.inclusive_s("trainer.data_wait"),
        "trainer.forward_ms": spans.inclusive_s("trainer.forward"),
        "trainer.backward_ms": spans.inclusive_s("autodiff.backward", within=["trainer.step"]),
        "trainer.optimizer_ms": spans.inclusive_s("trainer.optimizer"),
        "trainer.metrics_ms": spans.inclusive_s("trainer.metrics"),
    }
    for name, seconds in phases.items():
        out[name] = seconds * ms
    trained = spans.count("trainer.step") > 0
    out["trainer.step_ms"] = op_ms_mean if trained else 0.0
    out["trainer.remainder_ms"] = op_ms_mean - sum(phases.values()) * ms if trained else 0.0

    out["checkpoint.save_ms"] = spans.self_s("checkpoint.save") * ms
    out["checkpoint.save_bytes"] = c["checkpoint.save_bytes"] / n_ops
    out["checkpoint.load_ms"] = spans.self_s("checkpoint.load") * ms
    out["checkpoint.load_bytes"] = c["checkpoint.load_bytes"] / n_ops
    out["soups.merge_ms"] = spans.self_s("soups.merge") * ms
    out["soups.merged_values"] = c["soups.merged_values"] / n_ops

    encode = spans.inclusive_s("encoder.gen", "encoder.disc", within=["probe"])
    out["probe.encode_ms"] = encode * ms
    out["probe.fit_ms"] = (spans.inclusive_s("probe") - encode) * ms
    out["probe.examples"] = c["probe.examples"] / n_ops
    return out
