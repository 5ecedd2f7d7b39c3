"""Fixed reference tasks that put timings from a shared machine on one scale.

On a machine shared with other jobs the speed of the same code drifts by
tens of percent, within seconds and from one run to the next. A reference
task does the same kind of work as the code it is paired with, so it slows
down with the machine the way that code does, while no change to the
program can move it. The benchmark runs one right after each timed piece of
work, outside its time, and scales the work's time by

    nominal_ms / measured reference ms

which reads as time at the speed the nominal figure was taken at.

`ReferenceLayer` pairs with training steps and soup cycles: one transformer
encoder layer, forward and backward, written directly in numpy (matmuls,
softmax, dropout, erf-GELU, layer norm) at a workload's shapes.
`ReferenceSetup` pairs with set-up: template sentences drawn with numpy
scalar draws, a regex tokenizer and token counts through a text file, then
normal draws written out as float32.
"""

import os
import re
from collections import Counter
from time import perf_counter

import numpy as np
from scipy.special import erf

_EPS = np.float32(1e-5)


def _layer_norm(x):
    inv = 1.0 / np.sqrt(x.var(-1, keepdims=True) + _EPS)
    return (x - x.mean(-1, keepdims=True)) * inv, inv


def _layer_norm_grad(g, xhat, inv):
    return (g - g.mean(-1, keepdims=True) - xhat * (g * xhat).mean(-1, keepdims=True)) * inv


class ReferenceLayer:
    """Encoder layer of shape (batch, seq, hidden, heads, ffn), `passes` times per run."""

    def __init__(self, batch, seq, hidden, heads, ffn, passes):
        self.rng = np.random.default_rng(0)
        self.shape = (batch, seq, hidden, heads, ffn)
        self.passes = passes
        self.x = self.rng.standard_normal((batch, seq, hidden), dtype=np.float32)
        shapes = [(hidden, hidden)] * 4 + [(hidden, ffn), (ffn, hidden)]
        self.w = [self.rng.standard_normal(s, dtype=np.float32) * np.float32(0.02) for s in shapes]

    def run_ms(self):
        t0 = perf_counter()
        for _ in range(self.passes):
            self._pass()
        return (perf_counter() - t0) * 1e3

    def _pass(self):
        b, n, h, heads, ffn = self.shape
        dh = h // heads
        x, (wq, wk, wv, wo, w1, w2) = self.x, self.w

        def split(t):
            return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

        q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
        s = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1 / np.sqrt(dh))
        e = np.exp(s - s.max(-1, keepdims=True))
        p = e / e.sum(-1, keepdims=True)
        keep = (self.rng.random(p.shape) >= 0.1).astype(np.float32) / np.float32(0.9)
        pd = p * keep
        ctx = (pd @ v).transpose(0, 2, 1, 3).reshape(b, n, h)
        y, inv1 = _layer_norm(x + ctx @ wo)
        f = y @ w1
        cdf = 0.5 * (1.0 + erf(f * np.float32(0.7071067811865476)))
        g = f * cdf
        out, inv2 = _layer_norm(y + g @ w2)

        grad_out = _layer_norm_grad(np.ones_like(out), out, inv2)
        g.reshape(-1, ffn).T @ grad_out.reshape(-1, h)
        pdf = np.float32(0.3989422804014327) * np.exp(-0.5 * f * f)
        grad_f = (grad_out @ w2.T) * (cdf + f * pdf)
        y.reshape(-1, h).T @ grad_f.reshape(-1, ffn)
        grad_y = _layer_norm_grad(grad_f @ w1.T + grad_out, y, inv1)
        ctx.reshape(-1, h).T @ grad_y.reshape(-1, h)
        grad_ctx = split(grad_y @ wo.T)
        grad_v = pd.transpose(0, 1, 3, 2) @ grad_ctx
        grad_p = (grad_ctx @ v.transpose(0, 1, 3, 2)) * keep
        grad_s = (grad_p - (grad_p * p).sum(-1, keepdims=True)) * p
        for grad, w in ((grad_s @ k, wq), (grad_s.transpose(0, 1, 3, 2) @ q, wk), (grad_v, wv)):
            flat = grad.transpose(0, 2, 1, 3).reshape(-1, h)
            x.reshape(-1, h).T @ flat
            flat @ w.T


_WORDS = ("the", "a", "farmer", "goat", "barn", "sailor", "boat", "anchor", "painter", "easel",
          "muddy", "salty", "wooden", "plowed", "sailed", "carved", "near", "in", "slowly")
_TOKEN = re.compile(r"[A-Za-z0-9_']+|[^\sA-Za-z0-9_']")


class ReferenceSetup:
    """Corpus- and checkpoint-like work on files in a scratch directory."""

    nominal_ms = 28.0

    def __init__(self, directory, sentences=1000, floats=500_000):
        self.path = os.path.join(directory, "reference.txt")
        self.sentences = sentences
        self.floats = floats

    def run_ms(self):
        t0 = perf_counter()
        rng = np.random.default_rng(0)
        lines = [" ".join(_WORDS[rng.integers(len(_WORDS))] for _ in range(9)) + " ."
                 for _ in range(self.sentences)]
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        counts = Counter()
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                counts.update(_TOKEN.findall(line))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        rng.normal(0, 0.02, self.floats).astype(np.float32).tofile(self.path)
        return (perf_counter() - t0) * 1e3
