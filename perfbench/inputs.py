"""Workload definitions and the seeded generators of their input files.

Every input the program sees (corpus, probe set, soup ingredients) is made
here from the workload seed with `multicourse.toycorpus`, so one seed gives
byte-identical files and the program never sees the seed itself.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# modules, not names: the traced run patches functions where callers look them up
from multicourse import checkpoint, probe, soups, toycorpus, trainer, vocab as vocab_mod
from multicourse.encoder import EncoderConfig, Model

MAX_VOCAB = 8192
DESK = {}  # README defaults: hidden 128, 2+4 layers, ffn 512, 4 heads, max_seq_len 128


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "train" or "soup"
    encoder: dict = field(default_factory=dict)
    batch_size: int = 32
    lines: int = 2000          # corpus lines
    join: tuple = (1, 1)       # toy sentences joined per corpus line, inclusive range
    warmup_ops: int = 3        # operations run before timing starts
    checkpoint_every: int = 0  # periodic saves land in the step tail; odd, see bench.make_timer
    warmup_steps: int = 400    # learning-rate warm-up of the trainer
    probe_examples: int = 0
    # reference.ReferenceLayer (batch, seq, hidden, heads, ffn, passes) at the workload's
    # typical shapes, and its nominal time in ms: timings are scaled to that speed
    reference: tuple = (32, 12, 128, 4, 512, 2)
    reference_ms: float = 27.0


WORKLOADS = {
    w.name: w for w in (
        # acceptance scale: Python dispatch bound (~600 tape ops, 10 encoder passes per step)
        Workload("small", "train", dict(hidden_size=48, generator_layers=1, discriminator_layers=2,
                                        ffn_inner_size=96, attention_heads=4, max_seq_len=32),
                 batch_size=12, warmup_ops=5, checkpoint_every=21,
                 reference=(12, 12, 48, 4, 96, 3), reference_ms=3.0),
        # README defaults: numpy-kernel bound, backward matmuls dominate
        Workload("desk", "train", DESK, batch_size=32, warmup_ops=2, checkpoint_every=5),
        # same layers at long, ragged lengths: attention tensors, GELU and padding dominate
        Workload("longseq", "train", dict(hidden_size=64, generator_layers=1, discriminator_layers=2,
                                          ffn_inner_size=256, attention_heads=4, max_seq_len=128),
                 batch_size=8, lines=600, join=(4, 12), warmup_ops=3, checkpoint_every=11,
                 reference=(8, 112, 64, 4, 256, 1), reference_ms=16.0),
        # checkpoint read side, merging, forward-only encoder and probe; no training code
        Workload("soup", "soup", DESK, warmup_ops=1, probe_examples=400,
                 reference=(64, 12, 128, 4, 512, 1), reference_ms=27.0),
    )
}


def corpus_lines(workload, seed):
    """Corpus text: toy sentences, joined a seeded number at a time per line."""
    lo, hi = workload.join
    counts = np.random.default_rng([seed, 1]).integers(lo, hi + 1, size=workload.lines)
    sentences = toycorpus.generate_corpus(int(counts.sum()), seed=seed)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [" ".join(sentences[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def write_corpus(path, workload, seed):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(corpus_lines(workload, seed)) + "\n")


def ingredient_seed(seed, i):
    return seed * 1000 + i


@dataclass(eq=False)
class TrainInputs:
    vocab: object
    config: EncoderConfig
    sequences: list
    model: Model


@dataclass(eq=False)
class SoupInputs:
    vocab: object
    config: EncoderConfig
    manifest: soups.SweepManifest
    examples: list


def setup(workload, seed, work_dir):
    """Generate every input file under `work_dir` and load what the program needs."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    corpus = work_dir / "corpus.txt"
    write_corpus(corpus, workload, seed)
    vocab = vocab_mod.build_vocab(corpus, MAX_VOCAB)
    config = EncoderConfig(vocab_size=len(vocab), **workload.encoder)
    if workload.kind == "train":
        sequences = trainer.load_corpus_sequences(corpus, vocab, config.max_seq_len)
        return TrainInputs(vocab, config, sequences, Model(config, seed=seed))

    probe_path = work_dir / "probe.tsv"
    toycorpus.write_probe_dataset(probe_path, workload.probe_examples, seed=seed)
    examples = probe.load_labeled_dataset(probe_path, vocab, config.max_seq_len)
    # one ingredient per correction subset of the sweep (14), seeded inits of one config
    manifest = soups.default_manifest(work_dir / "config.json", work_dir / "sweep")
    for i, run in enumerate(manifest.runs):
        Path(run.checkpoint).parent.mkdir(parents=True, exist_ok=True)
        checkpoint.save_checkpoint(run.checkpoint, Model(config, seed=ingredient_seed(seed, i)), vocab)
    return SoupInputs(vocab, config, manifest, examples)
