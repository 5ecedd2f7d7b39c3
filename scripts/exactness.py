"""Parent-against-change exactness check: does a change alter training?

    python3 scripts/exactness.py --parent <tree> [--steps N] [--dropout R]

Trains one small model per course configuration from this checkout and from
`<tree>` (any directory holding `src/multicourse`), each tree in its own
process with its own PYTHONPATH and BLAS pinned to one thread. For each
configuration it prints `identical` when every step's record (every loss at
full float precision, the confusion cells, the label tallies, the learning
rate), the sha256 of `checkpoint_final.bin`, the sha256 of the final model's
frozen CLS features (`token_presence_dataset(200, seed=4)`), the sha256 of the
`(w, b)` that `probe._fit_logistic` fits on all of them (probe seed 3; an
accuracy can agree while the weights differ) and the frozen-probe accuracy
(probe seed 3) agree; otherwise the first step whose record differs and the
largest relative loss difference over all steps, then the first step whose
integer counts differ (the confusion cells and the label tallies, `COUNTS`)
with the fields that differ there, or `counts identical on every step`. Loss
drift under identical counts points to rounding; a moved count means a
confusion cell or a sampled token changed. It exits 0 when every
configuration is identical; it exits 1 after printing every configuration
when one differs, and when a training process fails.

Configurations: five course mixes on `generate_corpus(200, seed=5)`, hidden
32, 1+2 layers, batch 8, seed 3 (correction from step 2), and `ragged`, every
course on lines of 4-12 joined toy sentences at max_seq_len 128, whose
encoder passes split their attention by length.
"""

import argparse
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

NO_CORRECTION = dict(re_mlm=False, re_rtd=False, re_slm=False, re_std=False)
CONFIGS = {
    "rtd": dict(std_course=False, itd_course=False, **NO_CORRECTION),
    "std": dict(std_course=True, itd_course=False, **NO_CORRECTION),
    "itd": dict(std_course=False, itd_course=True, **NO_CORRECTION),
    "re": dict(std_course=False, itd_course=False, re_mlm=True, re_rtd=True,
               re_slm=False, re_std=False, correction_start_step=2),
    "all": dict(correction_start_step=2),
    "ragged": dict(correction_start_step=2),
}
# the integer fields of a step's record
COUNTS = ("pos_counts", "d_nonoriginal", "d_corrupted", "itd_nonoriginal", "itd_positions")


def corpus_lines(name):
    from multicourse.toycorpus import generate_corpus
    import numpy as np

    if name != "ragged":
        return generate_corpus(200, seed=5)
    counts = np.random.default_rng(5).integers(4, 13, size=48)
    sentences = generate_corpus(int(counts.sum()), seed=5)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [" ".join(sentences[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def run_config(name, steps, dropout, work):
    """One training run in this process's tree; its records, its checkpoint, feature and
    fitted-layer digests and its probe score."""
    from multicourse import probe
    from multicourse.courses import CorruptionRates
    from multicourse.encoder import EncoderConfig, Model
    from multicourse.toycorpus import token_presence_dataset
    from multicourse.trainer import TrainConfig, load_corpus_sequences, train
    from multicourse.vocab import build_vocab
    import numpy as np

    corpus = work / f"{name}.txt"
    corpus.write_text("\n".join(corpus_lines(name)) + "\n", encoding="utf-8")
    vocab = build_vocab(corpus, 4096)
    enc = EncoderConfig(vocab_size=len(vocab), hidden_size=32, generator_layers=1,
                        discriminator_layers=2, attention_heads=4, ffn_inner_size=64,
                        max_seq_len=128, dropout_rate=dropout)
    cfg = TrainConfig(total_steps=steps, warmup_steps=max(steps // 4, 1), batch_size=8,
                      seed=3, **CONFIGS[name])
    seqs = load_corpus_sequences(corpus, vocab, enc.max_seq_len)
    run_dir = work / name
    model = Model(enc, seed=3)
    records = train(model, seqs, cfg, CorruptionRates(), run_dir=run_dir, vocab=vocab)
    digest = hashlib.sha256((run_dir / "checkpoint_final.bin").read_bytes()).hexdigest()
    examples = [(vocab.encode(s), y) for s, y in token_presence_dataset(200, seed=4)]
    features = probe._featurize(model, examples)
    w, b = probe._fit_logistic(features, np.array([y for _, y in examples]), 3)
    return {"records": [vars(r) for r in records],
            "checkpoint": digest,
            "features": hashlib.sha256(features.tobytes()).hexdigest(),
            "fit": hashlib.sha256(w.tobytes() + np.float64(b).tobytes()).hexdigest(),
            "probe": probe.probe_train_eval(model, examples, seed=3)}


def worker(steps, dropout):
    logging.disable(logging.WARNING)  # insert-course overflow notes; stdout carries the result
    with tempfile.TemporaryDirectory() as tmp:
        out = {name: run_config(name, steps, dropout, Path(tmp)) for name in CONFIGS}
    json.dump(out, sys.stdout)


def spawn(tree, steps, dropout):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, __file__, "--worker", "--steps", str(steps),
                             "--dropout", str(dropout)],
                            env=env, stdout=subprocess.PIPE, text=True)


def compare(a, b):
    """`identical`, or where two runs' records first differ and by how much."""
    if a == b:
        return "identical"
    ra, rb = a["records"], b["records"]
    if len(ra) != len(rb):
        return f"differs: {len(ra)} against {len(rb)} steps"
    first = next((i for i, (x, y) in enumerate(zip(ra, rb)) if x != y), None)
    if first is None:
        return "differs in the final checkpoint, features, fitted layer or probe only"
    worst = 0.0
    for x, y in zip(ra, rb):
        for name, u in x["losses"].items():
            v = y["losses"][name]
            if u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    counts = "counts identical on every step"
    for x, y in zip(ra, rb):
        moved = [k for k in COUNTS if x[k] != y[k]]
        if moved:
            counts = f"counts first differ at step {x['step']} ({', '.join(moved)})"
            break
    return (f"first differs at step {ra[first]['step']}; "
            f"largest relative loss difference {worst:.3g}; {counts}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="the tree to compare this checkout against")
    parser.add_argument("--steps", type=int, default=20, help="training steps per configuration")
    parser.add_argument("--dropout", type=float, default=0.1, help="encoder dropout rate")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.steps, args.dropout)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    if not (Path(args.parent) / "src" / "multicourse").is_dir():
        parser.error(f"{args.parent} holds no src/multicourse")
    procs = [spawn(tree, args.steps, args.dropout) for tree in (args.parent, HERE)]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("error: a training process failed", file=sys.stderr)
        return 1
    parent, change = (json.loads(o) for o in outs)
    verdicts = {name: compare(parent[name], change[name]) for name in CONFIGS}
    for name, verdict in verdicts.items():
        print(f"{name:<8} {verdict}")
    return 0 if all(v == "identical" for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
