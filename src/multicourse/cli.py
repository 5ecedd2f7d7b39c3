"""Command-line surface: pretrain, sweep, soup, probe, export-metrics."""

import argparse
import csv
import hashlib
import logging
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import probe as probe_mod
from . import soups
from .checkpoint import build_model, load_checkpoint, save_checkpoint
from .encoder import Model
from .errors import ConfigError, InputError, MulticourseError
from .fileio import atomic_open, read_json, text_lines, write_json
from .runconfig import flat_config, parse_config, save_config
from .trainer import METRICS_COLUMNS, train, load_corpus_sequences
from .vocab import Vocab, build_vocab

log = logging.getLogger(__name__)


def _setup_parser():
    parser = argparse.ArgumentParser(
        prog="multicourse",
        description="Generator-discriminator pretraining with corruption courses, "
                    "self-correction, and checkpoint soups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run one pretraining job from a config file")
    p.add_argument("--config", required=True, help="flat JSON run config")

    p = sub.add_parser("sweep", help="train one model per correction-loss subset")
    p.add_argument("--manifest", required=True, help="sweep manifest JSON")

    p = sub.add_parser("soup", help="merge sweep checkpoints by parameter averaging")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", required=True, choices=("uniform", "weighted"))
    p.add_argument("--weights", help="JSON weight file overriding score-derived weights")
    p.add_argument("--out", help="output checkpoint path (default <output_dir>/soup_<mode>.bin)")

    p = sub.add_parser("probe", help="train/evaluate the CLS classification probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="label<TAB>sentence lines")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-metrics", help="copy a run's metrics stream after validation")
    p.add_argument("--run", required=True, help="run directory containing metrics.csv")
    p.add_argument("--out", required=True)
    return parser


def _check_run(config):
    """The parsed flat config of one run, refused before anything is written
    when another run used its run directory."""
    cfg = parse_config(config)
    for name in ("config.json", "run.json", "metrics.csv"):
        if (Path(cfg.run_dir) / name).exists():
            raise InputError(f"{Path(cfg.run_dir) / name} already exists; use a new run directory")
    return cfg


def _run_record(corpus_path, vocab):
    """What `run.json` pins beside `config.json`: the corpus file's sha256 and
    line count, the vocabulary's size and the sha256 of its tokens joined by
    newlines, and the numpy version."""
    data = Path(corpus_path).read_bytes()
    tokens = "\n".join(vocab.id_to_token).encode("utf-8")
    return {"corpus_sha256": hashlib.sha256(data).hexdigest(),
            "corpus_lines": len(data.splitlines()),
            "vocab_size": len(vocab),
            "vocab_sha256": hashlib.sha256(tokens).hexdigest(),
            "numpy_version": np.__version__}


def _run_pretrain(config):
    """Train one run from a flat config mapping; returns its final checkpoint."""
    cfg = _check_run(config)
    run_dir = Path(cfg.run_dir)
    vocab = build_vocab(cfg.corpus_path, cfg.max_vocab_size)
    enc_cfg = cfg.encoder_config(len(vocab))
    seqs = load_corpus_sequences(cfg.corpus_path, vocab, enc_cfg.max_seq_len)
    model = Model(enc_cfg, seed=cfg.train.seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    # every schema key at the value this run used, paths absolute, so the file alone pins the run
    save_config(flat_config(replace(cfg, corpus_path=str(Path(cfg.corpus_path).absolute()),
                                    run_dir=str(run_dir.absolute()))), run_dir / "config.json")
    write_json(_run_record(cfg.corpus_path, vocab), run_dir / "run.json")
    log.info("pretraining: %d sequences, |V|=%d, %d steps",
             len(seqs), len(vocab), cfg.train.total_steps)
    train(model, seqs, cfg.train, cfg.rates, run_dir=run_dir, vocab=vocab)
    return run_dir / "checkpoint_final.bin"


def cmd_pretrain(args):
    final = _run_pretrain(read_json(args.config))
    print(f"final checkpoint: {final}")
    return 0


def _probe_checkpoint(path, labeled, seed):
    """Held-out accuracy of the frozen-discriminator probe on a checkpoint,
    for (sentence, label) pairs as `probe.read_labeled_sentences` parses them."""
    ckpt = load_checkpoint(path)
    if not ckpt.vocab_tokens:
        raise InputError(f"{path} carries no vocabulary; cannot tokenize probe data")
    examples = probe_mod.encode_labeled(labeled, Vocab(ckpt.vocab_tokens), ckpt.config.max_seq_len)
    return probe_mod.probe_train_eval(build_model(ckpt), examples, seed=seed)


def cmd_sweep(args):
    manifest = soups.load_manifest(args.manifest)
    base = read_json(manifest.config_path)
    if not isinstance(base, dict):
        raise ConfigError(f"{manifest.config_path}: config must be a flat JSON object")
    configs = [{**base, **{loss: loss in run.losses for loss in soups.CORRECTION_LOSSES},
                "seed": run.seed, "run_dir": str(Path(manifest.output_dir) / run.name)}
               for run in manifest.runs]
    for run, config in zip(manifest.runs, configs):  # every run, before the first one trains
        try:
            _check_run(config)
        except MulticourseError as exc:
            raise type(exc)(f"sweep run {run.name}: {exc}") from None
    labeled = probe_mod.read_labeled_sentences(manifest.probe_data) if manifest.probe_data else None
    for run, config in zip(manifest.runs, configs):
        log.info("sweep run %s (losses: %s)", run.name, ",".join(run.losses))
        final = _run_pretrain(config)
        target = Path(run.checkpoint)
        if target.resolve() != final.resolve():
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(final, "rb") as src, atomic_open(target, "wb") as dst:
                shutil.copyfileobj(src, dst)
        if labeled:
            run.score = _probe_checkpoint(run.checkpoint, labeled, run.seed)
            log.info("run %s probe accuracy %.4f", run.name, run.score)
        # saved per run so a later failure keeps every score taken so far
        soups.save_manifest(manifest, args.manifest)
    print(f"sweep complete: {len(manifest.runs)} runs under {manifest.output_dir}")
    return 0


def _load_weight_file(path, manifest):
    raw = read_json(path)
    if isinstance(raw, dict):
        names = [r.name for r in manifest.runs]
        if set(raw) != set(names):
            raise ConfigError(f"{path}: weight file names runs {sorted(raw)}, not the runs {names}")
        raw = [raw[name] for name in names]
    elif not isinstance(raw, list) or len(raw) != len(manifest.runs):
        raise ConfigError(f"{path}: expected {len(manifest.runs)} weights, a list or "
                          f"an object keyed by run name")
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw):
        raise ConfigError(f"{path}: weights must be numbers, got {raw}")
    return soups.SoupWeights.proportional(raw, f"{path}: weights")


def cmd_soup(args):
    if args.mode == "uniform" and args.weights:
        raise ConfigError("--weights sets the weights of --mode weighted; --mode uniform takes none")
    manifest = soups.load_manifest(args.manifest)
    if not manifest.runs:
        raise ConfigError(f"{args.manifest}: the manifest lists no runs to merge")
    seeds = sorted({run.seed for run in manifest.runs})
    if len(seeds) > 1:
        # weights from different initialisations do not average into one model
        raise ConfigError(f"{args.manifest}: soup ingredients must share one seed, got {seeds}")
    out = Path(args.out) if args.out else Path(manifest.output_dir) / f"soup_{args.mode}.bin"
    for run in manifest.runs:
        if Path(run.checkpoint).resolve() == out.resolve():
            raise ConfigError(f"{out} is run {run.name}'s checkpoint; the soup would replace it")
    if args.mode == "uniform":
        weights = soups.SoupWeights.uniform(len(manifest.runs))
    elif args.weights:
        weights = _load_weight_file(args.weights, manifest)
    else:
        weights = soups.score_runs(manifest)
    checkpoints = [load_checkpoint(run.checkpoint) for run in manifest.runs]
    merged = soups.merge_checkpoints(checkpoints, weights)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, merged)
    report = out.with_name(f"{out.stem}_report.csv")
    with atomic_open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "score", "weight"])
        for run, w in zip(manifest.runs, weights.values):
            writer.writerow([run.name, "" if run.score is None else f"{run.score:.6g}", f"{w:.8g}"])
    print(f"merged {len(checkpoints)} checkpoints -> {out}")
    return 0


def cmd_probe(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    accuracy = _probe_checkpoint(args.checkpoint, probe_mod.read_labeled_sentences(args.data),
                                 args.seed)
    print(f"probe accuracy: {accuracy:.4f}")
    return 0


def cmd_export_metrics(args):
    src = Path(args.run) / "metrics.csv"
    if not src.exists():
        raise InputError(f"{src} does not exist")
    rows = list(csv.reader(text_lines(src)))
    if not rows or tuple(rows[0]) != METRICS_COLUMNS:
        raise InputError(f"{src} does not carry the documented metrics schema")
    for step, row in enumerate(rows[1:]):
        # a short last row is a run cut off mid-write; steps out of order mix two runs
        if len(row) != len(METRICS_COLUMNS) or row[0] != str(step):
            raise InputError(f"{src} line {step + 2} is not step {step} "
                             f"with {len(METRICS_COLUMNS)} fields")
    with atomic_open(args.out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    print(f"exported {len(rows) - 1} steps -> {args.out}")
    return 0


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "sweep": cmd_sweep,
    "soup": cmd_soup,
    "probe": cmd_probe,
    "export-metrics": cmd_export_metrics,
}


def cli(argv=None):
    """Run one subcommand; returns the process exit code."""
    parser = _setup_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (MulticourseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
