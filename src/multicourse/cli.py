"""Command-line surface: pretrain, sweep, soup, probe, export-metrics."""

import argparse
import csv
import logging
import shutil
import sys
from pathlib import Path

import numpy as np

from . import probe as probe_mod
from . import soups
from .checkpoint import build_model, load_checkpoint, save_checkpoint
from .encoder import Model
from .errors import ConfigError, InputError, MulticourseError
from .fileio import read_json
from .runconfig import parse_config, save_config
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
    p.add_argument("--fine-tune", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-metrics", help="copy a run's metrics stream after validation")
    p.add_argument("--run", required=True, help="run directory containing metrics.csv")
    p.add_argument("--out", required=True)
    return parser


def _run_pretrain(config):
    """Train one run from a flat config mapping; returns its final checkpoint."""
    cfg = parse_config(config)
    vocab = build_vocab(cfg.corpus_path, cfg.max_vocab_size)
    enc_cfg = cfg.encoder_config(len(vocab))
    seqs = load_corpus_sequences(cfg.corpus_path, vocab, enc_cfg.max_seq_len)
    model = Model(enc_cfg, seed=cfg.train.seed)
    run_dir = Path(cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if (run_dir / "config.json").exists():
        raise InputError(f"{run_dir / 'config.json'} already exists; use a new run directory")
    save_config(config, run_dir / "config.json")
    log.info("pretraining: %d sequences, |V|=%d, %d steps",
             len(seqs), len(vocab), cfg.train.total_steps)
    train(model, seqs, cfg.train, cfg.rates, run_dir=run_dir, vocab=vocab)
    return run_dir / "checkpoint_final.bin"


def cmd_pretrain(args):
    final = _run_pretrain(read_json(args.config))
    print(f"final checkpoint: {final}")
    return 0


def cmd_sweep(args):
    manifest = soups.load_manifest(args.manifest)
    base = read_json(manifest.config_path)
    for run in manifest.runs:
        run_dir = Path(manifest.output_dir) / run.name
        log.info("sweep run %s (losses: %s)", run.name, ",".join(run.losses))
        switches = {loss: loss in run.losses for loss in soups.CORRECTION_LOSSES}
        final = _run_pretrain({**base, **switches, "seed": run.seed, "run_dir": str(run_dir)})
        target = Path(run.checkpoint)
        if target.resolve() != final.resolve():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(final, target)
        if manifest.probe_data:
            ckpt = load_checkpoint(run.checkpoint)
            model = build_model(ckpt)
            vocab = Vocab(ckpt.vocab_tokens)
            examples = probe_mod.load_labeled_dataset(manifest.probe_data, vocab,
                                                      ckpt.config.max_seq_len)
            run.score = probe_mod.probe_train_eval(model, examples, seed=run.seed)
            log.info("run %s probe accuracy %.4f", run.name, run.score)
        # saved per run so a later failure keeps every score taken so far
        soups.save_manifest(manifest, args.manifest)
    print(f"sweep complete: {len(manifest.runs)} runs under {manifest.output_dir}")
    return 0


def _load_weight_file(path, manifest):
    raw = read_json(path)
    if isinstance(raw, dict):
        missing = [r.name for r in manifest.runs if r.name not in raw]
        if missing:
            raise ConfigError(f"{path}: weight file missing runs: {missing}")
        raw = [raw[r.name] for r in manifest.runs]
    elif not isinstance(raw, list) or len(raw) != len(manifest.runs):
        raise ConfigError(f"{path}: expected {len(manifest.runs)} weights, a list or "
                          f"an object keyed by run name")
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: weights must be numbers, got {raw}") from None
    total = sum(values)
    if not 0 < total < float("inf"):
        raise ConfigError(f"{path}: weights must be finite with a positive sum")
    return soups.SoupWeights(np.asarray(values) / total)


def cmd_soup(args):
    manifest = soups.load_manifest(args.manifest)
    checkpoints = [load_checkpoint(run.checkpoint) for run in manifest.runs]
    if args.mode == "uniform":
        weights = soups.SoupWeights.uniform(len(checkpoints))
    elif args.weights:
        weights = _load_weight_file(args.weights, manifest)
    else:
        weights = soups.score_runs(manifest)
    merged = soups.merge_checkpoints(checkpoints, weights)
    out = Path(args.out) if args.out else Path(manifest.output_dir) / f"soup_{args.mode}.bin"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, merged)
    report = out.parent / "soup_report.csv"
    with open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "score", "weight"])
        for run, w in zip(manifest.runs, weights.values):
            writer.writerow([run.name, "" if run.score is None else f"{run.score:.6g}", f"{w:.8g}"])
    print(f"merged {len(checkpoints)} checkpoints -> {out}")
    return 0


def cmd_probe(args):
    ckpt = load_checkpoint(args.checkpoint)
    if not ckpt.vocab_tokens:
        raise InputError(f"{args.checkpoint} carries no vocabulary; cannot tokenize probe data")
    model = build_model(ckpt)
    vocab = Vocab(ckpt.vocab_tokens)
    examples = probe_mod.load_labeled_dataset(args.data, vocab, ckpt.config.max_seq_len)
    accuracy = probe_mod.probe_train_eval(model, examples, seed=args.seed,
                                          fine_tune=args.fine_tune)
    print(f"probe accuracy: {accuracy:.4f}")
    return 0


def cmd_export_metrics(args):
    src = Path(args.run) / "metrics.csv"
    if not src.exists():
        raise InputError(f"{src} does not exist")
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != METRICS_COLUMNS:
        raise InputError(f"{src} does not carry the documented metrics schema")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
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
    except (MulticourseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
