"""End-to-end demo: generate the toy corpus, pretrain, probe the result.

Writes everything under --work-dir and uses a reduced step budget so the
whole loop finishes in minutes on a laptop core. Pass --full for the
desk-scale defaults (5K steps, hidden 128).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from multicourse.cli import cli
from multicourse.runconfig import default_config_dict, save_config
from multicourse.toycorpus import write_corpus, write_probe_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="toy_run")
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--full", action="store_true", help="desk-scale defaults")
    args = parser.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "toy_corpus.txt"
    probe_data = work / "probe.tsv"
    write_corpus(corpus, 1000, seed=7)
    write_probe_dataset(probe_data, 500, seed=11)

    if args.full:
        overrides = {}
    else:
        # the acceptance scale: batch 48 at lr 4e-3, warmup a tenth of the steps
        overrides = dict(hidden_size=48, generator_layers=1, discriminator_layers=2,
                         ffn_inner_size=96, max_seq_len=32, batch_size=48, learning_rate=4e-3,
                         total_steps=args.steps, warmup_steps=max(args.steps // 10, 1))
    config = default_config_dict(corpus, work / "run", **overrides)
    cfg_path = work / "config.json"
    save_config(config, cfg_path)

    rc = cli(["pretrain", "--config", str(cfg_path)])
    if rc != 0:
        raise SystemExit(rc)
    rc = cli(["probe", "--checkpoint", str(work / "run" / "checkpoint_final.bin"),
              "--data", str(probe_data)])
    raise SystemExit(rc)


if __name__ == "__main__":
    main()
