"""Full course-soups demo: 14-run sweep over correction subsets, then merge.

The sweep is the expensive part (14 pretraining runs); the default budget
keeps each run short. Produces uniform and weighted soups plus the report.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from multicourse.cli import cli
from multicourse.runconfig import default_config_dict, save_config
from multicourse.soups import default_manifest, save_manifest
from multicourse.toycorpus import write_corpus, write_probe_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="soup_run")
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "toy_corpus.txt"
    probe_data = work / "probe.tsv"
    write_corpus(corpus, 1000, seed=7)
    write_probe_dataset(probe_data, 400, seed=13)

    config = default_config_dict(
        corpus, work / "unused",
        hidden_size=48, generator_layers=1, discriminator_layers=2, ffn_inner_size=96,
        max_seq_len=32, batch_size=48, learning_rate=4e-3, total_steps=args.steps,
        warmup_steps=max(args.steps // 10, 1), seed=args.seed,
    )
    cfg_path = work / "config.json"
    save_config(config, cfg_path)

    manifest = default_manifest(cfg_path, work / "sweep", base_seed=args.seed,
                                probe_data=str(probe_data))
    mpath = work / "manifest.json"
    save_manifest(manifest, mpath)

    for cmd in (["sweep", "--manifest", str(mpath)],
                ["soup", "--manifest", str(mpath), "--mode", "uniform"],
                ["soup", "--manifest", str(mpath), "--mode", "weighted"]):
        rc = cli(cmd)
        if rc != 0:
            raise SystemExit(rc)
    print(f"soups written under {work / 'sweep'}")


if __name__ == "__main__":
    main()
