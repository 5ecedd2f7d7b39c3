import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multicourse
from multicourse.checkpoint import load_checkpoint
from multicourse.cli import cli
from multicourse.runconfig import default_config_dict, save_config
from multicourse.soups import SweepManifest, SweepRun, save_manifest
from multicourse.toycorpus import write_corpus, write_probe_dataset
from multicourse.trainer import METRICS_COLUMNS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_corpus(root / "corpus.txt", 150, seed=2)
    return root


def tiny_overrides(root, run_dir, **extra):
    cfg = dict(
        hidden_size=32, generator_layers=1, discriminator_layers=2, attention_heads=2,
        ffn_inner_size=48, max_seq_len=24, total_steps=8, warmup_steps=2, batch_size=6,
        checkpoint_every=0,
    )
    cfg.update(extra)
    return default_config_dict(root / "corpus.txt", run_dir, **cfg)


def test_pretrain_writes_metrics_and_checkpoint(workspace, capsys):
    run_dir = workspace / "run1"
    cfg_path = workspace / "cfg1.json"
    save_config(tiny_overrides(workspace, run_dir), cfg_path)
    assert cli(["pretrain", "--config", str(cfg_path)]) == 0
    assert (run_dir / "checkpoint_final.bin").exists()
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_COLUMNS
    assert len(rows) == 9  # header + 8 steps
    out = capsys.readouterr().out
    assert "checkpoint" in out


def test_pretrain_refuses_a_used_run_directory(workspace):
    run_dir = workspace / "run1"
    before = {name: (run_dir / name).read_bytes() for name in ("config.json", "metrics.csv")}
    cfg_path = workspace / "cfg_again.json"
    save_config(tiny_overrides(workspace, run_dir, seed=1), cfg_path)
    assert cli(["pretrain", "--config", str(cfg_path)]) == 1
    assert {name: (run_dir / name).read_bytes() for name in before} == before


def test_missing_config_flag_exits_2():
    assert cli(["pretrain"]) == 2


def test_unknown_flag_exits_2():
    assert cli(["pretrain", "--config", "x", "--frobnicate"]) == 2


def test_unknown_command_exits_2():
    assert cli(["transmogrify"]) == 2


def test_nonexistent_config_exits_1(capsys):
    assert cli(["pretrain", "--config", "/definitely/not/here.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_export_metrics_validates_and_copies(workspace, tmp_path):
    run_dir = workspace / "run1"
    out = tmp_path / "copy.csv"
    assert cli(["export-metrics", "--run", str(run_dir), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_COLUMNS and len(rows) == 9


def test_export_metrics_missing_run_exits_1(tmp_path):
    assert cli(["export-metrics", "--run", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 1


def test_probe_cli_runs(workspace, capsys):
    ckpt = workspace / "run1" / "checkpoint_final.bin"
    data = workspace / "probe.tsv"
    write_probe_dataset(data, 60, seed=3)
    assert cli(["probe", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    assert "probe accuracy" in capsys.readouterr().out


def _two_copies_manifest(workspace, tmp_path):
    """A manifest of runs "a" and "b", each a copy of run1's final checkpoint."""
    src = workspace / "run1" / "checkpoint_final.bin"
    c1, c2 = tmp_path / "a.bin", tmp_path / "b.bin"
    c1.write_bytes(src.read_bytes())
    c2.write_bytes(src.read_bytes())
    manifest = SweepManifest(
        config_path="unused.json", output_dir=str(tmp_path),
        runs=[SweepRun(name="a", losses=("re_mlm",), seed=0, checkpoint=str(c1)),
              SweepRun(name="b", losses=("re_rtd",), seed=0, checkpoint=str(c2))],
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    return mpath


def test_soup_uniform_of_identical_checkpoints_is_bit_exact(workspace, tmp_path):
    src = workspace / "run1" / "checkpoint_final.bin"
    mpath = _two_copies_manifest(workspace, tmp_path)
    out = tmp_path / "soup.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", "uniform", "--out", str(out)]) == 0
    merged = load_checkpoint(out)
    original = load_checkpoint(src)
    for name in original.params:
        np.testing.assert_array_equal(merged.params[name], original.params[name], err_msg=name)
    report = tmp_path / "soup_report.csv"
    assert report.exists()
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "score", "weight"] and len(rows) == 3


def test_soup_weighted_uses_weight_file(workspace, tmp_path):
    mpath = _two_copies_manifest(workspace, tmp_path)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps({"a": 1.0, "b": 3.0}), encoding="utf-8")
    out = tmp_path / "soup_w.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", "weighted",
                "--weights", str(wpath), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("text", [
    '{"a": 1.0,', '{"a": NaN, "b": 1.0}', '[Infinity, 1.0]', '3', '["x", 1.0]', '{"a": 1.0}',
], ids=["bad_json", "nan", "inf", "number", "string", "missing_run"])
def test_soup_with_a_malformed_weight_file_exits_1(workspace, tmp_path, capsys, text):
    mpath = _two_copies_manifest(workspace, tmp_path)
    wpath = tmp_path / "weights.json"
    wpath.write_text(text, encoding="utf-8")
    out = tmp_path / "soup_w.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", "weighted",
                "--weights", str(wpath), "--out", str(out)]) == 1
    assert f"error: {wpath}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"config": "c", "runs": [', '[1, 2]', '{"runs": []}', '{"config": "c", "runs": [3]}',
    '{"config": "c", "runs": 3}',
    '{"config": "c", "runs": [{"losses": ["re_mlm"], "checkpoint": "x.bin"}]}',
    '{"config": "c", "runs": [{"name": "a", "losses": ["re_mlm"]}]}',
], ids=["bad_json", "not_object", "no_config", "run_not_object", "runs_not_list", "run_no_name",
        "run_no_checkpoint"])
def test_soup_with_a_malformed_manifest_exits_1(tmp_path, capsys, text):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(text, encoding="utf-8")
    assert cli(["soup", "--manifest", str(mpath), "--mode", "uniform"]) == 1
    assert f"error: {mpath}" in capsys.readouterr().err


def test_sweep_runs_all_manifest_entries(workspace, tmp_path):
    cfg_path = tmp_path / "sweep_cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "unused", total_steps=4, warmup_steps=1,
                               batch_size=4), cfg_path)
    write_probe_dataset(tmp_path / "probe.tsv", 40, seed=5)
    manifest = SweepManifest(
        config_path=str(cfg_path), output_dir=str(tmp_path / "sweep"),
        probe_data=str(tmp_path / "probe.tsv"),
        runs=[
            SweepRun(name="re_mlm", losses=("re_mlm",), seed=1,
                     checkpoint=str(tmp_path / "sweep" / "re_mlm" / "checkpoint_final.bin")),
            SweepRun(name="re_rtd", losses=("re_rtd",), seed=1,
                     checkpoint=str(tmp_path / "sweep" / "re_rtd" / "checkpoint_final.bin")),
        ],
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    assert cli(["sweep", "--manifest", str(mpath)]) == 0
    for run in manifest.runs:
        assert (tmp_path / "sweep" / run.name / "checkpoint_final.bin").exists()
    rescored = json.loads(mpath.read_text())
    assert all("score" in r for r in rescored["runs"])
    # the sweep config must enable exactly the requested correction losses
    run_cfg = json.loads((tmp_path / "sweep" / "re_mlm" / "config.json").read_text())
    assert run_cfg["re_mlm"] is True and run_cfg["re_rtd"] is False
    assert run_cfg["re_slm"] is False and run_cfg["re_std"] is False


def test_sweep_saves_each_score_before_a_later_run_fails(workspace, tmp_path):
    cfg_path = tmp_path / "sweep_cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "unused", total_steps=3, warmup_steps=1,
                               batch_size=4), cfg_path)
    write_probe_dataset(tmp_path / "probe.tsv", 40, seed=5)
    sweep = tmp_path / "sweep"
    manifest = SweepManifest(
        config_path=str(cfg_path), output_dir=str(sweep), probe_data=str(tmp_path / "probe.tsv"),
        runs=[SweepRun(name=n, losses=(n,), seed=1, checkpoint=str(sweep / n / "checkpoint_final.bin"))
              for n in ("re_mlm", "re_rtd")],
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    (sweep / "re_rtd").mkdir(parents=True)
    (sweep / "re_rtd" / "metrics.csv").write_text("another run\n", encoding="utf-8")
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    runs = json.loads(mpath.read_text())["runs"]
    assert 0.0 <= runs[0]["score"] <= 1.0
    assert "score" not in runs[1]
    assert (sweep / "re_rtd" / "metrics.csv").read_text(encoding="utf-8") == "another run\n"


def test_cli_imports_without_scipy():
    code = ("import sys, multicourse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(multicourse.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
