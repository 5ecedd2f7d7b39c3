import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multicourse
from multicourse.checkpoint import build_model, load_checkpoint, save_checkpoint
from multicourse.cli import _run_pretrain, cli
from multicourse.errors import ConfigError
from multicourse.runconfig import default_config_dict, parse_config, save_config
from multicourse.soups import SweepManifest, SweepRun, default_manifest, save_manifest
from multicourse.toycorpus import write_corpus, write_probe_dataset
from multicourse.trainer import METRICS_COLUMNS, train

from helpers import bad_metadata, save_with_metadata


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


@pytest.fixture(scope="module")
def run1(workspace):
    """One 8-step `multicourse pretrain` into workspace/run1: (run dir, exit code, stdout)."""
    run_dir = workspace / "run1"
    cfg_path = workspace / "cfg1.json"
    save_config(tiny_overrides(workspace, run_dir), cfg_path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli(["pretrain", "--config", str(cfg_path)])
    return run_dir, code, out.getvalue()


def test_pretrain_writes_metrics_and_checkpoint(run1):
    run_dir, code, out = run1
    assert code == 0
    assert (run_dir / "checkpoint_final.bin").exists()
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_COLUMNS
    assert len(rows) == 9  # header + 8 steps
    assert "checkpoint" in out


def test_pretrain_refuses_a_used_run_directory(workspace, run1):
    run_dir = run1[0]
    before = {name: (run_dir / name).read_bytes()
              for name in ("config.json", "run.json", "metrics.csv")}
    cfg_path = workspace / "cfg_again.json"
    save_config(tiny_overrides(workspace, run_dir, seed=1), cfg_path)
    assert cli(["pretrain", "--config", str(cfg_path)]) == 1
    assert {name: (run_dir / name).read_bytes() for name in before} == before


def test_pretrain_refuses_a_run_directory_holding_only_metrics_and_writes_nothing(
        workspace, run1, tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "metrics.csv").write_bytes((run1[0] / "metrics.csv").read_bytes())

    def snapshot():
        return {p.name: p.read_bytes() for p in run_dir.iterdir()}

    before = snapshot()
    cfg_path = tmp_path / "cfg.json"
    save_config(tiny_overrides(workspace, run_dir), cfg_path)
    assert cli(["pretrain", "--config", str(cfg_path)]) == 1
    assert snapshot() == before


def test_pretrain_refuses_a_run_directory_holding_only_run_json(workspace, run1, tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "run.json").write_bytes((run1[0] / "run.json").read_bytes())
    cfg_path = tmp_path / "cfg.json"
    save_config(tiny_overrides(workspace, run_dir), cfg_path)
    assert cli(["pretrain", "--config", str(cfg_path)]) == 1
    assert [p.name for p in run_dir.iterdir()] == ["run.json"]


def pretrain_two_steps(corpus, run_dir):
    config = default_config_dict(
        corpus, run_dir, hidden_size=32, generator_layers=1, discriminator_layers=2,
        attention_heads=2, ffn_inner_size=48, max_seq_len=24, total_steps=2, warmup_steps=1,
        batch_size=4, checkpoint_every=0)
    _run_pretrain(config)
    return json.loads((run_dir / "run.json").read_text(encoding="utf-8"))


def test_pretrain_writes_a_run_json_that_pins_the_corpus_and_vocabulary(workspace, tmp_path):
    corpus = workspace / "corpus.txt"
    record = pretrain_two_steps(corpus, tmp_path / "run")
    data = corpus.read_bytes()
    assert record["corpus_sha256"] == hashlib.sha256(data).hexdigest()
    assert record["corpus_lines"] == len(corpus.read_text(encoding="utf-8").splitlines()) == 150
    vocab = load_checkpoint(tmp_path / "run" / "checkpoint_final.bin").vocab_tokens
    assert record["vocab_size"] == len(vocab)
    assert record["vocab_sha256"] == hashlib.sha256("\n".join(vocab).encode("utf-8")).hexdigest()
    assert record["numpy_version"] == np.__version__
    # config.json refuses unknown keys, so the record stays out of it
    config = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
    assert not set(record) & set(config)

    edited = tmp_path / "edited.txt"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    lines[17] = lines[17].replace(" ", "  ", 1)  # same tokens, so the same vocabulary
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    other = pretrain_two_steps(edited, tmp_path / "run_edited")
    assert other["corpus_sha256"] != record["corpus_sha256"]
    assert other["corpus_lines"] == record["corpus_lines"]
    assert other["vocab_sha256"] == record["vocab_sha256"]


# the optimizer recipe's five keys, at the defaults they had while configurable
RECIPE_KEYS = {"adam_beta1": 0.9, "adam_beta2": 0.98, "adam_epsilon": 1e-6,
               "grad_clip_norm": 2.0, "weight_decay": 0.01}


@pytest.mark.parametrize("key", sorted(RECIPE_KEYS))
def test_a_config_holding_an_optimizer_recipe_key_is_refused_before_the_vocabulary(
        tmp_path, key):
    # the corpus does not exist, so building the vocabulary first would fail otherwise
    config = default_config_dict(tmp_path / "absent.txt", tmp_path / "run",
                                 **{key: RECIPE_KEYS[key]})
    with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
        _run_pretrain(config)
    assert not (tmp_path / "run").exists()


def test_missing_config_flag_exits_2():
    assert cli(["pretrain"]) == 2


def test_unknown_flag_exits_2():
    assert cli(["pretrain", "--config", "x", "--frobnicate"]) == 2
    assert cli(["probe", "--checkpoint", "x", "--data", "y", "--fine-tune"]) == 2


def test_unknown_command_exits_2():
    assert cli(["transmogrify"]) == 2


def test_nonexistent_config_exits_1(capsys):
    assert cli(["pretrain", "--config", "/definitely/not/here.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["config", "corpus"])
def test_a_config_or_corpus_that_is_not_utf8_exits_1(workspace, tmp_path, capsys, bad):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes((workspace / "corpus.txt").read_bytes() + (b"\xff\n" if bad == "corpus" else b""))
    cfg_path = tmp_path / "cfg.json"
    save_config(tiny_overrides(tmp_path, tmp_path / "run"), cfg_path)
    if bad == "config":
        cfg_path.write_bytes(b"\xff")
    assert cli(["pretrain", "--config", str(cfg_path)]) == 1
    named = cfg_path if bad == "config" else corpus
    assert capsys.readouterr().err.startswith(f"error: {named} is not UTF-8 text")


def test_directory_as_config_exits_1(tmp_path, capsys):
    assert cli(["pretrain", "--config", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("seed", -1), ("weight_decay", -1.0)])
def test_negative_seed_or_weight_decay_exits_1(workspace, tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "run", **{key: value}), cfg_path)
    assert cli(["pretrain", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err  # weight_decay is now an unknown key
    assert not (tmp_path / "run").exists()


def test_export_metrics_validates_and_copies(run1, tmp_path):
    run_dir = run1[0]
    out = tmp_path / "copy.csv"
    assert cli(["export-metrics", "--run", str(run_dir), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_COLUMNS and len(rows) == 9


@pytest.mark.parametrize("damage", ["truncated_row", "step_out_of_order"])
def test_export_metrics_rejects_a_malformed_run_and_keeps_out(run1, tmp_path, capsys, damage):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    lines = (run1[0] / "metrics.csv").read_text(encoding="utf-8").splitlines()
    if damage == "truncated_row":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # cut off mid-write
    else:
        lines[3], lines[4] = lines[4], lines[3]
    (run_dir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "copy.csv"
    out.write_text("an earlier export\n", encoding="utf-8")
    assert cli(["export-metrics", "--run", str(run_dir), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "an earlier export\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.csv", "run"]


def test_export_metrics_missing_run_exits_1(tmp_path):
    assert cli(["export-metrics", "--run", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 1


def test_export_metrics_on_a_file_that_is_not_utf8_exits_1(run1, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "metrics.csv").write_bytes((run1[0] / "metrics.csv").read_bytes() + b"\xff\n")
    out = tmp_path / "copy.csv"
    assert cli(["export-metrics", "--run", str(run_dir), "--out", str(out)]) == 1
    assert f"error: {run_dir / 'metrics.csv'} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_probe_cli_runs(workspace, run1, capsys):
    ckpt = run1[0] / "checkpoint_final.bin"
    data = workspace / "probe.tsv"
    write_probe_dataset(data, 60, seed=3)
    assert cli(["probe", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    assert "probe accuracy" in capsys.readouterr().out


def test_probe_negative_seed_exits_1(run1, tmp_path, capsys):
    data = tmp_path / "probe.tsv"
    write_probe_dataset(data, 60, seed=3)
    assert cli(["probe", "--checkpoint", str(run1[0] / "checkpoint_final.bin"),
                "--data", str(data), "--seed", "-1"]) == 1
    assert "error: --seed" in capsys.readouterr().err


def test_probe_of_a_checkpoint_without_vocabulary_exits_1(run1, tmp_path, capsys):
    ckpt = tmp_path / "no_vocab.bin"
    save_checkpoint(ckpt, build_model(load_checkpoint(run1[0] / "checkpoint_final.bin")))
    data = tmp_path / "probe.tsv"
    write_probe_dataset(data, 60, seed=3)
    assert cli(["probe", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
    assert f"error: {ckpt} carries no vocabulary" in capsys.readouterr().err


def test_probe_of_a_checkpoint_with_bad_metadata_exits_1(run1, tmp_path, capsys, monkeypatch):
    model = build_model(load_checkpoint(run1[0] / "checkpoint_final.bin"))
    data = tmp_path / "probe.tsv"
    write_probe_dataset(data, 60, seed=3)
    for case, meta in bad_metadata(model, []).items():
        ckpt = tmp_path / f"{case}.bin"
        save_with_metadata(ckpt, model, meta, monkeypatch)
        assert cli(["probe", "--checkpoint", str(ckpt), "--data", str(data)]) == 1, case
        assert f"error: {ckpt}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["probe", "soup"])
def test_a_checkpoint_whose_parameter_name_is_not_utf8_exits_1(run1, tmp_path, capsys, command):
    mpath = _two_copies_manifest(run1, tmp_path)
    ckpt = tmp_path / "a.bin"
    raw = bytearray(ckpt.read_bytes())
    raw[raw.index(b"lm_head.bias")] = 0xFF
    ckpt.write_bytes(bytes(raw))
    data = tmp_path / "probe.tsv"
    write_probe_dataset(data, 60, seed=3)
    argv = {"probe": ["probe", "--checkpoint", str(ckpt), "--data", str(data)],
            "soup": ["soup", "--manifest", str(mpath), "--mode", "uniform"]}[command]
    assert cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: table entry")


def _two_copies_manifest(run1, tmp_path, seeds=(0, 0)):
    """A manifest of runs "a" and "b", each a copy of run1's final checkpoint."""
    src = run1[0] / "checkpoint_final.bin"
    c1, c2 = tmp_path / "a.bin", tmp_path / "b.bin"
    c1.write_bytes(src.read_bytes())
    c2.write_bytes(src.read_bytes())
    manifest = SweepManifest(
        config_path="unused.json", output_dir=str(tmp_path),
        runs=[SweepRun(name="a", losses=("re_mlm",), seed=seeds[0], checkpoint=str(c1)),
              SweepRun(name="b", losses=("re_rtd",), seed=seeds[1], checkpoint=str(c2))],
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    return mpath


def test_soup_uniform_of_identical_checkpoints_is_bit_exact(run1, tmp_path):
    src = run1[0] / "checkpoint_final.bin"
    mpath = _two_copies_manifest(run1, tmp_path)
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


def test_failed_soup_report_keeps_previous_report(run1, tmp_path, monkeypatch, capsys):
    mpath = _two_copies_manifest(run1, tmp_path)
    report = tmp_path / "soup_report.csv"
    report.write_text("previous report\n", encoding="utf-8")

    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh):
            self.writer = real_writer(fh)

        def writerow(self, row):
            if row[0] != "run":
                raise OSError("disk full")
            self.writer.writerow(row)

    monkeypatch.setattr("multicourse.cli.csv.writer", FailingWriter)
    out = tmp_path / "soup.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", "uniform", "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert report.read_text(encoding="utf-8") == "previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def test_soup_weighted_uses_weight_file(run1, tmp_path):
    mpath = _two_copies_manifest(run1, tmp_path)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps({"a": 1.0, "b": 3.0}), encoding="utf-8")
    out = tmp_path / "soup_w.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", "weighted",
                "--weights", str(wpath), "--out", str(out)]) == 0
    assert out.exists()


def test_uniform_then_weighted_soup_keep_both_reports(run1, tmp_path):
    mpath = _two_copies_manifest(run1, tmp_path)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps({"a": 1.0, "b": 3.0}), encoding="utf-8")
    assert cli(["soup", "--manifest", str(mpath), "--mode", "uniform"]) == 0
    assert cli(["soup", "--manifest", str(mpath), "--mode", "weighted",
                "--weights", str(wpath)]) == 0
    weights = {}
    for mode in ("uniform", "weighted"):
        assert (tmp_path / f"soup_{mode}.bin").exists()
        with open(tmp_path / f"soup_{mode}_report.csv", newline="") as fh:
            weights[mode] = [float(row[2]) for row in list(csv.reader(fh))[1:]]
    assert weights == {"uniform": [0.5, 0.5], "weighted": [0.25, 0.75]}


@pytest.mark.parametrize("scores", [(None, None), (0.8, None), (0.0, 0.0)],
                         ids=["no_scores", "one_missing", "zero_scores"])
def test_soup_weighted_without_usable_scores_exits_1(run1, tmp_path, capsys, scores):
    mpath = _two_copies_manifest(run1, tmp_path)
    raw = json.loads(mpath.read_text())
    for run, score in zip(raw["runs"], scores):
        if score is not None:
            run["score"] = score
    mpath.write_text(json.dumps(raw), encoding="utf-8")
    assert cli(["soup", "--manifest", str(mpath), "--mode", "weighted"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if None in scores:
        assert str([run["name"] for run in raw["runs"] if "score" not in run]) in err
    assert not (tmp_path / "soup_weighted.bin").exists()


@pytest.mark.parametrize("mode", ["uniform", "weighted"])
def test_soup_refuses_an_out_that_is_an_ingredient(run1, tmp_path, capsys, monkeypatch, mode):
    mpath = _two_copies_manifest(run1, tmp_path)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps({"a": 1.0, "b": 3.0}), encoding="utf-8")
    before = (tmp_path / "b.bin").read_bytes()
    loaded = []
    monkeypatch.setattr(multicourse.cli, "load_checkpoint", loaded.append)
    weights = ["--weights", str(wpath)] if mode == "weighted" else []
    out = tmp_path / "sub" / ".." / "b.bin"  # the ingredient by another spelling
    (tmp_path / "sub").mkdir()
    assert cli(["soup", "--manifest", str(mpath), "--mode", mode, *weights, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out} is run b's checkpoint")
    assert loaded == []
    assert (tmp_path / "b.bin").read_bytes() == before


def test_soup_uniform_with_a_weight_file_exits_1(run1, tmp_path, capsys):
    mpath = _two_copies_manifest(run1, tmp_path)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps({"a": 1.0, "b": 3.0}), encoding="utf-8")
    out = tmp_path / "soup_u.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", "uniform",
                "--weights", str(wpath), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["uniform", "weighted"])
def test_soup_refuses_runs_of_different_seeds(run1, tmp_path, capsys, mode):
    mpath = _two_copies_manifest(run1, tmp_path, seeds=(0, 1))
    out = tmp_path / "soup.bin"
    assert cli(["soup", "--manifest", str(mpath), "--mode", mode, "--out", str(out)]) == 1
    assert f"error: {mpath}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"a": 1.0,', '{"a": NaN, "b": 1.0}', '[Infinity, 1.0]', '3', '["x", 1.0]', '{"a": 1.0}',
    '{"a": 1.0, "b": 1.0, "c": 1.0}', '["0.5", "1.5"]', '[true, true]', f'[1{"0" * 400}, 1.0]',
    '[1e308, 1e308]', '[Infinity, -Infinity]', '[0, 0]',
], ids=["bad_json", "nan", "inf", "number", "string", "missing_run", "unknown_run",
        "numeric_string", "bool", "int_overflow", "sum_overflow", "inf_minus_inf", "zero_sum"])
def test_soup_with_a_malformed_weight_file_exits_1(run1, tmp_path, capsys, text):
    mpath = _two_copies_manifest(run1, tmp_path)
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
    *(f'{{"config": "c", "runs": [{{"name": "a", "losses": [], "checkpoint": "x.bin", {kv}}}]}}'
      for kv in ('"seed": "x"', '"seed": true', '"seed": 1.5', '"seed": -1', '"score": "high"',
                 '"score": true', '"name": 2', '"checkpoint": null', '"losses": 7',
                 '"losses": "re_mlm"', '"losses": [1]')),
    *(f'{{{kv}, "runs": [{{"name": "a", "losses": [], "checkpoint": "x.bin"}}]}}'
      for kv in ('"config": 3', '"config": "c", "output_dir": ["out"]', '"config": "c", "probe_data": 5')),
    '{"config": "c", "output_dir": "out", "runs": []}',
], ids=["bad_json", "not_object", "no_config", "run_not_object", "runs_not_list", "run_no_name",
        "run_no_checkpoint", "seed_string", "seed_bool", "seed_float", "seed_negative",
        "score_string", "score_bool", "name_number", "checkpoint_null", "losses_number",
        "losses_string", "losses_of_numbers", "config_number", "output_dir_list",
        "probe_data_number", "no_runs"])
def test_soup_with_a_malformed_manifest_exits_1(tmp_path, capsys, text):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(text, encoding="utf-8")
    assert cli(["soup", "--manifest", str(mpath), "--mode", "uniform"]) == 1
    assert f"error: {mpath}" in capsys.readouterr().err


def test_sweep_runs_all_manifest_entries(workspace, tmp_path, capsys):
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
    # each score is what `multicourse probe` reports for that run's checkpoint and seed
    capsys.readouterr()
    for run in rescored["runs"]:
        assert cli(["probe", "--checkpoint", run["checkpoint"], "--data", manifest.probe_data,
                    "--seed", str(run["seed"])]) == 0
        assert capsys.readouterr().out == f"probe accuracy: {run['score']:.4f}\n"
    # the sweep config must enable exactly the requested correction losses
    run_cfg = json.loads((tmp_path / "sweep" / "re_mlm" / "config.json").read_text())
    assert run_cfg["re_mlm"] is True and run_cfg["re_rtd"] is False
    assert run_cfg["re_slm"] is False and run_cfg["re_std"] is False


def test_sweep_saves_each_score_before_a_later_run_fails(workspace, tmp_path, monkeypatch):
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
    trained = []

    def train_once(*args, **kwargs):
        trained.append(args)
        if len(trained) > 1:
            raise OSError("No space left on device")
        return train(*args, **kwargs)

    monkeypatch.setattr(multicourse.cli, "train", train_once)
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    runs = json.loads(mpath.read_text())["runs"]
    assert 0.0 <= runs[0]["score"] <= 1.0
    assert "score" not in runs[1]


def test_sweep_refuses_a_used_run_directory_before_the_first_run_trains(workspace, tmp_path,
                                                                        capsys):
    cfg_path = tmp_path / "sweep_cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "unused"), cfg_path)
    sweep = tmp_path / "sweep"
    manifest = SweepManifest(
        config_path=str(cfg_path), output_dir=str(sweep),
        runs=[SweepRun(name=n, losses=(n,), seed=1,
                       checkpoint=str(sweep / n / "checkpoint_final.bin"))
              for n in ("re_mlm", "re_rtd")],
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    (sweep / "re_rtd").mkdir(parents=True)
    (sweep / "re_rtd" / "metrics.csv").write_text("another run\n", encoding="utf-8")
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    assert capsys.readouterr().err.startswith("error: sweep run re_rtd: ")
    assert sorted(p.name for p in sweep.iterdir()) == ["re_rtd"]
    assert (sweep / "re_rtd" / "metrics.csv").read_text(encoding="utf-8") == "another run\n"
    assert "score" not in json.loads(mpath.read_text())["runs"][0]


def test_sweep_refuses_a_run_whose_config_fails_before_the_first_run_trains(workspace, tmp_path,
                                                                            capsys):
    # without the swap course, the default manifest's re_slm and re_std runs cannot train
    cfg_path = tmp_path / "sweep_cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "unused", std_course=False), cfg_path)
    sweep = tmp_path / "sweep"
    mpath = tmp_path / "manifest.json"
    save_manifest(default_manifest(cfg_path, sweep), mpath)
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    assert capsys.readouterr().err.startswith("error: sweep run re_slm: ")
    assert not sweep.exists()


@pytest.mark.parametrize("probe_text", [None, "1\tthe fox .\n2\ta river .\n",
                                        "1\tthe fox .\n1\ta river .\n"],
                         ids=["missing", "label_2", "single_class"])
def test_sweep_refuses_a_bad_probe_file_before_the_first_run_trains(workspace, tmp_path, capsys,
                                                                   probe_text):
    cfg_path = tmp_path / "sweep_cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "unused", total_steps=3, warmup_steps=1,
                               batch_size=4), cfg_path)
    data = tmp_path / "probe.tsv"
    if probe_text is not None:
        data.write_text(probe_text, encoding="utf-8")
    sweep = tmp_path / "sweep"
    manifest = SweepManifest(
        config_path=str(cfg_path), output_dir=str(sweep), probe_data=str(data),
        runs=[SweepRun(name=n, losses=(n,), seed=1, checkpoint=str(sweep / n / "checkpoint_final.bin"))
              for n in ("re_mlm", "re_rtd")],
    )
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data) in err
    assert not sweep.exists()


def test_pretrain_config_json_holds_every_schema_key(workspace, tmp_path, monkeypatch):
    monkeypatch.chdir(workspace)
    config = {"corpus_path": "corpus.txt", "run_dir": "pinned_run", "hidden_size": 32,
              "generator_layers": 1, "discriminator_layers": 2, "attention_heads": 2,
              "ffn_inner_size": 48, "max_seq_len": 24, "total_steps": 2, "warmup_steps": 1,
              "batch_size": 4, "checkpoint_every": 0, "learning_rate": 1}
    _run_pretrain(config)
    saved = json.loads((workspace / "pinned_run" / "config.json").read_text(encoding="utf-8"))
    assert set(saved) == set(default_config_dict("c", "r"))
    assert type(saved["learning_rate"]) is float  # the parsed value, not the JSON 1
    for key, target in (("corpus_path", "corpus.txt"), ("run_dir", "pinned_run")):
        assert Path(saved[key]).is_absolute() and Path(saved[key]).samefile(workspace / target)

    def resolved(raw):
        cfg = parse_config(raw)
        return (cfg.encoder_config(100), cfg.rates, cfg.train, cfg.corpus_path, cfg.run_dir,
                cfg.max_vocab_size)

    expected = resolved({**config, "corpus_path": saved["corpus_path"], "run_dir": saved["run_dir"]})
    monkeypatch.chdir(tmp_path)  # the file names the same run from another working directory
    assert resolved(saved) == expected


def test_sweep_copy_that_fails_midway_keeps_the_old_checkpoint(workspace, tmp_path, monkeypatch):
    cfg_path = tmp_path / "sweep_cfg.json"
    save_config(tiny_overrides(workspace, tmp_path / "unused", total_steps=3, warmup_steps=1,
                               batch_size=4), cfg_path)
    target = tmp_path / "kept" / "re_mlm.bin"
    target.parent.mkdir()
    target.write_bytes(b"an earlier checkpoint")
    manifest = SweepManifest(
        config_path=str(cfg_path), output_dir=str(tmp_path / "sweep"),
        runs=[SweepRun(name="re_mlm", losses=("re_mlm",), seed=1, checkpoint=str(target))])
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)

    def copy_half(src, dst):
        dst.write(src.read(64))
        raise OSError("No space left on device")

    monkeypatch.setattr(multicourse.cli.shutil, "copyfileobj", copy_half)
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    assert target.read_bytes() == b"an earlier checkpoint"
    assert [p.name for p in target.parent.iterdir()] == ["re_mlm.bin"]


def test_sweep_with_a_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "sweep_cfg.json"
    cfg_path.write_text("[1, 2]", encoding="utf-8")
    sweep = tmp_path / "sweep"
    manifest = SweepManifest(
        config_path=str(cfg_path), output_dir=str(sweep),
        runs=[SweepRun(name="re_mlm", losses=("re_mlm",), seed=1,
                       checkpoint=str(sweep / "re_mlm" / "checkpoint_final.bin"))])
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    assert cli(["sweep", "--manifest", str(mpath)]) == 1
    assert f"error: {cfg_path}: config must be a flat JSON object" in capsys.readouterr().err
    assert not sweep.exists()


@pytest.mark.parametrize("command", [["soup", "--mode", "uniform"], ["sweep"]], ids=["soup", "sweep"])
def test_a_manifest_checkpoint_holding_a_nul_byte_exits_1(tmp_path, capsys, command):
    sweep = tmp_path / "sweep"
    raw = {"config": str(tmp_path / "sweep_cfg.json"), "output_dir": str(sweep),
           "runs": [{"name": "re_mlm", "losses": ["re_mlm"], "checkpoint": str(sweep / "re\0mlm.bin")}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(raw), encoding="utf-8")
    assert cli([command[0], "--manifest", str(mpath), *command[1:]]) == 1
    assert f"error: {mpath}: run 're_mlm''s checkpoint holds a NUL byte" in capsys.readouterr().err
    assert not sweep.exists()


def test_cli_imports_without_scipy():
    code = ("import sys, multicourse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(multicourse.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
