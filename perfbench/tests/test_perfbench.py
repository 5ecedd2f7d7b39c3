"""Self-tests of the benchmark: span arithmetic, lookup-site patching, seeded
generators, names, and a short traced run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from multicourse import autodiff as ad  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TRAIN = {"small", "desk", "longseq"}
SOUP = {"soup"}
ALL = TRAIN | SOUP
TRAIN_ONLY = (
    ["autodiff.gather_rows.calls", "autodiff.gather_rows.fwd_ms",
     "autodiff.softmax_cross_entropy.calls", "autodiff.softmax_cross_entropy.fwd_ms",
     "encoder.gen_passes", "encoder.gen_ms", "encoder.head_ms", "trainer.corpus_load_ms"]
    + [m["name"] for m in SPEC["per_layer"] if m["name"].split(".")[0] in ("courses", "correction", "trainer")
       and m["name"] != "courses.view_ms"]
)
SOUP_ONLY = ["checkpoint.load_ms", "checkpoint.load_bytes"] + [
    m["name"] for m in SPEC["per_layer"] if m["name"].split(".")[0] in ("soups", "probe")]
SIGNED = {"trace.overhead_ms"}  # recorded minus pass-through median; either sign


def applies_to(metric):
    if metric in SIGNED:
        return set()
    if metric in TRAIN_ONLY:
        return TRAIN
    if metric in SOUP_ONLY:
        return SOUP
    return ALL


def test_self_time_of_a_synthetic_span_tree():
    #  a [0,10] -> b [1,4], c [5,9] -> d [6,8]
    names = ["a", "b", "c", "d"]
    spans = tracing.SpanTable(sid=[0, 1, 2, 3], parent=[-1, 0, 0, 2],
                              start=[0.0, 1.0, 5.0, 6.0], end=[10.0, 4.0, 9.0, 8.0], names=names)
    assert spans.self_time().tolist() == [3.0, 3.0, 2.0, 2.0]
    assert spans.under(["c"]).tolist() == [False, False, False, True]
    assert spans.under(["a"]).tolist() == [False, True, True, True]
    assert spans.inclusive_s("b", "d") == 5.0
    assert spans.inclusive_s("b", "d", within=["c"]) == 2.0
    assert spans.self_s("a", "c") == 5.0
    assert spans.count("d", "missing") == 1


def test_same_named_nested_spans_add_up_to_the_outer_span():
    spans = tracing.SpanTable(sid=[0, 0], parent=[-1, 0], start=[0.0, 2.0], end=[5.0, 3.0],
                              names=["x"])
    assert spans.self_s("x") == 5.0
    assert spans.count("x") == 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, p = bench.tail(np.arange(100.0))
    assert p == 90 and (np.arange(100.0) > value).sum() == 10
    assert bench.tail(np.arange(15.0)) == (7.0, 50)


def test_tracer_patches_every_lookup_site_and_restores_them():
    import multicourse.cli  # noqa: F401  imports checkpoint functions by name
    sites = {}
    for row in tracing.WRAPPED:
        for namespace, attr, original in tracing.lookup_sites(row, tracing.WRAPPED):
            sites[(namespace.__name__, attr)] = (namespace, original, row[2])
    # names other modules imported are wrapped where those modules look them up
    assert sites[("multicourse.probe", "pad_batch")][2] == "courses.view"
    assert sites[("multicourse.cli", "save_checkpoint")][2] == "checkpoint.save"
    assert sites[("multicourse.courses", "cross_entropy_at")][2] == "courses.loss"
    assert sites[("multicourse.correction", "cross_entropy_at")][2] == "correction.loss"
    wrapped = {id(original) for _, original, _ in sites.values()}

    def stale_references():
        found = []
        for module in tracing.package_modules():
            for space in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                found += [(space, k) for k, v in vars(space).items() if id(v) in wrapped]
        return found

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert stale_references() == []
    finally:
        tracer.uninstall()
    assert all(vars(ns)[attr] is original for (_, attr), (ns, original, _) in sites.items())


def test_nested_ops_are_counted_once():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ad.add_n([ad.Tensor(np.ones(3), requires_grad=True) for _ in range(3)])
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert len(spans.sid) == 2  # add_n itself is not wrapped; its two adds are
    assert spans.count("autodiff.elementwise") == 2


def _generated_files(workload, seed, work_dir):
    inputs.setup(workload, seed, work_dir)
    return {p.relative_to(work_dir): p.read_bytes() for p in sorted(work_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generators_are_byte_identical_for_a_seed_and_differ_across_seeds(name, tmp_path):
    workload = inputs.WORKLOADS[name]
    first = _generated_files(workload, 3, tmp_path / "a")
    again = _generated_files(workload, 3, tmp_path / "b")
    other = _generated_files(workload, 4, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first)


def test_names_and_benchmark_file():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert {m["name"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"} == {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(applies_to(m["name"]) or m["name"] in SIGNED for m in SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# seconds per workload that cover a recorded periodic checkpoint (see bench.make_timer)
SHORT_RUN = {"small": 3, "desk": 10, "longseq": 6, "soup": 3}


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_traced_run_fills_every_layer_metric_that_applies(name):
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", name, "--seed", "5",
                           "--seconds", str(SHORT_RUN[name]), "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    empty = [m for m, v in metrics.items() if name in applies_to(m) and not v["value"] > 0]
    assert empty == []
    if name in TRAIN:
        phases = sum(metrics[f"trainer.{p}_ms"]["value"]
                     for p in ("data_wait", "forward", "backward", "optimizer", "metrics", "remainder"))
        assert phases == pytest.approx(metrics["trainer.step_ms"]["value"])
