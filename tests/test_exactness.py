"""scripts/exactness.py: a tree against itself, and against a one-ulp change."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "exactness.py"
CONFIGS = ("rtd", "std", "itd", "re", "all", "ragged")

# scales the regeneration loss up by one float32 ulp, so it first changes the
# step that correction starts at (step 2 in the script's configurations)
ONE_ULP_IN_RE_MLM = '''

_loss_regeneration = loss_regeneration


def loss_regeneration(*args, **kwargs):
    from .autodiff import scale
    return scale(_loss_regeneration(*args, **kwargs), 1.0 + 2.0 ** -23)
'''


def exactness(parent):
    """The script's exit code and its verdict per configuration."""
    done = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(parent), "--steps", "4"],
                          capture_output=True, text=True, timeout=120)
    return done.returncode, dict(line.split(None, 1) for line in done.stdout.splitlines())


def test_a_tree_against_itself_is_identical():
    assert exactness(ROOT) == (0, {name: "identical" for name in CONFIGS})


def test_a_rounding_change_differs_from_the_first_step_it_touches(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "multicourse" / "correction.py", "a", encoding="utf-8") as fh:
        fh.write(ONE_ULP_IN_RE_MLM)
    code, report = exactness(tmp_path)
    assert code == 1 and list(report) == list(CONFIGS)  # every configuration, then the failure
    for name in ("rtd", "std", "itd"):
        assert report[name] == "identical"
    for name in ("re", "all", "ragged"):
        assert re.fullmatch(r"first differs at step 2; largest relative loss difference \S+; "
                            r"(counts identical on every step|counts first differ at step \d \(.+\))",
                            report[name]), report[name]


def test_the_verdict_names_the_first_step_whose_counts_differ():
    spec = importlib.util.spec_from_file_location("exactness", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def run(*steps):
        return {"records": [dict(step=i, losses={"mlm": loss}, pos_counts=cells, d_nonoriginal=0,
                                 d_corrupted=nonorig, itd_nonoriginal=0, itd_positions=0)
                            for i, (loss, cells, nonorig) in enumerate(steps)]}

    parent = run((2.0, [1, 2], 3), (1.5, [2, 1], 3), (1.25, [0, 3], 4))
    rounded = run((2.0, [1, 2], 3), (1.5 + 1e-7, [2, 1], 3), (1.25, [0, 3], 4))
    assert script.compare(parent, rounded).endswith("; counts identical on every step")
    moved = run((2.0, [1, 2], 3), (1.5, [2, 1], 3), (1.25 + 1e-7, [1, 2], 5))
    assert script.compare(parent, moved) == (
        "first differs at step 2; largest relative loss difference 8e-08; "
        "counts first differ at step 2 (pos_counts, d_corrupted)")
