"""Benchmark launcher: run one workload of the multicourse benchmark in a fresh process.

    python3 perfbench/run.py --workload small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. BLAS/OpenMP threads are pinned to
BLAS_THREADS before the workload process imports numpy, so peak memory and
BLAS warm-up never leak from one workload into the next. The workload's
output passes through unchanged; its last line is the result JSON.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # one fixed count, no greater than nproc on any machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
TIMEOUT_S = 170


def main(argv):
    if not (ROOT / "src" / "multicourse" / "__init__.py").is_file():
        print(f"perfbench: no multicourse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run([sys.executable, str(HERE / "bench.py"), *argv],
                              cwd=ROOT, env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
