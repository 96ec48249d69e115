"""The kernel micro-benchmark runs from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs_from_checkout(tmp_path):
    # No PYTHONPATH and a foreign working directory: the script must find
    # the library next to itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "64", "--skip-fmm"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "direct summation, n = 64" in run.stdout
    assert "near-field sweep p2p_uli, n = 64" in run.stdout
