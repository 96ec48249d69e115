"""The benchmark harness still drives the library in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_perfbench_self_test_passes(tmp_path):
    # The harness reads solver state (near-field ghost points, the U/V
    # graphs, the setup phase timings) and wraps 18 layer functions by
    # name; a change to any of them fails its self-test. No PYTHONPATH and
    # a foreign working directory: the script finds the library itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--self-test"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-test: PASS" in run.stdout
