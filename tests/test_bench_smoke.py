"""The benchmark's own smoke check, run as part of the test suite.

``bench/`` imports and patches names of the package (``cli.profile_for``,
``priors.prior_from_spec`` and every function ``bench/layertrace.py`` wraps).
Running its smoke check here makes a refactor that drops one of those names
fail the tests rather than the benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
