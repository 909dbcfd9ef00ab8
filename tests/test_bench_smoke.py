"""The benchmark's own smoke check, run as part of the test suite.

``bench/`` imports and patches names of the package (``cli.profile_for``,
``priors.prior_from_spec`` and every function ``bench/layertrace.py`` wraps).
Running its smoke check here makes a refactor that drops one of those names
fail the tests rather than the benchmark run.

The committed bench evidence (``BENCH_*.json`` at the repository root, the
concatenated stdout of ``bench/run.py`` runs) must stay readable by
``bench/compare.py``, and every run in it must have passed its output gate.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_committed_bench_evidence(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import compare

    runs = [r for rs in compare.load_runs([path]).values() for r in rs]
    assert runs, f"{path.name} holds no bench/run.py run"
    for r in runs:
        assert r["result"]["correct"] is True, (r["workload"], r["provenance"]["seed"])
        assert r["result"]["failed"] == 0, (r["workload"], r["provenance"]["seed"])
