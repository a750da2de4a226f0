"""The benchmark harness's self-test, run as a test: the harness calls
package functions by name, so a renamed or deleted one fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "bench smoke: ok"
