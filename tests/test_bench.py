"""The benchmark harness's self-test, run as a test: the harness calls
package functions by name, so a renamed or deleted one fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "bench smoke: ok"


def test_traced_default_all_reads_no_gamma():
    # the tracer's gamma hook on the family path: the foliation certificate
    # and the lambda search read exact jets, so verify makes no gamma call
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "default_all",
                           "--seed", "3", "--seconds", "0.5", "--trace", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] is True
    assert metrics["family.gamma.calls"]["value"] == 0
    assert metrics["family.gamma.points"]["value"] == 0
