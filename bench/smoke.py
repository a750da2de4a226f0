"""Self-test of the benchmark harness, in seconds, on reduced inputs.

Run from the repository root::

    python3 bench/smoke.py

Checks that ``bench/run.py``
- emits every metric ``BENCHMARK.json`` names, with its unit, on a short
  ``light_suites`` run with tracing off and on (``--smoke`` shortens the
  kernel probes and skips the known-failure rerun);
- accepts every workload's config overrides;
- exits non-zero without a result where the package sources are missing.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def _result(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics(spec: list[dict], trace: int) -> None:
    proc = _result(["--workload", "light_suites", "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    assert set(got) == set(want), sorted(set(got) ^ set(want))
    for name, unit in want.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, (name, got[name]["unit"], unit)
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def check_workload_configs() -> None:
    sys.path.insert(0, str(bench.SRC))
    from concavia import cli
    for name, calls in bench.WORKLOADS.items():
        for _, extra in calls + bench.KNOWN_FAILURE:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["params", *extra])
            assert code == 0, (name, extra)


def check_fails_without_sources() -> None:
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench")
        proc = _result(["--workload", "light_suites", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and proc.stdout == "", proc
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    check_metrics(spec["end_to_end"], 0)
    check_metrics(spec["per_layer"], 1)
    check_workload_configs()
    check_fails_without_sources()
    print("bench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
