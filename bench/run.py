"""concavia benchmark: `concavia verify` workloads, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload default_all --seed 1 --seconds 54 --trace 0

Every workload drives ``concavia.cli.main([...])`` in this one process with
``CONCAVIA_THREADS=1`` and single-threaded BLAS.  An iteration is one pass
over the workload's ``verify`` calls; iterations repeat until the next one
would overrun ``--seconds``, and at least one always runs (a family
iteration takes 15-25 s, so a 54 s run times two or three of them).
``--seed`` is passed through as the config ``seed``; today ``verify``
output does not depend on it (only the export phases read it), so it
changes the report's ``seed`` field and the probe inputs only.

Every iteration is checked: exit code 0, every certificate passed, and each
``report_<suite>.json`` byte-identical to the run's first iteration.

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` times iterations untraced for half of ``--seconds`` and then
as many traced, reports the per-layer metrics and the tracing overhead
(traced minus untraced iteration wall time), runs the kernel probes, and reruns the known-failing
perturbed-parameter case with default knobs, whose verdict it prints
without gating on it.  Tracing wraps the public functions of the package's
modules from outside, by rebinding module attributes in this process; the
package source is not changed.

The last line of standard output is the result object; the line before it
holds details (spreads, sample counts, lambda and margins, environment).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Pinned before numpy is imported, here and in every child interpreter.
THREAD_ENV = {
    "CONCAVIA_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The acceptance battery's perturbed parameter set (tests/test_acceptance.py).
PERTURBED = {
    "rho0": 0.9, "rho1": 0.92, "rho2": 1.04, "s": 1.12, "c": 0.91,
    "eps": 0.007, "c1": 1.035, "c2": 1.02, "zeta1": 1.032, "zeta2": 1.034,
}
PERTURBED_ARGS = [f"--params.{k}={v!r}" for k, v in PERTURBED.items()]

# workload -> the (suite, extra argv) verify calls making up one iteration
WORKLOADS = {
    # the run a user makes; find_lambda dominates
    "default_all": [("all", [])],
    # atlas/openbook/profiles/convexjoin/levi with no gamma at all
    "light_suites": [(s, []) for s in ("atlas", "openbook", "profiles", "levi")],
}

# Fails today (exit 1, lambda 146.69, pseudoconcavity margin about -2.9e12);
# recorded on every traced run, never gated on.
KNOWN_FAILURE = [("family", PERTURBED_ARGS)]

TRACED_MODULES = ("atlas", "openbook", "profiles", "convexjoin", "levi",
                  "family", "certs", "cli")

# ancestors that gamma points are attributed to
GAMMA_CALLERS = {
    "levi.find_lambda": "in_find_lambda",
    "family.pseudoconcavity_check": "in_pseudoconcavity",
    "family.compatibility_check": "in_compatibility",
    "family.build_family": "in_build_family",
}

SETUP_REPS = 5
# `concavia params` imports the CLI, loads the config and validates it
SETUP_SNIPPET = ("import json, sys\n"
                 "from concavia import cli\n"
                 "sys.exit(cli.main(['params', *json.loads(sys.argv[1])]))\n")


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


# ---------------------------------------------------------------------------
# Workload iterations
# ---------------------------------------------------------------------------

def _certificates(node, path=""):
    """Yield ``(path, cert)`` for every certificate dict in a report tree."""
    if isinstance(node, dict):
        if {"name", "grid", "margin", "passed"} <= node.keys():
            yield path, node
            return
        for key, val in node.items():
            yield from _certificates(val, f"{path}.{key}" if path else key)


class Runner:
    """Runs a list of verify calls and checks every iteration's outputs."""

    def __init__(self, cli, calls, seed: int, outdir: str):
        self.cli = cli
        self.argv = [["verify", "--suite", suite, "--outputs", outdir,
                      f"--seed={seed}", *extra] for suite, extra in calls]
        self.paths = [os.path.join(outdir, f"report_{suite}.json") for suite, _ in calls]
        self.first: list[bytes] | None = None
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.report_bytes = 0
        self.exit_codes: list[int] = []

    def call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def iterate(self) -> float:
        """One timed iteration; the output checks run after the clock stops."""
        t0 = time.perf_counter()
        codes = [self.call(argv) for argv in self.argv]
        wall = time.perf_counter() - t0
        blobs = []
        for path in self.paths:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        self.iterations += 1
        self.exit_codes = codes
        self.failed += sum(c != 0 for c in codes)
        self.report_bytes += sum(len(b) for b in blobs)
        for blob in blobs:
            report = json.loads(blob)
            for suite in report["suites"].values():
                certs = list(_certificates(suite))
                self.attempted += len(certs) or 1
                self.failed += sum(not c["passed"] for _, c in certs)
                self.failed += "error" in suite
        if self.first is None:
            self.first = blobs
        elif blobs != self.first:
            self.mismatches += 1
        return wall

    def loop(self, seconds: float) -> list[float]:
        """Iterate until the next iteration would overrun ``seconds``."""
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] <= seconds:
            walls.append(self.iterate())
        return walls

    def outputs(self) -> dict:
        """Lambda and every certificate margin of the first iteration."""
        out = {}
        for blob in self.first or []:
            for name, suite in json.loads(blob)["suites"].items():
                if "lambda" in suite:
                    out[f"{name}.lambda"] = suite["lambda"]
                if "error" in suite:
                    out[f"{name}.error"] = suite["error"]
                for path, cert in _certificates(suite):
                    out[f"{name}.{path}.margin"] = cert["margin"]
        return out


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans around the package's public functions, bound from outside.

    A span is ``[name, start, end, parent, points]``; ``points`` is the
    number of points in a ``gamma`` call.  Every public function of a traced
    module is rebound wherever the package holds a reference to it, so
    by-name imports (``family`` takes ``find_lambda``, ``grad4``, ``d_c``
    and ``neg_ddc`` from ``levi``) see the wrapper too.  Two hooks are not
    module functions: ``family._Foliation.gamma``, which the closures of
    ``gamma_field`` and ``normalized_potential`` call directly, and
    ``Certificate.__init__``, which counts certificates issued and failed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.issued = 0
        self.cert_failed = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   count(args) if count else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib
        import numpy as np

        pkg = [m for n, m in sorted(sys.modules.items())
               if n == "concavia" or n.startswith("concavia.")]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"concavia.{short}")
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for holder in pkg:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._set(holder, attr, wrapper)

        from concavia import certs, family
        def points(args):  # gamma(self, z1, z2)
            return np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size
        self._set(family._Foliation, "gamma",
                  self._wrap("family.gamma", family._Foliation.gamma, points))
        init = certs.Certificate.__init__
        init_span = self._wrap("certs.Certificate", init)

        def counted_init(cert, *args, **kwargs):
            init_span(cert, *args, **kwargs)
            self.issued += 1
            self.cert_failed += not cert.passed
        self._set(certs.Certificate, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def summary(self, iterations: int) -> dict:
        """Per-iteration per-layer metrics from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: dict[str, list] = {}
        module_self: dict[str, float] = {m: 0.0 for m in TRACED_MODULES}
        gamma_in = {v: 0 for v in GAMMA_CALLERS.values()} | {"in_other": 0}
        for i, (name, t0, t1, parent, pts) in enumerate(spans):
            self_s = (t1 - t0) - child[i]
            agg = by_name.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += self_s
            agg[3] += pts
            module_self[name.split(".")[0]] += self_s
            if pts:
                key, p = "in_other", parent
                while p >= 0:
                    if spans[p][0] in GAMMA_CALLERS:
                        key = GAMMA_CALLERS[spans[p][0]]
                        break
                    p = spans[p][3]
                gamma_in[key] += pts

        n = max(1, iterations)

        def calls(name):
            return by_name.get(name, [0, 0.0, 0.0, 0])[0] / n

        def total_s(name):
            return by_name.get(name, [0, 0.0, 0.0, 0])[1] / n

        gamma = by_name.get("family.gamma", [0, 0.0, 0.0, 0])
        m = {
            "family.gamma.calls": gamma[0] / n,
            "family.gamma.points": gamma[3] / n,
            "family.gamma.self_s": gamma[2] / n,
            "levi.find_lambda.gamma_points": gamma_in["in_find_lambda"] / n,
            "certs.issued": self.issued / n,
            "certs.failed": self.cert_failed / n,
            "trace.spans": len(spans) / n,
            "trace.self_sum_s": sum(module_self.values()) / n,
        }
        for key, pts in gamma_in.items():
            m[f"family.gamma.points.{key}"] = pts / n
        for mod, s in module_self.items():
            m[f"{mod}.self_s"] = s / n
        for name in ("levi.find_lambda", "levi.levi_min_eig_batch", "levi.grad4",
                     "levi.neg_ddc", "levi.d_c", "atlas.map_Phi", "atlas.same_point"):
            m[f"{name}.calls"] = calls(name)
        for name in ("levi.find_lambda", "levi.levi_min_eig_batch", "levi.grad4",
                     "levi.neg_ddc", "levi.d_c",
                     "family.pseudoconcavity_check", "family.compatibility_check",
                     "family.build_family", "family.build_M1", "family.sample_M1",
                     "family.verification_grid", "family.run_verification",
                     "convexjoin.solve", "convexjoin.feasible",
                     "profiles.make_f1", "profiles.make_f2",
                     "profiles.second_derivative_identity_check",
                     "openbook.conjugation_check", "openbook.welldef_check",
                     "openbook.check_disjointness", "atlas.validate_params"):
            m[f"{name}.s"] = total_s(name)
        return m


# ---------------------------------------------------------------------------
# Kernel probes (tracing off)
# ---------------------------------------------------------------------------

def _rate(fn, min_time: float, min_reps: int) -> float:
    """Median seconds per ``fn()`` call over repeated timed calls."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_time:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(seed: int, min_time: float) -> dict:
    import numpy as np
    from concavia import atlas, family, levi

    par = atlas.default_params()
    fam = family.build_family(par, 16, family.default_knobs())
    gam = fam.fol.gamma
    u = family.normalized_potential(fam, 9.597103873).fn  # default-set lambda
    m = {}
    g62 = family.verification_grid(fam, 1)
    pts1 = [(complex(a), complex(b)) for a, b in g62]
    m["family.gamma.pts_per_s.n1"] = len(pts1) / _rate(
        lambda: [gam(a, b) for a, b in pts1], min_time, 3)
    for d, label in ((1, "n62"), (16, "n9557")):
        grid = family.verification_grid(fam, d)
        z1 = np.array([p[0] for p in grid], dtype=complex)
        z2 = np.array([p[1] for p in grid], dtype=complex)
        m[f"family.gamma.pts_per_s.{label}"] = len(grid) / _rate(
            lambda: gam(z1, z2), min_time, 3)
        m[f"levi.min_eig.pts_per_s.{label}"] = len(grid) / _rate(
            lambda: levi.levi_min_eig_batch(u, z1, z2), min_time, 1)

    rng = random.Random(seed)

    def polar(lo, hi):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

    reps = [(polar(0.2, 5.0), polar(0.3, 0.95)) for _ in range(1000)]
    m["atlas.canonical_rep.us_per_call"] = 1e6 / len(reps) * _rate(
        lambda: [atlas.canonical_rep(a, b) for a, b in reps], min_time, 3)
    chart_pts = [atlas.map_Phi(par, polar(1.001, par.s - 1e-3),
                               polar(1 / par.rho1 + 1e-3, 1 / par.rho0 - 1e-3))
                 for _ in range(200)]
    m["atlas.in_complement_C.us_per_call"] = 1e6 / len(chart_pts) * _rate(
        lambda: [atlas.in_complement_C(par, p) for p in chart_pts], min_time, 3)
    return m


# ---------------------------------------------------------------------------
# Set-up time and environment
# ---------------------------------------------------------------------------

def setup_times(calls, env) -> list[float]:
    """Wall time of a fresh interpreter importing ``concavia.cli`` and
    validating the workload's config."""
    overrides = json.dumps(calls[0][1])
    out = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, overrides],
                       env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="harness self-test: short probes, skip the known-failure rerun")
    args = ap.parse_args(argv)

    if not (SRC / "concavia" / "cli.py").is_file():
        print(f"bench: no concavia sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    from concavia import cli

    calls = WORKLOADS[args.workload]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(dir=tmp_root)
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "environment": environment()}
    try:
        run = Runner(cli, calls, args.seed, outdir)
        if args.trace == 0:
            setup = setup_times(calls, env)
            walls = run.loop(args.seconds)
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail["wall_s"] = quartiles(walls)
            detail["setup_s"] = quartiles(setup)
        else:
            walls = run.loop(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = [run.iterate() for _ in walls]
            finally:
                tracer.uninstall()
            layer = tracer.summary(len(traced))
            # means, so that trace.self_sum_s (a mean too) accounts for them
            layer["trace.untraced_wall_s"] = statistics.fmean(walls)
            layer["trace.traced_wall_s"] = statistics.fmean(traced)
            layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - layer["trace.untraced_wall_s"]
            layer["cli.report_bytes"] = run.report_bytes / run.iterations
            layer["failed_frac"] = run.failed / max(1, run.attempted)
            layer["report_mismatch"] = run.mismatches
            layer.update(kernel_probes(args.seed, 0.02 if args.smoke else 0.3))
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            detail["wall_s"] = quartiles(walls)
            detail["traced_wall_s"] = quartiles(traced)
            if not args.smoke:
                known = Runner(cli, KNOWN_FAILURE, args.seed, outdir)
                known.iterate()
                detail["known_failure"] = {"exit_codes": known.exit_codes,
                                           "failed": known.failed,
                                           "outputs": known.outputs()}
        detail["iterations"] = run.iterations
        detail["report_mismatch"] = run.mismatches
        detail["failed_frac"] = run.failed / max(1, run.attempted)
        detail["outputs"] = run.outputs()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    correct = run.failed == 0 and run.mismatches == 0
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if ".pts_per_s." in name:
        return "1/s"
    for suffix, unit in ((".us_per_call", "us"), ("_s", "s"), (".s", "s"),
                         ("_bytes", "B"), ("failed_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
