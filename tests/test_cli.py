import argparse
import ast
import dataclasses
import gc
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import concavia
from concavia import _numerics, atlas, certs, cli, commands, family, levi, openbook, profiles
from concavia._numerics import GOLD, SILVER, kronecker
from concavia.atlas import default_params, phi
from concavia.cli import main
from concavia.config import KNOB_DEFAULTS, RUN_DEFAULTS


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_default_prints_derived_radii(capsys):
    code, out = _run(capsys, ["params"])
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 1.04
    assert doc["validated"] is True


def test_params_chain_violation_exits_2(capsys):
    code, out = _run(capsys, ["params", "--params.rho2=1.2"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ChainViolation"
    assert "rho2" in doc["message"]


def test_params_missing_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"rho0": 0.88, "rho1": 0.9}}))
    code, out = _run(capsys, ["params", "--config", str(cfg)])
    assert code == 2
    assert "error" in json.loads(out)


def test_unreadable_config_exits_2(tmp_path, capsys):
    code, out = _run(capsys, ["params", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_unknown_knob_exits_2(capsys):
    for knob in ("bogus", "tol"):
        code, out = _run(capsys, ["verify", "--suite", "atlas", f"--knobs.{knob}=1"])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "ConfigError"
        assert f"unknown knobs: ['{knob}']" in doc["message"]


@pytest.mark.parametrize("args, file_blob, fragment", [
    (["--knobs=5"], None, "config field 'knobs' must be an object"),
    (["--params=3"], None, "config field 'params' must be an object"),
    (["--seed=abc"], None, "seed must be an integer, got 'abc'"),
    (["--params.rho1=abc"], None, "parameter rho1 must be a number, got 'abc'"),
    (["--knobs.eps1=abc"], None, "knob eps1 must be a finite number, got 'abc'"),
    (["--knobs.n_tau=16.0"], None, "knob n_tau must be an integer, got 16.0"),
    (["--out", "elsewhere"], None, "unknown config fields: ['out']"),
    (["--seeed=5"], None, "unknown config fields: ['seeed']"),
    (["--params.rho3=5"], None, "unknown parameter fields: ['rho3']"),
    ([], {"knobs": {"knots": True}}, "knob knots must be an integer, got True"),
    ([], {"seed": 1, "family_knobs": {}}, "unknown config fields: ['family_knobs']"),
], ids=["knobs-not-object", "params-not-object", "seed-not-int", "param-not-number",
        "knob-not-number", "int-knob-is-float", "unknown-out", "unknown-seeed",
        "unknown-param", "file-bool-knob", "file-unknown-field"])
def test_malformed_config_exits_2(tmp_path, capsys, args, file_blob, fragment):
    if file_blob is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_blob))
        args = ["--config", str(cfg), *args]
    code = main(["verify", "--suite", "atlas", "--outputs", str(tmp_path), *args])
    out, err = capsys.readouterr()
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ConfigError"
    assert fragment in doc["message"]
    assert err == ""
    assert not (tmp_path / "report_atlas.json").exists()


def test_partial_knobs_object_keeps_the_other_defaults(tmp_path, capsys):
    code, out = _run(capsys, ["verify", "--suite", "atlas", "--outputs", str(tmp_path),
                              '--knobs={"eps1": 0.003}'])
    assert code == 0
    knobs = json.loads(out)["knobs"]
    assert knobs["eps1"] == 0.003 and knobs["n_tau"] == 16


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_atlas_writes_passing_report(tmp_path, capsys):
    code, out = _run(capsys, ["verify", "--suite", "atlas",
                              "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_atlas.json").read_text())
    assert rep["passed"] is True
    certs = rep["suites"]["atlas"]["certificates"]
    assert certs["phi_branch_law"]["passed"]
    assert certs["Phi_branch_independence"]["passed"]


def test_phi_branch_law_fails_on_a_nan_error(tmp_path, capsys, monkeypatch):
    calls = []

    def nan_once(w, k):
        calls.append(k)
        val = phi(w, k)
        if len(calls) == 3:
            val[8] = complex("nan")
        return val

    monkeypatch.setattr(commands, "phi", nan_once)
    code, _ = _run(capsys, ["verify", "--suite", "atlas", "--outputs", str(tmp_path)])
    assert code == 1
    rep = json.loads((tmp_path / "report_atlas.json").read_text())
    cert = rep["suites"]["atlas"]["certificates"]["phi_branch_law"]
    assert cert["passed"] is False
    assert cert["margin"] == -math.inf
    assert cert["details"]["max_rel_err"] == math.inf


def test_verify_openbook_reports_conjugation_margin(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "openbook",
                            "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_openbook.json").read_text())
    conj = rep["suites"]["openbook"]["certificates"]["conjugation"]
    assert conj["passed"] and conj["margin"] > 0


def test_verify_family_infeasible_knob_exits_1(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "family",
                            "--knobs.eps2=0.2", "--outputs", str(tmp_path)])
    assert code == 1
    rep = json.loads((tmp_path / "report_family.json").read_text())
    err = rep["suites"]["family"]["error"]
    assert err["type"] == "FeasibilityError"


@pytest.mark.parametrize("suite, builds", [
    ("atlas", 0), ("openbook", 0), ("levi", 0), ("profiles", 1), ("family", 1), ("all", 1)])
def test_verify_builds_the_model_once_per_call(tmp_path, capsys, monkeypatch, suite, builds):
    build = family.build_M1
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(family, "build_M1", counted)
    for run in (1, 2):
        code, _ = _run(capsys, ["verify", "--suite", suite, "--outputs", str(tmp_path)])
        assert code == 0
        # no model outlives its call
        assert len(calls) == run * builds


def test_no_model_outlives_a_verify_call(tmp_path, capsys, monkeypatch):
    # with the cyclic collector off, a reference cycle through the model
    # would keep it alive after the call
    build = family.build_M1
    models = []

    def tracked(*args, **kwargs):
        model = build(*args, **kwargs)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(family, "build_M1", tracked)
    gc.collect()
    gc.disable()
    try:
        ok, _ = family.run_verification(default_params())
        alive = [ref() is not None for ref in models]
        code, _ = _run(capsys, ["verify", "--suite", "all", "--outputs", str(tmp_path)])
        alive += [ref() is not None for ref in models[len(alive):]]
    finally:
        gc.enable()
    assert ok and code == 0
    assert alive == [False, False]


def _call(capsys, argv):
    """Exit code (or ``SystemExit`` code), stdout and stderr of one call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_the_parser_is_built_once_and_reused_safely(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    out = ["--outputs", str(tmp_path)]
    sequence = [["verify", "--suite", "atlas", *out], ["verify", "--suite", "nope"],
                ["params"], ["--help"], ["export", "--what", "binding", *out],
                ["verify", "--suite", "atlas", *out]]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_call(capsys, argv))
    assert [f[0] for f in fresh] == [0, ("SystemExit", 2), 0, ("SystemExit", 0), 0, 0]
    per_parser = len(built) // len(sequence)   # the parser and its three subparsers
    assert per_parser == 4
    cli._parser.cache_clear()
    del built[:]
    for _ in range(3):
        assert [_call(capsys, argv) for argv in sequence] == fresh
        assert len(built) == per_parser


def _suite_sections(tmp_path, capsys, argv):
    """``{suite: (exit code, section)}`` of each suite run alone, and of
    ``--suite all``'s report under ``"all"``."""
    out = {}
    for suite in (*cli.SUITES, "all"):
        code, _ = _run(capsys, ["verify", "--suite", suite, *argv,
                                "--outputs", str(tmp_path)])
        rep = json.loads((tmp_path / f"report_{suite}.json").read_text())
        out[suite] = (code, rep["suites"] if suite == "all" else rep["suites"][suite])
    return out


def test_verify_all_sections_equal_the_single_suite_reports(tmp_path, capsys):
    runs = _suite_sections(tmp_path, capsys, [])
    code, sections = runs.pop("all")
    assert code == 0 and set(sections) == set(cli.SUITES)
    for suite, (code, alone) in runs.items():
        assert code == 0
        assert sections[suite] == alone, suite


def test_verify_all_carries_the_model_error_of_the_single_suites(tmp_path, capsys):
    runs = _suite_sections(tmp_path, capsys, ["--knobs.eps2=0.2"])
    code, sections = runs.pop("all")
    assert code == 1
    for suite, (code, alone) in runs.items():
        assert sections[suite] == alone, suite
        if suite in ("profiles", "family"):
            assert code == 1 and alone["error"]["type"] == "FeasibilityError"
        else:
            assert code == 0 and "certificates" in alone


def test_verify_all_makes_2_dish_calls(tmp_path, capsys, calls):
    # one for each of two sweeps, the nesting rays and the top slice; the
    # lambda grid's exact jets and the top slice's closed forms make none
    dish = calls(family._Foliation, "dish")
    code, _ = _run(capsys, ["verify", "--suite", "all", "--outputs", str(tmp_path)])
    assert code == 0
    assert len(dish) == 2 and 0 not in dish


def test_verify_all_solves_no_level(tmp_path, capsys, monkeypatch):
    # the foliation certificate and the lambda search read exact jets at
    # known levels: neither gamma nor its root solve is reached
    monkeypatch.setattr(family._Foliation, "gamma", _fail("gamma"))
    monkeypatch.setattr(_numerics, "crossing", _fail("crossing"))
    monkeypatch.setattr(family, "crossing", _fail("crossing"))
    code, _ = _run(capsys, ["verify", "--suite", "all", "--outputs", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "report_all.json").read_text())["passed"] is True


def test_verify_all_reports_lambda(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "all",
                            "--knobs.n_tau=8", "--knobs.n_samples=100",
                            "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_all.json").read_text())
    assert rep["passed"] is True
    assert rep["suites"]["family"]["lambda"] > 0


# every certificate of a default `verify --suite all` report, by its path in
# the report; a certificate is added or removed here on purpose only
_DEFAULT_CERTIFICATES = {
    *(f"suites.atlas.certificates.{k}" for k in (
        "Phi_branch_independence", "phi_branch_law")),
    *(f"suites.family.checks.{k}" for k in (
        "compatibility", "find_lambda", "pseudoconcavity")),
    *(f"suites.family.family.{k}" for k in (
        "curve_monotone", "foliation", "nesting", "slice_validity",
        "top_slice_equality")),
    *(f"suites.family.model.certificates.{k}" for k in (
        "clearances", "membership", "seam_C1", "seam_contact")),
    *(f"suites.levi.certificates.{k}" for k in (
        "hartogs_reference", "psh_reference")),
    *(f"suites.openbook.certificates.{k}" for k in ("conjugation", "welldef")),
    *(f"suites.profiles.certificates.{k}" for k in (
        "identity_f1", "identity_f2", "identity_seam")),
}


def _certificate_paths(node, path=()) -> set:
    if not isinstance(node, dict):
        return set()
    if {"name", "grid", "margin", "passed"} <= set(node):
        return {".".join(path)}
    return set().union(*(_certificate_paths(v, path + (k,)) for k, v in node.items()))


def test_default_report_certificates_are_pinned(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "all", "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_all.json").read_text())
    assert _certificate_paths(rep) == _DEFAULT_CERTIFICATES


def _certificate_nodes(node, path=()):
    """``(path, certificate)`` for every certificate in a report, the parts
    of a merged certificate included."""
    if isinstance(node, dict):
        if {"name", "grid", "margin", "passed"} <= set(node):
            yield path, node
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield from _certificate_nodes(v, path + (str(k),))


def test_default_report_states_each_fact_once(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "all", "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_all.json").read_text())
    nodes = list(_certificate_nodes(rep["suites"]))
    names = {}
    for path, cert in nodes:
        names.setdefault(cert["name"], set()).add(path[0])
    assert {n: sorted(s) for n, s in names.items() if len(s) > 1} == {}
    # equal margins are allowed only between a merged certificate and the
    # part that sets its margin (compatibility and frame_span)
    shared = [(".".join(p), ".".join(q)) for i, (p, c) in enumerate(nodes)
              for q, d in nodes[i + 1:]
              if c["margin"] == d["margin"] and q[:len(p)] != p]
    assert shared == []


def _steep_left_end(monkeypatch):
    # the left end slope raised to the right one's: left.deriv >= chord
    problem = family.JoinProblem
    monkeypatch.setattr(family, "JoinProblem", lambda left, right, floor: problem(
        dataclasses.replace(left, deriv=right.deriv), right, floor=floor))


def _nan_in_f2_curvature(monkeypatch):
    # f2's germ has a NaN d2L at x_lo, the first point of make_f2's grid
    germ = profiles._quad_log_germ
    x_lo = family.default_knobs().x_lo

    def nan_germ(c, eps, sgn):
        L, dL, d2L = germ(c, eps, sgn)
        if sgn > 0:
            return L, dL, d2L
        return L, dL, lambda x: np.where(np.asarray(x) == x_lo, np.nan, d2L(x))

    monkeypatch.setattr(profiles, "_quad_log_germ", nan_germ)


@pytest.mark.parametrize("args, patch, error, fragment", [
    (["--knobs.eps1=0.009"], None, "FeasibilityError", "c1 + eps1/rho1^2 < rho2"),
    (["--knobs.branch_margin=0.08"], None, "FeasibilityError", "endpoint slope"),
    (["--params.c2=1.0005"], None, "FeasibilityError", "floor below tangent value at x_end"),
    ([], _steep_left_end, "Infeasible", "left.deriv < chord"),
    ([], _nan_in_f2_curvature, "FeasibilityError", "f2 conditions"),
], ids=["eps1", "branch_margin", "c2", "steep_left_end", "nan_in_f2_curvature"])
def test_construction_preconditions_stop_the_build(tmp_path, capsys, monkeypatch,
                                                   args, patch, error, fragment):
    # each construction constraint is an error of build_M1, not a certificate
    if patch is not None:
        patch(monkeypatch)
    code, _ = _run(capsys, ["verify", "--suite", "profiles", *args,
                            "--outputs", str(tmp_path)])
    assert code == 1
    err = json.loads((tmp_path / "report_profiles.json").read_text())["suites"]["profiles"]["error"]
    assert err["type"] == error
    assert fragment in err["message"]


def test_verify_report_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = _run(capsys, ["verify", "--suite", "levi",
                                "--outputs", str(tmp_path / sub)])
        assert code == 0
    assert (tmp_path / "a" / "report_levi.json").read_bytes() == \
        (tmp_path / "b" / "report_levi.json").read_bytes()


# ---------------------------------------------------------------------------
# per-process sample tables
# ---------------------------------------------------------------------------

def _fresh_tables():
    """The parameter-free sample arrays as the sweeps built them on every call."""
    x, t = kronecker(10 ** 4, (GOLD, SILVER)).T
    w = np.exp(2j * np.pi * x)
    th1, th2 = 2 * math.pi * kronecker(1000, (GOLD, SILVER)).T
    return [(openbook._twist_samples, 10 ** 4, (w, t, w * np.exp(-2j * np.pi * t))),
            (openbook._seam_angles, 1000, (np.exp(1j * th1), np.exp(1j * th2)))] + [
        (family._sample_angles, n, (np.exp(2j * np.pi * kronecker(n, (GOLD, SILVER))),))
        for n in (240, 400)]


def _clear_tables():
    for build in {build for build, _, _ in _fresh_tables()}:
        build.cache_clear()


def test_sample_tables_are_read_only_fresh_builds():
    _clear_tables()
    for build, n, fresh in _fresh_tables():
        table = build(n)
        assert build(n) is table   # built once
        arrays = table if isinstance(table, tuple) else (table,)
        assert len(arrays) == len(fresh)
        for a, b in zip(arrays, fresh):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


# the acceptance battery's perturbed set (tests/test_family.py)
_PERTURBED_ARGS = [f"--params.{k}={v!r}" for k, v in {
    "rho0": 0.9, "rho1": 0.92, "rho2": 1.04, "s": 1.12, "c": 0.91,
    "eps": 0.007, "c1": 1.035, "c2": 1.02, "zeta1": 1.032, "zeta2": 1.034}.items()]


@pytest.mark.parametrize("extra", [[], _PERTURBED_ARGS], ids=["default", "perturbed"])
def test_reports_do_not_depend_on_warm_sample_tables(tmp_path, capsys, extra):
    # a cold and a warm call here, then a fresh interpreter's cold call
    _clear_tables()
    argv = ["verify", "--suite", "all", *extra, "--outputs"]
    codes = [_run(capsys, [*argv, str(tmp_path / run)])[0] for run in ("cold", "warm")]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(concavia.__file__))}
    proc = subprocess.run([sys.executable, "-m", "concavia.cli", *argv, str(tmp_path / "fresh")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert codes + [proc.returncode] == [0, 0, 0], proc.stderr
    cold, warm, fresh = ((tmp_path / run / "report_all.json").read_bytes()
                         for run in ("cold", "warm", "fresh"))
    assert cold == warm == fresh


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_binding_header_and_rows(tmp_path, capsys):
    code, _ = _run(capsys, ["export", "--what", "binding",
                            "--outputs", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "binding.csv").read_text().splitlines()
    assert lines[0] == "circle,theta1,re_z1,im_z1,re_z2,im_z2"
    assert len(lines) == 1 + 128
    assert lines[1].startswith("c1,")


def test_export_family_one_csv_per_slice(tmp_path, capsys):
    code, _ = _run(capsys, ["export", "--what", "family",
                            "--knobs.n_tau=8", "--outputs", str(tmp_path)])
    assert code == 0
    files = sorted(tmp_path.glob("family_tau_*.csv"))
    assert len(files) == 8
    header = files[0].read_text().splitlines()[0]
    assert header == "piece,abscissa,r1,r2"


def _family_rows_by_loop(fol, tau):
    """One ``export --what family`` slice, point by point: the reference
    for the array pass."""
    yc, xl, xr = map(float, fol.cap(tau))
    rows = []
    for q2 in np.linspace(-4.0, yc - 1e-9, 200):
        rows.append(("H1", float(q2), float(fol.wall1(tau, math.exp(float(q2)))),
                     math.exp(float(q2))))
    for q2 in np.linspace(-4.0, yc - 1e-9, 200):
        rows.append(("H2", float(q2), float(fol.wall2(tau, float(q2))), math.exp(float(q2))))
    for q1 in np.linspace(xl, xr, 100):
        rows.append(("S", float(q1), math.exp(float(q1)),
                     math.exp(float(fol.dish(tau, float(q1))))))
    return rows


@pytest.mark.parametrize("extra", [[], _PERTURBED_ARGS], ids=["default", "perturbed"])
def test_family_export_matches_the_scalar_loop(tmp_path, capsys, extra):
    code, _ = _run(capsys, ["export", "--what", "family", *extra, "--outputs", str(tmp_path)])
    assert code == 0
    cfg = cli.RunConfig.load(overrides=cli._parse_overrides(extra))
    fam = family.build_family(atlas.validate_params(cfg.params), 16, commands.family_knobs(cfg))
    for i, tau in enumerate(fam.taus):
        want = tmp_path / "want.csv"
        commands._write_csv(str(want), "piece,abscissa,r1,r2", _family_rows_by_loop(fam.fol, tau))
        assert (tmp_path / f"family_tau_{i + 1:02d}.csv").read_bytes() == want.read_bytes()


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return fail


def _levi_field_export(tmp_path, capsys, monkeypatch, extra):
    """``export --what levi_field`` with ``extra`` flags, run with
    ``gamma`` and the finite-difference jet patched to fail: the CSV's
    ``(r1, r2, min_eig)`` columns, and the family, lambda, lambda
    certificate and levels of its rows."""
    with monkeypatch.context() as m:
        m.setattr(family._Foliation, "gamma", _fail("gamma"))
        m.setattr(levi, "jet", _fail("levi.jet"))
        code, _ = _run(capsys, ["export", "--what", "levi_field", *extra,
                                "--outputs", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "levi_field.csv").read_text().splitlines()
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2,min_eig"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert not rows[:, [1, 3]].any()   # the real slice
    cfg = cli.RunConfig.load(overrides=cli._parse_overrides(extra))
    fam = family.build_family(atlas.validate_params(cfg.params), 16, commands.family_knobs(cfg))
    lam, cert = family.find_collar_lambda(fam, 1e4)
    levels, _ = family._lambda_jets(fam, cfg.knobs["density"])
    return fam, lam, cert, levels, rows[:, 0], rows[:, 2], rows[:, 4]


def _row_at(r1, r2, point):
    """The one row at ``point``'s radii."""
    (k,) = np.flatnonzero(np.hypot(r1 - point[0].real, r2 - point[1].real) < 1e-12)
    return k


@pytest.mark.parametrize("density, n", [(1, 62), (2, 191)])
def test_levi_field_export_is_the_certified_levi_form(tmp_path, capsys, monkeypatch, density, n):
    fam, lam, cert, levels, r1, r2, eig = _levi_field_export(
        tmp_path, capsys, monkeypatch, [f"--knobs.density={density}"])
    assert eig.size == n
    # find_lambda certifies Levi(u) >= lam u tol at these points, and its
    # worst point meets the bound up to lambda's rounding pad: 1.33e-4
    # relative (the closed-form 2x2 eigenvalue, which cancels, reads 6e-4)
    u = np.exp(lam * (levels - 1.0))
    bound = lam * u * cert.details["tol"]
    assert np.all(eig >= bound)
    k = _row_at(r1, r2, cert.worst_point)
    assert eig[k] / bound[k] - 1.0 < 2e-4
    # the Cartesian stencil of u agrees within 1e-2 (1.9e-3 at most), except
    # on rows below 1e-3 u, where its rounding, about eps u / h^2 = 2e-6 u at
    # h = 1e-5, is not small against the value: the lambda-setting row alone,
    # 9.6e-8 u, where the stencil reads -1.0e-7 against the exact 1.71e-11
    ref = levi.levi_min_eig_batch(family.normalized_potential(fam, lam), r1 + 0j, r2 + 0j)
    rounding = eig < 1e-3 * u
    assert np.flatnonzero(rounding).tolist() == [k]
    np.testing.assert_allclose(ref[~rounding], eig[~rounding], rtol=1e-2)


def test_levi_field_export_at_density_16_pins_the_uncovered_right_wall(tmp_path, capsys,
                                                                      monkeypatch):
    # the lambda of the 191-point grid leaves four density-16 rows negative,
    # all on the right wall at r1 = 1.0015-1.0018 (F1's uncovered lambda): a
    # fact pinned, not a pass
    fam, lam, cert, _, r1, r2, eig = _levi_field_export(
        tmp_path, capsys, monkeypatch, ["--knobs.density=16"])
    assert eig.size == 9557
    neg = np.flatnonzero(eig < 0)
    assert neg.tolist() == [6112, 6177, 6242, 6243]
    n_wall = family._lattice(fam.fol, 16)[1].size   # rows per wall, axis points aside
    assert np.all((n_wall + 2 <= neg) & (neg < 2 * n_wall + 2))
    assert np.all((1.0015 < r1[neg]) & (r1[neg] < 1.0018))
    # the Cartesian stencil reads the same four, and a fifth at the
    # lambda-setting row, where it reads rounding (-1.0e-7 against 1.71e-11)
    ref = levi.levi_min_eig_batch(family.normalized_potential(fam, lam), r1 + 0j, r2 + 0j)
    k = _row_at(r1, r2, cert.worst_point)
    assert eig[k] > 0 and ref[k] < -5e-8
    assert np.flatnonzero(ref < 0).tolist() == sorted([*neg.tolist(), k])


def test_levi_field_export_on_the_perturbed_set_meets_its_bound(tmp_path, capsys, monkeypatch):
    # _PERTURBED at eps1 = 0.003, where the stencil's roots are rounding-
    # dominated: the worst point's row is lam u tol within 1e-2 (2.3e-3 here,
    # where det H + lam N cancels)
    fam, lam, cert, levels, r1, r2, eig = _levi_field_export(
        tmp_path, capsys, monkeypatch, [*_PERTURBED_ARGS, "--knobs.eps1=0.003"])
    assert eig.size == 62 and np.all(eig > 0)
    k = _row_at(r1, r2, cert.worst_point)
    assert eig[k] == pytest.approx(lam * np.exp(lam * (levels[k] - 1.0)) * cert.details["tol"],
                                   rel=1e-2)


def test_export_m1_respects_seeded_determinism(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = _run(capsys, ["export", "--what", "m1", "--seed=7",
                                "--outputs", str(tmp_path / sub)])
        assert code == 0
    assert (tmp_path / "a" / "m1.csv").read_bytes() == \
        (tmp_path / "b" / "m1.csv").read_bytes()


# ---------------------------------------------------------------------------
# writing outputs
# ---------------------------------------------------------------------------

def _fresh_and_over(tmp_path, capsys, argv, stale):
    """Run ``argv`` into a fresh directory and into one holding ``stale``
    (file name -> bytes).  Return both directories, both runs' stdout and
    each stale file's inode before the run."""
    fresh, over = tmp_path / "fresh", tmp_path / "over"
    over.mkdir()
    for name, blob in stale.items():
        (over / name).write_bytes(blob)
    inodes = {name: os.stat(over / name).st_ino for name in stale}
    outs = []
    for outdir in (fresh, over):
        code, out = _run(capsys, [*argv, "--outputs", str(outdir)])
        assert code == 0
        outs.append(out)
    return fresh, over, outs, inodes


def test_report_over_a_longer_file_is_rewritten_in_place(tmp_path, capsys):
    junk = bytes(range(256)) * 256   # 64 KiB
    fresh, over, outs, inodes = _fresh_and_over(
        tmp_path, capsys, ["verify", "--suite", "levi"], {"report_levi.json": junk})
    report = (over / "report_levi.json").read_bytes()
    assert report == (fresh / "report_levi.json").read_bytes()
    assert report.decode() == outs[0] == outs[1]
    assert os.stat(over / "report_levi.json").st_ino == inodes["report_levi.json"]


def test_default_report_over_a_longer_perturbed_one(tmp_path, capsys):
    fresh, over = tmp_path / "fresh", tmp_path / "over"
    code, _ = _run(capsys, ["verify", "--suite", "all", *_PERTURBED_ARGS, "--outputs", str(over)])
    assert code == 0
    perturbed = (over / "report_all.json").stat()
    for outdir in (over, fresh):
        code, _ = _run(capsys, ["verify", "--suite", "all", "--outputs", str(outdir)])
        assert code == 0
    report = (over / "report_all.json").read_bytes()
    assert report == (fresh / "report_all.json").read_bytes()
    assert len(report) < perturbed.st_size
    assert os.stat(over / "report_all.json").st_ino == perturbed.st_ino


def test_export_over_a_longer_csv(tmp_path, capsys):
    fresh, over, _, inodes = _fresh_and_over(
        tmp_path, capsys, ["export", "--what", "binding"], {"binding.csv": b"stale,row\n" * 4096})
    assert (over / "binding.csv").read_bytes() == (fresh / "binding.csv").read_bytes()
    assert os.stat(over / "binding.csv").st_ino == inodes["binding.csv"]


def test_family_export_over_sixteen_longer_slices(tmp_path, capsys):
    names = [f"family_tau_{i:02d}.csv" for i in range(1, 17)]
    # past a gap in the numbering, and under other names, nothing is a slice
    kept = ["family_tau_18.csv", "family_tau_9.csv", "notes.csv"]
    stale = {name: f"stale slice {name}\n".encode() * 4096 for name in names + kept}
    fresh, over, outs, inodes = _fresh_and_over(
        tmp_path, capsys, ["export", "--what", "family", "--knobs.n_tau=8"], stale)
    assert sorted(p.name for p in fresh.iterdir()) == names[:8]
    for name in names[:8]:
        assert (over / name).read_bytes() == (fresh / name).read_bytes()
        assert os.stat(over / name).st_ino == inodes[name]
    # the stale slices 9-16 of the longer run are removed, and nothing else
    assert sorted(p.name for p in over.iterdir()) == sorted(names[:8] + kept)
    for name in kept:
        assert (over / name).read_bytes() == stale[name]
    assert json.loads(outs[1]) == {"written": [str(over / name) for name in names[:8]]}
    assert outs[0] == outs[1].replace(str(over), str(fresh))


def test_report_keeps_its_mode_and_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "kept" / "levi.json"
    target.parent.mkdir()
    target.write_bytes(b"{" * 70000)
    target.chmod(0o600)
    over = tmp_path / "over"
    over.mkdir()
    (over / "report_levi.json").symlink_to(target)
    code, out = _run(capsys, ["verify", "--suite", "levi", "--outputs", str(over)])
    assert code == 0
    assert (over / "report_levi.json").is_symlink()
    assert target.read_text() == out
    assert target.stat().st_mode & 0o777 == 0o600


def test_outputs_are_opened_without_truncation(tmp_path, capsys, monkeypatch):
    # every output goes through os.open without O_TRUNC, none through open
    opened, os_open = [], os.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), "os.open", flags))
        return os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append((os.fspath(file), "open", mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(commands.os, "open", spy_os_open)
    monkeypatch.setattr(commands, "open", spy_open, raising=False)
    for argv in (["verify", "--suite", "levi"], ["export", "--what", "binding"]):
        code, _ = _run(capsys, [*argv, "--outputs", str(tmp_path)])
        assert code == 0
    outputs = {str(tmp_path / name) for name in ("report_levi.json", "binding.csv")}
    calls = [call for call in opened if call[0] in outputs]
    assert {path for path, _, _ in calls} == outputs
    assert [call for call in calls if call[1] != "os.open" or call[2] & os.O_TRUNC] == []


def test_rewrite_truncates_at_the_file_position(tmp_path, monkeypatch):
    # a text-mode descriptor (Windows) writes "\n" as "\r\n" and returns
    # the count of bytes it was given: none of the written text is cut off
    os_write = os.write

    def text_mode_write(fd, data):
        os_write(fd, bytes(data).replace(b"\n", b"\r\n"))
        return len(data)

    path = tmp_path / "binding.csv"
    path.write_bytes(b"x" * 100)
    with monkeypatch.context() as m:
        m.setattr(commands.os, "write", text_mode_write)
        commands._rewrite(str(path), "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"


def test_write_errors_exit_2(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x")
    code, out = _run(capsys, ["verify", "--suite", "levi", "--outputs", str(not_a_dir)])
    assert (code, out) == (2, _error_out("OSError", f"[Errno 17] File exists: '{not_a_dir}'"))
    report = tmp_path / "out" / "report_levi.json"
    report.mkdir(parents=True)
    code, out = _run(capsys, ["verify", "--suite", "levi", "--outputs", str(report.parent)])
    assert (code, out) == (2, _error_out("OSError", f"[Errno 21] Is a directory: '{report}'"))
    assert list(report.iterdir()) == []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "concavia.cli", "params"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 1.04


_UNLOADED = """
import sys
from concavia import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy"
                or m.startswith(("numpy.random", "numpy.ma.")) or m == "numpy.ma")
print(loaded, file=sys.stderr)
sys.exit(code if not loaded else 99)
"""


def test_cli_loads_neither_scipy_nor_numpy_random(tmp_path):
    # fresh interpreters: this one has imported both
    for argv in (["params"], ["verify", "--suite", "all", "--outputs", str(tmp_path)],
                 ["export", "--what", "m1", "--outputs", str(tmp_path)]):
        proc = subprocess.run([sys.executable, "-c", _UNLOADED, *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stderr.strip() == "[]"


# numpy and every module that imports it; the last stderr line but one lists
# the loaded ones
_NUMERIC = ("numpy", *(f"concavia.{m}" for m in (
    "_numerics", "atlas", "convexjoin", "profiles", "levi", "family", "openbook", "commands")))
# the frozen records' imports; the last stderr line lists those loaded after
# the bare interpreter's start-up, so that a site hook that loads one does
# not count
_RECORDS = ("dataclasses", "inspect", "concavia.certs")
_FRONT_END = f"""
import sys
bare = set(sys.modules)
try:
    import concavia
    if sys.argv[1:]:
        from concavia import cli
        sys.exit(cli.main(sys.argv[1:]))
finally:
    print(sorted(m for m in sys.modules if m in {_NUMERIC!r}), file=sys.stderr)
    print(sorted(m for m in set(sys.modules) - bare if m in {_RECORDS!r}), file=sys.stderr)
"""

_PARAMS_OUT = """{
  "a": 1.04,
  "b": 1.1335955056179776,
  "c": 0.89,
  "c1": 1.04,
  "c2": 1.02,
  "eps": 0.01,
  "rho0": 0.88,
  "rho1": 0.9,
  "rho2": 1.05,
  "s": 1.15,
  "validated": true,
  "zeta1": 1.036,
  "zeta2": 1.039
}
"""


def _error_out(kind, message):
    return json.dumps({"error": kind, "message": message}, indent=2) + "\n"


@pytest.mark.parametrize("argv, code, out", [
    ([], 0, ""),
    (["params"], 0, _PARAMS_OUT),
    (["--help"], 0, "{params,verify,export}"),
    (["verify", "--help"], 0, "--suite {atlas,openbook,profiles,levi,family,all}"),
    (["export", "--help"], 0, "--what {binding,corners,family,levi_field,m1,pages}"),
    (["bogus"], 2, ""),
    (["verify", "--knobs.n_tau=3"], 2,
     _error_out("ConfigError", "knob n_tau must be >= 8, got 3")),
    (["export", "--what", "m1", "--seeed=5"], 2,
     _error_out("ConfigError", "unknown config fields: ['seeed']")),
    (["verify", "--suite", "family", "--params.rho0=0.95"], 2,
     _error_out("ChainViolation", "parameter chain violated: rho0 < rho1")),
], ids=["import", "params", "help", "verify-help", "export-help", "usage-error",
        "bad-knob", "unknown-field", "chain-violation"])
def test_front_end_imports_no_numeric_module(tmp_path, argv, code, out):
    # a fresh interpreter, on this one's concavia: this one has imported them all
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(concavia.__file__))}
    proc = subprocess.run([sys.executable, "-c", _FRONT_END, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-2:] == ["[]", "[]"]
    if argv and argv[-1] == "--help":
        assert out in proc.stdout
    else:
        assert proc.stdout == out
    assert list(tmp_path.iterdir()) == []


def test_run_defaults_have_one_source():
    # n_samples sizes export m1 and density export levi_field; run_verification
    # takes the other two
    kw = {p.name: p.default for p in inspect.signature(family.run_verification).parameters.values()
          if p.kind is p.KEYWORD_ONLY}
    assert {**kw, "n_samples": 240, "density": 1} == RUN_DEFAULTS
    # Knobs' field defaults, then RUN_DEFAULTS: the knob map of a config with
    # no knobs, its order and types included
    assert json.dumps(cli.RunConfig.load().knobs) == json.dumps({
        "eps1": 0.004, "eps2": 0.005, "x_switch": -0.3, "x_lo": -8.0, "knots": 16,
        "depth_frac": 0.3, "branch_margin": 0.001,
        "n_tau": 16, "n_samples": 240, "lambda_max": 10000.0, "density": 1})


def test_knob_defaults_have_one_source():
    assert [(f.name, f.default) for f in dataclasses.fields(family.Knobs)] == \
        list(KNOB_DEFAULTS.items())
    assert family.default_knobs() == family.Knobs(**KNOB_DEFAULTS)


def test_frozen_records_replace_as_before():
    par = default_params()
    moved = dataclasses.replace(par, eps=0.02)
    assert (moved.eps, moved.a, type(moved)) == (0.02, par.a, atlas.Params)
    knobs = dataclasses.replace(family.default_knobs(), eps2=0.006)
    assert knobs == family.Knobs(**{**KNOB_DEFAULTS, "eps2": 0.006})
    model = family.build_M1(par)
    assert dataclasses.replace(model, depth=1.0).f1 is model.f1
    # the front end's record is plain data
    assert not dataclasses.is_dataclass(cli.RunConfig)


def test_certificate_resolves_on_first_use():
    from concavia import Certificate
    assert Certificate is certs.Certificate
    assert concavia.Certificate is certs.Certificate
    with pytest.raises(AttributeError, match="no attribute 'Certificat'"):
        concavia.Certificat


def test_front_end_choices_are_the_command_tables():
    assert cli.SUITES == tuple(commands._SUITES)
    assert cli.EXPORTS == tuple(commands._EXPORTS)


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------

def test_every_name_in_all_exists():
    names = ["concavia"] + [f"concavia.{m.name}" for m in pkgutil.iter_modules(concavia.__path__)]
    missing = []
    for name in names:
        mod = importlib.import_module(name)
        missing += [f"{name}.{x}" for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
    assert missing == []


def test_public_names_are_pinned():
    assert concavia.__all__ == [
        "Certificate", "BranchError", "ChainViolation", "ConcaviaError", "ConfigError",
        "CorridorViolation", "DomainError", "Exhausted", "FeasibilityError",
        "FoliationError", "Infeasible", "NotContact", "NotRegular", "VerificationError",
        "__version__"]
    assert levi.__all__ == [
        "ScalarField", "jet", "levi_min_eig", "levi_min_eig_batch", "is_strictly_psh",
        "hartogs_boundary_test", "LogJet", "log_lambda"]


def _identifiers(tree) -> set:
    """Every name, attribute and imported name in an AST."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


# public names that no command and no bench workload reaches, each kept for a reason
_UNREACHED_ALLOWED = {
    # the reference for same_point's psi route
    "map_psi",
    # diagnostics of the open book that are to become certificates
    "q_jacobian_det", "twist_winding", "phi_prime_cr_residual",
    # the error of a critical level function, which the finite-difference
    # lambda oracle raises; the collar's exact jets are regular by construction
    "NotRegular",
}


def test_every_module_holds_only_what_the_commands_and_the_bench_reach():
    # every top-level name of every module is named in the CLI, the commands
    # or the bench harness, or in the definition of a name that is; the
    # _UNREACHED_ALLOWED names and what only they reach are excepted, and so
    # is the module hook concavia.__getattr__
    modules = [concavia] + [importlib.import_module(f"concavia.{m.name}")
                            for m in pkgutil.iter_modules(concavia.__path__)]
    defs = {}
    for mod in modules:
        for node in ast.parse(Path(mod.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in set(names) - {"__all__"}:
                defs.setdefault(name, []).append(node)

    def closure(names):
        reached = names & defs.keys()
        todo = sorted(reached)
        while todo:
            new = set().union(*map(_identifiers, defs[todo.pop()])) & defs.keys() - reached
            reached |= new
            todo += sorted(new)
        return reached

    callers = [cli.__file__, commands.__file__,
               Path(__file__).resolve().parent.parent / "bench" / "run.py"]
    reached = closure(set().union(*(_identifiers(ast.parse(Path(f).read_text()))
                                    for f in callers)))
    allowed = closure(_UNREACHED_ALLOWED)
    assert sorted(defs.keys() - reached - allowed - {"__getattr__"}) == []
    # an allowed name that the commands come to reach leaves the list,
    # and so does one that the package no longer defines
    assert sorted(_UNREACHED_ALLOWED & reached) == []
    assert sorted(_UNREACHED_ALLOWED - defs.keys()) == []
