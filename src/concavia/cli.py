"""Command-line entry point: config ingestion, suite orchestration, exports.

Subcommands::

    concavia params  --config cfg.json            validate the parameter chain
    concavia verify  --config cfg.json --suite S  run certificate suites
    concavia export  --config cfg.json --what W   write CSV point clouds

Configuration is a single JSON file selected with ``--config PATH``; every
field can be overridden on the command line with dotted keys, for example
``--knobs.eps2=0.006`` or ``--outputs report_dir``.  Exit codes: 0 all
checks pass, 1 verification failure, 2 config/parse failure.  Reports are
pretty-printed JSON written under the outputs directory; repeated runs with
the same config and seed produce byte-identical files.

CSV headers (fixed):

    m1          piece,chart,re_z1,im_z1,re_z2,im_z2
    pages       page,piece,re_z1,im_z1,re_z2,im_z2
    binding     circle,theta1,re_z1,im_z1,re_z2,im_z2
    corners     name,chart,re_z1,im_z1,re_z2,im_z2
    family      piece,abscissa,r1,r2        (one file per tau-slice)
    levi_field  re_z1,im_z1,re_z2,im_z2,min_eig
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import family
from .atlas import (
    default_params,
    map_Phi,
    phi,
    same_point,
    validate_params,
)
from .certs import Certificate
from .errors import (
    ChainViolation,
    ConcaviaError,
    ConfigError,
)
from .levi import (
    ScalarField,
    exp_jet,
    find_lambda,
    hartogs_boundary_test,
    is_strictly_psh,
    jet,
    levi_min_eig,
    quadratic_identity_check,
)
from .openbook import TwistSpec, check_disjointness, conjugation_check, corner_tori, welldef_check
from .profiles import second_derivative_identity_check

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0

_KNOB_DEFAULTS: dict = {
    **{f.name: f.default for f in dataclasses.fields(family.Knobs)},
    "n_tau": 16,
    "n_samples": 240,
    "density": 1,
    "lambda_max": 1e4,
}

SUITES = ("atlas", "openbook", "profiles", "levi", "family")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: raw params, knob map, outputs, seed."""

    params: dict
    knobs: dict
    outputs: str = "out"
    seed: int = 0

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "RunConfig":
        base: dict = {
            "params": default_params().raw_dict(),
            "knobs": dict(_KNOB_DEFAULTS),
            "outputs": "out",
            "seed": 0,
        }
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except OSError as err:
                raise ConfigError(f"cannot read config {path!r}: {err}") from err
            except json.JSONDecodeError as err:
                raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
            if not isinstance(loaded, dict):
                raise ConfigError(f"config {path!r} must hold a JSON object")
            for key, val in loaded.items():
                if key in ("params", "knobs"):
                    if not isinstance(val, dict):
                        raise ConfigError(f"config field {key!r} must be an object")
                    # a params block replaces the defaults (so a missing field
                    # is a config error); knob blocks are partial overrides
                    if key == "params":
                        base[key] = dict(val)
                    else:
                        base[key].update(val)
                elif key in ("outputs", "seed"):
                    base[key] = val
                else:
                    raise ConfigError(f"unknown config field {key!r}")
        for key, val in (overrides or {}).items():
            _apply_dotted(base, key, val)
        cfg = cls(params=base["params"], knobs=base["knobs"],
                  outputs=str(base["outputs"]), seed=int(base["seed"]))
        cfg._check_knobs()
        return cfg

    def _check_knobs(self) -> None:
        kn = self.knobs
        unknown = set(kn) - set(_KNOB_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown knobs: {sorted(unknown)}")
        for key in ("eps1", "eps2", "branch_margin", "depth_frac", "lambda_max"):
            if not kn[key] > 0:
                raise ConfigError(f"knob {key} must be positive, got {kn[key]}")
        if kn["n_tau"] < 8:
            raise ConfigError(f"knob n_tau must be >= 8, got {kn['n_tau']}")
        if kn["n_samples"] < 100:
            raise ConfigError(f"knob n_samples must be >= 100, got {kn['n_samples']}")
        if kn["density"] < 1:
            raise ConfigError(f"knob density must be >= 1, got {kn['density']}")

    def family_knobs(self) -> family.Knobs:
        fields = (f.name for f in dataclasses.fields(family.Knobs))
        return family.Knobs(**{name: self.knobs[name] for name in fields})


def _apply_dotted(cfg: dict, key: str, value) -> None:
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override key {key!r} crosses a non-object field")
    node[parts[-1]] = value


def _parse_overrides(tokens: list[str]) -> dict:
    out: dict = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unrecognized argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, raw = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigError(f"missing value for --{key}")
            raw = tokens[i + 1]
            i += 2
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_atlas(cfg: RunConfig, par) -> dict[str, Certificate]:
    certs = {}
    m1, m2 = par.a - par.rho1 * par.b, par.a / par.rho1 - par.b
    certs["params_chain"] = Certificate(
        name="params_chain", grid="2 inequalities",
        margin=min(m1, m2), passed=min(m1, m2) > 0,
        details={"rho1_b": par.rho1 * par.b, "a": par.a,
                 "a_over_rho1": par.a / par.rho1, "b": par.b})

    worst = 0.0
    npts = 0
    for r in np.linspace(0.2, 0.95, 12):
        for th in np.linspace(-math.pi, math.pi, 11)[:-1]:
            w = float(r) * cmath.exp(1j * float(th))
            base = phi(w, 0)
            npts += 1
            for k in (-3, -2, -1, 1, 2, 3):
                val = phi(w, k)
                worst = max(worst, abs(val - w ** k * base) / abs(val))
    certs["phi_branch_law"] = Certificate(
        name="phi_branch_law", grid=f"{npts} points x |k|<=3",
        margin=1e-9 - worst, passed=worst < 1e-9,
        details={"max_rel_err": worst})

    bad = 0
    n = 0
    j = 0
    for r1 in np.linspace(1.001, par.s - 1e-3, 8):
        for r2 in np.linspace(1 / par.rho1 + 1e-3, 1 / par.rho0 - 1e-3, 8):
            th1 = 2 * math.pi * ((j * _GOLD) % 1.0)
            th2 = 2 * math.pi * ((j * _GOLD * _GOLD) % 1.0)
            j += 1
            z1 = float(r1) * cmath.exp(1j * th1)
            z2 = float(r2) * cmath.exp(1j * th2)
            ref = map_Phi(par, z1, z2, 0)
            for k in (-2, -1, 1, 2):
                n += 1
                if not same_point(par, ref, map_Phi(par, z1, z2, k)):
                    bad += 1
    certs["Phi_branch_independence"] = Certificate(
        name="Phi_branch_independence", grid=f"{n} transitions",
        margin=1.0 if bad == 0 else -float(bad), passed=bad == 0,
        details={"disagreements": bad})
    return certs


def _suite_openbook(cfg: RunConfig, par) -> dict[str, Certificate]:
    spec = TwistSpec.from_params(par)
    return {
        "disjointness": check_disjointness(par),
        "conjugation": conjugation_check(spec),
        "welldef": welldef_check(par),
    }


def _suite_profiles(cfg: RunConfig, par) -> dict[str, Certificate]:
    model = family.build_M1(par, cfg.family_knobs())
    certs = {k: model.certificates[k]
             for k in ("wall1_shape", "wall2_shape", "seam_C1", "seam_contact")}
    for name, prof in (("identity_f1", model.f1), ("identity_f2", model.f2),
                       ("identity_seam", model.h)):
        certs[name] = second_derivative_identity_check(prof, prof.grid(200))
    return certs


def _shell_points(n: int) -> list[tuple[complex, complex]]:
    pts = []
    for j in range(n):
        r1 = 0.7 + 0.5 * ((j * _GOLD) % 1.0)
        r2 = 0.7 + 0.5 * ((j * _GOLD * _GOLD) % 1.0)
        th1 = 2 * math.pi * ((j * 0.414213562373095) % 1.0)
        th2 = 2 * math.pi * ((j * 0.317837245195782) % 1.0)
        pts.append((r1 * cmath.exp(1j * th1), r2 * cmath.exp(1j * th2)))
    return pts


def _suite_levi(cfg: RunConfig, par) -> dict[str, Certificate]:
    sq = ScalarField(lambda z1, z2: abs(z1) ** 2 + abs(z2) ** 2, name="sq_norm")
    pts = _shell_points(48)
    certs = {
        "psh_reference": is_strictly_psh(sq, pts),
        "quadratic_identity": quadratic_identity_check(sq, pts),
    }
    planar = [0.9 * ((k + 1) / 26) * cmath.exp(2j * math.pi * k * _GOLD)
              for k in range(25)]
    certs["hartogs_reference"] = hartogs_boundary_test(lambda z: abs(z) ** 2, planar)
    return certs


def _run_suite(name: str, cfg: RunConfig, par) -> tuple[bool, dict]:
    try:
        if name == "family":
            kn = cfg.knobs
            ok, rep = family.run_verification(
                par, cfg.family_knobs(), n_tau=kn["n_tau"],
                n_samples=kn["n_samples"], lambda_max=kn["lambda_max"])
            return ok, rep
        fn = {"atlas": _suite_atlas, "openbook": _suite_openbook,
              "profiles": _suite_profiles, "levi": _suite_levi}[name]
        certs = fn(cfg, par)
        ok = all(c.passed for c in certs.values())
        return ok, {"certificates": {k: c.to_dict() for k, c in sorted(certs.items())}}
    except ConcaviaError as err:
        return False, {"error": {"type": type(err).__name__, "message": str(err)}}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_params(cfg: RunConfig) -> int:
    try:
        par = validate_params(cfg.params)
    except ChainViolation as err:
        print(json.dumps({"error": "ChainViolation", "message": str(err)},
                         indent=2, sort_keys=True))
        return 2
    print(par.to_json(indent=2))
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    try:
        par = validate_params(cfg.params)
    except ChainViolation as err:
        print(json.dumps({"error": "ChainViolation", "message": str(err)},
                         indent=2, sort_keys=True))
        return 2
    names = list(SUITES) if suite == "all" else [suite]
    results = {n: _run_suite(n, cfg, par) for n in names}
    ok = all(r[0] for r in results.values())
    report = {
        "suite": suite,
        "seed": cfg.seed,
        "params": par.to_dict(),
        "knobs": dict(sorted(cfg.knobs.items())),
        "passed": ok,
        "suites": {n: results[n][1] for n in names},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    os.makedirs(cfg.outputs, exist_ok=True)
    path = os.path.join(cfg.outputs, f"report_{suite}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _phase(cfg: RunConfig) -> float:
    return 2 * math.pi * ((cfg.seed * _GOLD) % 1.0)


def _export_m1(cfg: RunConfig, par, outdir: str) -> list[str]:
    model = family.build_M1(par, cfg.family_knobs())
    samples = family.sample_M1(model, cfg.knobs["n_samples"])
    rows = [(tag, pt.chart.name, pt.z1.real, pt.z1.imag, pt.z2.real, pt.z2.imag)
            for pt, tag in samples]
    path = os.path.join(outdir, "m1.csv")
    _write_csv(path, "piece,chart,re_z1,im_z1,re_z2,im_z2", rows)
    return [path]


def _export_pages(cfg: RunConfig, par, outdir: str) -> list[str]:
    model = family.build_M1(par, cfg.family_knobs())
    ph = _phase(cfg)
    rows = []
    for page in range(8):
        th2 = 2 * math.pi * page / 8 + ph
        for tag, prof in (("H1", model.f1), ("H2", model.f2)):
            for x in np.linspace(prof.x_lo, prof.x_hi, 40):
                r2 = math.exp(float(x))
                r1 = math.exp(float(prof.L(float(x))))
                for j in range(8):
                    th1 = 2 * math.pi * j / 8
                    z1 = r1 * cmath.exp(1j * th1)
                    z2 = r2 * cmath.exp(1j * th2)
                    rows.append((page, tag, z1.real, z1.imag, z2.real, z2.imag))
        x1, x2 = model.window
        for x in np.linspace(x1, x2, 40):
            r1 = math.exp(float(x))
            r2 = math.exp(-float(model.htilde.f(float(x))))
            for j in range(8):
                th1 = 2 * math.pi * j / 8
                z1 = r1 * cmath.exp(1j * th1)
                z2 = r2 * cmath.exp(1j * th2)
                rows.append((page, "S", z1.real, z1.imag, z2.real, z2.imag))
    path = os.path.join(outdir, "pages.csv")
    _write_csv(path, "page,piece,re_z1,im_z1,re_z2,im_z2", rows)
    return [path]


def _export_binding(cfg: RunConfig, par, outdir: str) -> list[str]:
    ph = _phase(cfg)
    rows = []
    for name, r in (("c1", par.c1), ("c2", par.c2)):
        for j in range(64):
            th = 2 * math.pi * j / 64 + ph
            z1 = r * cmath.exp(1j * th)
            rows.append((name, th, z1.real, z1.imag, 0.0, 0.0))
    path = os.path.join(outdir, "binding.csv")
    _write_csv(path, "circle,theta1,re_z1,im_z1,re_z2,im_z2", rows)
    return [path]


def _export_corners(cfg: RunConfig, par, outdir: str) -> list[str]:
    rows = []
    for name, pts in sorted(corner_tori(par, n=16).items()):
        for pt in pts:
            rows.append((name, pt.chart.name, pt.z1.real, pt.z1.imag,
                         pt.z2.real, pt.z2.imag))
    path = os.path.join(outdir, "corners.csv")
    _write_csv(path, "name,chart,re_z1,im_z1,re_z2,im_z2", rows)
    return [path]


def _export_family(cfg: RunConfig, par, outdir: str) -> list[str]:
    kn = cfg.knobs
    fam = family.build_family(par, kn["n_tau"], cfg.family_knobs())
    fol = fam.fol
    paths = []
    for i, tau in enumerate(fam.taus):
        yc = float(fol.y_cut(tau))
        rows = []
        for q2 in np.linspace(-4.0, yc - 1e-9, 200):
            rows.append(("H1", float(q2), float(fol.wall1(tau, math.exp(float(q2)))),
                         math.exp(float(q2))))
        for q2 in np.linspace(-4.0, yc - 1e-9, 200):
            rows.append(("H2", float(q2), float(fol.wall2(tau, float(q2))),
                         math.exp(float(q2))))
        xl, xr = float(fol.Xl(tau)), float(fol.Xr(tau))
        for q1 in np.linspace(xl, xr, 100):
            rows.append(("S", float(q1), math.exp(float(q1)),
                         math.exp(float(fol.dish(tau, float(q1))))))
        path = os.path.join(outdir, f"family_tau_{i + 1:02d}.csv")
        _write_csv(path, "piece,abscissa,r1,r2", rows)
        paths.append(path)
    return paths


def _export_levi_field(cfg: RunConfig, par, outdir: str) -> list[str]:
    kn = cfg.knobs
    fam = family.build_family(par, kn["n_tau"], cfg.family_knobs())
    lam, _ = find_lambda(family.gamma_field(fam),
                         family.verification_grid(fam, 1) + family.verification_grid(fam, 2),
                         lambda_max=kn["lambda_max"])
    pts = family.verification_grid(fam, kn["density"])
    z1 = np.array([p[0] for p in pts])
    z2 = np.array([p[1] for p in pts])
    # Levi form of u = exp(lam (gamma - 1)), composed from a jet of gamma
    eigs = levi_min_eig(exp_jet(jet(fam.fol.gamma, z1, z2), lam, 1.0)[2])
    rows = [(float(a.real), float(a.imag), float(b.real), float(b.imag), float(e))
            for a, b, e in zip(z1, z2, eigs)]
    path = os.path.join(outdir, "levi_field.csv")
    _write_csv(path, "re_z1,im_z1,re_z2,im_z2,min_eig", rows)
    return [path]


_EXPORTS = {
    "m1": _export_m1,
    "pages": _export_pages,
    "binding": _export_binding,
    "corners": _export_corners,
    "family": _export_family,
    "levi_field": _export_levi_field,
}


def cmd_export(cfg: RunConfig, what: str) -> int:
    try:
        par = validate_params(cfg.params)
    except ChainViolation as err:
        print(json.dumps({"error": "ChainViolation", "message": str(err)},
                         indent=2, sort_keys=True))
        return 2
    os.makedirs(cfg.outputs, exist_ok=True)
    paths = _EXPORTS[what](cfg, par, cfg.outputs)
    print(json.dumps({"written": paths}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="concavia",
        description="Certificate-based verification of the sphere family model.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_params = sub.add_parser("params", help="validate the parameter chain")
    p_verify = sub.add_parser("verify", help="run certificate suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_export = sub.add_parser("export", help="write CSV point clouds")
    p_export.add_argument("--what", choices=sorted(_EXPORTS), required=True)
    for p in (p_params, p_verify, p_export):
        p.add_argument("--config", default=None, help="JSON config path")

    args, unknown = parser.parse_known_args(argv)
    try:
        cfg = RunConfig.load(args.config, _parse_overrides(unknown))
        if args.command == "params":
            return cmd_params(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        return cmd_export(cfg, args.what)
    except ConfigError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)},
                         indent=2, sort_keys=True))
        return 2
    except OSError as err:
        print(json.dumps({"error": "OSError", "message": str(err)},
                         indent=2, sort_keys=True))
        return 2
    except ConcaviaError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)},
                         indent=2, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
