"""The computing commands: certificate suites, ``verify`` and ``export``.

:func:`concavia.cli.main` imports this module only once the config has
loaded and the parameter chain holds, so ``concavia params`` and every
rejected config run without numpy or the model modules.  ``verify`` and
``export`` load them here, and turn the config's plain data into the frozen
records the model takes: :func:`concavia.atlas.validate_params` makes the
``Params`` and :func:`family_knobs` the ``Knobs``.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from . import atlas, family
from ._numerics import GOLD
from .atlas import map_Phi, phi, same_point
from .certs import Certificate
from .config import KNOB_DEFAULTS
from .errors import ConcaviaError
from .levi import (ScalarField, exp_jet, hartogs_boundary_test, is_strictly_psh, levi_min_eig,
                   polar_jet, polar_lift)
from .openbook import TwistSpec, conjugation_check, corner_tori, welldef_check
from .profiles import second_derivative_identity_check

if TYPE_CHECKING:
    from .cli import RunConfig


def family_knobs(cfg: RunConfig) -> family.Knobs:
    """The construction knobs of the config's knob map."""
    return family.Knobs(**{name: cfg.knobs[name] for name in KNOB_DEFAULTS})


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_atlas(par) -> dict[str, Certificate]:
    """The atlas certificates.  The page inequalities ``rho1*b < a`` and
    ``b < a/rho1`` are preconditions, which :func:`validate_params` enforces."""
    certs = {}
    w = np.outer(np.linspace(0.2, 0.95, 12),
                 np.exp(1j * np.linspace(-math.pi, math.pi, 11)[:-1])).ravel()
    base = phi(w, 0)
    errs = []
    for k in (-3, -2, -1, 1, 2, 3):
        val = phi(w, k)
        errs.append(abs(val - w ** k * base) / abs(val))
    _, worst = Certificate.sup_error(errs)
    certs["phi_branch_law"] = Certificate(
        name="phi_branch_law", grid=f"{w.size} points x |k|<=3",
        margin=1e-9 - worst, passed=worst < 1e-9,
        details={"max_rel_err": worst})

    # an 8 x 8 grid of radii (r1 outer, r2 inner) at golden-ratio angles, 1e-3
    # inside each radial interval, or a quarter of it where it is narrower
    def inside(lo, hi):
        d = min(1e-3, (hi - lo) / 4)
        return np.linspace(lo + d, hi - d, 8)
    r1, r2 = np.meshgrid(inside(1.0, par.s), inside(1 / par.rho1, 1 / par.rho0), indexing="ij")
    j = np.arange(r1.size)
    z1 = r1.ravel() * np.exp(1j * (2 * math.pi * ((j * GOLD) % 1.0)))
    z2 = r2.ravel() * np.exp(1j * (2 * math.pi * ((j * GOLD * GOLD) % 1.0)))
    ref = map_Phi(par, z1, z2, 0)
    branches = (-2, -1, 1, 2)
    n = len(branches) * z1.size
    bad = sum(int(np.count_nonzero(~same_point(par, ref, map_Phi(par, z1, z2, k))))
              for k in branches)
    certs["Phi_branch_independence"] = Certificate(
        name="Phi_branch_independence", grid=f"{n} transitions",
        margin=1.0 if bad == 0 else -float(bad), passed=bad == 0,
        details={"disagreements": bad})
    return certs


def _suite_openbook(par) -> dict[str, Certificate]:
    spec = TwistSpec.from_params(par)
    return {
        "conjugation": conjugation_check(spec),
        "welldef": welldef_check(par),
    }


def _suite_profiles(model: family.SphereModel) -> dict[str, Certificate]:
    """The second-derivative identity of each of the model's three profiles.
    The model's own certificates are reported once, in the family suite; a
    model that fails one reaches this suite as the build's
    :class:`VerificationError`."""
    return {name: second_derivative_identity_check(prof, prof.grid(200))
            for name, prof in (("identity_f1", model.f1), ("identity_f2", model.f2),
                               ("identity_seam", model.h))}


def _shell_points(n: int) -> list[tuple[complex, complex]]:
    j = np.arange(n)
    r1, r2 = 0.7 + 0.5 * ((j * GOLD) % 1.0), 0.7 + 0.5 * ((j * GOLD * GOLD) % 1.0)
    th1, th2 = (2 * math.pi * ((j * c) % 1.0) for c in (0.414213562373095, 0.317837245195782))
    return list(zip((r1 * np.exp(1j * th1)).tolist(), (r2 * np.exp(1j * th2)).tolist()))


def _suite_levi(par) -> dict[str, Certificate]:
    sq = ScalarField(lambda z1, z2: abs(z1) ** 2 + abs(z2) ** 2, name="sq_norm")
    planar = [0.9 * ((k + 1) / 26) * cmath.exp(2j * math.pi * k * GOLD)
              for k in range(25)]
    return {"psh_reference": is_strictly_psh(sq, _shell_points(48)),
            "hartogs_reference": hartogs_boundary_test(lambda z: abs(z) ** 2, planar)}


def _suite_family(cfg: RunConfig, par, model) -> tuple[bool, dict]:
    kn = cfg.knobs
    return family.run_verification(par, family_knobs(cfg), model, n_tau=kn["n_tau"],
                                   lambda_max=kn["lambda_max"])


# suite -> the function of its section: the certificates of the params, or of
# the model for the _MODEL_SUITES; the family suite makes its whole section
_SUITES = {"atlas": _suite_atlas, "openbook": _suite_openbook,
           "profiles": _suite_profiles, "levi": _suite_levi, "family": _suite_family}
# the suites that read the sphere model
_MODEL_SUITES = {"profiles", "family"}


def _error(err: ConcaviaError) -> dict:
    return {"error": {"type": type(err).__name__, "message": str(err)}}


def _run_suite(name: str, cfg: RunConfig, par, model) -> tuple[bool, dict]:
    """One suite's verdict and report section.  ``model`` is the run's
    sphere model, or the error its build raised, for the suites in
    ``_MODEL_SUITES``."""
    if name in _MODEL_SUITES and isinstance(model, ConcaviaError):
        return False, _error(model)
    try:
        if name == "family":
            return _suite_family(cfg, par, model)
        certs = _SUITES[name](model if name in _MODEL_SUITES else par)
        ok = all(c.passed for c in certs.values())
        return ok, {"certificates": {k: c.to_dict() for k, c in sorted(certs.items())}}
    except ConcaviaError as err:
        return False, _error(err)


# ---------------------------------------------------------------------------
# Writing outputs
# ---------------------------------------------------------------------------

def _rewrite(path: str, text: str) -> None:
    """Make ``text`` the whole content of the file at ``path``, rewriting it
    in place: written over the old bytes from the start, then truncated to
    the file position.  As with a truncating open, the file keeps its inode
    and mode, a symlink is followed, a new file is created ``0o666`` less the
    umask, and a text-mode descriptor (Windows) writes each newline as
    CRLF.

    The file is never truncated to zero: that frees the old content's disk
    blocks through the journal, and on close ext4 (with the default
    ``auto_da_alloc``), XFS and btrfs start writeback of the new content.

    This gives up that close-time flush, on purpose.  After a power loss
    the file can hold the new length with a mix of old and new pages; a
    report of the same length can be the complete earlier one.  Nothing
    here calls ``fsync``, so neither way is durable; a report is a pure
    function of config and seed, and rerunning rewrites it.  A process
    killed between the write and the truncation leaves the new text
    followed by the old tail, where a truncating open left a partial file.
    """
    raw = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(raw):
            written += os.write(fd, raw[written:])
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, suite: str) -> int:
    """Run ``suite`` (or every suite for ``"all"``) on the config's
    parameters, write the report and return the exit code."""
    par = atlas.validate_params(cfg.params)
    names = list(_SUITES) if suite == "all" else [suite]
    # one model for every suite that reads it
    model = None
    if _MODEL_SUITES & set(names):
        try:
            model = family.build_M1(par, family_knobs(cfg))
        except ConcaviaError as err:
            model = err
    results = {n: _run_suite(n, cfg, par, model) for n in names}
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
    _rewrite(os.path.join(cfg.outputs, f"report_{suite}.json"), text + "\n")
    print(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and one line per row (floats as ``repr``) to ``path``
    with :func:`_rewrite`."""
    lines = [header]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    _rewrite(path, "\n".join(lines) + "\n")


def _phase(cfg: RunConfig) -> float:
    return 2 * math.pi * ((cfg.seed * GOLD) % 1.0)


def _export_m1(cfg: RunConfig, par, outdir: str) -> list[str]:
    model = family.build_M1(par, family_knobs(cfg))
    samples = family.sample_M1(model, cfg.knobs["n_samples"])
    rows = [(tag, pt.chart.name, pt.z1.real, pt.z1.imag, pt.z2.real, pt.z2.imag)
            for pt, tag in samples]
    path = os.path.join(outdir, "m1.csv")
    _write_csv(path, "piece,chart,re_z1,im_z1,re_z2,im_z2", rows)
    return [path]


def _export_pages(cfg: RunConfig, par, outdir: str) -> list[str]:
    model = family.build_M1(par, family_knobs(cfg))
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
    fam = family.build_family(par, kn["n_tau"], family_knobs(cfg))
    fol = fam.fol
    paths = []
    for i, tau in enumerate(fam.taus):
        yc, xl, xr = map(float, fol.cap(tau))
        # one array pass per piece; the radii keep math.exp's bits
        q2 = np.linspace(-4.0, yc - 1e-9, 200)
        r2 = family._libm(math.exp, q2)
        q1 = np.linspace(xl, xr, 100)
        pieces = {"H1": (q2, fol.wall1(tau, r2), r2), "H2": (q2, fol.wall2(tau, q2), r2),
                  "S": (q1, family._libm(math.exp, q1), family._libm(math.exp, fol.dish(tau, q1)))}
        rows = [(tag, *row) for tag, cols in pieces.items()
                for row in zip(*(c.tolist() for c in cols))]
        path = os.path.join(outdir, f"family_tau_{i + 1:02d}.csv")
        _write_csv(path, "piece,abscissa,r1,r2", rows)
        paths.append(path)
    # the slices of an earlier run with more of them
    k = len(paths) + 1
    while os.path.isfile(stale := os.path.join(outdir, f"family_tau_{k:02d}.csv")):
        os.remove(stale)
        k += 1
    return paths


def _export_levi_field(cfg: RunConfig, par, outdir: str) -> list[str]:
    kn = cfg.knobs
    fam = family.build_family(par, kn["n_tau"], family_knobs(cfg))
    lam, _ = family.find_collar_lambda(fam, kn["lambda_max"])
    pts = family.verification_grid(fam, kn["density"])   # on the real slice
    r1, r2 = (np.array([p[i].real for p in pts]) for i in (0, 1))
    # Levi form of u = exp(lam (gamma - 1)), composed from gamma's radial jet
    eigs = levi_min_eig(exp_jet(polar_lift(polar_jet(fam.fol.gamma, r1, r2)[0], r1, r2),
                                lam, 1.0)[2])
    rows = [(a, 0.0, b, 0.0, e) for a, b, e in zip(r1.tolist(), r2.tolist(), eigs.tolist())]
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
    """Write the ``what`` point clouds of the config's parameters."""
    par = atlas.validate_params(cfg.params)
    os.makedirs(cfg.outputs, exist_ok=True)
    paths = _EXPORTS[what](cfg, par, cfg.outputs)
    print(json.dumps({"written": paths}, indent=2))
    return 0
