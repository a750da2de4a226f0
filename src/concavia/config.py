"""Model parameter values, construction knob defaults and run defaults, as plain data.

The CLI front end loads a config and checks the parameter chain with this
module alone, so ``concavia params`` and every rejected config exit before
numpy, :mod:`dataclasses` or any model module is imported.  The frozen
records are built where they are used: :func:`concavia.atlas.validate_params`
makes a ``Params`` of :func:`check_chain`'s values, and
:class:`concavia.family.Knobs` takes its field defaults from
:data:`KNOB_DEFAULTS`.
"""

from __future__ import annotations

import math

from .errors import ChainViolation, ConfigError

__all__ = ["DEFAULT_PARAM_VALUES", "KNOB_DEFAULTS", "RUN_DEFAULTS", "check_chain"]

_RAW_FIELDS = ("rho0", "rho1", "rho2", "s", "c", "eps", "c1", "c2", "zeta1", "zeta2")

#: Shipped defaults.  The removed band (zeta1, zeta2) sits strictly between
#: the inner sphere radii (~c2) and the outer sphere radii (>= c1) so that
#: membership sweeps of hypersurface samples in the complement are meaningful.
DEFAULT_PARAM_VALUES: dict[str, float] = {
    "rho0": 0.88,
    "rho1": 0.9,
    "rho2": 1.05,
    "s": 1.15,
    "c": 0.89,
    "eps": 0.01,
    "c1": 1.04,
    "c2": 1.02,
    "zeta1": 1.036,
    "zeta2": 1.039,
}

#: The construction knobs and their defaults, in the field order of
#: :class:`concavia.family.Knobs`, which documents them and takes its
#: defaults from here.
KNOB_DEFAULTS: dict = {
    "eps1": 0.004,
    "eps2": 0.005,
    "x_switch": -0.3,
    "x_lo": -8.0,
    "knots": 16,
    "depth_frac": 0.30,
    "branch_margin": 1e-3,
}

#: Run sizes: ``run_verification``'s keyword defaults (slice count, sweep
#: samples, lambda ceiling) and the export density of the CLI.
RUN_DEFAULTS: dict = {"n_tau": 16, "n_samples": 240, "lambda_max": 1e4, "density": 1}


def check_chain(values: dict) -> dict:
    """Check the ordered inequality chain; return the ten parameters as
    floats plus the derived page radii ``a = rho2 - eps`` and
    ``b = 1/c + eps``.

    Raises ``ConfigError`` on missing/non-finite fields and ``ChainViolation``
    naming the first violated inequality otherwise.
    """
    missing = [name for name in _RAW_FIELDS if name not in values]
    if missing:
        raise ConfigError(f"missing parameter fields: {', '.join(missing)}")
    vals = {}
    for name in _RAW_FIELDS:
        try:
            v = float(values[name])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"parameter {name} must be a number, got {values[name]!r}") from err
        if not math.isfinite(v) or v <= 0.0:
            raise ConfigError(f"parameter {name} must be finite and positive, got {v!r}")
        vals[name] = v

    rho0, rho1, rho2 = vals["rho0"], vals["rho1"], vals["rho2"]
    s, c, eps = vals["s"], vals["c"], vals["eps"]
    c1, c2 = vals["c1"], vals["c2"]
    zeta1, zeta2 = vals["zeta1"], vals["zeta2"]

    a = rho2 - eps
    b = 1.0 / c + eps

    # The chain is checked in order; the first failure wins.
    chain = [
        ("1 < rho2", 1.0 < rho2),
        ("rho2 < 1/rho1", rho2 < 1.0 / rho1),
        ("rho1/rho2 < rho0", rho1 / rho2 < rho0),
        ("rho0 < rho1", rho0 < rho1),
        ("1/rho0 < s", 1.0 / rho0 < s),
        ("s < rho2/rho1", s < rho2 / rho1),
        ("rho0 < c", rho0 < c),
        ("c < rho1", c < rho1),
        ("eps < (rho0 - rho1/rho2)/2", eps < 0.5 * (rho0 - rho1 / rho2)),
        ("rho1*b < a", rho1 * b < a),
        ("b < a/rho1", b < a / rho1),
        ("1 < c2", 1.0 < c2),
        ("c2 < s*rho1", c2 < s * rho1),
        ("s*rho1 < c1", s * rho1 < c1),
        ("c1 < rho2", c1 < rho2),
        ("s*rho1 < zeta1", s * rho1 < zeta1),
        ("zeta1 < zeta2", zeta1 < zeta2),
        ("zeta2 < rho2", zeta2 < rho2),
    ]
    for name, ok in chain:
        if not ok:
            raise ChainViolation(name)

    return {**vals, "a": a, "b": b}
