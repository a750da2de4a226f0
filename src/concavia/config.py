"""Model parameters, construction knobs and run defaults, without numpy.

The CLI front end loads a config and validates the parameter chain with
this module alone, so ``concavia params`` and every rejected config exit
before numpy or any model module is imported.  :mod:`concavia.atlas`
re-exports the parameter names and :mod:`concavia.family` the knob names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ChainViolation, ConfigError

__all__ = ["Params", "DEFAULT_PARAM_VALUES", "validate_params", "default_params",
           "Knobs", "default_knobs", "RUN_DEFAULTS"]

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

#: Run sizes: ``run_verification``'s keyword defaults (slice count, sweep
#: samples, lambda ceiling) and the export density of the CLI.
RUN_DEFAULTS: dict = {"n_tau": 16, "n_samples": 240, "lambda_max": 1e4, "density": 1}


@dataclass(frozen=True)
class Params:
    """Validated model parameters plus the derived page radii ``a`` and ``b``.

    Instances are only built through :func:`validate_params`, which checks the
    full inequality chain.  ``a = rho2 - eps`` and ``b = 1/c + eps`` are the
    inner/outer radii of the page annulus ``A``.
    """

    rho0: float
    rho1: float
    rho2: float
    s: float
    c: float
    eps: float
    c1: float
    c2: float
    zeta1: float
    zeta2: float
    a: float
    b: float

    def raw_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _RAW_FIELDS}

    def to_dict(self) -> dict:
        out = self.raw_dict()
        out["a"] = self.a
        out["b"] = self.b
        out["validated"] = True
        return out

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def validate_params(values: dict) -> Params:
    """Check the ordered inequality chain and return a frozen Params.

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

    return Params(a=a, b=b, **vals)


def default_params() -> Params:
    return validate_params(DEFAULT_PARAM_VALUES)


@dataclass(frozen=True)
class Knobs:
    """Shape parameters of the construction that are free within the chain.

    ``eps1``/``eps2`` are the quadratic coefficients of the two wall germs,
    ``x_switch``/``x_lo`` delimit the steep extension of the right wall,
    ``knots`` sizes every spline, ``depth_frac`` requests the dome depth as a
    fraction of the radial budget ``log(rho1/rho0)``, and ``branch_margin``
    is the slope clearance below -1 required of the pushed-forward right
    wall.
    """

    eps1: float = 0.004
    eps2: float = 0.005
    x_switch: float = -0.3
    x_lo: float = -8.0
    knots: int = 16
    depth_frac: float = 0.30
    branch_margin: float = 1e-3


def default_knobs() -> Knobs:
    return Knobs()
