"""Command-line entry point: argument parsing, config ingestion, ``params``.

Subcommands::

    concavia params  --config cfg.json            validate the parameter chain
    concavia verify  --config cfg.json --suite S  run certificate suites
    concavia export  --config cfg.json --what W   write CSV point clouds

Configuration is a single JSON file selected with ``--config PATH``; every
field can be overridden on the command line with dotted keys, for example
``--knobs.eps2=0.006`` or ``--outputs report_dir``.  Exit codes: 0 all
checks pass, 1 verification failure, 2 config/parse failure.  Reports are
pretty-printed JSON written under the outputs directory; repeated runs with
the same config and seed produce byte-identical files.  A report or export
that exists is rewritten in place, never truncated to zero first (see
``concavia.commands._rewrite``).

This module and :mod:`concavia.config` import neither numpy nor
:mod:`dataclasses`: the config is a plain record and the parameter chain a
dict check, so ``params``, ``--help`` and every rejected config (exit 2)
end before the computing commands of :mod:`concavia.commands`, and with
them numpy, the model modules and their frozen records, are imported.

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
import functools
import json
import math
import sys

from .config import _RAW_FIELDS, DEFAULT_PARAM_VALUES, KNOB_DEFAULTS, RUN_DEFAULTS, check_chain
from .errors import ConcaviaError, ConfigError

# the family knobs, then run_verification's keyword defaults and the CLI-only
# export density
_KNOB_DEFAULTS: dict = {**KNOB_DEFAULTS, **RUN_DEFAULTS}

# knobs that count or size something; every other knob is a finite real
_INT_KNOBS = ("n_tau", "n_samples", "knots", "density")

# the --suite and --what choices: the keys of concavia.commands' suite and
# export tables, named here so that parsing imports no numeric code
SUITES = ("atlas", "openbook", "profiles", "levi", "family")
EXPORTS = ("m1", "pages", "binding", "corners", "family", "levi_field")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class RunConfig:
    """Validated run configuration: raw params, knob map, outputs, seed."""

    __slots__ = ("params", "knobs", "outputs", "seed")

    def __init__(self, params: dict, knobs: dict, outputs: str = "out", seed: int = 0):
        self.params, self.knobs, self.outputs, self.seed = params, knobs, outputs, seed

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "RunConfig":
        """Merge the defaults, the config file and the dotted overrides, then
        validate the result once.

        A ``params`` block replaces the default parameters (so a missing
        field is a config error); a ``knobs`` block is a partial override.
        """
        cfg: dict = {"params": dict(DEFAULT_PARAM_VALUES), "knobs": {},
                     "outputs": "out", "seed": 0}
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
            cfg.update(loaded)
        for key, val in (overrides or {}).items():
            _apply_dotted(cfg, key, val)

        unknown = set(cfg) - {"params", "knobs", "outputs", "seed"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in ("params", "knobs"):
            if not isinstance(cfg[key], dict):
                raise ConfigError(f"config field {key!r} must be an object")
        unknown = set(cfg["params"]) - set(_RAW_FIELDS)
        if unknown:
            raise ConfigError(f"unknown parameter fields: {sorted(unknown)}")
        if not _is_int(cfg["seed"]):
            raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
        run = cls(params=cfg["params"], knobs={**_KNOB_DEFAULTS, **cfg["knobs"]},
                  outputs=str(cfg["outputs"]), seed=cfg["seed"])
        run._check_knobs()
        return run

    def _check_knobs(self) -> None:
        kn = self.knobs
        unknown = set(kn) - set(_KNOB_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown knobs: {sorted(unknown)}")
        for key, val in kn.items():
            if key in _INT_KNOBS and not _is_int(val):
                raise ConfigError(f"knob {key} must be an integer, got {val!r}")
            if not (_is_int(val) or isinstance(val, float) and math.isfinite(val)):
                raise ConfigError(f"knob {key} must be a finite number, got {val!r}")
        for key in ("eps1", "eps2", "branch_margin", "depth_frac", "lambda_max"):
            if not kn[key] > 0:
                raise ConfigError(f"knob {key} must be positive, got {kn[key]}")
        if kn["n_tau"] < 8:
            raise ConfigError(f"knob n_tau must be >= 8, got {kn['n_tau']}")
        if kn["n_samples"] < 100:
            raise ConfigError(f"knob n_samples must be >= 100, got {kn['n_samples']}")
        if kn["density"] < 1:
            raise ConfigError(f"knob density must be >= 1, got {kn['density']}")


def _is_int(value) -> bool:
    """A JSON integer: ``True`` and ``16.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


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
# Subcommands
# ---------------------------------------------------------------------------

def cmd_params(values: dict) -> int:
    """Print :func:`check_chain`'s ``values``, the validated parameters."""
    print(json.dumps({**values, "validated": True}, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state on it, so every :func:`main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="concavia",
        description="Certificate-based verification of the sphere family model.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_params = sub.add_parser("params", help="validate the parameter chain")
    p_verify = sub.add_parser("verify", help="run certificate suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_export = sub.add_parser("export", help="write CSV point clouds")
    p_export.add_argument("--what", choices=sorted(EXPORTS), required=True)
    for p in (p_params, p_verify, p_export):
        p.add_argument("--config", default=None, help="JSON config path")
    return parser


def main(argv=None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    try:
        cfg = RunConfig.load(args.config, _parse_overrides(unknown))
        values = check_chain(cfg.params)   # a ChainViolation is a ConfigError
        if args.command == "params":
            return cmd_params(values)
        # only a valid config that computes loads numpy and the model modules
        from . import commands
        if args.command == "verify":
            return commands.cmd_verify(cfg, args.suite)
        return commands.cmd_export(cfg, args.what)
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
