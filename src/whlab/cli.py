"""Config-driven experiment harness.

One run = one YAML config = one experiment; identical configs produce
byte-identical outputs.  Subcommands mirror the experiment kinds plus
``validate`` (parse and pre-flight only).  Exit codes: 0 success, 2
validation error, unwritable outputs or arrays too large for memory, 3
numeric failure, 4 completed run whose certified inequality chain failed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from pathlib import Path

import numpy as np
import yaml

from . import doubling as dbl
from . import grid as gridmod
from . import spaces
from . import witness as wit
from .errors import NumericFailure, ValidationError
from .exprs import evaluate_expression

__all__ = ["RunConfig", "load_config", "run", "emit", "main"]

#: Config-level floor on the variable exponent, stricter than the type's
#: p > 1: it bounds the conjugate exponent p/(p-1) by 21, and with it how
#: steep the associate space's modular is for the Newton bracket and the
#: bisection of the Luxemburg norm.
CONFIG_P_MIN = 1.05


@dataclass
class RunConfig:
    """A parsed and pre-flighted run: every referenced object is built,
    every precondition of the invoked operations has been checked, and
    ``execute(echo)`` runs the checked plan and renders its files and verdict."""

    raw: dict
    kind: str
    execute: Callable[[str], tuple]
    out_dir: str
    formats: str

    @property
    def echo(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True, default_flow_style=False)


@functools.cache
def _validator():
    """Validator of the shipped config schema, built once per process."""
    import jsonschema
    with resources.files("whlab.schema").joinpath("runconfig.schema.json").open() as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def load_config(path) -> dict:
    """Read the YAML config and validate it against the shipped schema."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a mapping")
    from jsonschema.exceptions import best_match
    exc = best_match(_validator().iter_errors(raw))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<top level>"
        raise ValidationError(f"config schema violation at {where}: {exc.message}") from exc
    return raw


def _coord_names(grid: gridmod.Grid) -> dict:
    names = ("x",) if grid.n == 1 else ("x1", "x2")
    return dict(zip(names, grid.coords()), r=grid.distances(np.zeros(grid.n)))


def _freq_names(grid: gridmod.Grid) -> dict:
    names = ("xi",) if grid.n == 1 else ("xi1", "xi2")
    return dict(zip(names, grid.freq_coords()))


#: One row per config block and kind: the library builder, the keys it needs (passed
#: in order after the grid), the keys it may take (passed only when set, so the
#: library keeps its defaults) and the coordinates an expression is evaluated on.
_BUILDERS = {
    ("exponent", "constant"): ("spaces.constant_exponent", "value", "", None),
    ("exponent", "piecewise"): ("spaces.step_exponent", "left right", "edge width", None),
    ("exponent", "expression"): ("spaces.exponent_from_values", "expr", "", _coord_names),
    ("weight", "constant"): ("spaces.constant_weight", "", "value", None),
    ("weight", "power"): ("spaces.power_weight", "gamma", "", None),
    ("weight", "expression"): ("spaces.weight_from_values", "expr", "", _coord_names),
    ("domain", "full"): ("grid.full_space", "", "", None),
    ("domain", "halfline"): ("grid.half_line", "", "", None),
    ("domain", "cone"): ("grid.sector", "alpha1 alpha2", "", None),
    ("symbol", "constant"): ("operators.constant_symbol", "value", "", None),
    ("symbol", "gaussian"): ("operators.gaussian_symbol", "", "center sigma peak", None),
    ("symbol", "smoothed-step"): ("operators.smoothed_step_symbol", "",
                                  "edge width low high", None),
    ("symbol", "expression"): ("operators.symbol_from_values", "expr", "", _freq_names),
}


def _library(key: str):
    """Library function ``"module.name"``, looked up now: wrappers installed later see it."""
    module, name = key.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _build(block: str, spec: dict, grid: gridmod.Grid):
    """Build config block ``block`` with the builder of its kind's row."""
    kind = spec["kind"]
    builder, needs, optional, coords = _BUILDERS[block, kind]
    _require(spec, needs.split(), f"{kind} {block}")
    args = [spec[key] for key in needs.split()]
    if coords is not None:
        args = [evaluate_expression(spec["expr"], **coords(grid))]
    return _library(builder)(grid, *args, **_given(spec, *optional.split()))


def _require(block: dict, keys, what: str):
    """Raise unless the config block has every key; ``what`` names the block."""
    for key in keys:
        if key not in block:
            raise ValidationError(f"{what} needs '{key}'")


def _given(block: dict, *keys) -> dict:
    """Keyword arguments of the keys the block sets; the library has the defaults."""
    return {key: block[key] for key in keys if key in block}


def _family_args(params: dict) -> tuple:
    """(theta, lambda, m, y0) of the config's separated ball family."""
    return (float(params["theta"]), float(params["lambda"]), int(params["m"]),
            params.get("y0"))


def _rendered(experiment, text: str, tables: dict, verdict=lambda report: True):
    """A kind's run: ``report.txt`` and the csv ``tables`` of the report of
    ``experiment()``, each from its renderer, and the report's verdict."""
    def execute(echo):
        report = experiment()
        files = {name: _library(csv)(report) for name, csv in tables.items()}
        return {"report.txt": _library(text)(report, echo), **files}, verdict(report)
    return execute


def _norm_lb(params: dict, space: spaces.SpaceSpec, symbol):
    _require(params, ("rho", "delta_schedule"), "experiment kind 'norm-lb'")
    plan = wit.plan_norm_lowerbound(symbol, space, float(params["rho"]),
                                    params["delta_schedule"], params.get("eta"),
                                    params.get("ray"))
    return _rendered(lambda: wit.norm_lowerbound_experiment(plan), "reports.experiment_text",
                     {"witnesses.csv": "reports.witness_csv"}, attrgetter("chains_passed"))


def _kappa_lb(params: dict, space: spaces.SpaceSpec, symbol):
    _require(params, ("rho", "theta", "lambda", "m"), "experiment kind 'kappa-lb'")
    rho = float(params["rho"])
    family = wit.kuratowski_family(space.domain, rho, *_family_args(params))
    plan = wit.plan_kuratowski(symbol, space, rho, family, params.get("eta"))
    return _rendered(lambda: wit.kuratowski_experiment(plan), "reports.experiment_text",
                     {"pairwise.csv": "reports.pairwise_csv",
                      "witnesses.csv": "reports.witness_csv"},
                     attrgetter("chains_passed"))


def _doubling_scan(params: dict, space: spaces.SpaceSpec, symbol):
    _require(params, ("tau",), "experiment kind 'doubling-scan'")
    tau = float(params["tau"])
    schedule = [(entry["y"], float(entry["r"])) for entry in params.get("balls", ())]
    if any(k in params for k in ("theta", "lambda", "m", "y0")):
        _require(params, ("theta", "lambda", "m"), "doubling-scan family")
        schedule.extend(dbl.separated_sequence(space.domain, tau, *_family_args(params)))
    dbl.plan_weak_doubling(space.domain, tau, schedule)
    return _rendered(lambda: dbl.weak_doubling_scan(space, tau, schedule),
                     "reports.doubling_text", {"doubling.csv": "reports.doubling_csv"})


def _tau_scan(params: dict, space: spaces.SpaceSpec, symbol):
    _require(params, ("tau_list", "theta", "lambda", "m"), "experiment kind 'tau-scan'")
    plan = dbl.plan_tau_scan(space.domain, params["tau_list"], *_family_args(params))
    return _rendered(lambda: dbl.tau_scan(space, *plan), "reports.tau_scan_text",
                     {"tau_scan.csv": "reports.tau_scan_csv"})


def _space_check(params: dict, space: spaces.SpaceSpec, symbol):
    # the schema's integers include integral floats such as 5.0
    kwargs = {key: int(value) for key, value in _given(params, "trials", "seed").items()}
    return _rendered(lambda: spaces.axiom_check(space, **kwargs), "reports.space_check_text",
                     {"checks.csv": "reports.space_check_csv"},
                     lambda report: all(r.passed for r in report))


#: Per experiment kind: check the kind's keys and run the plan step once.  The
#: returned run executes that plan and renders the kind's files and verdict.
_EXPERIMENTS = {"norm-lb": _norm_lb, "kappa-lb": _kappa_lb, "doubling-scan": _doubling_scan,
                "tau-scan": _tau_scan, "space-check": _space_check}


def preflight(raw: dict) -> RunConfig:
    """Build every referenced object and validate all preconditions."""
    grid = gridmod.make_grid(**raw["grid"])
    space_block = raw["space"]
    exponent = _build("exponent", space_block["exponent"], grid)
    if exponent.p_min < CONFIG_P_MIN:
        raise ValidationError(f"config exponents must satisfy p_min >= {CONFIG_P_MIN} "
                              f"(got {exponent.p_min:g})")
    weight = _build("weight", space_block["weight"], grid)
    domain = _build("domain", space_block["domain"], grid)
    space = spaces.SpaceSpec(grid, exponent, weight, domain)
    symbol = _build("symbol", raw["symbol"], grid) if "symbol" in raw else None
    output = raw.get("output", {})
    params = {**raw["experiment"], **_given(raw, "seed")}
    kind = params["kind"]
    if kind in ("norm-lb", "kappa-lb") and symbol is None:
        raise ValidationError(f"experiment kind {kind!r} needs a symbol block")
    return RunConfig(raw=raw, kind=kind,
                     execute=_EXPERIMENTS[kind](params, space, symbol),
                     out_dir=output.get("directory", "out"),
                     formats=output.get("formats", "both"))


def run(cfg: RunConfig):
    """Execute the experiment; returns (artifacts, chains_passed)."""
    return cfg.execute(cfg.echo)


def emit(artifacts: dict, formats: str, out_dir) -> list:
    """Write the rendered artifacts; deterministic bytes for a fixed report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in sorted(artifacts.items()):
        is_csv = name.endswith(".csv")
        if is_csv and formats == "text":
            continue
        if not is_csv and formats == "csv":
            continue
        path = out / name
        path.write_text(content)
        written.append(path)
    return written


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whlab",
        description="Config-driven lower-bound experiments for Wiener-Hopf "
                    "type operators on weighted variable Lebesgue spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_EXPERIMENTS, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default=None, choices=["csv", "text", "both"])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = preflight(load_config(args.config))
        if args.command == "validate":
            print(f"config OK: {cfg.kind}")
            return 0
        if cfg.kind != args.command:
            raise ValidationError(
                f"subcommand {args.command!r} does not match config "
                f"experiment kind {cfg.kind!r}")
        artifacts, ok = run(cfg)
        written = emit(artifacts, args.format or cfg.formats, args.out or cfg.out_dir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write the outputs: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    if not ok:
        print("certified inequality chain FAILED; see the report ledger",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
