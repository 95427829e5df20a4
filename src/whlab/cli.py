"""Config-driven experiment harness.

One run = one YAML config = one experiment; identical configs produce
byte-identical outputs.  Subcommands mirror the experiment kinds plus
``validate`` (parse and pre-flight only).  Exit codes: 0 success, 2
validation error or unwritable outputs, 3 numeric failure, 4 completed run
whose certified inequality chain failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import doubling as dbl
from . import grid as gridmod
from . import operators as ops
from . import reports
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
    ``execute`` runs the experiment on exactly the checked inputs."""

    raw: dict
    kind: str
    space: spaces.SpaceSpec
    execute: Callable[[], object]
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


def _build_exponent(block: dict, grid: gridmod.Grid) -> spaces.ExponentField:
    kind = block["kind"]
    if kind == "constant":
        _require(block, ("value",), "constant exponent")
        field = spaces.constant_exponent(grid, block["value"])
    elif kind == "piecewise":
        _require(block, ("left", "right"), "piecewise exponent")
        field = spaces.step_exponent(grid, block["left"], block["right"],
                                     block.get("edge", 0.0), block.get("width"))
    else:
        _require(block, ("expr",), "expression exponent")
        vals = evaluate_expression(block["expr"], **_coord_names(grid))
        field = spaces.exponent_from_values(grid, np.real(vals))
    if field.p_min < CONFIG_P_MIN:
        raise ValidationError(
            f"config exponents must satisfy p_min >= {CONFIG_P_MIN} "
            f"(got {field.p_min:g})")
    return field


def _coord_names(grid: gridmod.Grid) -> dict:
    names = ("x",) if grid.n == 1 else ("x1", "x2")
    return dict(zip(names, grid.coords()), r=grid.distances(np.zeros(grid.n)))


def _freq_names(grid: gridmod.Grid) -> dict:
    names = ("xi",) if grid.n == 1 else ("xi1", "xi2")
    return dict(zip(names, grid.freq_coords()))


def _build_weight(block: dict, grid: gridmod.Grid) -> spaces.Weight:
    kind = block["kind"]
    if kind == "constant":
        return spaces.constant_weight(grid, block.get("value", 1.0))
    if kind == "power":
        _require(block, ("gamma",), "power weight")
        return spaces.power_weight(grid, block["gamma"])
    _require(block, ("expr",), "expression weight")
    vals = evaluate_expression(block["expr"], **_coord_names(grid))
    return spaces.weight_from_values(grid, np.real(np.broadcast_to(vals, grid.shape)))


def _build_domain(block: dict, grid: gridmod.Grid) -> gridmod.DomainMask:
    kind = block["kind"]
    if kind == "full":
        return gridmod.full_space(grid)
    if kind == "halfline":
        return gridmod.half_line(grid)
    _require(block, ("alpha1", "alpha2"), "cone domain")
    return gridmod.sector(grid, block["alpha1"], block["alpha2"])


def _build_symbol(block: dict, grid: gridmod.Grid) -> ops.Symbol:
    kind = block["kind"]
    if kind == "constant":
        _require(block, ("value",), "constant symbol")
        return ops.constant_symbol(grid, block["value"])
    if kind == "gaussian":
        return ops.gaussian_symbol(grid, block.get("center"), block.get("sigma", 1.0),
                                   block.get("peak", 1.0))
    if kind == "smoothed-step":
        return ops.smoothed_step_symbol(grid, block.get("edge", 0.0),
                                        block.get("width"),
                                        block.get("low", 0.0),
                                        block.get("high", 1.0))
    _require(block, ("expr",), "expression symbol")
    vals = evaluate_expression(block["expr"], **_freq_names(grid))
    return ops.symbol_from_values(grid, vals)


def _require(block: dict, keys, what: str):
    """Raise unless the config block has every key; ``what`` names the block."""
    for key in keys:
        if key not in block:
            raise ValidationError(f"{what} needs '{key}'")


def _family_args(params: dict) -> tuple:
    """(theta, lambda, m, y0) of the config's separated ball family."""
    return (float(params["theta"]), float(params["lambda"]), int(params["m"]),
            params.get("y0"))


def _norm_lb(params: dict, space: spaces.SpaceSpec, symbol, seed: int):
    _require(params, ("rho", "delta_schedule"), "experiment kind 'norm-lb'")
    args = (float(params["rho"]), params["delta_schedule"], params.get("eta"),
            params.get("ray"))
    wit.plan_norm_lowerbound(symbol, space.domain, *args)
    return lambda: wit.norm_lowerbound_experiment(symbol, space, *args)


def _kappa_lb(params: dict, space: spaces.SpaceSpec, symbol, seed: int):
    _require(params, ("rho", "theta", "lambda", "m"), "experiment kind 'kappa-lb'")
    rho, eta = float(params["rho"]), params.get("eta")
    family = wit.kuratowski_family(space.domain, rho, *_family_args(params))
    wit.plan_kuratowski(symbol, space.domain, rho, family, eta)
    return lambda: wit.kuratowski_experiment(symbol, space, rho, family, eta)


def _doubling_scan(params: dict, space: spaces.SpaceSpec, symbol, seed: int):
    _require(params, ("tau",), "experiment kind 'doubling-scan'")
    tau = float(params["tau"])
    schedule = [(entry["y"], float(entry["r"])) for entry in params.get("balls", ())]
    if any(k in params for k in ("theta", "lambda", "m", "y0")):
        _require(params, ("theta", "lambda", "m"), "doubling-scan family")
        schedule.extend(dbl.separated_sequence(space.domain, tau, *_family_args(params)))
    dbl.plan_weak_doubling(space.domain, tau, schedule)
    return lambda: dbl.weak_doubling_scan(space, tau, schedule)


def _tau_scan(params: dict, space: spaces.SpaceSpec, symbol, seed: int):
    _require(params, ("tau_list", "theta", "lambda", "m"), "experiment kind 'tau-scan'")
    args = (params["tau_list"], *_family_args(params))
    dbl.plan_tau_scan(space.domain, *args)
    return lambda: dbl.tau_scan(space, *args)


def _space_check(params: dict, space: spaces.SpaceSpec, symbol, seed: int):
    trials = int(params.get("trials", 100))
    return lambda: spaces.axiom_check(space, trials, seed)


#: Per experiment kind: check the kind's keys, build its library arguments
#: once and run the plan step on them.  The returned run reuses them and looks
#: the library functions up when called, so wrappers installed later see it.
_EXPERIMENTS = {"norm-lb": _norm_lb, "kappa-lb": _kappa_lb, "doubling-scan": _doubling_scan,
                "tau-scan": _tau_scan, "space-check": _space_check}


def preflight(raw: dict) -> RunConfig:
    """Build every referenced object and validate all preconditions."""
    grid = gridmod.make_grid(**raw["grid"])
    space_block = raw["space"]
    exponent = _build_exponent(space_block["exponent"], grid)
    weight = _build_weight(space_block["weight"], grid)
    domain = _build_domain(space_block["domain"], grid)
    space = spaces.SpaceSpec(grid, exponent, weight, domain)
    symbol = _build_symbol(raw["symbol"], grid) if "symbol" in raw else None
    output = raw.get("output", {})
    seed = int(raw.get("seed", 0))
    kind = raw["experiment"]["kind"]
    if kind in ("norm-lb", "kappa-lb") and symbol is None:
        raise ValidationError(f"experiment kind {kind!r} needs a symbol block")
    return RunConfig(raw=raw, kind=kind, space=space,
                     execute=_EXPERIMENTS[kind](raw["experiment"], space, symbol, seed),
                     out_dir=output.get("directory", "out"),
                     formats=output.get("formats", "both"))


def run(cfg: RunConfig):
    """Execute the experiment; returns (artifacts, chains_passed)."""
    report = cfg.execute()
    echo = cfg.echo
    artifacts = {}
    ok = True
    if cfg.kind in ("norm-lb", "kappa-lb"):
        if cfg.kind == "kappa-lb":
            artifacts["pairwise.csv"] = reports.pairwise_csv(report)
        artifacts["report.txt"] = reports.experiment_text(report, echo)
        artifacts["witnesses.csv"] = reports.witness_csv(report, cfg.space.grid.n)
        ok = report.chains_passed
    elif cfg.kind == "doubling-scan":
        artifacts["report.txt"] = reports.doubling_text(report, echo)
        artifacts["doubling.csv"] = reports.doubling_csv(report, cfg.space.grid.n)
    elif cfg.kind == "tau-scan":
        artifacts["report.txt"] = reports.tau_scan_text(report, echo)
        artifacts["tau_scan.csv"] = reports.tau_scan_csv(report)
    elif cfg.kind == "space-check":
        artifacts["report.txt"] = reports.space_check_text(report, echo)
        artifacts["checks.csv"] = reports.space_check_csv(report)
        ok = all(r.passed for r in report)
    return artifacts, ok


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
    for path in written:
        print(f"wrote {path}")
    if not ok:
        print("certified inequality chain FAILED; see the report ledger",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
