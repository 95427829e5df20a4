"""Config-driven experiment harness.

One run = one YAML config = one experiment; identical configs produce
byte-identical outputs.  Subcommands mirror the experiment kinds plus
``validate`` (parse and pre-flight only).  Exit codes: 0 success, 2
validation error, 3 numeric failure, 4 completed run whose certified
inequality chain failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
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

EXPERIMENT_KINDS = ("norm-lb", "kappa-lb", "doubling-scan", "tau-scan", "space-check")

#: Config-level floor on the variable exponent, stricter than the type's
#: p > 1: it bounds the conjugate exponent p/(p-1) by 21, and with it how
#: steep the associate space's modular is for the Newton bracket and the
#: bisection of the Luxemburg norm.
CONFIG_P_MIN = 1.05


@dataclass
class RunConfig:
    """A parsed and pre-flighted run: every referenced object is built and
    every precondition of the invoked operations has been checked."""

    raw: dict
    kind: str
    space: spaces.SpaceSpec
    symbol: ops.Symbol | None
    params: dict
    out_dir: str
    formats: str
    seed: int

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
    mesh = grid.freq_coords()
    if grid.n == 1:
        return {"xi": mesh[0]}
    return {"xi1": mesh[0], "xi2": mesh[1]}


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
        center = block.get("center", 0.0 if grid.n == 1 else [0.0, 0.0])
        return ops.gaussian_symbol(grid, center, block.get("sigma", 1.0),
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


def _doubling_schedule(params: dict, omega: gridmod.DomainMask) -> list:
    """The listed balls followed by the separated family, when configured."""
    schedule = [(entry["y"], float(entry["r"])) for entry in params.get("balls", ())]
    if all(k in params for k in ("theta", "lambda", "m")):
        schedule.extend(dbl.separated_sequence(omega, float(params["tau"]),
                                               *_family_args(params)))
    return schedule


def _preflight_experiment(cfg: "RunConfig") -> None:
    """Check the config-level requirements, then run the library's
    validation step for the experiment kind; the run calls the same step."""
    params = cfg.params
    kind = cfg.kind
    omega = cfg.space.domain
    what = f"experiment kind {kind!r}"
    if kind in ("norm-lb", "kappa-lb") and cfg.symbol is None:
        raise ValidationError(f"{what} needs a symbol block")
    if kind == "norm-lb":
        _require(params, ("rho", "delta_schedule"), what)
        wit.plan_norm_lowerbound(cfg.symbol, omega, float(params["rho"]),
                                 params["delta_schedule"], params.get("eta"),
                                 params.get("ray"))
    elif kind == "kappa-lb":
        _require(params, ("rho", "theta", "lambda", "m"), what)
        rho = float(params["rho"])
        wit.plan_kuratowski(cfg.symbol, omega, rho,
                            wit.kuratowski_family(omega, rho, *_family_args(params)),
                            params.get("eta"))
    elif kind == "doubling-scan":
        _require(params, ("tau",), what)
        dbl.plan_weak_doubling(omega, float(params["tau"]),
                               _doubling_schedule(params, omega))
    elif kind == "tau-scan":
        _require(params, ("tau_list", "theta", "lambda", "m"), what)
        dbl.plan_tau_scan(omega, params["tau_list"], *_family_args(params))


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
    cfg = RunConfig(
        raw=raw,
        kind=raw["experiment"]["kind"],
        space=space,
        symbol=symbol,
        params={k: v for k, v in raw["experiment"].items() if k != "kind"},
        out_dir=output.get("directory", "out"),
        formats=output.get("formats", "both"),
        seed=int(raw.get("seed", 0)),
    )
    _preflight_experiment(cfg)
    return cfg


def run(cfg: RunConfig):
    """Execute the experiment; returns (artifacts, chains_passed)."""
    omega = cfg.space.domain
    params = cfg.params
    echo = cfg.echo
    artifacts = {}
    ok = True
    if cfg.kind in ("norm-lb", "kappa-lb"):
        rho = float(params["rho"])
        if cfg.kind == "norm-lb":
            report = wit.norm_lowerbound_experiment(
                cfg.symbol, cfg.space, rho, params["delta_schedule"],
                params.get("eta"), params.get("ray"))
        else:
            report = wit.kuratowski_experiment(
                cfg.symbol, cfg.space, rho,
                wit.kuratowski_family(omega, rho, *_family_args(params)),
                params.get("eta"))
            artifacts["pairwise.csv"] = reports.pairwise_csv(report)
        artifacts["report.txt"] = reports.experiment_text(report, echo)
        artifacts["witnesses.csv"] = reports.witness_csv(report, cfg.space.grid.n)
        ok = report.chains_passed
    elif cfg.kind == "doubling-scan":
        report = dbl.weak_doubling_scan(cfg.space, float(params["tau"]),
                                        _doubling_schedule(params, omega))
        artifacts["report.txt"] = reports.doubling_text(report, echo)
        artifacts["doubling.csv"] = reports.doubling_csv(report, cfg.space.grid.n)
    elif cfg.kind == "tau-scan":
        rows = dbl.tau_scan(cfg.space, params["tau_list"], *_family_args(params))
        artifacts["report.txt"] = reports.tau_scan_text(rows, echo)
        artifacts["tau_scan.csv"] = reports.tau_scan_csv(rows)
    elif cfg.kind == "space-check":
        results = spaces.axiom_check(cfg.space, int(params.get("trials", 100)),
                                     cfg.seed)
        artifacts["report.txt"] = reports.space_check_text(results, echo)
        artifacts["checks.csv"] = reports.space_check_csv(results)
        ok = all(r.passed for r in results)
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
    for name in EXPERIMENT_KINDS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default=None, choices=["csv", "text", "both"])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = preflight(raw)
        if args.command != "validate" and cfg.kind != args.command:
            raise ValidationError(
                f"subcommand {args.command!r} does not match config "
                f"experiment kind {cfg.kind!r}")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure during validation: {exc}", file=sys.stderr)
        return 3
    if args.command == "validate":
        print(f"config OK: {cfg.kind}")
        return 0
    try:
        artifacts, ok = run(cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    written = emit(artifacts, args.format or cfg.formats, args.out or cfg.out_dir)
    for path in written:
        print(f"wrote {path}")
    if not ok:
        print("certified inequality chain FAILED; see the report ledger",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
