"""Config-driven experiment harness.

One run = one YAML config = one experiment; identical configs produce
byte-identical outputs.  Subcommands mirror the experiment kinds plus
``validate`` (parse and pre-flight only).  Exit codes: 0 success, 2
validation error, unwritable outputs or arrays too large for memory, 3
numeric failure, 4 completed run whose report status is not OK.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import doubling as dbl
from . import grid as gridmod
from . import spaces
from . import witness as wit
from .errors import NumericFailure, ValidationError

__all__ = ["RunConfig", "load_config", "run", "emit", "main"]

#: Config-level floor on the variable exponent, stricter than the type's
#: p > 1: it bounds the conjugate exponent p/(p-1) by 21, and with it how
#: steep the associate space's modular is for the Newton bracket of the
#: Luxemburg norm and for its fallback bisection.
CONFIG_P_MIN = 1.05


@dataclass
class RunConfig:
    """A parsed and pre-flighted run: every referenced object is built,
    every precondition of the invoked operations has been checked, and
    ``execute()`` runs the checked plan and renders its files and status."""

    raw: dict
    kind: str
    execute: Callable[[], tuple]
    out_dir: str
    formats: str

    @property
    def echo(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True, default_flow_style=False)


def load_config(path) -> dict:
    """Read the YAML config and check it against the config format."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {path} is not valid YAML: {exc}") from exc
    _check("config", raw)
    return raw


def _violation(path: tuple, message: str) -> ValidationError:
    where = "/".join(map(str, path)) or "<top level>"
    return ValidationError(f"config schema violation at {where}: {message}")


def _check(block: str, spec, path: tuple = ()):
    """Check config block ``block`` at key path ``path`` against its row of ``_KEYS``:
    a mapping of a listed kind, with every key the row needs, no key outside the
    row and each value of its key's type; the blocks it holds are checked in turn."""
    if not isinstance(spec, dict):
        raise _violation(path, f"{spec!r} is not a mapping")
    kind = None if (block, None) in _KEYS else spec.get("kind")
    if kind is not None and not isinstance(kind, str) or (block, kind) not in _KEYS:
        kinds = ", ".join(k for b, k in _KEYS if b == block)
        raise _violation(path + ("kind",), f"{kind!r} is not one of {kinds}")
    name = f"{kind} {block}" if kind else block
    needs, optional = _KEYS[block, kind]
    if missing := [key for key in needs.split() if key not in spec]:
        message = f"{name} needs '{missing[0]}'"
        raise _violation(path, message) if kind is None else ValidationError(message)
    for key, value in spec.items():
        where = path + (key,)
        if key not in f"{needs} {optional} {'kind' if kind else ''}".split():
            raise _violation(path, f"{key!r} is not a key of {name}")
        if key == "balls":
            if not isinstance(value, list):
                raise _violation(where, f"{value!r} is not a list")
            for index, ball in enumerate(value):
                _check(key, ball, where + (index,))
        elif key not in _TYPES:
            _check(key, value, where)
        elif not _TYPES[key][0](value):
            raise _violation(where, f"{value!r} is not {_TYPES[key][1]}{_yaml_hint(key, value)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _yaml_hint(key: str, value) -> str:
    """For the first string of ``value`` or of its list that YAML 1.1 leaves unread, such as
    2e0, whose float ``key`` takes: that float spelt as YAML 1.1 needs it, else ""."""
    for item in value if isinstance(value, list) else [value]:
        try:
            number = float(item) if isinstance(item, str) else np.nan
        except ValueError:
            continue
        if np.isfinite(number) and _TYPES[key][0](number if item is value else [number]):
            return (f"; YAML 1.1 reads {'it' if item is value else repr(item)} as text, "
                    f"write {np.format_float_scientific(number, min_digits=1)}")
    return ""


#: The type of each config key that is not a block, the same in every block: a test
#: and a name.  Integers take integral floats such as 5.0; no type takes a bool.
_TYPES = {
    **dict.fromkeys("half_width value left right edge width gamma alpha1 alpha2 sigma peak "
                    "low high rho tau theta lambda y0 r".split(), (_is_number, "a number")),
    **dict.fromkeys("n points m".split(), (_is_integer, "an integer")),
    "seed": (lambda v: _is_integer(v) and v >= 0, "an integer >= 0"),
    "trials": (lambda v: _is_integer(v) and v >= 1, "an integer >= 1"),
    **dict.fromkeys("kind expr directory".split(), (lambda v: isinstance(v, str), "a string")),
    **dict.fromkeys("center eta ray y".split(), (lambda v: _is_number(v) or _is_numbers(v),
                                                 "a number or a list of numbers")),
    **dict.fromkeys("delta_schedule tau_list".split(), (_is_numbers, "a list of numbers")),
    "formats": (lambda v: v in ("csv", "text", "both"), "one of csv, text, both"),
}


def _coord_names(grid: gridmod.Grid) -> dict:
    names = ("x",) if grid.n == 1 else ("x1", "x2")
    return dict(zip(names, grid.coords()), r=grid.window(np.zeros(grid.n))[1])


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
    builder, needs, optional, coords = _BUILDERS[block, spec["kind"]]
    args = [spec[key] for key in needs.split()]
    if coords is not None:  # exprs is imported by the configs that use it only
        args = [_library("exprs.evaluate_expression")(spec["expr"], **coords(grid))]
    return _library(builder)(grid, *args, **_given(spec, *optional.split()))


def _given(block: dict, *keys) -> dict:
    """Keyword arguments of the keys the block sets; the library has the defaults."""
    return {key: block[key] for key in keys if key in block}


def _family_args(params: dict) -> tuple:
    """(theta, lambda, m, y0) of the config's separated ball family."""
    return float(params["theta"]), float(params["lambda"]), int(params["m"]), params.get("y0")


def _rendered(experiment, text: str, tables: dict, status=lambda report: "OK"):
    """A kind's run: the csv ``tables`` and the body of ``report.txt`` of the report of
    ``experiment()``, each from its renderer, and the report's status."""
    def execute():
        report = experiment()
        files = {name: _library(csv)(report) for name, csv in tables.items()}
        return files, _library(text)(report), status(report)
    return execute


def _chain_status(report: wit.ExperimentReport) -> str:
    return "OK" if report.chains_passed else "CHAIN FAILURE"


def _norm_lb(params: dict, space: spaces.SpaceSpec, symbol):
    plan = wit.plan_norm_lowerbound(symbol, space, float(params["rho"]),
                                    params["delta_schedule"], params.get("eta"),
                                    params.get("ray"))
    return _rendered(lambda: wit.norm_lowerbound_experiment(plan), "reports.experiment_text",
                     {"witnesses.csv": "reports.witness_csv"}, _chain_status)


def _kappa_lb(params: dict, space: spaces.SpaceSpec, symbol):
    plan = wit.plan_kuratowski(symbol, space, float(params["rho"]), *_family_args(params),
                               params.get("eta"))
    return _rendered(lambda: wit.kuratowski_experiment(plan), "reports.experiment_text",
                     {"pairwise.csv": "reports.pairwise_csv",
                      "witnesses.csv": "reports.witness_csv"}, _chain_status)


def _doubling_scan(params: dict, space: spaces.SpaceSpec, symbol):
    tau = float(params["tau"])
    schedule = [(entry["y"], float(entry["r"])) for entry in params.get("balls", ())]
    if any(k in params for k in ("theta", "lambda", "m", "y0")):
        if missing := [key for key in ("theta", "lambda", "m") if key not in params]:
            raise ValidationError(f"doubling-scan family needs '{missing[0]}'")
        schedule.extend(dbl.separated_sequence(space.domain, tau, *_family_args(params)))
    plan = dbl.plan_weak_doubling(space.domain, tau, schedule)
    return _rendered(lambda: dbl.tau_scan(space, *plan)[0],
                     "reports.doubling_text", {"doubling.csv": "reports.doubling_csv"})


def _tau_scan(params: dict, space: spaces.SpaceSpec, symbol):
    plan = dbl.plan_tau_scan(space.domain, params["tau_list"], *_family_args(params))
    return _rendered(lambda: dbl.tau_scan(space, *plan), "reports.tau_scan_text",
                     {"tau_scan.csv": "reports.tau_scan_csv"})


def _space_check(params: dict, space: spaces.SpaceSpec, symbol):
    spaces.associate_space(space)  # pre-flight: the axiom battery's Hoelder checks need it
    # config integers include integral floats such as 5.0
    kwargs = {key: int(value) for key, value in _given(params, "trials", "seed").items()}
    return _rendered(lambda: spaces.axiom_check(space, **kwargs), "reports.space_check_text",
                     {"checks.csv": "reports.space_check_csv"},
                     lambda results: "OK" if all(r.passed for r in results) else "AXIOM FAILURE")


#: One row per experiment kind: the function that runs the kind's plan step once and
#: returns the run of that plan, the keys the kind needs and the keys it may take.
_EXPERIMENTS = {
    "norm-lb": (_norm_lb, "rho delta_schedule", "eta ray"),
    "kappa-lb": (_kappa_lb, "rho theta lambda m", "y0 eta"),
    "doubling-scan": (_doubling_scan, "tau", "balls theta lambda m y0"),
    "tau-scan": (_tau_scan, "tau_list theta lambda m", "y0"),
    "space-check": (_space_check, "", "trials"),
}

#: The config format: the keys each block needs and may take, by block and kind (None
#: for the top level ``config``, ``grid``, ``space``, ``output`` and one ``balls`` entry).
_KEYS = {("config", None): ("grid space experiment", "symbol output seed"),
         ("grid", None): ("n half_width points", ""),
         ("space", None): ("exponent weight domain", ""),
         ("output", None): ("", "directory formats"),
         ("balls", None): ("y r", ""),
         **{key: row[1:3] for key, row in _BUILDERS.items()},
         **{("experiment", kind): row[1:] for kind, row in _EXPERIMENTS.items()}}


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
                     execute=_EXPERIMENTS[kind][0](params, space, symbol),
                     out_dir=output.get("directory", "out"),
                     formats=output.get("formats", "both"))


def run(cfg: RunConfig):
    """Execute the experiment; returns (artifacts, status == "OK").  ``report.txt`` is
    the renderer's body framed by the kind, the config echo and the status line."""
    echo = ["  " + line for line in cfg.echo.rstrip("\n").split("\n")]
    tables, body, status = cfg.execute()
    text = [f"experiment report: {cfg.kind}", "config:", *echo, *body, f"status: {status}"]
    return {"report.txt": "\n".join(text) + "\n", **tables}, status == "OK"


def emit(artifacts: dict, formats: str, out_dir) -> list:
    """Write the rendered artifacts; deterministic bytes for a fixed report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in sorted(artifacts.items()):
        if formats == "both" or (formats == "csv") == name.endswith(".csv"):
            path = out / name
            path.write_text(content)
            written.append(path)
    return written


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whlab", description=(
        "Config-driven lower-bound experiments for Wiener-Hopf type operators on "
        "weighted variable Lebesgue spaces."))
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
            raise ValidationError(f"subcommand {args.command!r} does not match config "
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
        print(f"run finished with {artifacts['report.txt'].splitlines()[-1]!r}",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
