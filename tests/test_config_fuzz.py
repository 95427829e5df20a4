"""Config fuzzing: ``whlab validate`` on mutated configs exits 0, 2 or 3.

Small valid configs (each passes ``validate`` as written) are mutated by dropping keys, swapping in scalars,
lists, NaN or infinity, and changing kinds.  Whatever comes out, the CLI
must end with success, a validation error or a numeric failure, never a
traceback.  The base grids have at most 256 points per axis and no
mutation makes a grid larger.
"""

import copy
import math

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import cli

BASES = [
    {"grid": {"n": 1, "half_width": 64.0, "points": 256},
     "space": {"exponent": {"kind": "piecewise", "left": 2.0, "right": 2.5},
               "weight": {"kind": "power", "gamma": 0.1},
               "domain": {"kind": "halfline"}},
     "symbol": {"kind": "gaussian", "center": 0.0, "sigma": 2.0, "peak": 1.0},
     "experiment": {"kind": "norm-lb", "rho": 2.0, "delta_schedule": [0.5, 0.25],
                    "eta": 0.0, "ray": 1.0},
     "output": {"directory": "out", "formats": "both"},
     "seed": 0},
    {"grid": {"n": 2, "half_width": 32.0, "points": 256},
     "space": {"exponent": {"kind": "constant", "value": 2.0},
               "weight": {"kind": "constant", "value": 1.0},
               "domain": {"kind": "cone", "alpha1": 0.0, "alpha2": 1.5}},
     "symbol": {"kind": "smoothed-step", "edge": -1.0, "width": 0.5,
                "low": 0.0, "high": 1.0},
     "experiment": {"kind": "kappa-lb", "rho": 2.0, "theta": 0.1,
                    "lambda": 1.6, "m": 2, "y0": 10.0}},
    {"grid": {"n": 2, "half_width": 32.0, "points": 256},
     "space": {"exponent": {"kind": "expression", "expr": "2.0 + 0.1*exp(-r)"},
               "weight": {"kind": "expression", "expr": "1.0 + 0.0*x1"},
               "domain": {"kind": "cone", "alpha1": 0.0, "alpha2": 1.5}},
     "experiment": {"kind": "tau-scan", "tau_list": [2.0, 1.5], "theta": 0.1,
                    "lambda": 1.6, "m": 2, "y0": 10.0}},
    {"grid": {"n": 1, "half_width": 64.0, "points": 256},
     "space": {"exponent": {"kind": "constant", "value": 2.0},
               "weight": {"kind": "constant", "value": 1.0},
               "domain": {"kind": "full"}},
     "experiment": {"kind": "doubling-scan", "tau": 2.0,
                    "balls": [{"y": 0.0, "r": 1.0}, {"y": 4.0, "r": 1.0}],
                    "theta": 0.1, "lambda": 1.6, "m": 2, "y0": 20.0}},
    {"grid": {"n": 1, "half_width": 16.0, "points": 128},
     "space": {"exponent": {"kind": "constant", "value": 3.0},
               "weight": {"kind": "expression", "expr": "exp(abs(x)/8)"},
               "domain": {"kind": "full"}},
     "symbol": {"kind": "expression", "expr": "0.5 + 0.0*xi"},
     "experiment": {"kind": "space-check", "trials": 3},
     "seed": 1},
]

NUMBERS = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0, -1, 1,
           0.5, 2.5, 3]
SCALARS = NUMBERS + ["x", True, None]
KINDS = {
    "exponent": ["constant", "piecewise", "expression"],
    "weight": ["constant", "power", "expression"],
    "domain": ["full", "halfline", "cone"],
    "symbol": ["constant", "gaussian", "smoothed-step", "expression"],
    "experiment": ["norm-lb", "kappa-lb", "doubling-scan", "tau-scan",
                   "space-check"],
}


def _paths(node, prefix=()):
    """Every key path and list index below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A base config with one to three mutations inside its blocks."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["scalar", "kind", "drop", "list"]))
        paths = [p for p in _paths(cfg) if len(p) >= 2]
        if op == "kind":
            paths = [p for p in paths if p[-1] == "kind"]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "drop":
            del parent[key]
        elif op == "scalar":
            parent[key] = draw(st.sampled_from(SCALARS))
        elif op == "list":
            parent[key] = draw(st.lists(st.sampled_from(NUMBERS), max_size=3))
        else:
            parent[key] = draw(st.sampled_from(KINDS[path[-2]]))
    return cfg


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cfg=mutated_configs())
def test_validate_never_raises(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("fuzz") / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["validate", "--config", str(path)]) in (0, 2, 3)
