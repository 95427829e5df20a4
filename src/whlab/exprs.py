"""Restricted numpy expression evaluation for config files.

An expression is parsed and checked against an AST whitelist before it
runs: names, numeric constants, unary and binary arithmetic (``&`` and
``|`` included, to combine masks), comparisons, and calls of the
whitelisted numpy functions with positional arguments.  Every integer
constant is read as a float and every comparison result as a numpy
array, so arithmetic on constants stays in fixed-size numbers, which
overflow at once, instead of building an arbitrary-precision integer.
Names resolve to those functions, ``pi``, ``e`` and the coordinate
arrays; nothing else is reachable, attribute access and lambdas included.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ValidationError

__all__ = ["evaluate_expression"]

_FUNCTIONS = {
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "arctan": np.arctan,
    "atan2": np.arctan2,
    "hypot": np.hypot,
    "sign": np.sign,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "clip": np.clip,
    "where": np.where,
    "power": np.power,
}
_CONSTANTS = {"pi": np.pi, "e": np.e}

_OPERATORS = (ast.UAdd, ast.USub, ast.Add, ast.Sub, ast.Mult, ast.Div,
              ast.FloorDiv, ast.Mod, ast.Pow, ast.BitAnd, ast.BitOr,
              ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_NODES = (ast.Expression, ast.Name, ast.Load, ast.Constant, ast.UnaryOp,
          ast.BinOp, ast.Compare, ast.Call) + _OPERATORS


def _check(tree: ast.Expression, names) -> None:
    nodes = list(ast.walk(tree))
    for node in nodes:
        if not isinstance(node, _NODES):
            raise ValidationError(f"{type(node).__name__} is not allowed")
    for node in nodes:
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValidationError(f"unknown name {node.id!r}")
        if (isinstance(node, ast.Constant)
                and (isinstance(node.value, bool)
                     or not isinstance(node.value, (int, float, complex)))):
            raise ValidationError(f"constant {node.value!r} is not a number")
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            node.value = float(node.value)
        if isinstance(node, ast.Call) and (
                not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS):
            raise ValidationError(
                "only whitelisted functions may be called, with positional arguments")


class _ArrayCompares(ast.NodeTransformer):
    """Wrap each comparison in ``_array(...)``, which is ``np.asarray`` at
    evaluation and a name ``_check`` rejects in the expression itself: a
    Python ``bool`` would add and raise to powers as an unbounded ``int``."""

    def visit_Compare(self, node):
        self.generic_visit(node)
        return ast.Call(ast.Name("_array", ast.Load()), [node], [])


def evaluate_expression(expr: str, **coords):
    """Evaluate ``expr`` over the whitelist and ``coords``."""
    if not isinstance(expr, str) or not expr.strip():
        raise ValidationError("expression must be a non-empty string")
    namespace = {**_FUNCTIONS, **_CONSTANTS, **coords}
    try:
        tree = ast.parse(expr, "<config expression>", "eval")
        _check(tree, namespace)
        tree = ast.fix_missing_locations(_ArrayCompares().visit(tree))
        code = compile(tree, "<config expression>", "eval")
        with np.errstate(all="ignore"):  # fields and symbols reject non-finite values
            return eval(code, {"__builtins__": {}}, {**namespace, "_array": np.asarray})
    except Exception as exc:
        why = "it overflows the float range" if isinstance(exc, OverflowError) else exc
        raise ValidationError(f"expression {expr!r} rejected: {why}") from exc
