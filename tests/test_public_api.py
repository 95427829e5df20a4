"""Every public name of a ``whlab`` module has a user besides its own tests.

A name in a module's ``__all__`` counts as used when code in ``src/whlab``
(outside ``__init__.py``), ``demos/`` or ``perfbench/`` reads it: an
attribute, a dotted ``"layer.name"`` key such as the ones
``perfbench/tracer.py`` reads the traced functions by, or a loaded name
that the file imports from whlab or defines at module level, so that a
local variable of the same name is not a use.  The name's own definition
and its ``__all__`` entry are not uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")),
         *sorted((ROOT / "perfbench").glob("*.py"))]


def _public_names(path):
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _own_names(tree):
    """The names a file imports from whlab, under the whlab name, and the
    names it defines at module level."""
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").split(".")[0] == "whlab")
                for alias in node.names}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            imported[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    imported[target.id] = target.id
    return imported


def _references():
    """Every name read by the code of the user files."""
    found = set()
    for path in USERS:
        tree = ast.parse(path.read_text())
        own = _own_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in own:
                    found.add(own[node.id])
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.count(".") == 1 and " " not in node.value):
                found.add(node.value.split(".")[1])
    return found


def test_every_public_name_has_a_user():
    public = [(path.stem, name) for path in MODULES for name in _public_names(path)]
    assert {module for module, _ in public} >= {"grid", "spaces", "operators",
                                                 "witness", "doubling", "cli", "kernel"}
    used = _references()
    assert [f"whlab.{module}.{name}" for module, name in public if name not in used] == []


def test_package_exports_exactly_the_layers_public_names():
    import importlib
    import types

    import whlab

    layers = ("errors", "grid", "spaces", "doubling", "operators", "witness")
    public = {name: layer for layer in layers
              for name in _public_names(PACKAGE / f"{layer}.py")}
    assert sorted(whlab.__all__) == sorted(public)
    assert {name for name in dir(whlab) if not name.startswith("_")
            and not isinstance(getattr(whlab, name), types.ModuleType)} == set(public)
    for name, layer in public.items():
        assert getattr(whlab, name) is getattr(importlib.import_module(f"whlab.{layer}"), name)
    star = {}
    exec("from whlab import *", star)
    assert star.keys() - {"__builtins__"} == set(public)
