"""whlab: lower-bound experiments for Wiener-Hopf type operators on
weighted variable Lebesgue spaces over cones.

The package discretizes R^n (n = 1, 2) on a truncated uniform grid,
equips it with Luxemburg norms for X(Omega) = L^{p(.)}(Omega, w), builds
the compression W_Omega(a) = r_Omega F^{-1} a F e_Omega of a Fourier
multiplier to a cone, and runs the constructive witness experiments that
certify, at desk scale,

    sup |a|  <=  ||W_Omega(a)||        (norm lower bound)
    sup |a| / 2  <=  ||W_Omega(a)||_kappa   (noncompactness lower bound,
                                             up to the measured doubling
                                             constant and residual terms)

together with the doubling-constant scans the bounds rest on.

The public API is the ``__all__`` of the layers ``errors``, ``grid``,
``spaces``, ``doubling``, ``operators`` and ``witness``.  A name is looked
up in its layer on first use (PEP 562), so ``import whlab`` imports no
layer and a run imports only the layers its experiment kind runs
(:mod:`whlab.cli`): every kind imports ``errors``, ``grid``, ``profiles``
and ``spaces``, and ``reports`` to render; a config with a symbol block
adds ``operators``, and one with an expression adds ``exprs``.  norm-lb
adds ``witness``, kappa-lb ``witness`` and ``doubling``, doubling-scan and
tau-scan ``doubling``; ``witness`` imports ``kernel`` for a plan that may
hold a transform box only.
"""

import importlib.util

#: The layers whose ``__all__`` the package exports.
_LAYERS = ("errors", "grid", "spaces", "doubling", "operators", "witness")

__version__ = "0.1.0"


def _public() -> list:
    return [name for layer in _LAYERS
            for name in importlib.import_module(f"{__name__}.{layer}").__all__]


def __getattr__(name: str):
    """``__all__``, a submodule, or the public name of a layer.  A submodule name
    imports that submodule alone: ``from whlab import cli`` asks the package for
    ``cli`` before it imports ``whlab.cli``, so searching the layers first would
    import every layer."""
    if name == "__all__":
        return _public()
    if not name.startswith("_"):
        if importlib.util.find_spec(f"{__name__}.{name}") is not None:
            return importlib.import_module(f"{__name__}.{name}")
        for layer in _LAYERS:
            module = importlib.import_module(f"{__name__}.{layer}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_public()})
