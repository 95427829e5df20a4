"""Continuum-normalized FFT, Fourier multipliers, and the compression
W_Omega(a) = r_Omega F^{-1} a F e_Omega.

With node coordinates x_m = -L + m h and frequency nodes xi_k = pi k / L,
the pairing e^{-i x xi} turns a DFT into the Riemann sum of the continuum
transform through one scaling and one alternating sign:

    (F u)(xi_k) = h^n (-1)^{k_1 + ... + k_n} fftshift(fft_n(u))[k],

exact on grid exponentials up to round-off.  A multiplier image needs neither: the sign
squares to 1 and the scalings cancel, so F^{-1}(a . F u) = ifft_n(S(a) . fft_n(u)) with
S = ifftshift, which swaps the halves [:N/2] and [N/2:] of each axis.  Scaling by a power
of two is exact in binary floating point (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., sec. 2.1), so for such h^n this image is bit-identical to
inverse_fourier(a . fourier(u)), and otherwise a few ulp from it.  The box is periodic,
so every experiment keeps supports away from the boundary per the margin rule (support
diameter at most L/2; each center coordinate plus the support radius at most 3L/4);
aliasing then stays below the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, ValidationError
from .grid import (DomainMask, Grid, GridFunction, _node_values, as_point,
                   extend_by_zero, restrict)
from .profiles import ramp

__all__ = [
    "Symbol",
    "symbol_from_values",
    "symbol_from_function",
    "constant_symbol",
    "gaussian_symbol",
    "smoothed_step_symbol",
    "fourier",
    "inverse_fourier",
    "apply_multiplier",
    "wiener_hopf_apply",
    "nearest_freq_node",
    "argmax_freq_node",
]


@dataclass(frozen=True, eq=False)
class Symbol:
    """Multiplier samples a(xi_k), stored in ascending-frequency order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _node_values(self.values, self.grid, complex, "symbol values")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("symbol values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sup_norm", float(np.max(np.abs(vals))))

    def at(self, index) -> complex:
        return complex(self.values[index])


def symbol_from_values(grid: Grid, values) -> Symbol:
    return Symbol(grid, np.broadcast_to(np.asarray(values, complex), grid.shape).copy())


def symbol_from_function(grid: Grid, fn) -> Symbol:
    """Sample a callable of the frequency coordinates."""
    return symbol_from_values(grid, fn(*grid.freq_coords()))


def constant_symbol(grid: Grid, c) -> Symbol:
    return Symbol(grid, np.full(grid.shape, complex(c)))


def gaussian_symbol(grid: Grid, center=None, sigma: float = 1.0,
                    peak: float = 1.0) -> Symbol:
    """peak * exp(-|xi - center|^2 / (2 sigma^2)) on the frequency nodes;
    ``center=None`` is the origin."""
    # sigma ** 2 raises OverflowError from about 1.34e154 on
    var2 = 2.0 * sigma ** 2 if 0 < sigma < 1e154 else 0.0
    if not (np.finfo(float).tiny <= var2 < np.inf):
        raise ValidationError("gaussian symbol needs sigma > 0 with 2 sigma^2 a positive "
                              f"normal float (got sigma = {sigma:g})")
    c = np.zeros(grid.n) if center is None else as_point(center, grid.n)
    # a far center or small sigma underflows it to 0, where an infinite peak
    # gives nan; Symbol rejects that
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = sum((m - ci) ** 2 for m, ci in zip(grid.freq_coords(), c))
        return Symbol(grid, peak * np.exp(-r2 / var2))


def smoothed_step_symbol(grid: Grid, edge: float = 0.0, width: float | None = None,
                         low: float = 0.0, high: float = 1.0) -> Symbol:
    """Step from ``low`` to ``high`` at ``edge`` along the first frequency
    axis, smoothed over ``width`` (default: four frequency cells)."""
    if width is None:
        width = 4.0 * np.pi / grid.half_width
    return symbol_from_values(grid, ramp(grid.freq_coords()[0], edge, width, low, high))


def _phase(n: int, points: int) -> np.ndarray:
    """The sign (-1)^(k_1 + ... + k_n) on the frequency nodes."""
    k = np.arange(-(points // 2), points // 2)
    out = (1 - 2 * (np.abs(k) % 2)).astype(float)
    if n == 2:
        out = np.outer(out, out)
    return out


def fourier(u: GridFunction) -> GridFunction:
    """Riemann-sum Fourier transform, values on ascending frequency nodes."""
    g = u.grid
    hat = np.fft.fftshift(np.fft.fftn(u.values))
    return GridFunction(g, (g.h ** g.n) * _phase(g.n, g.points) * hat)


def inverse_fourier(v: GridFunction) -> GridFunction:
    """Discrete inverse with the (2 pi)^{-n} normalization; exact inverse
    of :func:`fourier` up to round-off."""
    g = v.grid
    spec = np.fft.ifftshift(_phase(g.n, g.points) * v.values)
    return GridFunction(g, np.fft.ifftn(spec) / (g.h ** g.n))


def apply_multiplier(a: Symbol, u: GridFunction) -> GridFunction:
    """F^{-1}(a . F u), one pass over the FFT-order spectrum (module docstring)."""
    if a.grid != u.grid:
        raise ValidationError("symbol and function live on different grids")
    return GridFunction(u.grid, _multiplier_image(a, u.values.copy()))


def _multiplier_image(a: Symbol, values: np.ndarray) -> np.ndarray:
    """F^{-1}(a . F u) of the u with complex ``values`` on the grid of ``a``,
    formed in ``values`` itself, which the image replaces, and returned."""
    halves = (2, a.grid.points // 2) * a.grid.n  # each axis as its two halves
    try:
        with np.errstate(over="raise"):
            spec = np.fft.fftn(values, out=values)
            swapped = a.values.reshape(halves)[(slice(None, None, -1), slice(None)) * a.grid.n]
            np.multiply(swapped, spec.reshape(halves), out=spec.reshape(halves))
            return np.fft.ifftn(spec, out=spec)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiplier image overflows: {exc}") from None


def wiener_hopf_apply(a: Symbol, omega: DomainMask, u: GridFunction) -> GridFunction:
    """restrict(F^{-1} a F (extend-by-zero u), Omega)."""
    return restrict(apply_multiplier(a, extend_by_zero(u, omega)), omega)


def nearest_freq_node(grid: Grid, eta):
    """Index tuple and exact frequency of the node closest to ``eta``, which
    must lie in the frequency range of the grid."""
    e = as_point(eta, grid.n)
    lo, hi = grid.xi_axis[0], grid.xi_axis[-1]
    if not all(lo <= c <= hi for c in e):
        raise ValidationError(f"eta = {tuple(e.tolist())} lies outside the frequency "
                              f"range [{lo:g}, {hi:g}] of the grid")
    spacing = np.pi / grid.half_width
    idx = tuple(int(round(c / spacing)) + grid.points // 2 for c in e)
    return idx, np.array([grid.xi_axis[i] for i in idx])


def argmax_freq_node(a: Symbol):
    """Deterministic probing node: among |a| maximizers (1e-12 relative
    tie window) pick the one closest to frequency zero, then the smallest
    index.  At such a node the symbol is sampled at a continuity point of
    the config families used here."""
    mag = np.abs(a.values)
    tie = mag >= mag.max() * (1.0 - 1e-12)
    dist2 = sum(m ** 2 for m in a.grid.freq_coords())
    dist2 = np.where(tie, dist2, np.inf)
    best = np.unravel_index(int(np.argmin(dist2)), a.grid.shape)
    eta = np.array([float(a.grid.xi_axis[i]) for i in best])
    return best, eta
