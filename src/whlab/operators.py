"""Continuum-normalized FFT, Fourier multipliers, and the compression
W_Omega(a) = r_Omega F^{-1} a F e_Omega.

With node coordinates x_m = -L + m h and frequency nodes xi_k = pi k / L in the FFT order
of :class:`whlab.grid.Grid`, the pairing e^{-i x xi} turns a DFT into the Riemann sum of
the continuum transform through one scaling and one alternating sign:

    (F u)(xi_k) = h^n (-1)^{k_1 + ... + k_n} fft_n(u)[k],

exact on grid exponentials up to round-off.  A multiplier image needs neither: the sign
squares to 1 and the scalings cancel, so F^{-1}(a . F u) = ifft_n(a . fft_n(u)) with the
symbol as stored.  Scaling by a power of two is exact in binary floating point (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 2.1), so for such h^n this
image is bit-identical to inverse_fourier(a . fourier(u)), and otherwise a few ulp from
it.  The box is periodic, so every experiment keeps supports away from the boundary per
the margin rule (support diameter at most L/2; each center coordinate plus the support
radius at most 3L/4); aliasing then stays below the stated tolerances.

A real u under a Hermitian symbol, a(-xi) = conj a(xi) on the DFT lattice, has a real
image.  :func:`_multiplier_image` forms such an image by rfftn, a multiply by the symbol's
half-spectrum and irfft, and every other image by the complex in-place pair.  A
:class:`GridFunction` is complex, so :func:`apply_multiplier` takes the pair, and the real
path serves the real witnesses of :func:`whlab.witness.mollification_residual`.  A
real-data FFT does about half the work of a complex one (Sorensen, Jones, Heideman and
Burrus, IEEE Trans. ASSP 35, 1987): a 2^18-node image took 10.4 ms against 15.4 ms, and a
512^2 one 3.5 ms against 7.3 ms (best of 7, 2-core VM).  A modulated witness keeps the
complex pair: its real form needs one irfftn per Hermitian part of the shifted symbol,
and on 2-D grids rfftn and irfftn each take two passes, so rfftn and two irfftn do the
complex pair's work.  That split path made the perfbench sector-2d run_s 0.116 s ->
0.130-0.155 s on the same VM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, ValidationError
from .grid import (DomainMask, Grid, GridFunction, _handed_over, _node_values, as_point,
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
    """Multiplier samples a(xi_k), stored in the FFT order of :class:`Grid`:
    float when every sample is real, complex otherwise.  ``hermitian`` records
    whether a(-xi) = conj a(xi) on the DFT lattice, under which a real
    function has a real image (:func:`_multiplier_image`)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.values)
        dtype = complex if np.iscomplexobj(raw) and np.any(raw.imag) else float
        vals = _node_values(raw, self.grid, dtype, "symbol values")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("symbol values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sup_norm", float(np.max(np.abs(vals))))
        object.__setattr__(self, "hermitian", _is_hermitian(vals))

    def at(self, index) -> float | complex:
        return self.values[index].item()


def _is_hermitian(vals: np.ndarray) -> bool:
    """Whether ``vals[(-k) mod N] == conj(vals[k])`` along every axis.  In
    FFT order node k sits at index k mod N, so the node at index i has its
    mirror at index (N - i) mod N: index 0, the zero node, is its own mirror,
    and ``[1:]`` mirrors onto itself reversed.  Each of the 2^n blocks is
    compared as a view."""
    parts = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for block in itertools.product(parts, repeat=vals.ndim):
        here, there = (vals[tuple(axis)] for axis in zip(*block))
        if not np.array_equal(here, there.conj() if np.iscomplexobj(there) else there):
            return False
    return True


def symbol_from_values(grid: Grid, values) -> Symbol:
    return Symbol(grid, np.broadcast_to(values, grid.shape))


def symbol_from_function(grid: Grid, fn) -> Symbol:
    """Sample a callable of the frequency coordinates."""
    return symbol_from_values(grid, fn(*grid.freq_coords()))


def constant_symbol(grid: Grid, c) -> Symbol:
    return Symbol(grid, np.broadcast_to(c, grid.shape))


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
        return Symbol(grid, _handed_over(peak * np.exp(-r2 / var2)))


def smoothed_step_symbol(grid: Grid, edge: float = 0.0, width: float | None = None,
                         low: float = 0.0, high: float = 1.0) -> Symbol:
    """Step from ``low`` to ``high`` at ``edge`` along the first frequency
    axis, smoothed over ``width`` (default: four frequency cells)."""
    if width is None:
        width = 4.0 * np.pi / grid.half_width
    return symbol_from_values(grid, ramp(grid.freq_coords()[0], edge, width, low, high))


def _phase(n: int, points: int) -> np.ndarray:
    """The sign (-1)^(k_1 + ... + k_n) on the frequency nodes: node k sits at
    index k mod N (:class:`Grid`), and N is even."""
    out = (1 - 2 * (np.arange(points) % 2)).astype(float)
    if n == 2:
        out = np.outer(out, out)
    return out


def fourier(u: GridFunction) -> GridFunction:
    """Riemann-sum Fourier transform, values on the frequency nodes."""
    g = u.grid
    return GridFunction(g, (g.h ** g.n) * _phase(g.n, g.points) * np.fft.fftn(u.values))


def inverse_fourier(v: GridFunction) -> GridFunction:
    """Discrete inverse with the (2 pi)^{-n} normalization; exact inverse
    of :func:`fourier` up to round-off."""
    g = v.grid
    return GridFunction(g, np.fft.ifftn(_phase(g.n, g.points) * v.values) / (g.h ** g.n))


def apply_multiplier(a: Symbol, u: GridFunction) -> GridFunction:
    """F^{-1}(a . F u), one pass over the spectrum (module docstring), formed
    by :func:`_multiplier_image` in a complex copy of u's values."""
    if a.grid != u.grid:
        raise ValidationError("symbol and function live on different grids")
    return GridFunction(u.grid, _handed_over(_multiplier_image(a, u.values.copy())))


def _multiplier_image(a: Symbol, values: np.ndarray) -> np.ndarray:
    """F^{-1}(a . F u) of the u with ``values`` on the grid of ``a``, formed
    in ``values`` itself, which the image replaces, and returned.

    Real ``values`` under a Hermitian symbol have a real image: ``rfftn``, a
    multiply by the view ``a.values[..., :N/2 + 1]`` (index N/2 is the Nyquist
    node), the inverse in place on the half-spectrum and ``irfft`` into
    ``values``; ``irfftn`` would allocate a second half-spectrum for the
    leading axes (a 512^2 image peaked at 4.0 MiB of arrays with it, 2.4 MiB
    without).  Every other image is the complex in-place pair.
    """
    try:
        with np.errstate(over="raise"):
            if np.isrealobj(values) and a.hermitian:
                kept = a.grid.points // 2 + 1  # k = 0 .. N/2 of the last axis
                spec = np.fft.rfftn(values, out=np.empty(values.shape[:-1] + (kept,), complex))
                np.multiply(spec, a.values[..., :kept], out=spec)
                for axis in range(a.grid.n - 1):
                    np.fft.ifft(spec, axis=axis, out=spec)
                return np.fft.irfft(spec, a.grid.points, axis=-1, out=values)
            values = values.astype(complex, copy=False)  # a copy only of real values
            spec = np.fft.fftn(values, out=values)
            np.multiply(a.values, spec, out=spec)
            return np.fft.ifftn(spec, out=spec)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiplier image overflows: {exc}") from None


def wiener_hopf_apply(a: Symbol, omega: DomainMask, u: GridFunction) -> GridFunction:
    """restrict(F^{-1} a F (extend-by-zero u), Omega)."""
    return restrict(apply_multiplier(a, extend_by_zero(u, omega)), omega)


def nearest_freq_node(grid: Grid, eta):
    """Index tuple and exact frequency of the node closest to ``eta``, which
    must lie in the frequency range of the grid: the node k = round(eta_i / spacing)
    sits at index k mod N."""
    e = as_point(eta, grid.n)
    N = grid.points
    lo, hi = grid.xi_axis[N // 2], grid.xi_axis[N // 2 - 1]  # k = -N/2 and N/2 - 1
    if not all(lo <= c <= hi for c in e):
        raise ValidationError(f"eta = {tuple(e.tolist())} lies outside the frequency "
                              f"range [{lo:g}, {hi:g}] of the grid")
    spacing = np.pi / grid.half_width
    idx = tuple(int(round(c / spacing)) % N for c in e)
    return idx, np.array([grid.xi_axis[i] for i in idx])


def argmax_freq_node(a: Symbol):
    """Deterministic probing node: among |a| maximizers (1e-12 relative
    tie window) pick the one closest to frequency zero, then the lowest
    frequency in ascending lexicographic order.  At such a node the symbol
    is sampled at a continuity point of the config families used here."""
    mag = np.abs(a.values)
    tie = mag >= mag.max() * (1.0 - 1e-12)
    dist2 = np.where(tie, sum(m ** 2 for m in a.grid.freq_coords()), np.inf)
    np.equal(dist2, dist2.min(), out=tie)  # the maximizers closest to zero
    nodes = np.unravel_index(np.flatnonzero(tie), a.grid.shape)
    # np.lexsort sorts by its last key first, so the first axis goes last
    first = np.lexsort([a.grid.xi_axis[i] for i in reversed(nodes)])[0]
    best = tuple(i[first] for i in nodes)
    return best, np.array([float(a.grid.xi_axis[i]) for i in best])
