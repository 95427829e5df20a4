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
half-spectrum and irfft, and every other image by a complex spectrum and an in-place
ifftn.  A :class:`GridFunction` is complex, so :func:`apply_multiplier` takes the complex
path, and the real path serves the real witnesses of
:func:`whlab.witness.mollification_residual`.  A real-data FFT does about half the work of
a complex one (Sorensen, Jones, Heideman and Burrus, IEEE Trans. ASSP 35, 1987): a
2^18-node image took 10.4 ms against 15.4 ms, and a 512^2 one 3.5 ms against 7.3 ms
(best of 7, 2-core VM).

A modulated witness f = e^{i eta.x} phi, with phi real and eta = (pi / L) k0 a frequency
node, is never formed.  On the nodes x_m = -L + m h, e^{i eta.x_m} = (-1)^{k0_1 + ... +
k0_n} e^{2 pi i k0.m / N}, so fft_n(f)[k] = (-1)^{k0_1 + ... + k0_n} fft_n(phi)[k - k0] and

    h = e^{-i eta.x} F^{-1}(a . F f) = ifft_n(a[k + k0] . fft_n(phi)[k]),

indices mod N: the demodulated image h multiplies the spectrum of the real phi by the
symbol read at the probing node, and |h| = |W f| node by node.  The symbol is read
through two block views per shifted axis, never as a rolled copy (2 MiB at 2^18 nodes).
On 1-D grids the spectrum of phi is rfft and the Hermitian fill spec[N - k] =
conj spec[k]; on 2-D grids phi is written into a complex array that fftn's passes
transform in place, the first pass, along the last axis, over the rows of phi's window
only.  The perfbench kappa-1d run_s at seed 1, an off-centre Gaussian probed at
eta != 0, fell from 0.153 to 0.125 s against forming f and the complex pair (medians of 10
alternated pairs, 2-core VM), and at seed 7 from 0.150 to 0.123 s; sector-2d run_s fell
from 0.112 to 0.103 s at seed 1 and from 0.068 to 0.061 s at seed 0.
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


def _multiplier_image(a: Symbol, values: np.ndarray, node: tuple = (),
                      window: tuple | None = None) -> np.ndarray:
    """e^{-i eta.x} F^{-1}(a . F(e^{i eta.x} u)) of the u with ``values`` on
    the grid of ``a``, with eta the frequency node at the index tuple ``node``
    (zero when omitted): ifft_n(a[k + node] . fft_n(u)[k]) by the demodulation
    identity of the module docstring.  Complex ``values`` are transformed in
    place and returned.  With ``window``, a tuple of slices, ``values`` hold
    u on that window only, u is 0 off it, and u is written into a zeroed grid
    array: real u into a float one when a real transform follows, so on 1-D
    grids and at eta = 0 under a Hermitian symbol.  The forward transform's
    first pass, along the last axis, then reads only the window's rows: the
    transform of a zero row is zero.

    Real u under a Hermitian symbol at eta = 0 has a real image: the passes
    of ``rfftn``, a multiply by the view ``a.values[..., :N/2 + 1]`` (index
    N/2 is the Nyquist node), the inverse in place on the half-spectrum and
    ``irfft`` into ``values``; ``irfftn`` would allocate a second
    half-spectrum for the leading axes (a 512^2 image peaked at 4.0 MiB of
    arrays with it, 2.4 MiB without).  Every other image takes the complex
    spectrum of :func:`_spectrum`, the multiply by ``a`` read at k + node
    through two block views per shifted axis (:func:`_shifted_blocks`; no
    rolled copy of the symbol), and ``ifftn`` in place.  A float grid array
    formed here is freed before the inverse.
    """
    shift = tuple(node) or (0,) * a.grid.n
    real = np.isrealobj(values) and a.hermitian and not any(shift)
    rows = (slice(None),) * (a.grid.n - 1)  # the rows u may be nonzero on
    if window is not None:
        u = np.zeros(a.grid.shape, values.dtype if real or a.grid.n == 1 else complex)
        u[window] = values
        values, rows = u, window[:-1]
        del u  # so the float u is freed with the name values below
    try:
        with np.errstate(over="raise"):
            if real:
                kept = a.grid.points // 2 + 1  # k = 0 .. N/2 of the last axis
                spec = np.zeros(values.shape[:-1] + (kept,), complex)
                np.fft.rfft(values[rows], axis=-1, out=spec[rows])  # rfftn's passes
                for axis in range(a.grid.n - 1):
                    np.fft.fft(spec, axis=axis, out=spec)
                np.multiply(spec, a.values[..., :kept], out=spec)
                for axis in range(a.grid.n - 1):
                    np.fft.ifft(spec, axis=axis, out=spec)
                return np.fft.irfft(spec, a.grid.points, axis=-1, out=values)
            spec = _spectrum(values, rows)
            del values
            for here, there in _shifted_blocks(a.grid.points, shift):
                np.multiply(a.values[there], spec[here], out=spec[here])
            return np.fft.ifftn(spec, out=spec)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiplier image overflows: {exc}") from None


def _spectrum(values: np.ndarray, rows: tuple = ()) -> np.ndarray:
    """fft_n of ``values`` as a complex array: real 1-D ``values`` by ``rfft``
    into the first N/2 + 1 entries and the Hermitian fill
    spec[N - k] = conj spec[k] of the rest; others in place, complex ones in
    themselves and real ones in a complex copy, by fftn's passes, the last
    axis first and there only over ``rows``, which hold every nonzero row."""
    if np.isrealobj(values) and values.ndim == 1:
        half = values.size // 2
        spec = np.empty(values.shape, complex)
        np.fft.rfft(values, out=spec[:half + 1])
        np.conjugate(spec[half - 1:0:-1], out=spec[half + 1:])
        return spec
    values = values.astype(complex, copy=False)  # a copy only of real values
    np.fft.fft(values[rows], axis=-1, out=values[rows])
    for axis in range(values.ndim - 1):
        np.fft.fft(values, axis=axis, out=values)
    return values


def _shifted_blocks(points: int, shift: tuple):
    """``(here, there)`` index pairs that pair every spectrum index k with the
    symbol index (k + shift) mod N: an axis shifted by s splits into k < N - s,
    read from s on, and k >= N - s, read from 0 on; an unshifted axis is one
    block."""
    axes = [[(slice(0, points - s), slice(s, None))]
            + ([(slice(points - s, None), slice(0, s))] if s else []) for s in shift]
    for block in itertools.product(*axes):
        yield tuple(here for here, _ in block), tuple(there for _, there in block)


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
    del mag
    if 8 * np.count_nonzero(tie) <= tie.size:  # few maximizers: distances at them only
        nodes = np.unravel_index(np.flatnonzero(tie), a.grid.shape)
        dist2 = sum(a.grid.xi_axis[i] ** 2 for i in nodes)
        nodes = tuple(i[dist2 == dist2.min()] for i in nodes)  # those closest to zero
    else:  # a plateau: one grid of distances, so memory and time stay bounded
        dist2 = sum(m ** 2 for m in a.grid.freq_coords())
        np.copyto(dist2, np.inf, where=~tie)
        nodes = np.unravel_index(np.flatnonzero(dist2 == dist2.min()), a.grid.shape)
    # np.lexsort sorts by its last key first, so the first axis goes last
    first = np.lexsort([a.grid.xi_axis[i] for i in reversed(nodes)])[0]
    best = tuple(i[first] for i in nodes)
    return best, np.array([float(a.grid.xi_axis[i]) for i in best])
