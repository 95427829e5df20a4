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

A :class:`GridFunction` is complex, so :func:`apply_multiplier` transforms a complex copy
of u in place.  The images of :func:`whlab.witness.mollification_residual` are of a real
witness: a modulated witness f = e^{i eta.x} phi, with phi real and eta = (pi / L) k0 a
frequency node, is never formed.  On the nodes x_m = -L + m h, e^{i eta.x_m} =
(-1)^{k0_1 + ... + k0_n} e^{2 pi i k0.m / N}, so fft_n(f)[k] = (-1)^{k0_1 + ... + k0_n}
fft_n(phi)[k - k0] and

    h = e^{-i eta.x} F^{-1}(a . F f) = ifft_n(a[k + k0] . fft_n(phi)[k]),

indices mod N: the demodulated image h multiplies the spectrum of the real phi by the
symbol read at the probing node, and |h| = |W f| node by node.  :func:`_multiplier_image`
forms it with one forward transform, rfft of the rows of phi's window and the passes
along the leading axes on that half-spectrum.  Under a Hermitian symbol, a(-xi) =
conj a(xi) on the DFT lattice, at eta = 0 the image is real, and irfft inverts the
half-spectrum times the symbol's half; otherwise the other half is filled by
spec[k] = conj spec[(-k) mod N], the symbol is read at k + k0 through two block views per
shifted axis, never as a rolled copy (2 MiB at 2^18 nodes), and ifftn inverts in place.
A real-data FFT does about half the work of a complex one (Sorensen, Jones, Heideman and
Burrus, IEEE Trans. ASSP 35, 1987): a 512^2 image at eta != 0 with an 80^2 window took
5.64 ms against 6.66 ms through a complex forward transform, at the same peak memory
(medians of 41 alternated calls, 2-core VM).

Most witness images are formed on a transform box of a few window widths instead of
the whole grid (:mod:`whlab.kernel`): :func:`_spectral_image` then multiplies by the
box's spectrum of the modulated kernel, read at node 0, and the same steps give the
whole grid's image on the box.
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
    """Whether ``vals[(-k) mod N] == conj(vals[k])`` along every axis, each
    block of :func:`_mirror_blocks` compared as a view."""
    for here, there in _mirror_blocks(vals.ndim):
        if not np.array_equal(vals[here], vals[there].conj() if np.iscomplexobj(vals)
                              else vals[there]):
            return False
    return True


def _mirror_blocks(ndim: int, kept: int | None = None):
    """``(here, there)`` index pairs that pair every index k with its mirror
    (-k) mod N along every axis.  In FFT order node k sits at index k mod N,
    so index i has its mirror at (N - i) mod N: index 0, the zero node, is its
    own mirror, and ``[1:]`` mirrors onto itself reversed; the 2^n blocks are
    views.  With ``kept`` = N/2 + 1, the last axis pairs only the indices
    N/2 + 1 .. N - 1, which an rfft leaves out, with their mirrors N/2 - 1 .. 1."""
    parts = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    last = parts if kept is None else ((slice(kept, None), slice(kept - 2, 0, -1)),)
    for block in itertools.product(*[parts] * (ndim - 1), last):
        yield tuple(here for here, _ in block), tuple(there for _, there in block)


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
    # gives nan; Symbol rejects that.  Formed in place in the array of r2, so the
    # build holds one grid array: (-r2)/var2 = r2/(-var2) bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        vals = sum((m - ci) ** 2 for m, ci in zip(grid.freq_coords(), c))
        np.divide(vals, -var2, out=vals)
        np.exp(vals, out=vals)
        np.multiply(vals, peak, out=vals)
        return Symbol(grid, _handed_over(vals))


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
    """F^{-1}(a . F u), one pass over the spectrum (module docstring): fftn,
    the multiply and ifftn, each in place in one complex copy of u's values."""
    if a.grid != u.grid:
        raise ValidationError("symbol and function live on different grids")
    spec = u.values.copy()
    try:
        with np.errstate(over="raise"):
            np.fft.fftn(spec, out=spec)
            np.multiply(a.values, spec, out=spec)
            np.fft.ifftn(spec, out=spec)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiplier image overflows: {exc}") from None
    return GridFunction(u.grid, _handed_over(spec))


def _multiplier_image(a: Symbol, values: np.ndarray, node: tuple,
                      window: tuple) -> np.ndarray:
    """e^{-i eta.x} F^{-1}(a . F(e^{i eta.x} u)) = ifft_n(a[k + node] . fft_n(u)[k])
    (module docstring), eta the frequency node at the index tuple ``node``, of
    the real u that holds ``values`` on ``window``, a tuple of slices, and 0 off it:
    :func:`_spectral_image` with the symbol's values."""
    return _spectral_image(a.values, values, node, window, a.hermitian and not any(node))


def _spectral_image(multiplier: np.ndarray, values: np.ndarray, node: tuple,
                    window: tuple, real: bool) -> np.ndarray:
    """ifft_n(multiplier[k + node] . fft_n(u)[k]) on the shape of ``multiplier``,
    with u as in :func:`_multiplier_image`; ``real`` for a Hermitian multiplier at
    ``node`` 0, whose image is real.  A witness's transform box passes its kernel
    spectrum (:mod:`whlab.kernel`) at node 0.

    ``rfft`` reads the window's rows only (the transform of a zero row is
    zero), from a float block zero-padded to N, into the first N/2 + 1 columns
    of one complex spectrum, and the leading axes' passes run on that half.
    With ``real`` the spectrum is that half only: a multiply by the view
    ``multiplier[..., :N/2 + 1]`` (index N/2 is the Nyquist node), the leading
    inverse passes in place and ``irfft`` (``irfftn`` would allocate a second
    half-spectrum).  Otherwise the other half is filled by
    spec[k] = conj spec[(-k) mod N], the multiplier is read at k + node through
    :func:`_shifted_blocks` (no rolled copy), and ``ifftn`` inverts in place.
    The float block is freed before the inverse.
    """
    shape = multiplier.shape
    points = shape[-1]
    kept = points // 2 + 1  # k = 0 .. N/2 of the last axis
    # the block first: freed below the spectrum, its memory is reused without new page
    # faults (four 2^18-node images took 6% longer with the spectrum allocated first)
    block = np.zeros(values.shape[:-1] + (points,))
    block[..., window[-1]] = values
    spec = np.empty(shape[:-1] + (kept if real else points,), complex)
    half = spec[..., :kept]
    for rows in window[:-1]:  # rfft writes only the window's rows (one leading axis)
        half[:rows.start] = 0
        half[rows.stop:] = 0
    try:
        with np.errstate(over="raise"):
            np.fft.rfft(block, axis=-1, out=half[window[:-1]])
            del block
            for axis in range(len(shape) - 1):
                np.fft.fft(half, axis=axis, out=half)
            if real:
                np.multiply(half, multiplier[..., :kept], out=half)
                for axis in range(len(shape) - 1):
                    np.fft.ifft(half, axis=axis, out=half)
                return np.fft.irfft(half, points, axis=-1)
            for here, there in _mirror_blocks(len(shape), kept):
                np.conjugate(spec[there], out=spec[here])
            for here, there in _shifted_blocks(points, node):
                np.multiply(multiplier[there], spec[here], out=spec[here])
            return np.fft.ifftn(spec, out=spec)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiplier image overflows: {exc}") from None


def _shifted_blocks(points: int, shift: tuple):
    """``(here, there)`` index pairs that pair every spectrum index k with the
    symbol index (k + shift) mod N: an axis shifted by s splits into k < N - s,
    read from s on, and k >= N - s, read from 0 on; an unshifted axis, of any
    length, is one block."""
    axes = [[(slice(0, points - s), slice(s, None)), (slice(points - s, None), slice(0, s))]
            if s else [(slice(None), slice(None))] for s in shift]
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
