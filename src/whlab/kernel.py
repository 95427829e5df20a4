"""The grid kernel of a symbol, its shell tails and the spectra of transform boxes.

A witness image is the periodic convolution of the witness with the symbol's grid
kernel K = ifft_n(a): demodulated at the probing node k0 (:mod:`whlab.operators`),

    h(x) = sum_z K(z) e^{-2 pi i k0.z/N} phi(x - z).

If phi lives on a window W, h on the box B = W widened by m nodes per axis reads K
only at |z_i| < extent_i + m, extent_i the length of W along axis i, so a transform
of N_c >= 2 (extent_i + m) nodes along each axis of K restricted to |z_i| < N_c/2
gives h on B as a linear convolution: no index of B wraps around the box
(Oppenheim and Schafer, Discrete-Time Signal Processing, sec. 8.7).  Off B every
offset has |z|_inf >= m + 1, so |h| <= max phi . T(m + 1) with the shell tail
T(m) = sum over |z|_inf >= m of |K(z)|, which does not depend on k0.
:func:`whlab.witness._plan_boxes` sizes the boxes from T; the witness layer imports
this module only for a plan that may hold a box, so other runs never compile it.

K has one layout (:func:`kernel_tails`): a real symbol's K on columns 0 .. N/2 of
the last axis, the rest being conj K(-z); a complex symbol's whole.  The shell
sums read it as it is and every box spectrum gathers from it (:func:`_kernel_at`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import Symbol

__all__ = ["Box", "kernel_tails", "box_spectrum", "fast_size"]

#: Values per block of rows in which the shell sums and the box gather read the
#: kernel (128 KiB of complex values at a time).
_ROW_BLOCK = 2 ** 13


@dataclass(frozen=True, eq=False)
class Box:
    """The transform box of one witness: B = ``window``, the witness's window
    (a kappa plan's: the bounding window of its family's windows) widened by a
    margin of m nodes on each side; ``values``, the kernel spectrum of the box
    transform (:func:`box_spectrum`), which :func:`whlab.operators._spectral_image`
    multiplies by; and ``far_field``, max phi . T(m + 1) with max phi = 1 and T
    the shell tails of the symbol's kernel (:func:`kernel_tails`): a bound of
    |h| off B (:func:`whlab.witness._plan_boxes`)."""

    window: tuple
    values: np.ndarray
    far_field: float


def kernel_tails(a: Symbol) -> tuple[np.ndarray, np.ndarray]:
    """``(source, tails)``: the grid kernel K as :func:`box_spectrum` reads it,
    and T[m] for m = 0 .. N/4: a plan takes margins below N/4 only.

    Real samples take ihfft along the last axis, then ifft in place along each
    leading one: source holds K on columns 0 .. N/2 of the last axis, and the
    rest is conj K(-z) (K(-z) = conj K(z) for a real a).  Complex samples take
    ifftn in place, source = K on every column.  Every T[m] carries the a-priori
    bound 3 eps log2(N^n) ||a||_2 of ||K~ - K||_1 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., thm. 24.2, with
    ||K||_2 = ||a||_2 / N^{n/2}), so a kernel exact off the origin, such as a
    constant symbol's, still has a positive tail.  A symbol near the float range
    gives inf or nan tails.
    """
    g = a.grid
    real = not np.iscomplexobj(a.values)
    with np.errstate(over="ignore", invalid="ignore"):
        if real:
            source = np.fft.ihfft(a.values, axis=-1)
        else:
            source = np.array(a.values, complex)
        for axis in range(g.n - 1 if real else g.n):
            np.fft.ifft(source, axis=axis, out=source)
        tails = _shells(source, g.points)
        # sums of nonnegative shells from the outside in: no cancellation
        np.cumsum(tails[::-1], out=tails[::-1])
        flat = a.values.ravel()  # ||a||_2 with no BLAS call and no grid-sized square
        square = np.einsum("i,i->", flat, flat) if real else np.vdot(flat, flat).real
        tails += 3.0 * np.finfo(float).eps * math.log2(g.node_count) * math.sqrt(square)
    return source, tails


def _shells(source: np.ndarray, N: int) -> np.ndarray:
    """The shell sums S[r] of |K| over |z|_inf = r for r < N/4, and at S[N/4] the
    sum over |z|_inf >= N/4, in blocks of rows of ``source`` (from
    :func:`kernel_tails`); a held column 1 .. N/2 - 1 of a real symbol counts
    twice, for its mirror N - c, whose shell is the same."""
    top = N // 4
    r = [np.minimum(k, N - k) for k in map(np.arange, source.shape)]
    weight = np.ones(source.shape[-1])
    if source.shape[-1] < N:
        weight[1:N // 2] = 2.0
    weight = np.broadcast_to(weight, source.shape)
    shells = np.zeros(top + 1)
    step = max(1, _ROW_BLOCK // math.prod(source.shape[1:]))
    for start in range(0, source.shape[0], step):
        rows = slice(start, start + step)
        part = np.abs(source[rows])
        part *= weight[rows]
        shell = functools.reduce(np.maximum, np.ix_(r[0][rows], *r[1:]))
        shell = np.broadcast_to(np.minimum(shell, top), part.shape)
        shells += np.bincount(shell.ravel(), part.ravel(), top + 1)
    return shells


def _kernel_at(source: np.ndarray, N: int, z: list) -> np.ndarray:
    """K on the mesh z[0] x ... x z[n-1] of integer offsets, with ``source``
    from :func:`kernel_tails`; a column it does not hold is read as conj K(-z)."""
    z = [zi % N for zi in z]
    if source.shape[-1] == N:
        return source[np.ix_(*z)]
    held = z[-1] <= N // 2
    out = np.empty([zi.size for zi in z], complex)
    out[..., held] = source[np.ix_(*z[:-1], z[-1][held])]
    out[..., ~held] = np.conj(source[np.ix_(*[-zi % N for zi in z[:-1]], N - z[-1][~held])])
    return out


def fast_size(least: int) -> int:
    """The smallest even 2^a 3^b 5^c, a >= 1, at least ``least``: numpy
    transforms it in radix-2, 3 and 5 passes."""
    best, p5 = 2 * least, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = 2 * p35
            while size < least:
                size *= 2
            best, p35 = min(best, size), 3 * p35
        p5 *= 5
    return best


def box_spectrum(source: np.ndarray, node: tuple, N: int, shape: tuple) -> np.ndarray:
    """The spectrum, on a box of ``shape``, of K(z) e^{-2 pi i node.z/N}
    restricted to |z_i| < shape_i/2 at index z mod shape, and 0 where
    z_i = shape_i/2, with ``source`` from :func:`kernel_tails` and N the grid's
    nodes per axis."""
    n = len(shape)
    z = [np.r_[0:p // 2, 1 - p // 2:0] for p in shape]
    at = [zi % p for zi, p in zip(z[1:], shape[1:])]
    spec = np.zeros(shape, complex)
    step = max(1, _ROW_BLOCK // math.prod(shape[1:]))
    for start in range(0, z[0].size, step):
        rows = z[0][start:start + step]
        spec[np.ix_(rows % shape[0], *at)] = _kernel_at(source, N, [rows] + z[1:])
    for axis, (k, p) in enumerate(zip(node, shape)):
        if k:  # k z mod N is exact in integers; index p/2 holds 0
            z = np.arange(p)
            z[p // 2:] -= p
            phase = np.exp((-2j * np.pi / N) * (k * z % N))
            spec *= phase.reshape((-1,) + (1,) * (n - 1 - axis))
    for axis in range(n):
        np.fft.fft(spec, axis=axis, out=spec)
    return spec
