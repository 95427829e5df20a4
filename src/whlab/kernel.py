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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import Symbol

__all__ = ["Box", "kernel_tails", "near_kernel", "box_spectrum", "fast_size"]

#: Values per block of rows that the kernel is unpacked in (128 KiB of complex
#: values at a time).
_ROW_BLOCK = 2 ** 13


@dataclass(frozen=True, eq=False)
class Box:
    """The transform box of one witness: B = ``window``, the witness's window
    (a kappa plan's: the bounding window of its family's windows) widened by a
    margin of m nodes on each side; ``inner``, the witness's window within B;
    ``values``, the kernel spectrum of the box transform (:func:`box_spectrum`),
    which :func:`whlab.operators._spectral_image` multiplies by; and
    ``far_field``, max phi . T(m + 1) with max phi = 1 and T the shell tails of
    the symbol's kernel (:func:`kernel_tails`): a bound of |h| off B
    (:func:`whlab.witness._plan_boxes`)."""

    window: tuple
    inner: tuple
    values: np.ndarray
    far_field: float


def kernel_tails(a: Symbol) -> tuple[np.ndarray, np.ndarray]:
    """``(source, tails)``: the grid kernel as :func:`near_kernel` reads it, and
    T[m] for m = 0 .. N/4: a plan takes margins below N/4 only.

    Complex samples take ifftn in place, source = K.  Real samples take the
    two-for-one transform (Press et al., Numerical Recipes, 3rd ed., sec. 12.3),
    source = fft_n(a[0::2] + i a[1::2]), in place in an array as large as a real
    grid array (a real transform of the whole grid holds N/2 + 1 columns
    instead).  Every T[m]
    carries the a-priori bound 3 eps log2(N^n) ||a||_2 of ||K~ - K||_1 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., thm. 24.2, with
    ||K||_2 = ||a||_2 / N^{n/2}), so a kernel exact off the origin, such as a
    constant symbol's, still has a positive tail.  A symbol near the float range
    gives inf or nan tails.
    """
    g = a.grid
    N = g.points
    real = not np.iscomplexobj(a.values)
    with np.errstate(over="ignore", invalid="ignore"):
        if real:
            source = np.empty((N // 2,) + g.shape[1:], complex)
            source.real, source.imag = a.values[0::2], a.values[1::2]
        else:
            source = np.array(a.values, complex)
        for axis in range(g.n):
            (np.fft.fft if real else np.fft.ifft)(source, axis=axis, out=source)
        tails = _shells(a, source)
        # sums of nonnegative shells from the outside in: no cancellation
        np.cumsum(tails[::-1], out=tails[::-1])
        flat = a.values.ravel()  # ||a||_2 with no BLAS call and no grid-sized square
        square = np.einsum("i,i->", flat, flat) if real else np.vdot(flat, flat).real
        tails += 3.0 * np.finfo(float).eps * math.log2(g.node_count) * math.sqrt(square)
    return source, tails


def _shells(a: Symbol, source: np.ndarray) -> np.ndarray:
    """The shell sums S[r] of |K| over |z|_inf = r for r < N/4, and at S[N/4] the
    sum over |z|_inf >= N/4, in blocks of rows of K: a real symbol's rows r and
    N/2 - r for r <= N/4, whose mirrors N - r and N/2 + r have equal moduli; a
    complex symbol's rows r and N - r."""
    N = a.grid.points
    kept, top = N // 2 + 1, N // 4
    real = not np.iscomplexobj(a.values)
    folded = np.zeros((top + 1,) + (kept,) * (a.grid.n - 1))  # |K| on r_i = min(k_i, N - k_i)
    last = top if real else kept - 1
    step = max(1, _ROW_BLOCK // N ** (a.grid.n - 1))
    for start in range(0, last + 1, step):
        rows = np.arange(start, min(start + step, last + 1))
        if real:
            low, high = _kernel_rows(a, source, rows, pair=True)
            part = _folded(np.abs(low), kept)
            part[rows > 0] *= 2.0
            mirror = _folded(np.abs(high), kept)[rows < top]  # r = N/4 once
            mirror[rows[rows < top] > 0] *= 2.0
            folded[top] += mirror.sum(axis=0)
        else:
            part = _folded(np.abs(_kernel_rows(a, source, rows)), kept)
            inner = (0 < rows) & (rows < kept - 1)
            if inner.any():
                part[inner] += _folded(np.abs(_kernel_rows(a, source, N - rows[inner])), kept)
        below = rows < top  # rows past N/4 join row N/4: their shells share one tail
        folded[rows[below]] = part[below]
        folded[top] += part[~below].sum(axis=0)
    if a.grid.n == 1:
        return folded
    shell = functools.reduce(np.maximum, np.ix_(*[np.arange(n) for n in folded.shape]))
    return np.bincount(np.broadcast_to(np.minimum(shell, top), folded.shape).ravel(),
                       folded.ravel(), top + 1)


def _folded(rows: np.ndarray, kept: int) -> np.ndarray:
    """``rows`` with every axis but the first folded onto r = min(k, N - k)."""
    for axis in range(1, rows.ndim):
        part = np.moveaxis(rows, axis, 0)
        folded = part[:kept].copy()
        folded[1:kept - 1] += part[:kept - 1:-1]
        rows = np.moveaxis(folded, 0, axis)
    return rows


def _kernel_rows(a: Symbol, source: np.ndarray, rows: np.ndarray, pair: bool = False):
    """K[rows], whole along the other axes, for indices ``rows`` of the first
    axis, with ``source`` from :func:`kernel_tails`; with ``pair`` (a real
    symbol, rows below N/2) also K[rows + N/2].
    For a real symbol, with C = source read at k_1 mod N/2 and
    -k = ((-k_1) mod N/2, (-k') mod N),
    fft_n(a)[k] = (C[k] + conj C[-k]) / 2 + e^{-2 pi i k_1/N} (C[k] - conj C[-k]) / 2i,
    the second term changes sign at k_1 + N/2, and K = conj fft_n(a) / N^n."""
    if np.iscomplexobj(a.values):
        return source[rows]
    N = a.grid.points
    here = source[rows % (N // 2)]
    there = source[-rows % (N // 2)]
    for axis in range(1, here.ndim):
        there = np.take(there, -np.arange(N) % N, axis=axis)
    np.conjugate(there, out=there)
    twice = here + there  # 2 Ev
    here -= there  # 2i Od
    here *= (-1j * np.exp((-2j * np.pi / N) * rows)).reshape((-1,) + (1,) * (here.ndim - 1))
    out = [twice + here, twice - here] if pair else [np.add(twice, here, out=twice)]
    for half in out:  # 2 fft_n(a) -> K
        np.conjugate(half, out=half)
        half *= 0.5 / a.grid.node_count  # a power of two: exact
    return out if pair else out[0]


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


def near_kernel(a: Symbol, source: np.ndarray, shape: tuple) -> np.ndarray:
    """K(z) for |z_i| < shape_i/2 on every axis i, at index z mod shape of a box
    of that shape, and 0 where z_i = shape_i/2, with ``source`` from
    :func:`kernel_tails`: the kernel that every box of at most ``shape``
    restricts."""
    N = a.grid.points
    near = np.zeros(shape, complex)
    z = [np.r_[0:p // 2, 1 - p // 2:0] for p in shape]
    cols = (slice(None),) + np.ix_(*[zi % N for zi in z[1:]])
    at = [zi % p for zi, p in zip(z[1:], shape[1:])]
    step = max(1, _ROW_BLOCK // N ** (a.grid.n - 1))
    for start in range(0, z[0].size, step):
        rows = z[0][start:start + step]
        near[np.ix_(rows % shape[0], *at)] = _kernel_rows(a, source, rows % N)[cols]
    return near


def box_spectrum(near: np.ndarray, node: tuple, N: int, shape: tuple) -> np.ndarray:
    """The spectrum, on a box of ``shape``, of K(z) e^{-2 pi i node.z/N}
    restricted to |z_i| < shape_i/2 at index z mod shape, with ``near`` from
    :func:`near_kernel` on a box at least as large on every axis and N the grid's
    nodes per axis."""
    n = near.ndim
    parts = [((slice(0, p // 2), slice(0, p // 2)),
              (slice(p - p // 2 + 1, p), slice(size - p // 2 + 1, size)))
             for p, size in zip(shape, near.shape)]
    spec = np.zeros(shape, complex)
    for block in itertools.product(*parts):
        spec[tuple(here for here, _ in block)] = near[tuple(there for _, there in block)]
    for axis, (k, p) in enumerate(zip(node, shape)):
        if k:  # k z mod N is exact in integers; index p/2 holds 0
            z = np.arange(p)
            z[p // 2:] -= p
            phase = np.exp((-2j * np.pi / N) * (k * z % N))
            spec *= phase.reshape((-1,) + (1,) * (n - 1 - axis))
    for axis in range(n):
        np.fft.fft(spec, axis=axis, out=spec)
    return spec
