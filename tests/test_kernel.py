"""The symbol's kernel, its shell tails and the transform boxes of witness images
(:mod:`whlab.kernel`)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whlab import (constant_symbol, gaussian_symbol, make_grid, smoothed_step_symbol,
                   symbol_from_values)
from whlab.kernel import box_spectrum, fast_size, kernel_tails, near_kernel
from whlab.operators import _multiplier_image, _spectral_image


def _box_symbol(g, kind, param, shift):
    """A Gaussian, smoothed-step or constant symbol times e^{-i shift h xi_1}: the
    kernel moved ``shift`` nodes along the first axis, so its tail lies on one side."""
    base = {"gaussian": lambda: gaussian_symbol(g, [param] * g.n, 1.0 + abs(param)),
            "step": lambda: smoothed_step_symbol(g, edge=param),
            "constant": lambda: constant_symbol(g, 1.0 + param)}[kind]()
    if not shift:
        return base
    return symbol_from_values(g, base.values * np.exp(-1j * shift * g.h * g.freq_coords()[0]))


_UNIT = st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((1, 2)), kind=st.sampled_from(("gaussian", "step", "constant")),
       param=st.floats(-2.0, 2.0), shift=st.integers(0, 4), log_points=st.integers(5, 8),
       node=st.tuples(_UNIT, _UNIT), margin=_UNIT, extent=st.tuples(_UNIT, _UNIT),
       start=st.tuples(_UNIT, _UNIT), spike=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# the kernel is the node 3, so |h| off B reaches max phi . T(m + 1)
@example(n=1, kind="constant", param=0.0, shift=3, log_points=6, node=(0.5, 0.0),
         margin=0.1, extent=(0.3, 0.0), start=(0.5, 0.0), spike=True, seed=0)
# a Gaussian kernel modulated at a node off the origin
@example(n=2, kind="gaussian", param=0.5, shift=0, log_points=5, node=(0.3, 0.7),
         margin=0.5, extent=(0.5, 0.5), start=(0.5, 0.5), spike=False, seed=0)
def test_box_image_is_the_whole_grid_image_on_its_box(n, kind, param, shift, log_points,
                                                      node, margin, extent, start, spike,
                                                      seed):
    # the box transform of a window widened by m nodes is the whole grid's image
    # there up to round-off, and off that box the whole grid's |h| is at most
    # max phi . T(m + 1): halving T or dropping the node's modulation breaks one
    points = 2 ** min(log_points, 6 if n == 2 else 8)
    g = make_grid(n, points / 8.0, points)
    a = _box_symbol(g, kind, param, shift)
    node = tuple(int(f * points) for f in node[:n])
    margin = int(margin * (points // 8 + 1))
    extent = [1 + int(f * (points // 4 - margin)) for f in extent[:n]]
    start = [margin + int(f * (points - 2 * margin - e + 1)) for f, e in zip(start, extent)]
    window = tuple(slice(s0, s0 + e) for s0, e in zip(start, extent))
    values = np.random.default_rng(seed).random(extent)
    if spike:  # one node, at the window's top corner
        values[...] = 0.0
        values[(-1,) * n] = 1.0
    source, tails = kernel_tails(a)
    shape = tuple(fast_size(2 * (e + margin)) for e in extent)  # a box per axis
    assert 2 * max(shape) <= points
    near = near_kernel(a, source, (max(shape),) * n)  # a larger box restricts to it
    spectrum = box_spectrum(near, node, points, shape)
    inner = tuple(slice(margin, margin + e) for e in extent)
    image = _spectral_image(spectrum, values, (0,) * n, inner, False)
    image = image[tuple(slice(0, e + 2 * margin) for e in extent)]
    whole = _multiplier_image(a, values, node, window)
    outer = tuple(slice(s.start - margin, s.stop + margin) for s in window)
    assert np.max(np.abs(image - whole[outer])) <= 1e-14 * np.max(np.abs(whole))
    off = np.abs(whole)
    off[outer] = 0.0
    assert np.max(off) <= np.max(values) * tails[margin + 1]


@pytest.mark.parametrize("n,points", [(1, 64), (1, 512), (2, 32), (2, 64)])
@pytest.mark.parametrize("kind,shift", [("gaussian", 0), ("gaussian", 3), ("step", 0),
                                        ("constant", 0), ("constant", 2)])
def test_tails_are_the_shell_sums_of_the_kernel(n, points, kind, shift):
    # T[m] = sum of |ifftn(a)| over |z|_inf >= m, plus the a-priori round-off of the
    # transform, from every path: real samples in 1-D and 2-D, complex ones
    g = make_grid(n, points / 8.0, points)
    a = _box_symbol(g, kind, 0.5, shift)
    tails = kernel_tails(a)[1]
    modulus = np.abs(np.fft.ifftn(a.values))
    r = np.minimum(np.arange(points), points - np.arange(points))
    shell = r if n == 1 else np.maximum.outer(r, r)
    shells = [modulus[shell >= m].sum() for m in range(points // 4 + 1)]
    roundoff = (3.0 * np.finfo(float).eps * math.log2(g.node_count)
                * np.linalg.norm(a.values))
    assert tails.shape == (points // 4 + 1,)
    assert np.max(np.abs(tails - roundoff - shells)) <= 1e-14 * modulus.sum()


def _even_five_smooth(k):
    if k % 2:
        return False
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fast_size_is_the_least_even_five_smooth_size():
    for least in range(1, 3000):
        size = fast_size(least)
        assert size >= least and _even_five_smooth(size)
        assert not any(_even_five_smooth(k) for k in range(least, size))
