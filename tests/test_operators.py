import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (Ball, GridFunction, NumericFailure, SpaceSpec, Symbol, ValidationError,
                   apply_multiplier, argmax_freq_node, ball_indicator,
                   constant_exponent, constant_symbol,
                   constant_weight, fourier, full_space, gaussian_symbol,
                   half_line, inverse_fourier, make_grid, nearest_freq_node, restrict,
                   sample, smoothed_step_symbol, symbol_from_function,
                   symbol_from_values, wiener_hopf_apply)
from whlab.operators import _multiplier_image


def rand_fn(grid, seed=0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape))


def test_fourier_gaussian_closed_form():
    g = make_grid(1, 16, 512)
    u = sample(lambda x: np.exp(-x ** 2 / 2), g)
    v = fourier(u)
    exact = np.sqrt(2 * np.pi) * np.exp(-g.xi_axis ** 2 / 2)
    assert np.max(np.abs(v.values - exact)) <= 1e-6


def test_fourier_zero():
    g = make_grid(1, 16, 64)
    assert np.all(fourier(sample(lambda x: 0 * x, g)).values == 0)


def test_parseval():
    g = make_grid(1, 16, 512)
    u = rand_fn(g, 1)
    v = fourier(u)
    lhs = np.sum(np.abs(v.values) ** 2) * (np.pi / g.half_width)
    rhs = 2 * np.pi * np.sum(np.abs(u.values) ** 2) * g.h
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_roundtrip_identity():
    for n, N in ((1, 512), (2, 64)):
        g = make_grid(n, 16, N)
        u = rand_fn(g, 2)
        w = inverse_fourier(fourier(u))
        assert np.max(np.abs(w.values - u.values)) <= 1e-10 * np.max(np.abs(u.values))


def test_fourier_exact_on_grid_exponentials():
    g = make_grid(1, 16, 256)
    eta = g.xi_axis[170]
    u = sample(lambda x: np.exp(1j * eta * x), g)
    v = fourier(u)
    expected = np.zeros(256, dtype=complex)
    expected[170] = 2 * g.half_width
    assert np.max(np.abs(v.values - expected)) <= 1e-9


def test_inverse_fourier_spike_and_linearity():
    g = make_grid(1, 16, 256)
    spike = np.zeros(256, dtype=complex)
    spike[0] = 1.0
    v = fourier(GridFunction(g, spike))
    assert np.max(np.abs(np.abs(v.values) - g.h)) <= 1e-12
    a, b = rand_fn(g, 3), rand_fn(g, 4)
    lhs = inverse_fourier(GridFunction(g, 2.5 * a.values + b.values))
    rhs = GridFunction(g, 2.5 * inverse_fourier(a).values + inverse_fourier(b).values)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * np.max(np.abs(rhs.values))


def test_multiplier_identity_and_zero():
    g = make_grid(1, 16, 256)
    u = rand_fn(g, 5)
    same = apply_multiplier(constant_symbol(g, 1.0), u)
    assert np.max(np.abs(same.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    zero = apply_multiplier(constant_symbol(g, 0.0), u)
    assert np.all(zero.values == 0)


def test_multiplier_shift_identity():
    # a(xi) = e^{-i xi t0} with t0 a multiple of h shifts samples exactly
    g = make_grid(1, 32, 512)
    t0 = 16 * g.h
    u = sample(lambda x: np.exp(-(x + 8) ** 2), g)
    a = symbol_from_function(g, lambda xi: np.exp(-1j * xi * t0))
    shifted = apply_multiplier(a, u)
    expected = np.roll(u.values, 16)
    assert np.max(np.abs(shifted.values - expected)) <= 1e-8


def test_multiplier_plancherel_contraction():
    g = make_grid(1, 16, 512)
    a = gaussian_symbol(g, 0.0, 1.0, 0.9)
    for seed in range(5):
        u = rand_fn(g, seed)
        out = apply_multiplier(a, u)
        lhs = np.sqrt(np.sum(np.abs(out.values) ** 2))
        rhs = a.sup_norm * np.sqrt(np.sum(np.abs(u.values) ** 2))
        assert lhs <= rhs * (1 + 1e-8)


def test_multiplier_plancherel_near_equality_for_concentrated_witness():
    g = make_grid(1, 64, 2048)
    a = gaussian_symbol(g, 3.0, 2.0, 1.0)
    _, eta = argmax_freq_node(a)
    u = sample(lambda x: np.exp(1j * eta[0] * x) * np.exp(-(x / 8) ** 2), g)
    out = apply_multiplier(a, u)
    ratio = (np.sqrt(np.sum(np.abs(out.values) ** 2))
             / np.sqrt(np.sum(np.abs(u.values) ** 2)))
    assert ratio == pytest.approx(a.sup_norm, rel=0.02)


def test_real_even_symmetry_preserved():
    g = make_grid(1, 16, 512)
    a = gaussian_symbol(g, 0.0, 2.0, 1.0)
    u = sample(lambda x: np.exp(-x ** 2), g)
    out = apply_multiplier(a, u).values
    assert np.max(np.abs(out.imag)) <= 1e-9 * np.max(np.abs(out))
    # even: u(x_m) = u(x_{-m}) on the shared nodes
    flipped = np.roll(out[::-1], 1)
    assert np.max(np.abs(out - flipped)) <= 1e-9 * np.max(np.abs(out))


def test_symbol_linearity_of_w():
    g = make_grid(1, 16, 256)
    om = half_line(g)
    u = restrict(rand_fn(g, 6), om)
    a = gaussian_symbol(g, 0.0, 1.0, 1.0)
    b = smoothed_step_symbol(g, 0.0)
    ab = GridFunction(g, 2.0 * a.values + b.values)
    from whlab import symbol_from_values
    combo = symbol_from_values(g, ab.values)
    lhs = wiener_hopf_apply(combo, om, u)
    rhs = (2.0 * wiener_hopf_apply(a, om, u).values
           + wiener_hopf_apply(b, om, u).values)
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_wiener_hopf_identity_symbol():
    g = make_grid(1, 16, 256)
    om = half_line(g)
    u = restrict(rand_fn(g, 7), om)
    out = wiener_hopf_apply(constant_symbol(g, 1.0), om, u)
    assert np.max(np.abs(out.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_wiener_hopf_full_space_equals_multiplier():
    g = make_grid(1, 16, 256)
    om = full_space(g)
    u = rand_fn(g, 8)
    a = gaussian_symbol(g, 0.0, 1.0, 1.0)
    assert np.array_equal(wiener_hopf_apply(a, om, u).values,
                          apply_multiplier(a, u).values)


def test_wiener_hopf_halfline_l2_contraction():
    g = make_grid(1, 64, 2048)
    om = half_line(g)
    a = smoothed_step_symbol(g, 0.0)
    u = restrict(sample(lambda x: np.exp(-(x - 8) ** 2), g), om)
    out = wiener_hopf_apply(a, om, u)
    assert (np.sqrt(np.sum(np.abs(out.values) ** 2))
            <= np.sqrt(np.sum(np.abs(u.values) ** 2)) * (1 + 1e-6))


def test_norm_probe_constant_symbol(norm_probe):
    g = make_grid(1, 16, 512)
    om = full_space(g)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), om)
    probe = sample(lambda x: np.exp(-x ** 2), g)
    val = norm_probe(constant_symbol(g, 0.7), S, [probe])
    assert val == pytest.approx(0.7, abs=1e-8)


def test_norm_probe_l2_upper_bound(norm_probe):
    g = make_grid(1, 16, 512)
    om = full_space(g)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), om)
    a = gaussian_symbol(g, 0.0, 1.5, 1.0)
    probes = [rand_fn(g, s) for s in range(8)]
    assert norm_probe(a, S, probes) <= a.sup_norm * (1 + 1e-6)


def test_norm_probe_rejects_vanishing_probes(norm_probe):
    g = make_grid(1, 16, 512)
    om = half_line(g)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), om)
    dead = sample(lambda x: np.where(x < -1, 1.0, 0.0), g)
    with pytest.raises(ValidationError):
        norm_probe(constant_symbol(g, 1.0), S, [dead])


@pytest.mark.parametrize("symbol", [lambda g: constant_symbol(g, 1e308),
                                    lambda g: gaussian_symbol(g, peak=1e308),
                                    lambda g: smoothed_step_symbol(g, high=1e308)],
                         ids=["constant", "gaussian", "smoothed-step"])
def test_multiplier_image_overflow_is_a_numeric_failure(symbol):
    # a.F(chi) overflows: a numeric failure, with no numpy warning on the way.  The
    # real chi takes the real inverse under the Hermitian constant and Gaussian, and
    # the Hermitian fill and ifft under the smoothed step; i chi takes the complex pair.
    g = make_grid(1, 64.0, 256)
    chi = ball_indicator(Ball((0.0,), 8.0), g).values
    for image in (lambda a: _multiplier_image(a, chi.real.copy(), (0,), (slice(None),)),
                  lambda a: apply_multiplier(a, GridFunction(g, 1j * chi))):
        with pytest.raises(NumericFailure, match="multiplier image overflows"):
            image(symbol(g))


def _mirror(s, axis=None):
    """s at (-k) mod N along ``axis``, every axis when omitted: index i -> (N - i) mod N."""
    axes = tuple(range(s.ndim)) if axis is None else axis
    return np.roll(np.flip(s, axis), 1, axis=axes)


def _complex_pair(a, u):
    """The complex transform pair of the multiplier image, kept here as the reference."""
    return np.fft.ifftn(a.values * np.fft.fftn(u))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((1, 2)), log_points=st.integers(3, 7), real=st.booleans(),
       scale=st.sampled_from((1e-100, 1.0, 1e100)), seed=st.integers(0, 2 ** 32 - 1))
def test_real_image_matches_the_complex_pair(n, log_points, real, scale, seed):
    # a real u under a Hermitian symbol takes rfftn, the half-spectrum and irfft
    g = make_grid(n, 8.0, 2 ** log_points)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    s = 0.5 * (s + np.conj(_mirror(s)))  # Hermitian exactly: each pair sums the same terms
    if real:
        s = s.real  # real and even
    half = g.points // 2  # k = -N/2 on an axis
    nyquist = s[half] if n == 1 else np.concatenate([s[half], s[:, half]])
    assert np.all(nyquist != 0)
    a = symbol_from_values(g, s)
    assert a.hermitian and a.values.dtype == (float if real else complex)
    u = scale * rng.standard_normal(g.shape)
    image = _multiplier_image(a, u.copy(), (0,) * n, (slice(None),) * n)
    assert image.dtype == float
    # Each of the two paths is within 2 log2(N^n) eta sup|a| ||u||_2 of the exact image:
    # a forward and an inverse FFT, each with normwise relative error at most log2(N^n) eta,
    # eta ~ 3 eps for accurate twiddle factors (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., thm. 24.2), and one rounded multiply.
    bound = 4.0 * math.log2(g.node_count) * 3.0 * np.finfo(float).eps
    reference = _complex_pair(a, u)
    assert np.linalg.norm(image - reference) <= bound * a.sup_norm * np.linalg.norm(u)


def _filled(half):
    """The spectrum from its rfftn half: the rest of the last axis by the explicit
    fill spec[k] = conj spec[(-k) mod N], mirrored along every axis."""
    rest = np.conj(half[..., -2:0:-1])  # last-axis index N - k for k = N/2 + 1 .. N - 1
    for axis in range(half.ndim - 1):
        rest = _mirror(rest, axis)
    return np.concatenate([half, rest], axis=-1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("broken", ["node", "nyquist"])
def test_a_symbol_hermitian_but_at_one_node_takes_the_complex_pair(n, broken):
    # the complex inverse keeps its bits: the in-place kernel equals np.fft's inverse
    # of the spectrum formed by rfftn and the explicit Hermitian fill
    g = make_grid(n, 8.0, 32)
    s = gaussian_symbol(g, None, 2.0).values.copy()
    if broken == "node":
        s[(3,) * n] *= 1.0 + 2.0 ** -40  # its mirror (29, ...) keeps the old value
    else:
        s = s.astype(complex)
        s[(g.points // 2,) * n] += 1e-3j  # the Nyquist node is its own mirror, so must be real
    a = symbol_from_values(g, s)
    assert not a.hermitian
    u = np.exp(-sum(x ** 2 for x in g.coords()))
    image = _multiplier_image(a, u.copy(), (0,) * n, (slice(None),) * n)
    reference = np.fft.ifftn(a.values * _filled(np.fft.rfftn(u)))
    assert np.array_equal(image.view(float), reference.view(float))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((1, 2)), log_points=st.integers(3, 12),
       scale=st.sampled_from((1e-100, 1.0, 1e100)), seed=st.integers(0, 2 ** 32 - 1))
def test_hermitian_fill_is_the_fft_of_a_real_array(n, log_points, scale, seed):
    # the forward transform of the kernel, read as ifftn's input under the symbol 1
    # probed off zero: within the normwise error of np.fft.fftn of the real array
    # (Higham, thm. 24.2, as above), rfftn's passes bit for bit on the kept half, and
    # the filled half mirrors it exactly
    log_points = min(log_points, 12 // n)  # at most 2^12 nodes; a grid has N >= 8
    g = make_grid(n, 8.0, 2 ** log_points)
    rng = np.random.default_rng(seed)
    u = scale * rng.standard_normal(g.shape)
    spectra = []
    inverse = np.fft.ifftn

    def traced(x, *args, **kwargs):
        spectra.append(x.copy())
        return inverse(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "ifftn", traced)
        _multiplier_image(constant_symbol(g, 1.0), u.copy(), (1,) * n, (slice(None),) * n)
    spec, = spectra
    bound = 2.0 * n * log_points * 3.0 * np.finfo(float).eps
    reference = np.fft.fftn(u)
    assert np.linalg.norm(spec - reference) <= bound * math.sqrt(g.node_count) * np.linalg.norm(u)
    kept = g.points // 2 + 1
    assert np.array_equal(spec[..., :kept], np.fft.rfftn(u))
    assert np.array_equal(spec, _filled(spec[..., :kept]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((1, 2)), hermitian=st.booleans(), shifted=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_windowed_image_reads_only_the_window_rows(n, hermitian, shifted, seed):
    # u given on its window: the first forward pass skips the zero rows, and the image
    # equals, bit for bit, that of u given on the whole grid
    g = make_grid(n, 8.0, 32)
    rng = np.random.default_rng(seed)
    a = gaussian_symbol(g, None if hermitian else rng.uniform(-1.0, 1.0, n), 2.0)
    node = tuple(rng.integers(0, g.points, n)) if shifted else (0,) * n
    lo = rng.integers(0, g.points - 4, n)
    window = tuple(slice(l, l + w) for l, w in zip(lo, rng.integers(1, 5, n)))
    vals = rng.standard_normal(tuple(s.stop - s.start for s in window))
    image = _multiplier_image(a, vals, node, window)
    assert image.dtype == (float if hermitian and not shifted else complex)
    u = np.zeros(g.shape)
    u[window] = vals
    assert np.array_equal(image, _multiplier_image(a, u, node, (slice(None),) * n))


@pytest.mark.parametrize("dtype", [float, complex])
def test_symbol_owns_its_values(dtype):
    g = make_grid(1, 8.0, 16)
    arr = np.ones(16, dtype)
    a = Symbol(g, arr)
    arr[3] = 100  # would break both the sup norm and the symmetry of a shared array
    assert np.all(a.values == 1.0) and a.sup_norm == 1.0 and a.hermitian


def test_symbol_builders_keep_real_samples_real():
    g = make_grid(2, 8.0, 16)
    real = [constant_symbol(g, 0.7), constant_symbol(g, 2), gaussian_symbol(g),
            gaussian_symbol(g, [0.3, 0.0]), smoothed_step_symbol(g),
            symbol_from_values(g, np.ones(g.shape)),
            symbol_from_values(g, np.ones(g.shape, complex)),
            symbol_from_function(g, lambda xi1, xi2: xi1 ** 2 + xi2 ** 2)]
    assert all(a.values.dtype == float for a in real)
    assert [a.hermitian for a in real] == [True, True, True, False, False, True, True, True]
    assert real[0].at((3, 5)) == 0.7
    c = constant_symbol(g, 0.7 + 0.2j)
    assert c.values.dtype == complex and not c.hermitian and c.at((3, 5)) == 0.7 + 0.2j


SYMBOLS = {
    "constant": lambda g, x: constant_symbol(g, complex(x[0], x[1])),
    "gaussian": lambda g, x: gaussian_symbol(g, x[0] * g.xi_axis.max() * np.ones(g.n),
                                             sigma=abs(x[1]) * g.xi_axis.max() + 0.1, peak=x[2]),
    "smoothed-step": lambda g, x: smoothed_step_symbol(g, x[0] * g.xi_axis.max(),
                                                       abs(x[1]) + 1e-3, low=x[2], high=x[3]),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((1, 2)), log_points=st.integers(3, 10),
       log_width=st.integers(-2, 8), stretch=st.sampled_from((1.0, 1.3, 1.7, 1.9375)),
       kind=st.sampled_from(sorted(SYMBOLS)), seed=st.integers(0, 2 ** 32 - 1))
def test_multiplier_is_the_continuum_transform_product(n, log_points, log_width, stretch,
                                                       kind, seed):
    # the fused kernel against F^{-1}(a . F u) through both continuum transforms:
    # bit-identical when h^n is a power of two, a few ulp apart otherwise
    g = make_grid(n, stretch * 2.0 ** log_width, 2 ** log_points)
    rng = np.random.default_rng(seed)
    a = SYMBOLS[kind](g, rng.uniform(-1.0, 1.0, 4))
    # mean 4: the zero-frequency coefficient times 1e308 overflows below
    u = GridFunction(g, 4.0 + rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    image = apply_multiplier(a, u).values
    reference = inverse_fourier(GridFunction(g, a.values * fourier(u).values)).values
    if np.frexp(g.h ** g.n)[0] == 0.5:
        assert np.array_equal(image, reference)
    else:
        assert np.linalg.norm(image - reference) <= 1e-15 * np.linalg.norm(reference)
    with pytest.raises(ValidationError, match="different grids"):
        apply_multiplier(SYMBOLS[kind](make_grid(n, 3.0 * g.half_width, g.points), [0.5] * 4), u)
    with pytest.raises(NumericFailure, match="the multiplier image overflows"):
        apply_multiplier(constant_symbol(g, 1e308), u)


def test_multiplier_image_of_a_huge_cell_does_not_overflow():
    # h = 2^18: the h-scaled spectrum 2^18 . 8e306 of the continuum transform
    # overflows, the FFT-order product of the fused kernel does not
    g = make_grid(1, 2.0 ** 20, 8)
    u = GridFunction(g, np.full(g.shape, 1e306))
    image = apply_multiplier(constant_symbol(g, 1.0), u)
    assert np.max(np.abs(image.values - u.values)) <= 1e-15 * 1e306


@pytest.mark.parametrize("n,points", [(1, 2 ** 16), (2, 256)])
def test_multiplier_peak_memory(n, points):
    # one spectrum array, transformed axis by axis in place; the image is a view of it.
    # A real-valued u is stored complex too, so it takes the same single copy.
    g = make_grid(n, 16.0, points)
    a, u = gaussian_symbol(g), rand_fn(g, 9)
    for v in (u, GridFunction(g, u.values.real)):
        apply_multiplier(a, v)  # numpy caches its FFT plans on the first call
        tracemalloc.start()
        try:
            apply_multiplier(a, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * g.node_count * np.dtype(complex).itemsize


def test_argmax_freq_node_prefers_zero():
    g = make_grid(1, 16, 256)
    idx, eta = argmax_freq_node(constant_symbol(g, 0.7))
    assert eta[0] == 0.0
    idx2, eta2 = argmax_freq_node(smoothed_step_symbol(g, edge=-5.0, width=2.0))
    assert eta2[0] == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_argmax_freq_node_breaks_a_tie_at_the_lowest_frequency(n):
    # |a| peaks on the ring |xi| = 3 pi / 8 through the nodes k = +-3 of each axis, all
    # equally close to zero: the rule takes the lowest frequency in ascending
    # lexicographic order, where a plain argmin in FFT order would take +3 pi / 8
    g = make_grid(n, 8.0, 16)
    ring = (3 * np.pi / 8) ** 2
    a = symbol_from_function(g, lambda *xi: np.exp(-(sum(x ** 2 for x in xi) - ring) ** 2))
    idx, eta = argmax_freq_node(a)
    assert eta.tolist() == [-3 * (np.pi / 8)] + [0.0] * (n - 1)
    assert [g.xi_axis[i] for i in idx] == eta.tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((1, 2)), log_points=st.integers(3, 7),
       share=st.sampled_from((0.0, 0.05, 0.125, 0.13, 0.5, 1.0)), seed=st.integers(0, 2 ** 32 - 1))
def test_argmax_freq_node_keeps_the_whole_grid_rule(n, log_points, share, seed):
    # few maximizers (distances read at them) and plateaus (a grid of distances)
    # pick the node the whole-grid rule picks
    g = make_grid(n, 8.0, 2 ** log_points)
    rng = np.random.default_rng(seed)
    s = np.where(rng.random(g.shape) < share, 2.0, rng.random(g.shape))
    a = symbol_from_values(g, s)
    mag = np.abs(a.values)
    dist2 = np.where(mag >= mag.max() * (1.0 - 1e-12),
                     sum(m ** 2 for m in g.freq_coords()), np.inf)
    nodes = np.argwhere(dist2 == dist2.min())
    expected = min(nodes.tolist(), key=lambda idx: [g.xi_axis[i] for i in idx])
    idx, eta = argmax_freq_node(a)
    assert list(idx) == expected and eta.tolist() == [g.xi_axis[i] for i in expected]


@pytest.mark.parametrize("n", [1, 2])
def test_nearest_freq_node_inverts_the_frequency_axis(n):
    # every node maps back to its index: the zero node, the Nyquist node k = -N/2
    # and both ends of the range among them
    g = make_grid(n, 8.0, 16)
    xi = g.xi_axis
    for idx in itertools.product(range(g.points), repeat=n):
        found, eta = nearest_freq_node(g, [xi[i] for i in idx])
        assert found == idx and eta.tolist() == [xi[i] for i in idx]
    spacing = np.pi / g.half_width
    for outside in (xi.min() - spacing, xi.max() + spacing):
        with pytest.raises(ValidationError, match="outside the frequency range"):
            nearest_freq_node(g, [outside] + [0.0] * (n - 1))


@pytest.mark.parametrize("edge,width,values", [(0.0, 1e-320, {0.0, 0.5, 1.0}),
                                               (1e10, 1e-300, {0.0})])
def test_smoothed_step_symbol_sharpens_at_a_tiny_width(edge, width, values):
    # the quotient overflows to +-inf without a warning (an error under pytest)
    a = smoothed_step_symbol(make_grid(1, 16.0, 64), edge=edge, width=width)
    assert set(a.values.ravel().tolist()) == values


def test_gaussian_symbol_center_checks():
    g = make_grid(2, 16, 64)
    with pytest.raises(ValidationError, match="expected a finite point"):
        gaussian_symbol(g, [np.nan, 0.0])
    with pytest.raises(ValidationError, match="expected a point in R"):
        gaussian_symbol(g, 0.0)
    # the default center is the origin in any dimension
    assert (gaussian_symbol(g).values.tobytes()
            == gaussian_symbol(g, [0.0, 0.0]).values.tobytes())
    # a far center underflows the Gaussian to 0 without a floating-point warning
    assert np.all(gaussian_symbol(make_grid(1, 16, 64), 1e200).values == 0.0)


def test_gaussian_symbol_sigma_at_the_float_limits():
    g = make_grid(1, 16, 64)
    # 2 sigma^2 just above the smallest normal float: a spike, with no warning
    spike = gaussian_symbol(g, 0.0, 1.1e-154).values
    assert spike[0] == 1.0 and np.count_nonzero(spike) == 1
    for sigma in (1.34e154, -1.0):  # 2 sigma^2 = inf; sigma <= 0
        with pytest.raises(ValidationError, match="2 sigma\\^2 a positive normal float"):
            gaussian_symbol(g, 0.0, sigma)
