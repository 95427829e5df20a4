import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (Ball, GridFunction, NumericFailure, SpaceSpec, ValidationError,
                   apply_multiplier, argmax_freq_node, ball_indicator,
                   constant_exponent, constant_symbol,
                   constant_weight, fourier, full_space, gaussian_symbol,
                   half_line, inverse_fourier, make_grid, restrict,
                   sample, smoothed_step_symbol, symbol_from_function,
                   wiener_hopf_apply)


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
    # a.F(chi) overflows: a numeric failure, with no numpy warning on the way
    g = make_grid(1, 64.0, 256)
    with pytest.raises(NumericFailure, match="multiplier image overflows"):
        apply_multiplier(symbol(g), ball_indicator(Ball((0.0,), 8.0), g))


SYMBOLS = {
    "constant": lambda g, x: constant_symbol(g, complex(x[0], x[1])),
    "gaussian": lambda g, x: gaussian_symbol(g, x[0] * g.xi_axis[-1] * np.ones(g.n),
                                             sigma=abs(x[1]) * g.xi_axis[-1] + 0.1, peak=x[2]),
    "smoothed-step": lambda g, x: smoothed_step_symbol(g, x[0] * g.xi_axis[-1],
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
    # one spectrum array, transformed axis by axis in place; the image is a view of it
    g = make_grid(n, 16.0, points)
    a, u = gaussian_symbol(g), rand_fn(g, 9)
    apply_multiplier(a, u)  # numpy caches its FFT plans on the first call
    tracemalloc.start()
    try:
        apply_multiplier(a, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * g.node_count * np.dtype(complex).itemsize


def test_argmax_freq_node_prefers_zero():
    g = make_grid(1, 16, 256)
    idx, eta = argmax_freq_node(constant_symbol(g, 0.7))
    assert eta[0] == 0.0
    idx2, eta2 = argmax_freq_node(smoothed_step_symbol(g, edge=-5.0, width=2.0))
    assert eta2[0] == 0.0


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
    assert spike[32] == 1.0 and np.count_nonzero(spike) == 1
    for sigma in (1.34e154, -1.0):  # 2 sigma^2 = inf; sigma <= 0
        with pytest.raises(ValidationError, match="2 sigma\\^2 a positive normal float"):
            gaussian_symbol(g, 0.0, sigma)
