import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from whlab import witness
from whlab import (Ball, GridFunction, NumericFailure, SpaceSpec,
                   ValidationError, WitnessParams, apply_multiplier, ball_indicator,
                   constant_exponent, constant_symbol, constant_weight,
                   explicit_mask, exponent_from_values, full_space,
                   gaussian_symbol, half_line, kuratowski_experiment,
                   luxemburg_norm, make_grid, make_witness,
                   mollification_residual, nearest_freq_node,
                   norm_lowerbound_experiment, part_norm,
                   place_witness_center, plan_kuratowski, plan_norm_lowerbound,
                   power_weight,
                   restrict, sector,
                   separated_sequence, space_part, step_exponent, symbol_from_function,
                   symbol_from_values,
                   wiener_hopf_apply)
from whlab.operators import _multiplier_image
from whlab.profiles import bump_profile, glue, smoothstep


def l2(grid, domain=None):
    return SpaceSpec(grid, constant_exponent(grid, 2), constant_weight(grid),
                     domain if domain is not None else full_space(grid))


def whole_grid_image(a, params):
    """The image of make_witness(params) on the whole grid, formed in the witness's
    own dtype as mollification_residual forms it: a real witness takes the real path."""
    window, values = make_witness(params)
    g = np.zeros(params.domain.grid.shape, dtype=values.dtype)
    g[window] = values
    return _multiplier_image(a, g)


# -- bump -------------------------------------------------------------------

def test_bump_plateau_and_support():
    assert bump_profile(0.5, 2.0) == 1.0
    assert bump_profile(1.0, 2.0) == 1.0
    assert bump_profile(3.0, 2.0) == 0.0
    assert bump_profile(2.0, 2.0) == 0.0
    mid = bump_profile(1.5, 2.0)
    assert 0.0 < mid < 1.0
    assert mid == pytest.approx(0.5, abs=1e-12)  # glue symmetry at t = 1/2


def test_bump_monotone_on_transition():
    r = np.linspace(1.0, 2.0, 1000)
    vals = bump_profile(r, 2.0)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0) & (vals <= 1))


def clamped_smoothstep(t):
    """The former smoothstep, clamped to 0 for t <= 0 and 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a, b = glue(t), glue(1.0 - t)
    with np.errstate(invalid="ignore"):
        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, a / (a + b)))


def pinned_bump_profile(r, rho):
    """The former bump_profile, pinned to 1 for r <= 1 and 0 for r >= rho."""
    r = np.abs(np.asarray(r, dtype=float))
    out = clamped_smoothstep((rho - r) / (rho - 1.0))
    return np.where(r >= rho, 0.0, np.where(r <= 1.0, 1.0, out))


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def edge_values(*points):
    """Each point, its negation and their float neighbours, with ±inf and nan."""
    vals = [s * p for p in points for s in (1.0, -1.0)]
    vals += [math.nextafter(v, d) for v in vals for d in (-math.inf, math.inf)]
    return np.array(vals + [math.inf, -math.inf, math.nan, 5e-324, 1e-300])


def test_smoothstep_matches_the_clamped_formula():
    rng = np.random.default_rng(3)
    edges = edge_values(0.0, 0.5, 1.0, 2.0)
    t = np.concatenate([edges, np.linspace(-2.0, 3.0, 100001),
                        rng.uniform(-1e-3, 1e-3, 20000),
                        1.0 + rng.uniform(-1e-3, 1e-3, 20000)])
    assert same_bits(smoothstep(t), clamped_smoothstep(t))
    for v in edges:  # scalars too
        assert same_bits(smoothstep(v), clamped_smoothstep(v))


@pytest.mark.parametrize("rho", [math.nextafter(1.0, 2.0), 1.0 + 1e-12,
                                 1.0 + 1e-7, 1.5, 2.0, 8.0, 1e6])
def test_bump_profile_matches_the_pinned_formula(rho):
    rng = np.random.default_rng(4)
    r = np.concatenate([edge_values(0.0, 1.0, rho, 0.5 * (1.0 + rho)),
                        np.linspace(-3.0 * rho, 3.0 * rho, 20001),
                        1.0 + (rho - 1.0) * rng.uniform(-0.1, 1.1, 20000)])
    assert same_bits(bump_profile(r, rho), pinned_bump_profile(r, rho))


def test_bump_even_and_rejects_bad_rho():
    r = np.linspace(-2, 2, 401)
    assert np.array_equal(bump_profile(r, 1.5), bump_profile(-r, 1.5))
    with pytest.raises(ValidationError):
        WitnessParams(0.25, (0.0,), (0.0,), 1.0, full_space(make_grid(1, 64, 1024)))


# -- witness ----------------------------------------------------------------

def test_witness_modulus_and_plateau(witness_on_grid):
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    P = WitnessParams(0.25, (g.xi_axis[600],), (24.0,), 2.0, om)
    f = witness_on_grid(P)
    amp = bump_profile(0.25 * np.abs(g.x_axis - 24.0), 2.0)
    assert np.max(np.abs(np.abs(f.values) - amp)) <= 1e-14
    plateau = ball_indicator(Ball((24.0,), 4.0), g).values.real == 1
    # amplitude factor is exactly 1 there; |e^{i theta}| costs one ulp
    assert np.max(np.abs(np.abs(f.values[plateau]) - 1.0)) <= 5e-16
    outside = np.abs(g.x_axis - 24.0) >= 8.0
    assert np.all(f.values[outside] == 0.0)


def test_witness_real_bump_when_eta_zero(witness_on_grid):
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    P = WitnessParams(0.25, (0.0,), (0.0,), 2.0, om)
    f = witness_on_grid(P)
    assert np.max(np.abs(f.values.imag)) == 0.0
    assert np.min(f.values.real) >= 0.0
    assert np.max(f.values.real) == 1.0
    assert make_witness(P)[1].dtype == float
    # the image is real under a Hermitian symbol, complex under any other
    for center, dtype in ((0.0, float), (0.5, complex)):
        a = gaussian_symbol(g, center, 2.0)
        assert mollification_residual(a, P, make_witness(P))[0].dtype == dtype


def test_witness_sandwich_norms(witness_on_grid):
    g = make_grid(1, 64, 2048)
    om = full_space(g)
    S = SpaceSpec(g, step_exponent(g, 2.0, 2.5), power_weight(g, 0.1), om)
    P = WitnessParams(0.25, (1.5,), (24.0,), 2.0, om)
    f = witness_on_grid(P)
    ns = luxemburg_norm(ball_indicator(Ball((24.0,), 4.0), g), S)
    nb = luxemburg_norm(ball_indicator(Ball((24.0,), 8.0), g), S)
    nf = luxemburg_norm(f, S)
    assert ns <= nf * (1 + 1e-9)
    assert nf <= nb * (1 + 1e-9)


def test_witness_phase_invariance(witness_on_grid):
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    S = l2(g)
    f1 = witness_on_grid(WitnessParams(0.25, (1.5,), (24.0,), 2.0, om))
    f2 = witness_on_grid(WitnessParams(0.25, (-1.5,), (24.0,), 2.0, om))
    assert luxemburg_norm(f1, S) == pytest.approx(luxemburg_norm(f2, S), rel=1e-12)


def test_witness_params_validation():
    g = make_grid(1, 64, 1024)
    om = half_line(g)
    # support leaves the half-line
    with pytest.raises(ValidationError):
        WitnessParams(0.25, (0.0,), (4.0,), 2.0, om)
    # margin rule: support radius above L/4
    with pytest.raises(ValidationError):
        WitnessParams(0.1, (0.0,), (30.0,), 2.0, om)
    # too close to the box edge
    with pytest.raises(ValidationError):
        WitnessParams(0.25, (0.0,), (45.0,), 2.0, om)


def test_place_witness_center_halfline_largest_admissible():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    y = place_witness_center(om, 1.0 / 16.0, 2.0)
    assert y[0] == pytest.approx(0.75 * 256 - 32.0)
    with pytest.raises(ValidationError):
        place_witness_center(om, 0.01, 2.0)  # support radius 200 > L/4


def test_place_witness_center_sector():
    g = make_grid(2, 64, 256)
    cone = sector(g, 0.0, np.pi / 2)
    y = place_witness_center(cone, 0.5, 2.0)
    # on the bisector, with clearance at least the support radius
    assert y[0] == pytest.approx(y[1])
    assert cone.clearance(y) >= 4.0 - 1e-12


def test_place_witness_center_on_an_explicit_mask():
    # no continuum boundary: the margin limit 3L/4 - rho/delta along e_1
    g = make_grid(1, 64, 256)
    om = explicit_mask(g, g.x_axis > 1.0)
    assert place_witness_center(om, 0.5, 2.0).tolist() == [44.0]
    # the nodes decide containment: a hole under the delta = 0.5 support skips it
    holed = explicit_mask(g, (g.x_axis > 1.0) & ~((g.x_axis > 40.0) & (g.x_axis < 44.0)))
    plan = plan_norm_lowerbound(constant_symbol(g, 0.7), l2(g, holed), 2.0, [1.0, 0.5])
    (_, fits), (_, skip) = plan.witnesses
    assert fits.y == (46.0,)
    assert skip == "support ball B((44.0,), 4) is not contained in the domain"


def test_place_witness_center_rejects_a_ray_leaving_the_domain():
    om = half_line(make_grid(1, 64, 256))
    with pytest.raises(ValidationError):
        place_witness_center(om, 0.5, 2.0, ray=(-1.0,))


@pytest.mark.parametrize("k", [-1000, -200, 200, 1000])
@pytest.mark.parametrize("n,ray", [(1, (1.0,)), (1, (0.3,)), (2, (1.0, 1.0)),
                                   (2, (0.3, 0.7)), (2, (1.0, 0.5))])
def test_place_witness_center_ignores_the_ray_scale(n, ray, k):
    g = make_grid(n, 64, 256)
    om = half_line(g) if n == 1 else sector(g, 0.0, np.pi / 2)
    ray = np.asarray(ray)
    scaled = place_witness_center(om, 0.5, 2.0, ray=2.0 ** k * ray)
    assert scaled.tobytes() == place_witness_center(om, 0.5, 2.0, ray=ray).tobytes()


@st.composite
def domains(draw):
    L = draw(st.floats(4.0, 64.0))
    N = 2 ** draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["halfline", "full1", "full2", "sector"]))
    if kind == "halfline":
        return half_line(make_grid(1, L, N))
    if kind.startswith("full"):
        return full_space(make_grid(int(kind[-1]), L, N))
    alpha1 = draw(st.floats(-math.pi, math.pi))
    aperture = draw(st.floats(1e-3, 2 * math.pi))
    try:
        return sector(make_grid(2, L, N), alpha1, alpha1 + aperture)
    except ValidationError:  # a thin cone that misses every node
        reject()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(omega=domains(), delta=st.floats(0.05, 2.0), rho=st.floats(1.01, 3.0))
# the exact margin position rounds one ulp past 3L/4 here
@example(sector(make_grid(2, 24.0, 256), 0.0, 2 * np.pi / 3), 0.45, 1.5)
def test_placed_center_is_admissible(omega, delta, rho):
    try:
        y = place_witness_center(omega, delta, rho)
    except ValidationError:
        return
    try:
        WitnessParams(delta, (0.0,) * omega.grid.n, tuple(y), rho, omega)
    except ValidationError as exc:  # plateau smaller than a cell
        assert str(exc).startswith("plateau ball") and "contains no grid node" in str(exc)


def whole_grid_witness(params):
    """The former make_witness: profile and phase over the whole grid."""
    grid = params.domain.grid
    mesh = grid.coords()
    offsets = [m - c for m, c in zip(mesh, params.y)]
    dist = np.abs(offsets[0]) if grid.n == 1 else np.hypot(*offsets)
    amp = bump_profile(params.delta * dist, params.rho)
    return np.exp(1j * sum(e * m for e, m in zip(params.eta, mesh))) * amp


WITNESS_CASES = [
    (half_line(make_grid(1, 64, 1024)), 0.5, 1.3, None, 2.0),
    (full_space(make_grid(1, 32, 512)), 0.37, -2.1, (-5.3,), 1.7),
    (sector(make_grid(2, 32, 256), 0.0, 2 * np.pi / 3), 0.6, (0.7, -1.2),
     None, 1.5),
    (full_space(make_grid(2, 16, 128)), 1.3, (3.0, 0.5), (1.1, -2.35), 2.5),
    (half_line(make_grid(1, 64, 1024)), 0.5, 0.0, None, 2.0),  # the real profile
]


@pytest.mark.parametrize("omega,delta,eta,y,rho", WITNESS_CASES)
def test_witness_matches_the_whole_grid_formula(omega, delta, eta, y, rho,
                                                 witness_on_grid):
    if y is None:
        y = tuple(place_witness_center(omega, delta, rho))
    params = WitnessParams(delta, eta, y, rho, omega)
    f = witness_on_grid(params).values
    assert np.array_equal(f, whole_grid_witness(params))
    window, _ = omega.grid.window(params.y, params.support_radius)
    outside = np.ones(omega.grid.shape, dtype=bool)
    outside[window] = False
    assert outside.any() and np.all(f[outside] == 0)


# -- residual ---------------------------------------------------------------

def residual(a, params):
    return mollification_residual(a, params, make_witness(params))[1]


def test_residual_constant_symbol_vanishes():
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    P = WitnessParams(0.25, (0.0,), (24.0,), 2.0, om)
    res = residual(constant_symbol(g, 0.7 + 0.2j), P)
    assert res <= 1e-8


def test_residual_gaussian_monotone_in_delta():
    g = make_grid(1, 64, 4096)
    om = full_space(g)
    a = gaussian_symbol(g, 0.0, 2.0, 1.0)
    res = [residual(a, WitnessParams(d, (0.0,), (24.0,), 2.0, om))
           for d in (0.5, 0.25, 0.125)]
    assert res[0] > res[1] > res[2]


@pytest.mark.parametrize("n", [1, 2])
def test_witness_image_restricts_to_wiener_hopf(n, witness_on_grid):
    # The residual hands on W f as r_Omega g of its image g = F^{-1} a F f;
    # that needs e_Omega f = f, so it must hold bit for bit.
    if n == 1:
        g = make_grid(1, 64, 1024)
        om = half_line(g)
        P = WitnessParams(0.25, (1.5,), (24.0,), 2.0, om)
        a = gaussian_symbol(g, 0.0, 2.0, 1.0)
    else:
        g = make_grid(2, 32, 256)
        om = sector(g, 0.0, np.pi / 2)
        P = WitnessParams(0.5, (1.0, -0.5), (12.0, 12.0), 2.0, om)
        a = gaussian_symbol(g, [0.5, 0.0], 2.0, 1.0)
    f = witness_on_grid(P)
    w_f, _ = mollification_residual(a, P, make_witness(P))
    image = apply_multiplier(a, f)
    reference = wiener_hopf_apply(a, om, f).values
    assert np.array_equal(restrict(image, om).values, reference)
    assert np.array_equal(w_f, reference[om.inside])
    assert np.any(image.values[~om.inside] != 0)  # the restriction matters


@pytest.mark.parametrize("omega,center,rho,theta,lam,m,y0", [
    (half_line(make_grid(1, 32768.0, 2 ** 18)), 0.0, 2.0, 0.25, 8.0, 4, 4.0),
    (sector(make_grid(2, 64.0, 512), 0.0, 2 * np.pi / 3), [0.0, 0.0],
     1.5, 0.1, 1.6, 3, 10.0),
], ids=["kappa-1d", "sector-512"])
def test_residual_matches_the_whole_grid_formula(omega, center, rho, theta, lam,
                                                 m, y0, witness_on_grid):
    # the residual is taken on the witness's window: bit for bit the whole grid's
    a = gaussian_symbol(omega.grid, center, 2.0, 1.0)
    plan = plan_kuratowski(a, l2(omega.grid, omega), rho, theta, lam, m, y0=y0)
    for params in plan.witnesses:
        f = witness_on_grid(params)
        _, res = mollification_residual(a, params, make_witness(params))
        g = whole_grid_image(a, params)
        idx, _ = nearest_freq_node(omega.grid, params.eta)
        assert res == float(np.max(np.abs(g - a.at(idx) * f.values)))


def test_residual_reads_the_image_off_the_witness_window(witness_on_grid):
    # a shift by 40 with a(eta) = 0: the image 2 f(x - 40) and so the
    # residual's max lie off the witness's window
    g = make_grid(1, 64.0, 1024)
    P = WitnessParams(0.5, (0.0,), (-20.0,), 2.0, full_space(g))
    idx, _ = nearest_freq_node(g, P.eta)
    vals = 2.0 * np.exp(-40j * g.xi_axis)
    vals[idx] = 0.0
    a = symbol_from_values(g, vals)
    _, res = mollification_residual(a, P, make_witness(P))
    image = apply_multiplier(a, witness_on_grid(P))
    assert res == float(np.max(np.abs(image.values)))
    assert res == pytest.approx(2.0, rel=0.1)


def test_residual_lipschitz_symbol_scales_linearly():
    # linear ramp near eta: residual ~ delta, so halving delta halves it
    g = make_grid(1, 128, 8192)
    om = full_space(g)
    a = symbol_from_function(g, lambda xi: 0.5 + 0.02 * xi)
    prev = None
    for d in (0.5, 0.25, 0.125):
        r = residual(a, WitnessParams(d, (0.0,), (48.0,), 2.0, om))
        if prev is not None:
            assert 0.375 <= r / prev <= 0.625
        prev = r


# -- norm lower-bound experiment --------------------------------------------

def test_norm_experiment_constant_symbol():
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    S = l2(g)
    rep = norm_lowerbound_experiment(
        plan_norm_lowerbound(constant_symbol(g, 0.7), S, 2.0, [0.5, 0.25]))
    assert 0.7 - 1e-6 <= rep.achieved_lower_bound <= 0.7
    assert rep.chains_passed
    assert rep.eps_obs <= 1e-8


def test_norm_experiment_gaussian_l2():
    g = make_grid(1, 64, 4096)
    om = full_space(g)
    S = l2(g)
    a = gaussian_symbol(g, 0.0, 2.0, 1.0)
    rep = norm_lowerbound_experiment(plan_norm_lowerbound(a, S, 2.0, [0.25, 0.125]))
    assert rep.achieved_lower_bound >= 0.95
    assert rep.chains_passed
    ratios = [w.ratio for w in rep.witnesses if w.error is None]
    assert all(b >= a_ - 1e-3 for a_, b in zip(ratios, ratios[1:]))


def test_norm_experiment_weighted_variable_halfline():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    S = SpaceSpec(g, step_exponent(g, 2.0, 2.5), power_weight(g, 0.1), om)
    a = gaussian_symbol(g, 0.0, 2.0, 1.0)
    rep = norm_lowerbound_experiment(
        plan_norm_lowerbound(a, S, 2.0, [0.25, 0.125, 0.0625]))
    assert rep.achieved_lower_bound >= 0.9
    assert rep.chains_passed
    # cross-check against |a(eta)| - eps (1 + doubling quotient) direction:
    # the certified chain implies ratio >= (|a| - eps) / quotient
    for w in rep.witnesses:
        assert w.ratio >= (rep.a_eta_abs - w.residual) / w.quotient - 1e-9


def test_norm_experiment_per_delta_placement_failure_nonfatal():
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    S = l2(g)
    rep = norm_lowerbound_experiment(
        plan_norm_lowerbound(constant_symbol(g, 1.0), S, 2.0, [0.5, 0.05]))
    errors = [w for w in rep.witnesses if w.error is not None]
    assert len(errors) == 1
    assert rep.achieved_lower_bound == pytest.approx(1.0, abs=1e-6)


def test_norm_experiment_all_deltas_inadmissible():
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    S = l2(g)
    with pytest.raises(ValidationError):
        plan_norm_lowerbound(constant_symbol(g, 1.0), S, 2.0, [0.01])


def test_norm_experiment_rejects_increasing_schedule():
    g = make_grid(1, 64, 1024)
    om = full_space(g)
    with pytest.raises(ValidationError):
        plan_norm_lowerbound(constant_symbol(g, 1.0), l2(g), 2.0, [0.25, 0.5])


@pytest.mark.parametrize("delta", [np.inf, np.nan, 0.0])
def test_infinite_or_nonpositive_delta_is_rejected(delta):
    g = make_grid(1, 64, 1024)
    with pytest.raises(ValidationError, match="delta must be finite and positive"):
        WitnessParams(delta, (0.0,), (0.0,), 2.0, full_space(g))
    with pytest.raises(ValidationError, match="delta schedule must be finite and positive"):
        plan_norm_lowerbound(constant_symbol(g, 1.0), l2(g), 2.0, [delta, 0.25])


# -- pairwise (noncompactness) experiment -----------------------------------

def test_kappa_constant_symbol_disjoint_supports():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    S = l2(g, om)
    rep = kuratowski_experiment(
        plan_kuratowski(constant_symbol(g, 0.7), S, 2.0, 0.25, 4.0, 3, y0=1.0))
    # disjoint supports + lattice property give d_jk >= |c|
    assert rep.kappa_lower_bound >= 0.7 * (1 - 1e-6)
    assert rep.kappa_half == pytest.approx(rep.kappa_lower_bound / 2)
    assert rep.chains_passed
    assert rep.family_size == 3


def test_kappa_zero_symbol():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    S = l2(g, om)
    rep = kuratowski_experiment(
        plan_kuratowski(constant_symbol(g, 0.0), S, 2.0, 0.25, 4.0, 3, y0=1.0))
    assert all(p.distance <= 1e-8 for p in rep.pairs)
    assert rep.kappa_lower_bound <= 1e-8


def test_kappa_gaussian_weighted_variable():
    g = make_grid(1, 4096, 2 ** 17)
    om = half_line(g)
    S = SpaceSpec(g, constant_exponent(g, 2.5), power_weight(g, 0.1), om)
    a = gaussian_symbol(g, 0.0, 2.0, 1.0)
    rep = kuratowski_experiment(plan_kuratowski(a, S, 2.0, 0.25, 4.0, 4, y0=8.0))
    assert rep.kappa_lower_bound >= 0.85 * rep.a_eta_abs
    assert rep.chains_passed
    # measured chain: every pair beats |a(eta)|/(S_est + slack) - residuals
    for p in rep.pairs:
        assert p.distance + 1e-8 >= p.bound


def test_kappa_sector_2d():
    g = make_grid(2, 32, 1024)
    cone = sector(g, 0.0, np.pi / 2)
    S = l2(g, cone)
    rep = kuratowski_experiment(
        plan_kuratowski(constant_symbol(g, 0.7), S, 2.0, 0.25, 3.5, 2, y0=1.3))
    assert rep.kappa_lower_bound >= 0.7 * (1 - 1e-6)
    assert rep.chains_passed


def _halfline_space():
    g = make_grid(1, 4096.0, 2 ** 16)
    om = half_line(g)
    return (SpaceSpec(g, constant_exponent(g, 1.5), power_weight(g, 0.1), om),
            (2.0, 0.25, 4.0, 4, 8.0))


def _sector_space():
    g = make_grid(2, 64.0, 512)
    cone = sector(g, 0.0, 2 * np.pi / 3)
    r = np.hypot(*g.coords())
    return (SpaceSpec(g, exponent_from_values(g, 2.0 + 0.75 / (1.0 + r)),
                      power_weight(g, 0.3), cone),
            (1.5, 0.1, 1.6, 3, 10.0))


def assert_separated_by_the_modular_constant(plan, witness_on_grid):
    """phi_j - phi_k has modular 1 + 1 = 2 at lambda = 1 (disjoint supports), so
    its norm lies in [2^{1/p_+}, 2^{1/p_-}] with p_+- taken over its support."""
    S = plan.space
    phis = []
    for params in plan.witnesses:
        f = witness_on_grid(params)
        phis.append(GridFunction(S.grid, f.values * complex(1.0 / luxemburg_norm(f, S))))
    for phi_j, phi_k in itertools.combinations(phis, 2):
        diff = GridFunction(S.grid, phi_j.values - phi_k.values)
        p = S.exponent.values[(diff.values != 0) & S.domain.inside]
        d = luxemburg_norm(diff, S)
        assert 2.0 ** (1.0 / p.max()) * (1 - 1e-9) <= d <= 2.0 ** (1.0 / p.min()) * (1 + 1e-9)


@pytest.mark.parametrize("build", [_halfline_space, _sector_space],
                         ids=["halfline-constant-p", "sector-variable-p"])
def test_disjoint_normalized_witnesses_separate_by_the_modular_constant(build,
                                                                       witness_on_grid):
    S, family_args = build()
    assert_separated_by_the_modular_constant(
        plan_kuratowski(constant_symbol(S.grid, 1.0), S, *family_args), witness_on_grid)


KAPPA_DOMAINS = [half_line(make_grid(1, 1024.0, 2 ** 14))] + [
    sector(make_grid(2, 64.0, 512), 0.0, aperture)
    for aperture in (np.pi / 2, 2 * np.pi / 3, np.pi)]


@st.composite
def kappa_runs(draw):
    """A space on a drawn cone with a constant or step exponent in [1.2, 4] and a
    power weight in the middle 80% of (-n/p_+, n(1 - 1/p_-)); kappa-lb family args."""
    omega = draw(st.sampled_from(KAPPA_DOMAINS))
    g, n = omega.grid, omega.grid.n
    left = draw(st.floats(1.2, 4.0))
    if draw(st.booleans()):
        exponent = constant_exponent(g, left)
        p_min = p_max = left
    else:
        right = draw(st.floats(1.2, 4.0))
        edge = draw(st.floats(-0.25, 0.5)) * g.half_width
        exponent = step_exponent(g, left, right, edge)
        p_min, p_max = min(left, right), max(left, right)
    lo, hi = -n / p_max, n * (1.0 - 1.0 / p_min)
    gamma = lo + (hi - lo) * draw(st.floats(0.1, 0.9))
    space = SpaceSpec(g, exponent, power_weight(g, gamma), omega)
    rho = draw(st.floats(1.5, 2.5))
    tt = draw(st.floats(0.05, 0.25))
    lam = (1.0 + tt) / (1.0 - tt) * draw(st.floats(1.05, 1.5))
    return space, rho, tt / rho, lam, draw(st.sampled_from([2, 3]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(run=kappa_runs())
def test_kappa_plan_default_family_certifies_and_separates(run, witness_on_grid):
    # the default y0 path end to end: the chains pass and the witnesses separate
    S, rho, theta, lam, m = run
    try:
        plan = plan_kuratowski(gaussian_symbol(S.grid, None, 2.0, 1.0), S, rho,
                               theta, lam, m)
    except ValidationError:
        return
    assert kuratowski_experiment(plan).chains_passed
    assert_separated_by_the_modular_constant(plan, witness_on_grid)


@pytest.mark.parametrize("omega,rho,theta,lam,m", [
    (sector(make_grid(2, 64.0, 512), 0.0, 2 * np.pi / 3), 1.5, 0.1, 1.6, 3),
    (half_line(make_grid(1, 64.0, 1024)), 2.0, 0.25, 4.0, 2),
])
def test_kappa_plan_default_y0_keeps_the_margin_rule(omega, rho, theta, lam, m):
    params = plan_kuratowski(constant_symbol(omega.grid, 1.0),
                             l2(omega.grid, omega), rho, theta, lam, m).witnesses
    # the largest admissible y0: the outermost support reaches the margin
    L, outer = omega.grid.half_width, params[-1]
    s = outer.support_radius
    slack = min(L / 4 - s, 0.75 * L - max(abs(c) for c in outer.y) - s)
    assert 0.0 <= slack <= 1e-12 * L


def test_kappa_plan_explicit_y0_and_unresolvable_default():
    om = half_line(make_grid(1, 64.0, 1024))
    a, S = constant_symbol(om.grid, 1.0), l2(om.grid, om)
    plan = plan_kuratowski(a, S, 2.0, 0.25, 4.0, 2, y0=2.0)
    assert ([(params.y, 1.0 / params.delta) for params in plan.witnesses]
            == separated_sequence(om, 2.0, 0.25, 4.0, 2, y0=2.0))
    with pytest.raises(ValidationError, match="margin rule and 4h/theta"):
        plan_kuratowski(a, S, 2.0, 0.01, 1.1, 4)


def test_kappa_rejects_overlapping_family():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    S = l2(g, om)
    # lambda = 1.2 is below (1 + rho theta)/(1 - rho theta) = 3: inflations overlap
    with pytest.raises(ValidationError, match="for disjoint inflated balls"):
        plan_kuratowski(constant_symbol(g, 1.0), S, 2.0, 0.25, 1.2, 2, y0=8.0)


def test_kappa_needs_two_balls():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    with pytest.raises(ValidationError, match="needs at least 2 balls"):
        plan_kuratowski(constant_symbol(g, 1.0), l2(g, om), 2.0, 0.25, 4.0, 1, y0=8.0)



# a symbol sampled on another box or on fewer nodes than the space's grid
OTHER_GRIDS = [make_grid(1, 512, 8192), make_grid(1, 256, 4096)]


@pytest.mark.parametrize("symbol_grid", OTHER_GRIDS, ids=["half-width", "points"])
@pytest.mark.parametrize("plan", [
    lambda a, S: plan_norm_lowerbound(a, S, 2.0, [0.25, 0.125, 0.0625]),
    lambda a, S: plan_kuratowski(a, S, 2.0, 0.25, 4.0, 2, y0=8.0),
], ids=["norm-lb", "kappa-lb"])
def test_plans_reject_a_symbol_on_another_grid(plan, symbol_grid):
    g = make_grid(1, 256, 8192)
    with pytest.raises(ValidationError, match="symbol and space live on different grids"):
        plan(gaussian_symbol(symbol_grid, 0.0, 2.0), l2(g, half_line(g)))


@pytest.mark.parametrize("symbol_grid", OTHER_GRIDS, ids=["half-width", "points"])
def test_residual_rejects_a_symbol_on_another_grid(symbol_grid):
    P = WitnessParams(0.25, (0.0,), (24.0,), 2.0, full_space(make_grid(1, 256, 8192)))
    with pytest.raises(ValidationError, match="symbol and witness live on different grids"):
        mollification_residual(gaussian_symbol(symbol_grid, 0.0, 2.0), P, make_witness(P))


# -- images kept on Omega; witnesses formed in their image's grid array ------

def _step_power_halfline(points=2 ** 16):
    g = make_grid(1, points / 16.0, points)
    return SpaceSpec(g, step_exponent(g, 2.0, 2.5, edge=16.0), power_weight(g, 0.1),
                     half_line(g))


def _kappa_halfline_plan(peak=1.0, points=2 ** 16):
    S = _step_power_halfline(points)
    return plan_kuratowski(gaussian_symbol(S.grid, 0.0, 2.0, peak), S,
                           2.0, 0.25, 4.0, 4, y0=2.0)


def _kappa_sector_plan():
    S, family_args = _sector_space()
    return plan_kuratowski(gaussian_symbol(S.grid, None, 2.0, 1.0), S, *family_args)


def test_witness_is_formed_in_the_grid_array_of_its_image():
    # that array and the image on Omega (half the grid) stay below two grid
    # arrays; a grid-sized witness held beside them would not
    plan = _kappa_halfline_plan()
    args = plan.symbol, plan.space, plan.witnesses[-1], "j=3"
    witness._measure_witness(*args, [])  # numpy caches its FFT plans on the first call
    tracemalloc.start()
    try:
        witness._measure_witness(*args, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * plan.space.grid.node_count * np.dtype(complex).itemsize


def test_overflowing_witness_image_is_a_numeric_failure():
    # a symbol peak near the float maximum overflows every witness image
    with pytest.raises(NumericFailure, match="^the multiplier image overflows: "):
        kuratowski_experiment(_kappa_halfline_plan(peak=1e308))


def test_witness_path_builds_no_grid_function(monkeypatch):
    # W f is handed on as its values on Omega: no whole-grid GridFunction,
    # so no second finiteness scan of the image
    S = _step_power_halfline(2 ** 12)
    a = gaussian_symbol(S.grid, 0.0, 2.0)
    kappa_plan = plan_kuratowski(a, S, 2.0, 0.25, 4.0, 2, y0=2.0)
    norm_plan = plan_norm_lowerbound(a, S, 2.0, [1.0, 0.5])
    built = []
    real = GridFunction.__post_init__
    monkeypatch.setattr(GridFunction, "__post_init__",
                        lambda self: built.append(self) or real(self))
    kuratowski_experiment(kappa_plan)
    norm_lowerbound_experiment(norm_plan)
    assert built == []


def test_each_experiment_gathers_omega_once(monkeypatch):
    # w and p on Omega are gathered by one space_part call per experiment,
    # not once per norm of an image
    S = _step_power_halfline(2 ** 12)
    a = gaussian_symbol(S.grid, 0.0, 2.0)
    kappa_plan = plan_kuratowski(a, S, 2.0, 0.25, 4.0, 3, y0=2.0)
    norm_plan = plan_norm_lowerbound(a, S, 2.0, [1.0, 0.5])
    gathers = []
    real = witness.space_part

    def counted(space, nodes):
        if isinstance(nodes, np.ndarray) and nodes.dtype == bool:
            gathers.append(nodes)
        return real(space, nodes)

    monkeypatch.setattr(witness, "space_part", counted)
    kuratowski_experiment(kappa_plan)
    assert len(gathers) == 1
    norm_lowerbound_experiment(norm_plan)
    assert len(gathers) == 2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_witness_image_is_a_numeric_failure(monkeypatch, bad):
    # the residual reads every node of the image, so it catches a non-finite one
    def image_with(a, values):
        values[-1] = bad
        return values

    monkeypatch.setattr(witness, "_multiplier_image", image_with)
    P = WitnessParams(0.25, (0.0,), (24.0,), 2.0, full_space(make_grid(1, 256, 8192)))
    with pytest.raises(NumericFailure, match="^the witness image is not finite"):
        mollification_residual(constant_symbol(P.domain.grid, 1.0), P, make_witness(P))


@pytest.mark.parametrize("plan_of", [_kappa_halfline_plan, _kappa_sector_plan],
                         ids=["halfline", "sector"])
def test_omega_and_window_norms_match_the_whole_grid_norms(plan_of, witness_on_grid):
    plan = plan_of()
    a, S = plan.symbol, plan.space
    rep = kuratowski_experiment(plan)
    images = []
    for params, rec in zip(plan.witnesses, rep.witnesses):
        f = witness_on_grid(params)
        assert rec.norm_witness == luxemburg_norm(f, S)
        images.append(whole_grid_image(a, params) * complex(1.0 / luxemburg_norm(f, S)))
    assert [p.distance for p in rep.pairs] == [
        part_norm(space_part(S, ()), images[p.j] - images[p.k])[0] for p in rep.pairs]
    norm_plan = plan_norm_lowerbound(a, S, 2.0, [1.0, 0.5, 0.25])
    norm_rep = norm_lowerbound_experiment(norm_plan)
    assert all(rec.error is None for rec in norm_rep.witnesses)
    for (_, params), rec in zip(norm_plan.witnesses, norm_rep.witnesses):
        f = witness_on_grid(params)
        assert rec.norm_witness == luxemburg_norm(f, S)
        image = whole_grid_image(a, params)
        assert rec.ratio == part_norm(space_part(S, ()), image)[0] / rec.norm_witness
