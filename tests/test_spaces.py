import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from whlab import (Ball, GridFunction, NumericFailure, SpaceSpec,
                   ValidationError, associate_space, axiom_check,
                   ball_indicator, berezhnoi_ratio, constant_exponent,
                   constant_weight, explicit_mask, exponent_from_values,
                   full_space, half_line, indicator_norm, luxemburg_norm,
                   make_grid, part_norm, power_weight, restrict, sample, sector,
                   step_exponent, weight_from_values)
from whlab import spaces
from whlab.spaces import NORM_RTOL


def test_luxemburg_indicator_lp():
    g = make_grid(1, 16, 1024)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), full_space(g))
    f = sample(lambda x: (x >= 0) & (x < 1), g)
    assert abs(luxemburg_norm(f, S) - 1.0) <= 1e-6


def test_luxemburg_golden_value_vs_root_oracle():
    # modular(chi/lam) = lam^-2 + lam^-3 = 1  <=>  lam^3 - lam - 1 = 0
    root = brentq(lambda t: t ** 3 - t - 1, 1.0, 2.0)
    g = make_grid(1, 16, 1024)
    S = SpaceSpec(g, step_exponent(g, 2.0, 3.0), constant_weight(g), full_space(g))
    f = sample(lambda x: (x >= -1) & (x < 1), g)
    assert luxemburg_norm(f, S) == pytest.approx(root, rel=0.01)


def test_luxemburg_homogeneity_and_small_norms():
    g = make_grid(1, 16, 512)
    S = SpaceSpec(g, step_exponent(g, 2.0, 3.0), constant_weight(g), full_space(g))
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.standard_normal(512) + 1j * rng.standard_normal(512))
    nf = luxemburg_norm(f, S)
    for c in (1e-4, 0.37, 4096.0):
        cf = GridFunction(g, c * f.values)
        assert luxemburg_norm(cf, S) == pytest.approx(c * nf, rel=1e-9)
    assert luxemburg_norm(GridFunction(g, 0.0 * f.values), S) == 0.0


def test_luxemburg_huge_values_handled():
    g = make_grid(1, 16, 64)
    S = SpaceSpec(g, constant_exponent(g, 3), constant_weight(g), full_space(g))
    f = sample(lambda x: 1e200 * ((x >= 0) & (x < 1)), g)
    assert luxemburg_norm(f, S) == pytest.approx(1e200, rel=1e-9)


def test_luxemburg_tiny_and_huge_norms():
    # Norms down to 1e-305 are not clamped; outside the normal float range
    # the kernel raises instead of returning a wrong value.
    g = make_grid(1, 16, 1024)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), full_space(g))
    f = sample(lambda x: (x >= 0) & (x < 1), g)
    nf = luxemburg_norm(f, S)
    for c in (1e-305, 1e-300, 1e-200, 1e200, 1e300):
        cf = GridFunction(g, c * f.values)
        assert luxemburg_norm(cf, S) == pytest.approx(c * nf, rel=NORM_RTOL)
    for c in (1e-310, 1e308):
        with pytest.raises(NumericFailure):
            luxemburg_norm(GridFunction(g, c * f.values), S)


def test_luxemburg_at_the_edge_of_the_float_range():
    # Each case overflows inside the kernel; numpy warnings are errors here.
    g = make_grid(1, 64.0, 256)
    chi = ball_indicator(Ball((0.0,), 8.0), g)
    huge_w = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g, 1e308), full_space(g))
    # the norm is about 3.9e308: Newton's exp(s) overflows
    with pytest.raises(NumericFailure, match="above the float range") as whole:
        luxemburg_norm(chi, huge_w)
    # the windowed gather of the same ball fails the same way
    with pytest.raises(NumericFailure) as windowed:
        indicator_norm(Ball((0.0,), 8.0), huge_w)
    assert str(windowed.value) == str(whole.value)
    # |f| w overflows in the gather
    with pytest.raises(NumericFailure, match="above the float range"):
        luxemburg_norm(GridFunction(g, np.full(g.shape, 4 + 0j)), huge_w)
    # p = 1e308: the slope's sum overflows; the norm is 16^(1/p), 1 in floats
    huge_p = SpaceSpec(g, constant_exponent(g, 1e308), constant_weight(g), full_space(g))
    assert luxemburg_norm(chi, huge_p) == pytest.approx(1.0, rel=NORM_RTOL)


def bisection_norm(f, space):
    """The Luxemburg kernel as it was before the Newton bracket: doubling or
    halving from 1, then bisection, with a modular sum over all of Omega
    for every test."""
    absf = np.abs(f.values)
    mask = space.domain.inside
    if not np.any(absf[mask] != 0.0):
        return 0.0
    z = absf[mask] * space.weight.values[mask]
    p = space.exponent.values[mask]

    def leq_one(lam):
        with np.errstate(over="ignore"):
            val = float(((z / lam) ** p).sum() * space.grid.cell_volume)
        return math.isfinite(val) and val <= 1.0

    hi = 1.0
    if leq_one(hi):
        while hi > 1e-300 and leq_one(hi / 2.0):
            hi /= 2.0
    else:
        while not leq_one(hi):
            hi *= 2.0
            assert hi <= 1e300
    lo = hi / 2.0
    for _ in range(200):
        if hi - lo <= NORM_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if leq_one(mid):
            hi = mid
        else:
            lo = mid
    return hi


def random_case(seed, n=1, points=256, p_lo=2.0, p_hi=None, w_spread=0.0,
                frac=1.0, cone=False, scale=1.0):
    """A function and a space: p uniform between p_lo and p_hi (constant
    when p_hi is None), log w uniform in [-w_spread, w_spread], f nonzero on
    about ``frac`` of the nodes and on at least one node of Omega."""
    rng = np.random.default_rng(seed)
    g = make_grid(n, 16.0, points)
    p = (constant_exponent(g, p_lo) if p_hi is None
         else exponent_from_values(g, rng.uniform(*sorted((p_lo, p_hi)), g.shape)))
    w = weight_from_values(g, np.exp(rng.uniform(-w_spread, w_spread, g.shape)))
    if not cone:
        omega = full_space(g)
    else:
        omega = half_line(g) if n == 1 else sector(g, 0.0, 2 * np.pi / 3)
    support = rng.random(g.shape) < frac
    nodes = np.flatnonzero(omega.inside)
    support.flat[nodes[rng.integers(nodes.size)]] = True
    vals = scale * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    return GridFunction(g, vals * support), SpaceSpec(g, p, w, omega)


def bisection_cases(count):
    """``(case, f, S)`` for the first ``count`` seeded comparison inputs."""
    rng = np.random.default_rng(2024)
    for case in range(count):
        n = 1 if case % 5 else 2
        p_lo = float(rng.uniform(1.05, 4.0))
        f, S = random_case(
            seed=case, n=n, points=int(rng.choice([64, 256, 1024] if n == 1 else [16, 32])),
            p_lo=p_lo, p_hi=float(rng.uniform(p_lo, 4.0)) if rng.random() < 0.5 else None,
            w_spread=3.0, frac=float(10.0 ** rng.uniform(-2.0, 0.0)),
            cone=bool(rng.random() < 0.5), scale=float(10.0 ** rng.uniform(-150.0, 150.0)))
        yield case, f, S


def test_bracket_holds_the_root_and_the_norm_is_the_bisection_to_rtol():
    # modular(f/hi) <= 1 < modular(f/lo), summed over Omega ∩ supp f as the
    # kernel sums it; the upper end is within NORM_RTOL of the bisection
    for case, f, S in bisection_cases(500):
        keep = S.domain.inside & (f.values != 0.0)
        z, p = np.abs(f.values)[keep] * S.weight.values[keep], S.exponent.values[keep]

        def modular(lam):
            with np.errstate(over="ignore"):
                return float(((z / lam) ** p).sum() * f.grid.cell_volume)

        lo, hi = part_norm(S, (), f.values)
        assert modular(hi) <= 1.0 < modular(lo), case
        exact = bisection_norm(f, S)
        assert abs(luxemburg_norm(f, S) - exact) <= NORM_RTOL * exact, case


@st.composite
def window_cases(draw):
    """A space with a step exponent, a power weight and a half-line, sector or
    full domain on a 1-D or 2-D grid, and a random f on a window that crosses
    the boundary of Omega (it holds the origin, Omega's apex)."""
    n = draw(st.sampled_from([1, 2]))
    g = make_grid(n, 16.0, draw(st.sampled_from([256, 1024] if n == 1 else [64, 128])))
    if draw(st.booleans()):
        omega = full_space(g)
    elif n == 1:
        omega = half_line(g)
    else:
        alpha1 = draw(st.floats(0.0, 2 * np.pi))
        omega = sector(g, alpha1, alpha1 + draw(st.floats(np.pi / 4, 3 * np.pi / 2)))
    S = SpaceSpec(g, step_exponent(g, draw(st.floats(1.1, 4.0)), draw(st.floats(1.1, 4.0)),
                                   edge=draw(st.floats(-4.0, 4.0))),
                  power_weight(g, draw(st.floats(-0.3, 0.6))), omega)
    radius = draw(st.floats(2.0, 6.0))
    center = [draw(st.floats(-radius / 2, radius / 2)) for _ in range(n)]
    window, _ = g.window(center, radius)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = np.zeros(g.shape, complex)
    shape = vals[window].shape
    vals[window] = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                    * (rng.uniform(size=shape) < draw(st.floats(0.05, 1.0))))
    return S, window, vals


@pytest.mark.parametrize("omega,center", [
    (half_line(make_grid(1, 16.0, 1024)), (1.0,)),
    (sector(make_grid(2, 16.0, 128), 0.0, 2 * np.pi / 3), (3.0, 4.0)),
])
def test_part_norm_on_a_window_and_on_omega_is_the_whole_grid_norm(omega, center):
    g = omega.grid
    S = SpaceSpec(g, step_exponent(g, 1.5, 3.0, edge=2.0), power_weight(g, 0.3), omega)
    window, _ = g.window(center, 5.0)  # it crosses the boundary of Omega
    rng = np.random.default_rng(5)
    vals = np.zeros(g.shape, complex)
    vals[window] = rng.standard_normal(vals[window].shape) + 1j
    expected = luxemburg_norm(GridFunction(g, vals), S)
    assert part_norm(S, window, vals[window])[1] == expected
    assert part_norm(S, omega.inside, vals[omega.inside])[1] == expected
    with pytest.raises(ValidationError, match="values on nodes of shape"):
        part_norm(S, window, vals)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=window_cases())
def test_part_norm_on_a_drawn_window_and_on_omega_is_the_whole_grid_norm(case):
    # the norm reads Omega ∩ supp f in row-major order only, so a window that
    # holds supp f, the whole grid and the Omega mask give the same bracket
    S, window, vals = case
    inside = S.domain.inside
    if not inside.all():
        assert inside[window].any() and not inside[window].all()
    whole = part_norm(S, (), vals)
    assert part_norm(S, window, vals[window]) == whole
    assert part_norm(S, inside, vals[inside]) == whole
    for nodes, wrong in ((window, vals), ((), vals[window]), (inside, vals[window])):
        with pytest.raises(ValidationError, match="values on nodes of shape"):
            part_norm(S, nodes, wrong)


@pytest.mark.parametrize("bad_root", [lambda root: math.nan,
                                      lambda root: root * (1.0 + 1e-6)],
                         ids=["nan", "off-by-1e-6"])
def test_luxemburg_fallback_without_a_newton_bracket(monkeypatch, bad_root):
    # A failed or wrong Newton root must leave the bisection testing every
    # lam by a modular sum, with the same bits as the plain bisection.
    newton_root = spaces._newton_root
    monkeypatch.setattr(spaces, "_newton_root",
                        lambda *args: bad_root(newton_root(*args)))
    for case, f, S in bisection_cases(100):
        assert luxemburg_norm(f, S) == bisection_norm(f, S), case


CASE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def cases(constant_p=False):
    return st.builds(
        random_case, seed=st.integers(0, 2 ** 32 - 1),
        points=st.sampled_from([64, 256, 1024]), p_lo=st.floats(1.05, 4.0),
        p_hi=st.none() if constant_p else st.floats(1.05, 4.0),
        w_spread=st.floats(0.0, 3.0), frac=st.floats(0.01, 1.0),
        cone=st.booleans())


@CASE
@given(case=cases(), k=st.floats(-280.0, 280.0))
def test_property_homogeneity(case, k):
    f, S = case
    c = 10.0 ** k
    assert luxemburg_norm(GridFunction(f.grid, c * f.values), S) == pytest.approx(
        c * luxemburg_norm(f, S), rel=NORM_RTOL)


@CASE
@given(case=cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_property_lattice(case, seed):
    f, S = case
    damp = np.random.default_rng(seed).uniform(0.0, 1.0, f.grid.shape)
    smaller = GridFunction(f.grid, f.values * damp)
    assert luxemburg_norm(smaller, S) <= luxemburg_norm(f, S) * (1.0 + 1e-12)


@CASE
@given(case=cases(constant_p=True))
def test_property_constant_p_closed_form(case):
    f, S = case
    p = S.exponent.p_min
    inside = S.domain.inside
    closed = float(np.sum((np.abs(f.values) * S.weight.values)[inside] ** p)
                   * f.grid.cell_volume) ** (1.0 / p)
    v = luxemburg_norm(f, S)
    assert -1e-14 <= (v - closed) / v <= NORM_RTOL + 1e-14


@CASE
@given(case=cases())
def test_property_norm_is_the_upper_end(case):
    # v is a bisection upper end: the modular of f/v is <= 1 and v lies
    # within NORM_RTOL above the root of the discrete modular.
    f, S = case
    v = luxemburg_norm(f, S)

    def excess(lam):  # the modular of f/lam, minus 1
        absf = np.abs(f.values / lam)
        keep = S.domain.inside & (absf != 0.0)
        z, p = absf[keep] * S.weight.values[keep], S.exponent.values[keep]
        return float((z ** p).sum() * f.grid.cell_volume) - 1.0

    assert excess(v) <= 0.0
    root = brentq(excess, v / 2.0, v, xtol=1e-15 * v)
    assert -1e-14 <= (v - root) / v <= NORM_RTOL + 1e-14


def test_associate_space_involution_and_conjugates():
    g = make_grid(1, 16, 256)
    S = SpaceSpec(g, constant_exponent(g, 3), power_weight(g, 0.2), full_space(g))
    A = associate_space(S)
    assert np.allclose(A.exponent.values, 1.5, atol=1e-12)
    AA = associate_space(A)
    assert np.max(np.abs(AA.exponent.values - S.exponent.values)) <= 1e-12
    assert np.max(np.abs(AA.weight.values / S.weight.values - 1.0)) <= 1e-12
    # self-associate for p = 2, w = 1
    S2 = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), full_space(g))
    A2 = associate_space(S2)
    assert np.all(A2.exponent.values == 2.0)
    assert np.all(A2.weight.values == 1.0)
    # 1/p + 1/p' = 1 to machine precision
    total = 1.0 / S.exponent.values + 1.0 / A.exponent.values
    assert np.max(np.abs(total - 1.0)) <= 1e-15


def test_step_exponent_sharpens_at_a_tiny_width():
    # the quotient overflows to +-inf without a warning (an error under pytest)
    p = step_exponent(make_grid(1, 16.0, 64), 2.0, 3.0, width=1e-320)
    assert set(p.values.ravel().tolist()) == {2.0, 2.5, 3.0}


def test_exponent_field_rejects_bad_values():
    g = make_grid(1, 16, 64)
    with pytest.raises(ValidationError):
        constant_exponent(g, 1.0)
    with pytest.raises(ValidationError):
        weight_from_values(g, np.zeros(64))


@pytest.mark.parametrize("n", [1, 2])
def test_power_weight_repairs_the_origin_only(n):
    g = make_grid(n, 8.0, 64)
    r = g.window(np.zeros(n))[1]
    o = (32,) * n
    assert r[o] == 0.0
    for gamma in (0.3, -0.5):
        w = power_weight(g, gamma).values
        off = r != 0.0
        assert np.array_equal(w[off], r[off] ** gamma)
        ring = [w[o[:a] + (32 + s,) + o[a + 1:]] for a in range(n) for s in (-1, 1)]
        assert w[o] == np.mean(ring)
    # |x|^400 overflows away from the origin; the weight rejects it.
    with pytest.raises(ValidationError, match="finite and positive"):
        power_weight(g, 400.0)



@pytest.mark.parametrize("p", [1.0e16, 1.0e300])
def test_exponent_whose_conjugate_rounds_to_1_has_no_associate_space(p):
    g = make_grid(1, 16, 256)
    S = SpaceSpec(g, constant_exponent(g, p), constant_weight(g), full_space(g))
    assert luxemburg_norm(ball_indicator(Ball((0.5,), 2.0), g), S) > 0.0
    message = re.escape(f"the conjugate p/(p-1) of the exponent p = {p:g} rounds to 1")
    with pytest.raises(ValidationError, match=message):
        associate_space(S)
    with pytest.raises(ValidationError, match=message):
        berezhnoi_ratio(Ball((0.5,), 2.0), S)


def test_exponent_up_to_2_53_keeps_its_conjugates():
    g = make_grid(1, 16, 256)
    p = np.where(g.x_axis < 0.0, 1.0 + 2.0 ** -52, 2.0 ** 53)
    S = SpaceSpec(g, exponent_from_values(g, p), constant_weight(g), full_space(g))
    assert associate_space(associate_space(S)).exponent.p_min > 1.0
    assert berezhnoi_ratio(Ball((0.5,), 2.0), S) > 0.0


def test_berezhnoi_constant_p_is_one():
    g = make_grid(1, 16, 1024)
    for p in (1.5, 2.0, 3.0):
        S = SpaceSpec(g, constant_exponent(g, p), constant_weight(g), full_space(g))
        assert berezhnoi_ratio(Ball((0.5,), 2.0), S) == pytest.approx(1.0, rel=0.03)


def test_berezhnoi_power_weight_closed_form():
    # (1/2R) (2 R^1.4 / 1.4)^(1/2) (2 R^0.6 / 0.6)^(1/2), independent of R
    g = make_grid(1, 16, 8192)
    S = SpaceSpec(g, constant_exponent(g, 2), power_weight(g, 0.2), full_space(g))
    for R in (1.0, 2.0, 4.0):
        exact = (1 / (2 * R)) * np.sqrt(2 * R ** 1.4 / 1.4) * np.sqrt(2 * R ** 0.6 / 0.6)
        assert berezhnoi_ratio(Ball((0.0,), R), S) == pytest.approx(exact, rel=0.02)


def test_space_and_norm_reject_a_second_grid():
    g, other = make_grid(1, 16, 64), make_grid(1, 16, 128)
    with pytest.raises(ValidationError, match="space components must share one grid"):
        SpaceSpec(g, constant_exponent(g, 2), constant_weight(other), full_space(g))
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), full_space(g))
    with pytest.raises(ValidationError, match="grid mismatch between function and space"):
        luxemburg_norm(sample(lambda x: 1.0 + 0.0 * x, other), S)


def test_berezhnoi_ratio_in_2d_is_the_node_area_over_the_disc():
    # p = 2, w = 1: ||chi_B||^2 = count h^2 in X and in X' = X
    g = make_grid(2, 16, 256)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), full_space(g))
    ball = Ball((0.0, 0.0), 2.0)
    count = int(ball_indicator(ball, g).values.real.sum())
    ratio = berezhnoi_ratio(ball, S)
    assert ratio == pytest.approx(count * g.h ** 2 / (np.pi * 4.0), rel=4 * NORM_RTOL)
    assert round(ratio, 5) == 0.98601


def test_berezhnoi_exponential_weight_grows():
    g = make_grid(1, 16, 2048)
    w = weight_from_values(g, np.exp(np.abs(g.x_axis)))
    S = SpaceSpec(g, constant_exponent(g, 2), w, full_space(g))
    vals = [berezhnoi_ratio(Ball((0.0,), R), S) for R in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_berezhnoi_requires_full_space():
    g = make_grid(1, 16, 256)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), half_line(g))
    with pytest.raises(ValidationError):
        berezhnoi_ratio(Ball((1.0,), 0.5), S)


def test_berezhnoi_reads_the_mask_not_the_constructor():
    # an explicit mask over every node is the full space
    g = make_grid(1, 16, 256)
    p, w = step_exponent(g, 2.0, 3.0), power_weight(g, 0.2)
    ball = Ball((0.5,), 2.0)
    assert (berezhnoi_ratio(ball, SpaceSpec(g, p, w, explicit_mask(g, np.ones(g.shape, bool))))
            == berezhnoi_ratio(ball, SpaceSpec(g, p, w, full_space(g))))


def muckenhoupt_ratio(ball, exponent, weight):
    """(1/|B|) ||w chi_B||_{p(.)} ||chi_B / w||_{p'(.)}: the Berezhnoi ratio
    of the weighted full space, since ||chi_B||_{X(w)} = ||w chi_B||_{p(.)}."""
    grid = exponent.grid
    return berezhnoi_ratio(ball, SpaceSpec(grid, exponent, weight, full_space(grid)))


def test_muckenhoupt_reduces_to_berezhnoi():
    g = make_grid(1, 16, 1024)
    p = constant_exponent(g, 2)
    w = power_weight(g, 0.2)
    b = Ball((0.0,), 2.0)
    S = SpaceSpec(g, p, w, full_space(g))
    assert muckenhoupt_ratio(b, p, w) == berezhnoi_ratio(b, S)
    # w = 1 reduces to the unweighted ratio, = 1 for constant p
    one = constant_weight(g)
    assert muckenhoupt_ratio(b, p, one) == pytest.approx(1.0, rel=0.03)


def test_muckenhoupt_power_weight_value():
    # gamma = 0.2, p = 2, B(0,1): (1/2) (2/1.4)^(1/2) (2/0.6)^(1/2) ~ 1.0911
    g = make_grid(1, 16, 4096)
    val = muckenhoupt_ratio(Ball((0.0,), 1.0), constant_exponent(g, 2),
                            power_weight(g, 0.2))
    exact = 0.5 * np.sqrt(2 / 1.4) * np.sqrt(2 / 0.6)
    assert val == pytest.approx(exact, rel=0.03)


def test_muckenhoupt_classical_bracket_cross_check():
    # constant p: matches (1/|B| int w^p)^{1/p} (1/|B| int w^{-p'})^{1/p'}
    g = make_grid(1, 16, 2048)
    p0 = 2.0
    w = power_weight(g, 0.2)
    R = 2.0
    inside = np.abs(g.x_axis) < R
    classical = ((np.sum(w.values[inside] ** p0) * g.h / (2 * R)) ** (1 / p0)
                 * (np.sum(w.values[inside] ** -p0) * g.h / (2 * R)) ** (1 / p0))
    val = muckenhoupt_ratio(Ball((0.0,), R), constant_exponent(g, p0), w)
    assert val == pytest.approx(classical, rel=1e-9)


def test_muckenhoupt_divergence_outside_ap_range():
    # gamma = 0.6, p = 2: gamma p' = 1.2 > 1, the dual bracket diverges like
    # h^{-0.1} (oracle: int_h^1 x^{-1.2} dx), so halving h multiplies the
    # ratio by about 2^{0.1}; assert unbounded growth at that rate.
    vals = []
    for N in (1024, 2048, 4096):
        g = make_grid(1, 16, N)
        vals.append(muckenhoupt_ratio(Ball((0.0,), 1.0), constant_exponent(g, 2),
                                      power_weight(g, 0.6)))
    assert vals[1] >= 1.05 * vals[0]
    assert vals[2] >= 1.05 * vals[1]


def test_fields_reject_a_nonzero_imaginary_part():
    g = make_grid(1, 16, 64)
    with pytest.raises(ValidationError, match="exponents must be real"):
        exponent_from_values(g, 2.0 + 1e-3j * np.ones(g.shape))
    with pytest.raises(ValidationError, match="weights must be real"):
        weight_from_values(g, 1.0 + 1j)
    with pytest.raises(ValidationError, match="domain mask values must be real"):
        explicit_mask(g, np.ones(g.shape) + 1j)
    # a zero imaginary part is a real field
    assert np.array_equal(exponent_from_values(g, np.full(g.shape, 2.5 + 0j)).values,
                          constant_exponent(g, 2.5).values)
    assert np.array_equal(weight_from_values(g, 2.0 + 0j).values,
                          constant_weight(g, 2.0).values)
    assert np.array_equal(explicit_mask(g, np.ones(g.shape) + 0j).inside,
                          full_space(g).inside)


def test_power_weight_origin_repair():
    g = make_grid(1, 16, 256)
    w = power_weight(g, 0.2)
    assert np.all(w.values > 0)
    origin = g.points // 2
    assert g.x_axis[origin] == 0.0
    neighbor_avg = 0.5 * (w.values[origin - 1] + w.values[origin + 1])
    assert w.values[origin] == pytest.approx(neighbor_avg)


def test_norm_restricted_to_domain():
    # || f ||_{X(Omega)} counts only Omega: full-grid ones vs half-line
    g = make_grid(1, 16, 1024)
    om = half_line(g)
    S = SpaceSpec(g, constant_exponent(g, 2), constant_weight(g), om)
    f = sample(lambda x: 1.0 + 0 * x, g)
    assert luxemburg_norm(f, S) == pytest.approx(np.sqrt(16.0), rel=0.01)


@pytest.mark.parametrize("n,domain", [(1, half_line),
                                      (2, lambda g: sector(g, 0.3, 2.5))],
                         ids=["halfline", "sector"])
def test_norm_applies_the_restriction_itself(n, domain):
    # r_Omega before the norm changes no bit: the norm reads Omega only
    g = make_grid(n, 16, 256 if n == 1 else 64)
    om = domain(g)
    S = SpaceSpec(g, step_exponent(g, 2.0, 3.0), power_weight(g, 0.2), om)
    rng = np.random.default_rng(n)
    u = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    assert luxemburg_norm(restrict(u, om), S) == luxemburg_norm(u, S)


def test_lattice_and_triangle_random():
    g = make_grid(1, 16, 512)
    S = SpaceSpec(g, step_exponent(g, 2.0, 2.5), power_weight(g, 0.1),
                  full_space(g))
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = GridFunction(g, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        gfn = GridFunction(g, f.values * rng.uniform(0, 1, 512))
        nf, ng = luxemburg_norm(f, S), luxemburg_norm(gfn, S)
        assert ng <= nf + 1e-9
        h2 = GridFunction(g, rng.standard_normal(512))
        assert (luxemburg_norm(GridFunction(g, f.values + h2.values), S)
                <= nf + luxemburg_norm(h2, S) + 1e-8 * (nf + 1))


def test_axiom_battery_passes():
    g = make_grid(1, 16, 512)
    S = SpaceSpec(g, step_exponent(g, 2.0, 3.0), power_weight(g, 0.2),
                  full_space(g))
    results = axiom_check(S, trials=30, seed=5)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("trials", [0, -3, 2.5, True])
def test_axiom_battery_needs_a_trial(trials):
    g = make_grid(1, 16, 64)
    S = SpaceSpec(g, constant_exponent(g, 2.0), constant_weight(g), full_space(g))
    with pytest.raises(ValidationError, match="needs trials >= 1"):
        axiom_check(S, trials=trials)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_axiom_battery_needs_a_seed(seed):
    g = make_grid(1, 16, 64)
    S = SpaceSpec(g, constant_exponent(g, 2.0), constant_weight(g), full_space(g))
    with pytest.raises(ValidationError, match="needs an integer seed >= 0"):
        axiom_check(S, trials=1, seed=seed)


@pytest.mark.parametrize("domain", [lambda g: sector(g, 0.0, 2.0943951023931953),
                                    full_space], ids=["cone", "full"])
def test_axiom_battery_passes_on_2d_grids(domain):
    # the last Fatou truncation keeps the box corners, at distance L sqrt(2)
    g = make_grid(2, 16.0, 64)
    S = SpaceSpec(g, constant_exponent(g, 2.0), power_weight(g, 0.2), domain(g))
    failed = [r for r in axiom_check(S, trials=5, seed=0) if not r.passed]
    assert failed == []
