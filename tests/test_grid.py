import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (Ball, DegenerateBallError, GridFunction, ValidationError,
                   ball_indicator, explicit_mask, extend_by_zero, full_space,
                   half_line, make_grid, restrict, sample, sector)
from whlab.grid import _ball_nodes


def test_make_grid_arithmetic():
    g = make_grid(1, 8, 16)
    assert g.h == 1.0
    assert g.x_axis[0] == -8.0
    assert np.isclose(g.xi_axis[1] - g.xi_axis[0], np.pi / 8)
    assert g.h * g.points == 2 * g.half_width


def test_make_grid_2d():
    g = make_grid(2, 4, 8)
    assert g.node_count == 64
    assert g.h == 1.0


@pytest.mark.parametrize("n,L,N", [(1, 8, 12), (1, -1, 16), (3, 8, 16), (1, 8, 4)])
def test_make_grid_rejects(n, L, N):
    with pytest.raises(ValidationError):
        make_grid(n, L, N)


def test_sample_zero_one_unimodular():
    g = make_grid(1, 8, 64)
    assert np.all(sample(lambda x: 0.0 * x, g).values == 0)
    assert np.all(sample(lambda x: 1.0 + 0.0 * x, g).values == 1)
    eta = g.xi_axis[40]
    u = sample(lambda x: np.exp(1j * eta * x), g)
    assert np.allclose(np.abs(u.values), 1.0)


def test_sample_rejects_nonfinite():
    g = make_grid(1, 8, 16)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValidationError):
            sample(lambda x: 1.0 / x, g)  # hits x = 0


def test_restrict_halfline_indicator_action():
    g = make_grid(1, 8, 64)
    om = half_line(g)
    u = sample(lambda x: 1.0 + 0.0 * x, g)
    r = restrict(u, om)
    assert np.all(r.values[g.x_axis >= 0] == 1)
    assert np.all(r.values[g.x_axis < 0] == 0)


def test_restrict_full_space_is_identity():
    g = make_grid(1, 8, 64)
    om = full_space(g)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert np.array_equal(restrict(u, om).values, u.values)


def test_restrict_extend_idempotent():
    g = make_grid(1, 8, 64)
    om = half_line(g)
    rng = np.random.default_rng(4)
    u = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    once = restrict(u, om)
    assert np.array_equal(restrict(extend_by_zero(once, om), om).values, once.values)
    # e o r = multiplication by the indicator, exactly
    chi = om.inside.astype(complex)
    assert np.array_equal(extend_by_zero(restrict(u, om), om).values,
                          chi * u.values)


def test_restrict_grid_mismatch():
    u = sample(lambda x: x, make_grid(1, 8, 64))
    om = half_line(make_grid(1, 8, 128))
    with pytest.raises(ValidationError):
        restrict(u, om)


def test_ball_indicator_1d_nodes():
    g = make_grid(1, 8, 16)  # h = 1, nodes at integers
    chi = ball_indicator(Ball((0.0,), 2.5), g)
    hits = g.x_axis[chi.values.real == 1]
    assert list(hits) == [-2, -1, 0, 1, 2]


def test_ball_indicator_outside_box_errors():
    g = make_grid(1, 8, 16)
    with pytest.raises(DegenerateBallError):
        ball_indicator(Ball((100.0,), 0.5), g)


def test_ball_area_convergence_2d():
    # count * h^2 -> pi R^2; at h = R/32 the relative gap stays below 5%
    R = 1.0
    gaps = []
    for N in (128, 256):  # h = R/16, R/32 on L = 4
        g = make_grid(2, 4, N)
        chi = ball_indicator(Ball((0.0, 0.0), R), g)
        area = float(np.sum(chi.values.real)) * g.h ** 2
        gaps.append(abs(area - np.pi * R ** 2) / (np.pi * R ** 2))
    assert gaps[1] <= 0.05
    assert gaps[1] <= gaps[0]


def test_ball_indicator_monotone_in_radius():
    g = make_grid(2, 4, 64)
    small = ball_indicator(Ball((0.5, -0.25), 1.0), g).values.real
    big = ball_indicator(Ball((0.5, -0.25), 2.0), g).values.real
    assert np.all(small <= big)


def whole_grid_distances(grid, c):
    """The former Grid.distances: one whole-grid pass per center."""
    if grid.n == 1:
        return np.abs(grid.x_axis - c[0])
    x1, x2 = np.meshgrid(grid.x_axis, grid.x_axis, indexing="ij")
    return np.hypot(x1 - c[0], x2 - c[1])


def whole_grid_ball_nodes(ball, grid):
    """The former _ball_nodes, on the whole grid."""
    member = whole_grid_distances(grid, ball.center) < ball.radius
    if not member.any():
        raise DegenerateBallError(
            f"ball B({ball.center}, {ball.radius}) contains no grid node")
    return member


@st.composite
def grid_balls(draw):
    g = make_grid(draw(st.sampled_from([1, 2])), draw(st.floats(1.0, 64.0)),
                  2 ** draw(st.integers(3, 7)))
    L, h = g.half_width, g.h
    # centers inside, on the edge of and outside the box, on and off nodes
    coord = st.one_of(st.floats(-L, L), st.floats(-3 * L, 3 * L),
                      st.sampled_from([-L, L - h, L, -L - h / 2, L + h / 2]),
                      st.sampled_from(g.x_axis.tolist()))
    center = tuple(draw(coord) for _ in range(g.n))
    # radii from below h to beyond L, and exactly a node distance
    nearest = np.unique(whole_grid_distances(g, center))[:8]
    radius = draw(st.one_of(st.floats(h / 8, 3 * L),
                            st.sampled_from(nearest[nearest > 0].tolist() or [h])))
    return g, Ball(center, radius)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=grid_balls(), seed=st.integers(0, 2 ** 16))
def test_ball_window_matches_the_whole_grid_rule(case, seed):
    g, ball = case
    assert np.array_equal(g.distances(ball.center),
                          whole_grid_distances(g, ball.center))
    try:
        ref = whole_grid_ball_nodes(ball, g)
    except DegenerateBallError as exc:
        with pytest.raises(DegenerateBallError) as got:
            _ball_nodes(ball, g)
        assert str(got.value) == str(exc)
        return
    window, member = _ball_nodes(ball, g)
    full = np.zeros(g.shape, dtype=bool)
    full[window] = member
    assert np.array_equal(full, ref)
    assert np.array_equal(ball_indicator(ball, g).values, ref.astype(complex))
    inside = np.random.default_rng(seed).random(g.shape) < 0.97
    inside.flat[0] = True
    om = explicit_mask(g, inside)
    assert om.contains_ball(ball) == bool(np.all(inside[ref]))


def test_sector_scaling_invariance_on_node_pairs():
    # x in Omega and 2x a grid node => same membership, exactly
    g = make_grid(2, 4, 256)
    mask = sector(g, 0.1, 0.1 + np.pi / 2).inside
    N, h = g.points, g.h
    checked = 0
    for i in range(0, N, 5):
        for j in range(0, N, 5):
            x1 = g.x_axis[i]
            x2 = g.x_axis[j]
            i2 = round((2 * x1 + g.half_width) / h)
            j2 = round((2 * x2 + g.half_width) / h)
            if 0 <= i2 < N and 0 <= j2 < N and (x1, x2) != (0.0, 0.0):
                if g.x_axis[i2] == 2 * x1 and g.x_axis[j2] == 2 * x2:
                    assert mask[i, j] == mask[i2, j2]
                    checked += 1
    assert checked > 100


def test_sector_wide_aperture_and_origin():
    g = make_grid(2, 4, 64)
    wide = sector(g, 0.0, 1.5 * np.pi)
    # origin is excluded from every proper cone
    origin = (g.points // 2, g.points // 2)
    assert not wide.inside[origin]
    # a point at angle pi (inside) and at angle -pi/4 (outside)
    assert wide.clearance((-1.0, 1.0)) > 0
    assert wide.clearance((1.0, -1.0)) < 0


def test_contains_ball_rejects_through_the_clearance():
    g = make_grid(1, 8, 16)  # nodes at the integers
    om = half_line(g)
    # nodes 0, 1, 2 all lie in Omega, but the continuum ball reaches -0.5
    assert om.contains_ball(Ball((1.0,), 1.5)) is False
    assert om.contains_ball(Ball((2.0,), 1.5)) is True


def test_contains_ball_rejects_through_a_node():
    g = make_grid(1, 8, 16)
    inside = np.ones(16, dtype=bool)
    inside[10] = False  # the node x = 2
    om = explicit_mask(g, inside)
    assert om.clearance((0.0,)) is None
    assert om.contains_ball(Ball((1.0,), 1.5)) is False
    assert om.contains_ball(Ball((-1.0,), 1.5)) is True


def test_explicit_mask_requires_a_node():
    g = make_grid(1, 8, 16)
    with pytest.raises(ValidationError):
        explicit_mask(g, np.zeros(16, dtype=bool))


def two_sided_box_rule(ball, half):
    """The former doubling._check_box: c - R >= -half and c + R <= half."""
    c = np.asarray(ball.center)
    return bool(np.all(c - ball.radius >= -half) and np.all(c + ball.radius <= half))


@st.composite
def boxed_balls(draw):
    half = draw(st.floats(1e-3, 1e6))
    radius = draw(st.one_of(st.floats(1e-6, 2.0 * half), st.just(half)))
    # centers on both edges |c| = half - R and at 0, and their float neighbours
    edges = [s * v for v in (half - radius, 0.0) for s in (1.0, -1.0)]
    edges += [math.nextafter(v, d) for v in edges for d in (-math.inf, math.inf)]
    coord = st.one_of(st.floats(-2.0 * half, 2.0 * half), st.sampled_from(edges))
    n = draw(st.sampled_from([1, 2]))
    return Ball(tuple(draw(coord) for _ in range(n)), radius), half


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(case=boxed_balls())
def test_in_box_matches_the_two_sided_rule(case):
    ball, half = case
    assert ball.in_box(half) == two_sided_box_rule(ball, half)
