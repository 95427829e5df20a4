import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (Ball, DegenerateBallError, ExponentField, GridFunction,
                   SpaceSpec, Symbol, ValidationError, Weight, associate_space,
                   ball_indicator, explicit_mask,
                   exponent_from_values, extend_by_zero, full_space, half_line,
                   indicator_norm, luxemburg_norm, make_grid, power_weight,
                   restrict, sample, sector)
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


@pytest.mark.parametrize("n,L,N", [(1, 8, 12), (1, -1, 16), (3, 8, 16), (1, 8, 4),
                                   (1, 16.0, 64.5), (True, 16.0, 64), (1.5, 16.0, 64),
                                   (1, 16.0, float("nan"))])
def test_make_grid_rejects(n, L, N):
    with pytest.raises(ValidationError):
        make_grid(n, L, N)


def test_make_grid_reads_integral_floats_as_counts():
    g = make_grid(2.0, 16.0, 64.0)
    assert g == make_grid(2, 16.0, 64)
    assert type(g.n) is int and type(g.points) is int
    assert g.shape == (64, 64)


@pytest.mark.parametrize("n,N", [(1, 2 ** 1000), (2, 2 ** 600)], ids=["1d", "2d"])
def test_make_grid_rejects_more_nodes_than_numpy_can_index(n, N):
    # counts numpy itself refuses before allocating: safe even without the check
    with pytest.raises(ValidationError, match="the most complex samples numpy can index"):
        make_grid(n, 1.0, N)


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


PER_NODE_TYPES = {
    "grid-function": (GridFunction, "values", 1.0 + 0j),
    "symbol": (Symbol, "values", 1.0 + 0j),
    "exponent": (ExponentField, "values", 2.0),
    "weight": (Weight, "values", 1.0),
    "domain": (explicit_mask, "inside", True),
}


@pytest.mark.parametrize("cls,attr,value", PER_NODE_TYPES.values(), ids=PER_NODE_TYPES)
def test_per_node_types_store_read_only_grid_arrays(cls, attr, value):
    g = make_grid(1, 16.0, 64)
    source = np.full(g.shape, value)
    stored = getattr(cls(g, source), attr)
    assert stored.shape == g.shape and not stored.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = value
    assert source.flags.writeable  # the caller's array is left as it was
    for shape in ((32,), (64, 64)):
        with pytest.raises(ValidationError, match="shape"):
            cls(g, np.full(shape, value))


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


def whole_axis_window(grid, c, radius):
    """The former Grid.window slices: one scan of each axis."""
    hits = [np.flatnonzero(np.abs(grid.x_axis - ci) < radius) for ci in c]
    return tuple(slice(h[0], h[-1] + 1) if h.size else slice(0, 0) for h in hits)


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
    assert np.array_equal(g.window(ball.center)[1],
                          whole_grid_distances(g, ball.center))
    assert (g.window(ball.center, ball.radius)[0]
            == whole_axis_window(g, ball.center, ball.radius))
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
    chi = ball_indicator(ball, g)
    assert np.array_equal(chi.values, ref.astype(complex))
    rng = np.random.default_rng(seed)
    inside = rng.random(g.shape) < 0.97
    inside.flat[0] = True
    om = explicit_mask(g, inside)
    assert om.contains_ball(ball) == bool(np.all(inside[ref]))
    # the windowed indicator norm is the whole-grid norm, bit for bit
    S = SpaceSpec(g, exponent_from_values(g, 1.2 + 2.0 * rng.random(g.shape)),
                  power_weight(g, 0.3), om)
    for space in (S, associate_space(S)):
        assert indicator_norm(ball, space)[1] == luxemburg_norm(chi, space)


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


def test_sector_slit_plane():
    # alpha2 = alpha1 + 2 pi: every node but those of the closed alpha1 ray
    g = make_grid(2, 4, 64)
    slit = sector(g, 0.0, 2.0 * np.pi)
    x1, x2 = g.coords()
    assert np.array_equal(slit.inside, ~((x2 == 0.0) & (x1 >= 0.0)))
    assert slit.clearance((-3.0, 0.0)) == 3.0  # behind the vertex: the distance r to it
    assert slit.clearance((0.0, 0.0)) == 0.0


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
    assert om.clearance((0.0,)) == math.inf
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
