import numpy as np
import pytest

from whlab import (Ball, DegenerateBallError, GridFunction, ValidationError,
                   ball_indicator, explicit_mask, extend_by_zero, full_space,
                   half_line, make_grid, restrict, sample, sector)


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


def test_explicit_mask_requires_a_node():
    g = make_grid(1, 8, 16)
    with pytest.raises(ValidationError):
        explicit_mask(g, np.zeros(16, dtype=bool))

