import numpy as np
import pytest

from whlab import doubling
from whlab import (NumericFailure, SpaceSpec, ValidationError,
                   constant_exponent, constant_weight, doubling_ratio,
                   explicit_mask, full_space, half_line, make_grid,
                   plan_tau_scan, plan_weak_doubling, power_weight, sector,
                   separated_sequence, tau_scan)


def l2_space(grid, weight=None, domain=None):
    return SpaceSpec(grid, constant_exponent(grid, 2),
                     weight if weight is not None else constant_weight(grid),
                     domain if domain is not None else full_space(grid))


def test_ratio_constant_p_analytic():
    g = make_grid(1, 16, 4096)
    S = l2_space(g)
    assert doubling_ratio(3.0, 1.0, 4.0, S) == pytest.approx(2.0, rel=0.02)


def test_ratio_power_weight_origin():
    g = make_grid(1, 16, 4096)
    S = l2_space(g, weight=power_weight(g, 0.2))
    for tau in (1.5, 2.0, 4.0):
        assert doubling_ratio(0.0, 1.0, tau, S) == pytest.approx(tau ** 0.7, rel=0.03)


def test_ratio_tends_to_one_monotonically():
    g = make_grid(1, 16, 4096)
    S = l2_space(g)
    taus = [2.0, 1.5, 1.2, 1.1, 1.05]
    ratios = [doubling_ratio(2.0, 1.0, t, S) for t in taus]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)


def test_ratio_rejects_bad_geometry():
    g = make_grid(1, 16, 1024)
    S = l2_space(g, domain=half_line(g))
    with pytest.raises(ValidationError):
        doubling_ratio(1.0, 1.0, 4.0, S)  # inflated ball crosses 0
    with pytest.raises(ValidationError):
        doubling_ratio(2.0, 1.0, 1.0, S)  # tau must exceed 1
    with pytest.raises(ValidationError):
        doubling_ratio(8.0, 4.0, 4.0, S)  # leaves the box


def test_separated_sequence_worked_example():
    # half-line, tau=2, theta=1/4, lambda=4, y0=1, m=3:
    # centers 4, 16, 64 with inflated balls (2,6), (8,24), (32,96)
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    fam = separated_sequence(om, 2.0, 0.25, 4.0, 3, y0=1.0)
    centers = [y[0] for y, _ in fam]
    radii = [R for _, R in fam]
    assert centers == [4.0, 16.0, 64.0]
    assert radii == [1.0, 4.0, 16.0]
    spans = [(c - 2 * R, c + 2 * R) for c, R in zip(centers, radii)]
    assert spans == [(2.0, 6.0), (8.0, 24.0), (32.0, 96.0)]
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 <= lo2
        assert lo1 > 0


def test_separated_sequence_sector_preconditions():
    g = make_grid(2, 64, 1024)
    cone = sector(g, 0.0, np.pi / 2)
    # tau*theta = 0.4 < sin(pi/4) ~ 0.707: accepted
    fam = separated_sequence(cone, 2.0, 0.2, 4.0, 2, y0=2.5)
    assert len(fam) == 2
    # lambda = 2 with tau*theta = 0.4: (1+0.4)/(1-0.4) = 7/3 > 2: rejected
    with pytest.raises(ValidationError):
        separated_sequence(cone, 2.0, 0.2, 2.0, 2, y0=2.5)
    # tau*theta above the aperture sine: rejected
    with pytest.raises(ValidationError):
        separated_sequence(cone, 2.0, 0.4, 16.0, 2, y0=2.5)


def test_explicit_mask_family_runs_along_e1():
    g = make_grid(1, 256, 8192)
    om = explicit_mask(g, g.x_axis > 0.0)
    family = separated_sequence(om, 2.0, 0.25, 4.0, 2, y0=8.0)
    assert family == [((32.0,), 8.0), ((128.0,), 32.0)]
    assert plan_weak_doubling(om, 2.0, family) == ([2.0], family)
    # the mask alone decides containment: a hole under the first inflated ball
    holed = explicit_mask(g, (g.x_axis > 0.0) & ~((g.x_axis > 40.0) & (g.x_axis < 44.0)))
    with pytest.raises(ValidationError, match=r"inflated ball B\(\(32.0,\), 16.0\) is not"):
        plan_weak_doubling(holed, 2.0, family)


def test_separated_sequence_default_y0_fits_off_axis_rays():
    # The outer inflated ball fits iff y0 lam^m (max|ray| + tau theta) <= L;
    # off-axis central rays have max|ray| < 1.
    fam = separated_sequence(sector(make_grid(2, 32.0, 256), 0.0, 1.5),
                             2.0, 0.1, 1.6, 2)
    assert len(fam) == 2
    tau, theta, L = 1.5, 0.1, 64.0
    checked = 0
    for i in range(1, 63):
        cone = sector(make_grid(2, L, 512), 0.0, 0.1 * i)
        if not tau * theta < min(cone.clearance(cone.central_ray()), 1.0):
            continue
        fam = separated_sequence(cone, tau, theta, 1.6, 3)
        center, radius = fam[-1]
        reach = max(abs(c) for c in center) + tau * radius
        # The outer inflated ball stays in the box and nearly touches it.
        assert L * (1.0 - 1e-12) < reach <= L
        checked += 1
    assert checked == 59


def test_separated_sequence_needs_two_balls():
    g = make_grid(1, 256, 8192)
    with pytest.raises(ValidationError):
        separated_sequence(half_line(g), 2.0, 0.25, 4.0, 1, y0=1.0)


def test_separated_sequence_y0_resolution_floor():
    g = make_grid(1, 256, 1024)  # h = 0.5, 4h/theta = 8
    with pytest.raises(ValidationError):
        separated_sequence(half_line(g), 2.0, 0.25, 4.0, 2, y0=1.0)


def test_weak_scan_constant_p():
    g = make_grid(1, 64, 4096)
    S = l2_space(g)
    schedule = [((4.0,), 1.0), ((8.0,), 2.0), ((16.0,), 4.0)]
    rep = tau_scan(S, *plan_weak_doubling(S.domain, 2.0, schedule))[0]
    assert rep.d_est == pytest.approx(np.sqrt(2.0), rel=0.03)
    assert len(rep.entries) == 3


def test_weak_scan_power_weight_far_field():
    # schedule y_j = 4^j, R_j = y_j / 4: far balls see ratio ~ tau^{1/2},
    # so D_est stays at or below tau^{0.7}
    g = make_grid(1, 256, 16384)
    S = l2_space(g, weight=power_weight(g, 0.2), domain=half_line(g))
    tau = 2.0
    schedule = [((4.0 ** j,), 4.0 ** j / 4.0) for j in (1, 2, 3)]
    rep = tau_scan(S, *plan_weak_doubling(S.domain, tau, schedule))[0]
    assert rep.d_est <= tau ** 0.7 * 1.03
    assert rep.d_est == pytest.approx(tau ** 0.5, rel=0.05)


def test_weak_scan_rejects_empty_schedule():
    g = make_grid(1, 64, 1024)
    message = "weak doubling scan needs a non-empty schedule"
    with pytest.raises(ValidationError, match=message):
        plan_weak_doubling(full_space(g), 2.0, [])
    with pytest.raises(ValidationError, match=message):
        tau_scan(l2_space(g), [2.0], [])


def test_weak_scan_of_overlapping_balls_reports_no_s_est():
    g = make_grid(1, 64, 4096)
    S = l2_space(g)
    schedule = [((4.0,), 1.0), ((6.0,), 1.0), ((16.0,), 1.0)]  # first two inflations meet
    rep = tau_scan(S, *plan_weak_doubling(S.domain, 2.0, schedule))[0]
    assert [e.disjoint for e in rep.entries] == [False, False, True]
    assert rep.s_est is None and not rep.disjointness_verified
    assert rep.d_est == min(e.ratio for e in rep.entries)


def test_tau_scan_plan_rechecks_disjointness(monkeypatch):
    g = make_grid(1, 256, 8192)
    omega = half_line(g)
    # skip the lambda bound: lambda = 1.2 is below (1 + tau theta)/(1 - tau theta) = 3
    monkeypatch.setattr(doubling, "_check_family",
                        lambda omega, tau, theta, lam, m: (omega.central_ray(), lam ** m))
    with pytest.raises(NumericFailure, match="failed the disjointness recheck"):
        plan_tau_scan(omega, [2.0, 1.5], 0.25, 1.2, 2, y0=8.0)


def test_separated_scan_constant_p_halfline():
    g = make_grid(1, 256, 8192)
    S = l2_space(g, domain=half_line(g))
    rep = tau_scan(S, *plan_tau_scan(S.domain, [2.0], 0.25, 4.0, 3, y0=1.0))[0]
    assert rep.s_est == pytest.approx(np.sqrt(2.0), rel=0.03)
    assert rep.disjointness_verified


def test_separated_scan_power_weight():
    g = make_grid(1, 256, 16384)
    S = l2_space(g, weight=power_weight(g, 0.2), domain=half_line(g))
    rep = tau_scan(S, *plan_tau_scan(S.domain, [2.0], 0.25, 4.0, 3, y0=1.0))[0]
    assert rep.s_est <= 2.0 ** 0.7 * 1.05


def test_scan_ratios_never_below_lattice_floor():
    g = make_grid(1, 256, 8192)
    S = l2_space(g, domain=half_line(g))
    rep = tau_scan(S, *plan_tau_scan(S.domain, [1.1], 0.25, 4.0, 3, y0=1.0))[0]
    assert all(e.ratio >= 1.0 - 0.05 for e in rep.entries)


def test_tau_scan_trend_and_validation():
    g = make_grid(1, 32, 16384)
    S = l2_space(g, domain=half_line(g))
    reps = tau_scan(S, *plan_tau_scan(S.domain, [4.0, 2.0, 1.5, 1.1], theta=0.125,
                                      lam=4.0, m=3, y0=0.25))
    taus = [r.tau for r in reps]
    d_ests = [r.d_est for r in reps]
    s_ests = [r.s_est for r in reps]
    for tau, d in zip(taus, d_ests):
        assert d == pytest.approx(tau ** 0.5, rel=0.02)
    assert all(b < a for a, b in zip(d_ests, d_ests[1:]))
    assert all(b < a for a, b in zip(s_ests, s_ests[1:]))
    with pytest.raises(ValidationError):
        plan_tau_scan(S.domain, [1.0], theta=0.125, lam=4.0, m=3, y0=0.25)
    with pytest.raises(ValidationError):
        plan_tau_scan(S.domain, [1.1, 2.0], theta=0.125, lam=4.0, m=3, y0=0.25)


def test_tau_scan_resolves_y0_once_at_the_largest_tau():
    g = make_grid(1, 128, 8192)
    S = l2_space(g, domain=half_line(g))
    taus, theta, lam, m = [4.0, 2.0, 1.5], 0.125, 4.0, 3
    # separated_sequence's y0 = None rule, evaluated at the largest tau
    y0 = g.half_width / (1.0 + taus[0] * theta) / lam ** m
    assert (tau_scan(S, *plan_tau_scan(S.domain, taus, theta, lam, m))
            == tau_scan(S, *plan_tau_scan(S.domain, taus, theta, lam, m, y0=y0)))
