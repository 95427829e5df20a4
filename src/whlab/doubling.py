"""Doubling ratios over balls, separated ball families along cone rays,
and one scan exhibiting the small-tau trend of the doubling constants.

A doubling ratio compares indicator norms of a ball and its tau-inflation
inside Omega.  :func:`tau_scan` measures the ratios of a list of balls at
each tau and reads them twice: the weak-doubling estimate D_est is their
minimum -- an upper bound for the infimum restricted to the sampled radii,
never a certified limit -- and the separated estimate S_est their maximum,
given only when the tau-inflated balls are pairwise disjoint.  Two plans
supply the scan: :func:`plan_weak_doubling` (one tau, a ball schedule) and
:func:`plan_tau_scan` (a tau list, a separated family).  Containment in
Omega is a precondition of :func:`doubling_ratio`; disjointness is
recomputed from the centers and radii, never trusted from the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, ValidationError
from .grid import Ball, DomainMask, _ball_nodes, as_point
from .spaces import SpaceSpec, indicator_norm

__all__ = [
    "DoublingEntry",
    "DoublingReport",
    "doubling_ratio",
    "separated_sequence",
    "plan_weak_doubling",
    "plan_tau_scan",
    "tau_scan",
]

#: Quadrature slack allowed on ratio >= 1 (lattice property at grid resolution).
RATIO_SLACK = 0.05


@dataclass(frozen=True)
class DoublingEntry:
    y: tuple
    radius: float
    ratio: float
    disjoint: bool


@dataclass(frozen=True)
class DoublingReport:
    """Computed ratios for one tau together with the aggregate estimates."""

    tau: float
    entries: tuple
    d_est: float
    s_est: float | None
    disjointness_verified: bool

    def __post_init__(self):
        for e in self.entries:
            if e.ratio < 1.0 - RATIO_SLACK:
                raise NumericFailure(
                    f"doubling ratio {e.ratio} below 1 beyond quadrature slack")


def _inflated_ball(y, radius: float, tau: float, omega: DomainMask) -> Ball:
    """B(y, tau R), checked against the preconditions of :func:`doubling_ratio`."""
    if not (tau > 1.0):
        raise ValidationError("tau must exceed 1 for a doubling ratio")
    outer = Ball(tuple(as_point(y, omega.grid.n)), tau * radius)
    if not (outer.in_box(omega.grid.half_width) and omega.contains_ball(outer)):
        raise ValidationError(
            f"inflated ball B({outer.center}, {outer.radius}) is not contained "
            "in the grid box and the domain")
    return outer


def doubling_ratio(y, radius: float, tau: float, space: SpaceSpec) -> float:
    """||chi_{B(y, tau R)}||_X(Omega) / ||chi_{B(y, R)}||_X(Omega), from the
    upper ends of the two norm brackets: an estimate, not a certificate.

    Preconditions: tau > 1 and the inflated ball inside the grid box
    and in Omega (:meth:`whlab.grid.DomainMask.contains_ball`).
    """
    outer = _inflated_ball(y, radius, tau, space.domain)
    inner = Ball(outer.center, radius)
    denom = indicator_norm(inner, space)[1]
    if denom < 1e-14:
        raise NumericFailure("degenerate inner ball: indicator norm below 1e-14")
    return indicator_norm(outer, space)[1] / denom


def _check_family(omega: DomainMask, tau: float, theta: float, lam: float,
                  m: int) -> tuple:
    """Validate the shape of a separated family; returns (ray, lam ** m)."""
    if m < 2:
        raise ValidationError("a separated family needs at least 2 balls")
    if not (tau > 1.0):
        raise ValidationError("tau must exceed 1")
    if not (0.0 < theta):
        raise ValidationError("theta must be positive")
    tt = tau * theta
    ray = omega.central_ray()
    limit = min(omega.clearance(ray), 1.0)
    if not (tt < limit):
        raise ValidationError(
            f"tau*theta = {tt:g} must be below {limit:g}, the clearance of "
            "the unit central ray capped at 1")
    lam_min = (1.0 + tt) / (1.0 - tt)
    if not (lam > lam_min):
        raise ValidationError(
            f"lambda = {lam:g} must exceed (1 + tau*theta)/(1 - tau*theta) "
            f"= {lam_min:g} for disjoint inflated balls")

    try:
        lam_m = lam ** m
    except OverflowError:
        raise ValidationError(
            f"lambda ** m overflows (lambda = {lam:g}, m = {m})") from None
    return ray, lam_m


def separated_sequence(omega: DomainMask, tau: float, theta: float,
                       lam: float, m: int, y0: float | None = None) -> list:
    """Geometric ball family (y_j, R_j) along the central ray of a cone.

    Centers are y_j = y0 * lam^j for j = 1..m with radii R_j = theta |y_j|,
    so the tau-inflated balls stay inside Omega (tau * theta below the
    clearance of the unit central ray, capped at 1) and are pairwise
    disjoint (lam > (1 + tau*theta)/(1 - tau*theta)), rechecked here on the
    built balls; the scans check containment through :func:`doubling_ratio`.
    ``y0 = None`` takes the largest value keeping the outermost inflated ball in the box.
    """
    grid = omega.grid
    ray, lam_m = _check_family(omega, tau, theta, lam, m)
    tt = tau * theta

    def ball(j: int) -> tuple:
        dist = y0 * lam ** j
        return tuple(dist * ray), theta * abs(dist)

    def in_box(j: int) -> bool:
        center, radius = ball(j)
        return Ball(center, tau * radius).in_box(grid.half_width)

    if y0 is None:  # y0 lam^m (max|ray| + tau theta) = L, stepped past rounding
        y0 = grid.half_width / (float(np.max(np.abs(ray))) + tt) / lam_m
        while y0 > 0.0 and not in_box(m):
            y0 = math.nextafter(y0, 0.0)
    if not (abs(y0) >= 4.0 * grid.h / theta):
        raise ValidationError(
            f"|y0| = {abs(y0):g} must be at least 4h/theta = "
            f"{4.0 * grid.h / theta:g} so the innermost ball is resolved")

    family = []
    for j in range(1, m + 1):
        if not in_box(j):
            raise ValidationError(
                f"grid box too small: inflated ball {j} of {m} "
                f"(center distance {y0 * lam ** j:g}) leaves the box")
        family.append(ball(j))
    if not all(_pairwise_disjoint(family, tau)):
        raise NumericFailure("constructed family failed the disjointness recheck")
    return family


def _pairwise_disjoint(family, tau: float) -> list[bool]:
    """Per-ball flag: its tau-inflation misses every other tau-inflation."""
    n = len(family)
    ok = [True] * n
    for j in range(n):
        yj = np.asarray(family[j][0])
        for k in range(j + 1, n):
            yk = np.asarray(family[k][0])
            gap = float(np.linalg.norm(yj - yk))
            if gap < tau * (family[j][1] + family[k][1]):
                ok[j] = ok[k] = False
    return ok


def _require_balls(schedule) -> None:
    if not schedule:
        raise ValidationError("weak doubling scan needs a non-empty schedule")


def plan_weak_doubling(omega: DomainMask, tau: float, schedule) -> tuple:
    """Validate a one-tau scan: returns the ``([tau], balls)`` that :func:`tau_scan`
    runs.  Each ball ``(center, radius)`` is normalized and meets, at this tau,
    every ball precondition of :func:`doubling_ratio`: a node in its inner ball too."""
    _require_balls(schedule)
    balls = []
    for y, radius in schedule:
        outer = _inflated_ball(y, radius, tau, omega)
        _ball_nodes(Ball(outer.center, radius), omega.grid)
        balls.append((outer.center, float(radius)))
    return [tau], balls


def plan_tau_scan(omega: DomainMask, tau_list, theta: float, lam: float,
                  m: int, y0: float | None = None):
    """Validate a tau scan: returns the ``(taus, balls)`` of a separated family.

    The taus must exceed 1 and decrease strictly.  The family is built and
    checked once, at the largest tau (where ``y0 = None`` is resolved): its
    geometry does not depend on tau, and each precondition it meets there,
    containment in Omega and pairwise disjoint inflations included, holds
    at every smaller tau.
    """
    taus = [float(t) for t in tau_list]
    if not taus:
        raise ValidationError("tau list is empty")
    if any(t <= 1.0 for t in taus):
        raise ValidationError("every tau in the scan must exceed 1")
    if not all(b < a for a, b in zip(taus, taus[1:])):
        raise ValidationError("tau list must be strictly decreasing toward 1")
    family = separated_sequence(omega, taus[0], theta, lam, m, y0)
    return taus, plan_weak_doubling(omega, taus[0], family)[1]


def tau_scan(space: SpaceSpec, taus, balls) -> list[DoublingReport]:
    """One report per tau of the ``(taus, balls)`` that :func:`plan_tau_scan`
    or :func:`plan_weak_doubling` returns: each ratio (so the sampling is
    auditable), each ball's disjointness flag, D_est and S_est."""
    _require_balls(balls)
    reports = []
    for tau in taus:
        ratios = [doubling_ratio(y, radius, tau, space) for y, radius in balls]
        disjoint = _pairwise_disjoint(balls, tau)
        reports.append(DoublingReport(
            tau=tau,
            entries=tuple(DoublingEntry(*ball, ratio, d)
                          for ball, ratio, d in zip(balls, ratios, disjoint)),
            d_est=min(ratios),
            s_est=max(ratios) if all(disjoint) else None,
            disjointness_verified=all(disjoint)))
    return reports
