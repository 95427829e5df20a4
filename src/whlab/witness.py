"""Modulated plateau-bump witnesses and the two lower-bound experiments.

A witness is f(x) = e^{i eta.x} phi(delta (x - y)) with phi the radial
plateau bump of :mod:`whlab.profiles`: modulus exactly 1 on B(y, 1/delta),
support exactly inside B(y, rho/delta).  Sending the witness through the
multiplier leaves a measured residual

    eps = max_x | (F^{-1} a F f)(x) - a(eta) f(x) |,

and the experiments re-derive, numerically and per run, the inequality
chains that turn that residual into certified lower bounds:

* norm experiment: |a(eta)| ||chi_small|| <= ||W f|| + eps ||chi_small||,
  so every witness ratio ||W f|| / ||f|| is a certified lower bound for
  the operator norm;
* pairwise experiment: normalized witnesses over a separated ball family
  have pairwise image distances d_jk bounded below through the measured
  family doubling constant, so half the minimum distance is the reported
  lower bound for the measure-of-noncompactness seminorm.

A finite family exhibits pairwise separation but cannot, strictly,
lower-bound the noncompactness measure; reports therefore state the
family size next to the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .doubling import separated_sequence
from .errors import NumericFailure, ValidationError
from .grid import (Ball, DomainMask, Grid, GridFunction, as_point,
                   ball_indicator, restrict)
from .operators import (Symbol, apply_multiplier, argmax_freq_node,
                        nearest_freq_node)
from .profiles import bump_profile
from .spaces import SpaceSpec, luxemburg_norm

__all__ = [
    "WitnessParams",
    "WitnessRecord",
    "PairRecord",
    "LedgerLine",
    "ExperimentReport",
    "make_witness",
    "mollification_residual",
    "place_witness_center",
    "kuratowski_family",
    "plan_norm_lowerbound",
    "plan_kuratowski",
    "norm_lowerbound_experiment",
    "kuratowski_experiment",
]

#: Absolute slack for the chain-inequality ledger lines.
CHAIN_SLACK = 1e-8
#: Relative slack for the sandwich inequalities.
SANDWICH_SLACK = 1e-9
#: Additive slack on the measured family doubling constant.
S_EST_SLACK = 0.05


def _check_rho(rho: float) -> None:
    if not (rho > 1.0):
        raise ValidationError("rho must exceed 1")


@dataclass(frozen=True, eq=False)
class WitnessParams:
    """Concentration scale delta, modulation frequency eta, center y.

    Construction validates the support ball B(y, rho/delta): it must lie
    inside Omega (continuum clearance where available, plus every node)
    and obey the periodic-box margin rule (support diameter at most L/2,
    each center coordinate plus the support radius at most 3L/4).
    """

    delta: float
    eta: tuple
    y: tuple
    rho: float
    domain: DomainMask

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValidationError("delta must be positive")
        _check_rho(self.rho)
        grid = self.domain.grid
        eta = tuple(float(v) for v in np.atleast_1d(self.eta))
        y = tuple(float(v) for v in np.atleast_1d(self.y))
        if len(eta) != grid.n or len(y) != grid.n:
            raise ValidationError("eta and y must be points of the grid dimension")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "y", y)
        s = self.support_radius
        L = grid.half_width
        if s > L / 4.0:
            raise ValidationError(
                f"support radius {s:g} violates the margin rule (> L/4 = {L / 4.0:g})")
        if any(abs(c) + s > 0.75 * L for c in y):
            raise ValidationError(
                "witness support comes closer than L/4 to the box boundary")
        clear = self.domain.clearance(y)
        if clear is not None and clear < s:
            raise ValidationError(
                f"support ball B({y}, {s:g}) is not contained in the domain")
        if not self.domain.contains_ball_nodes(Ball(y, s)):
            raise ValidationError("support ball contains nodes outside the domain")

    @property
    def support_radius(self) -> float:
        return self.rho / self.delta


def make_witness(params: WitnessParams) -> GridFunction:
    """e^{i eta.x} phi(delta |x - y|) sampled on the nodes of the domain grid.

    The modulus equals the bump profile exactly, so |f| = 1 on every node
    of B(y, 1/delta) and f vanishes on every node outside B(y, rho/delta).
    """
    grid = params.domain.grid
    amp = bump_profile(params.delta * grid.distances(params.y), params.rho)
    mesh = grid.coords()
    phase_arg = sum(e * m for e, m in zip(params.eta, mesh))
    return GridFunction(grid, np.exp(1j * phase_arg) * amp)


def mollification_residual(a: Symbol, params: WitnessParams,
                           f: GridFunction) -> tuple[GridFunction, float]:
    """Image g = F^{-1} a F f of the witness f = make_witness(params) and
    the measured sup-node residual max |g - a(eta) f|.

    ``eta`` is snapped to the nearest frequency node; the residual is the
    observed epsilon of the lower-bound chains and shrinks as delta does
    whenever the symbol is continuous at eta.  The witness is supported in
    Omega, so e_Omega f = f and ``restrict(g, omega)`` is W_Omega(a) f.
    """
    idx, _ = nearest_freq_node(f.grid, params.eta)
    g = apply_multiplier(a, f)
    return g, float(np.max(np.abs(g.values - a.at(idx) * f.values)))


def place_witness_center(omega: DomainMask, delta: float, rho: float,
                         ray=None) -> np.ndarray:
    """Deterministic center: the largest admissible |y| along the ray.

    Admissible means the support ball B(y, rho/delta) obeys the box margin
    rule and fits inside Omega.  ``ray`` defaults to the domain's central
    ray.  Raises when no placement exists for this delta (grid too small).
    """
    grid = omega.grid
    s = rho / delta
    L = grid.half_width
    if s > L / 4.0:
        raise ValidationError(
            f"support radius {s:g} exceeds L/4 = {L / 4.0:g}; no admissible placement")
    ray = omega.central_ray() if ray is None else as_point(ray, grid.n)
    norm = float(np.linalg.norm(ray))
    if norm == 0.0:
        raise ValidationError("ray must be a nonzero direction")
    ray = ray / norm
    scale = float(np.max(np.abs(ray)))
    t_box = (0.75 * L - s) / scale
    if omega.kind == "halfline":
        t_min = s
    elif omega.kind == "cone":
        alpha1, alpha2 = omega.params
        # Clearance along an interior ray grows like sin of the angular
        # distance to the nearest edge (capped at pi/2).
        theta = math.atan2(ray[1], ray[0])
        d1 = (theta - alpha1) % (2.0 * math.pi)
        d2 = (alpha2 - theta) % (2.0 * math.pi)
        aperture = alpha2 - alpha1
        if d1 > aperture or d2 > aperture:
            raise ValidationError("ray points outside the cone")
        sin_m = math.sin(min(d1, d2, 0.5 * math.pi))
        if sin_m <= 0.0:
            raise ValidationError("ray lies on the cone boundary")
        t_min = s / sin_m
    elif omega.kind == "full":
        t_min = 0.0
    else:
        raise ValidationError("explicit masks need an explicit center")
    if t_box < t_min or t_box <= 0.0:
        raise ValidationError(
            f"no admissible placement for delta = {delta:g}: the support "
            "cannot satisfy both the domain clearance and the box margin")
    return t_box * ray


@dataclass(frozen=True)
class LedgerLine:
    """One re-derived inequality: passes iff lhs <= rhs + slack."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


def _line(name: str, lhs: float, rhs: float, slack: float) -> LedgerLine:
    return LedgerLine(name, float(lhs), float(rhs), float(slack),
                      bool(lhs <= rhs + slack))


@dataclass(frozen=True)
class WitnessRecord:
    delta: float
    y: tuple
    ratio: float
    norm_small: float
    norm_witness: float
    norm_big: float
    quotient: float
    residual: float
    error: str | None = None


@dataclass(frozen=True)
class PairRecord:
    j: int
    k: int
    distance: float
    bound: float
    bound_raw: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a run measured, plus the inequality ledger.

    ``doubling_estimate`` is the minimum indicator-norm quotient over the
    witnesses for the norm experiment and the maximum quotient (the
    measured family constant) for the pairwise experiment.  The pairwise
    bound is reported both as the minimum image distance and as half of
    it; ``family_size`` records how many balls witnessed the separation.
    """

    kind: str
    sup_norm: float
    eta: tuple
    a_eta_abs: float
    witnesses: tuple
    ledger: tuple
    eps_obs: float
    doubling_estimate: float
    achieved_lower_bound: float | None = None
    pairs: tuple = ()
    kappa_lower_bound: float | None = None
    kappa_half: float | None = None
    family_size: int | None = None

    def __post_init__(self):
        for line in self.ledger:
            if line.name.startswith("sandwich") and not line.passed:
                raise NumericFailure(
                    f"sandwich inequality violated beyond slack: {line}")
        if self.kappa_lower_bound is not None and self.kappa_lower_bound < 0:
            raise NumericFailure("negative pairwise distance")

    @property
    def chains_passed(self) -> bool:
        return all(line.passed for line in self.ledger)


def _resolve_eta(a: Symbol, grid: Grid, eta):
    if eta is None:
        return argmax_freq_node(a)
    return nearest_freq_node(grid, eta)


def _ball_norms(space: SpaceSpec, y, delta: float, rho: float):
    small = luxemburg_norm(ball_indicator(Ball(y, 1.0 / delta), space.grid), space)
    big = luxemburg_norm(ball_indicator(Ball(y, rho / delta), space.grid), space)
    return small, big


def _check_space(omega: DomainMask, space: SpaceSpec) -> None:
    if not np.array_equal(space.domain.inside, omega.inside):
        raise ValidationError("space domain must agree with the operator domain")


def kuratowski_family(omega: DomainMask, rho: float, theta: float, lam: float,
                      m: int, y0: float | None = None) -> list:
    """The separated family whose rho-inflations are the witness supports:
    :func:`whlab.doubling.separated_sequence` with tau = rho."""
    _check_rho(rho)
    return separated_sequence(omega, rho, theta, lam, m, y0)


def plan_norm_lowerbound(a: Symbol, omega: DomainMask, rho: float,
                         delta_schedule, eta=None, ray=None):
    """Validate a norm-lb run and place its witnesses.

    Returns ``(idx, eta_vec, plan)``: the probing frequency node and, per
    delta, either its :class:`WitnessParams` or the message explaining why
    no witness fits.  Raises unless rho > 1, the schedule is positive and
    strictly decreasing, and at least one delta admits a witness.
    """
    _check_rho(rho)
    deltas = [float(d) for d in delta_schedule]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValidationError("delta schedule must be positive")
    if not all(b < a_ for a_, b in zip(deltas, deltas[1:])):
        raise ValidationError("delta schedule must be strictly decreasing")
    idx, eta_vec = _resolve_eta(a, omega.grid, eta)
    plan = []
    for delta in deltas:
        try:
            y = place_witness_center(omega, delta, rho, ray)
            plan.append((delta, WitnessParams(delta, tuple(eta_vec), tuple(y),
                                              rho, omega)))
        except ValidationError as exc:
            plan.append((delta, str(exc)))
    if all(isinstance(params, str) for _, params in plan):
        raise ValidationError(
            "no delta in the schedule admits a witness placement on this grid")
    return idx, eta_vec, plan


def plan_kuratowski(a: Symbol, omega: DomainMask, rho: float, family, eta=None):
    """Validate a kappa-lb run: returns ``(idx, eta_vec, params)`` with one
    :class:`WitnessParams` per family ball (delta_j = 1/R_j).

    Raises unless rho > 1, the family has at least two balls, their
    rho-inflations are pairwise disjoint, and every witness fits in Omega.
    """
    _check_rho(rho)
    grid = omega.grid
    fam = [(tuple(as_point(y, grid.n)), float(r)) for y, r in family]
    m = len(fam)
    if m < 2:
        raise ValidationError("the pairwise experiment needs at least 2 balls")
    for j in range(m):
        for k in range(j + 1, m):
            gap = float(np.linalg.norm(np.subtract(fam[j][0], fam[k][0])))
            if gap < rho * (fam[j][1] + fam[k][1]):
                raise ValidationError(
                    f"family balls {j} and {k} have intersecting inflations")
    idx, eta_vec = _resolve_eta(a, grid, eta)
    params = [WitnessParams(1.0 / radius, tuple(eta_vec), y, rho, omega)
              for y, radius in fam]
    return idx, eta_vec, params


def norm_lowerbound_experiment(a: Symbol, omega: DomainMask, space: SpaceSpec,
                               rho: float, delta_schedule, eta=None,
                               ray=None) -> ExperimentReport:
    """Witness ratios ||W f|| / ||f|| over a shrinking-delta schedule.

    For each delta the center is placed deterministically on the ray, the
    plateau chain

        |a(eta)| ||chi_{B(y,1/delta)}|| <= ||W f|| + eps ||chi_{B(y,1/delta)}||

    is re-checked with the measured residual eps, and the report's
    achieved lower bound is the best ratio.  Placement failures for
    individual deltas are recorded and non-fatal as long as one witness
    succeeds.
    """
    _check_space(omega, space)
    idx, eta_vec, plan = plan_norm_lowerbound(a, omega, rho, delta_schedule,
                                              eta, ray)
    a_abs = abs(a.at(idx))

    records = []
    ledger = []
    residuals = []
    quotients = []
    for delta, params in plan:
        if isinstance(params, str):
            records.append(WitnessRecord(delta, (), math.nan, math.nan,
                                         math.nan, math.nan, math.nan,
                                         math.nan, error=params))
            continue
        tag = f"delta={delta:g}"
        f = make_witness(params)
        norm_f = luxemburg_norm(f, space)
        ns, nb = _ball_norms(space, params.y, delta, rho)
        g, residual = mollification_residual(a, params, f)
        wnorm = luxemburg_norm(restrict(g, omega), space)
        ratio = wnorm / norm_f
        quotient = nb / ns
        residuals.append(residual)
        quotients.append(quotient)
        ledger.append(_line(f"sandwich-lower[{tag}]", ns, norm_f,
                            SANDWICH_SLACK * norm_f))
        ledger.append(_line(f"sandwich-upper[{tag}]", norm_f, nb,
                            SANDWICH_SLACK * nb))
        ledger.append(_line(f"plateau-chain[{tag}]", a_abs * ns,
                            wnorm + residual * ns, CHAIN_SLACK))
        records.append(WitnessRecord(delta, params.y, ratio, ns, norm_f,
                                     nb, quotient, residual))
    return ExperimentReport(
        kind="norm-lb",
        sup_norm=a.sup_norm,
        eta=tuple(eta_vec),
        a_eta_abs=a_abs,
        witnesses=tuple(records),
        ledger=tuple(ledger),
        eps_obs=max(residuals),
        doubling_estimate=min(quotients),
        achieved_lower_bound=max(r.ratio for r in records if r.error is None),
    )


def kuratowski_experiment(a: Symbol, omega: DomainMask, space: SpaceSpec,
                          rho: float, family, eta=None) -> ExperimentReport:
    """Pairwise image distances of normalized witnesses over a separated family.

    The family is a list of (center, R) with pairwise disjoint
    rho-inflations; witness scales are tied to the radii by
    delta_j = 1/R_j, so the support balls are exactly the inflated family
    balls.  The minimum of d_jk = ||W(phi_j - phi_k)|| is the reported
    separation; half of it is the noncompactness lower bound, checked per
    pair against |a(eta)| / (S_est + slack) minus the normalized residual
    terms (the raw-residual variant is recorded alongside).
    """
    _check_space(omega, space)
    idx, eta_vec, plan = plan_kuratowski(a, omega, rho, family, eta)
    a_abs = abs(a.at(idx))
    m = len(plan)

    records = []
    ledger = []
    images = []
    small_norms = []
    residuals = []
    quotients = []
    for j, params in enumerate(plan):
        delta = params.delta
        f = make_witness(params)
        norm_f = luxemburg_norm(f, space)
        if norm_f == 0.0:
            raise NumericFailure("witness vanishes on Omega")
        ns, nb = _ball_norms(space, params.y, delta, rho)
        g, residual = mollification_residual(a, params, f)
        images.append(restrict(g, omega) * (1.0 / norm_f))
        small_norms.append(ns)
        residuals.append(residual)
        quotients.append(nb / ns)
        tag = f"j={j}"
        ledger.append(_line(f"sandwich-lower[{tag}]", ns, norm_f,
                            SANDWICH_SLACK * norm_f))
        ledger.append(_line(f"sandwich-upper[{tag}]", norm_f, nb,
                            SANDWICH_SLACK * nb))
        records.append(WitnessRecord(delta, params.y, math.nan, ns, norm_f, nb,
                                     nb / ns, residual))

    s_est = max(quotients)
    eps_obs = max(residuals)
    pairs = []
    worst_eps_norm = 0.0
    for j in range(m):
        for k in range(j + 1, m):
            d = luxemburg_norm(images[j] - images[k], space)
            ns_min = min(small_norms[j], small_norms[k])
            eps_norm = eps_obs / ns_min
            worst_eps_norm = max(worst_eps_norm, eps_norm)
            bound = a_abs / (s_est + S_EST_SLACK) - 2.0 * eps_norm
            bound_raw = a_abs / (s_est + S_EST_SLACK) - 2.0 * eps_obs
            line = _line(f"pairwise-chain[{j},{k}]", bound, d, CHAIN_SLACK)
            ledger.append(line)
            pairs.append(PairRecord(j, k, d, bound, bound_raw, line.passed))
    kappa_lb = min(p.distance for p in pairs)
    kappa_half = 0.5 * kappa_lb
    target = 0.5 * (a_abs / (s_est + S_EST_SLACK) - 2.0 * worst_eps_norm)
    ledger.append(_line("kappa-half-target", target, kappa_half, CHAIN_SLACK))
    return ExperimentReport(
        kind="kappa-lb",
        sup_norm=a.sup_norm,
        eta=tuple(eta_vec),
        a_eta_abs=a_abs,
        witnesses=tuple(records),
        ledger=tuple(ledger),
        eps_obs=eps_obs,
        doubling_estimate=s_est,
        pairs=tuple(pairs),
        kappa_lower_bound=kappa_lb,
        kappa_half=kappa_half,
        family_size=m,
    )
