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

Each norm is a bracket (lo, hi) of :func:`whlab.spaces.part_norm`, and
each certified number reads the end that keeps it conservative: lo for
||W f||, d_jk and the plateau norm ||chi_{B(y,1/delta)}||; hi for ||f||
(so for the 1/||f|| scaling of the kappa images) and for
||chi_{B(y,rho/delta)}||.  Each image W f is normed as
:func:`mollification_residual` hands it on, with w and p gathered on Omega
once per experiment; each witness norm reads only the witness's window.
The norm reads only Omega ∩ supp f in row-major order, so these brackets
equal the whole-grid ones bit for bit.

The witnesses are measured one after another.  On two threads, two
2^18-node FFTs take about half the time, but each needs the input, the
output and two scratch arrays of numpy's FFT at once: whether the two
threads' arrays coincide depends on thread timing, and a run's peak
memory would change from one run to the next.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .doubling import _check_family, separated_sequence
from .errors import DegenerateBallError, NumericFailure, ValidationError
from .grid import Ball, DomainMask, _ball_nodes, as_point
from .operators import (Symbol, _multiplier_image, argmax_freq_node,
                        nearest_freq_node)
from .profiles import bump_profile
from .spaces import SpaceSpec, indicator_norm, part_norm, space_part

__all__ = [
    "WitnessParams",
    "WitnessRecord",
    "PairRecord",
    "LedgerLine",
    "ExperimentReport",
    "WitnessPlan",
    "make_witness",
    "mollification_residual",
    "place_witness_center",
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


def _margin_violation(y, s: float, L: float) -> str | None:
    """Why the support B(y, s) breaks the periodic-box margin rule of a grid
    of half-width L (s <= L/4 and B(y, s) inside [-3L/4, 3L/4]^n), or None."""
    if not (s <= L / 4.0):
        return f"support radius {s:g} exceeds L/4 = {L / 4.0:g}"
    if not Ball(y, s).in_box(0.75 * L):
        return "witness support comes closer than L/4 to the box boundary"
    return None


@dataclass(frozen=True, eq=False)
class WitnessParams:
    """Concentration scale delta, modulation frequency eta, center y.

    Construction validates the support ball B(y, rho/delta): it must obey
    the periodic-box margin rule (support diameter at most L/2, each center
    coordinate plus the support radius at most 3L/4), its plateau ball
    B(y, 1/delta) must hold a grid node, and it must lie inside Omega
    (continuum clearance, plus every node).
    """

    delta: float
    eta: tuple
    y: tuple
    rho: float
    domain: DomainMask

    def __post_init__(self):
        if not (0 < self.delta < math.inf):
            raise ValidationError("delta must be finite and positive")
        _check_rho(self.rho)
        grid = self.domain.grid
        eta = tuple(as_point(self.eta, grid.n).tolist())
        y = tuple(as_point(self.y, grid.n).tolist())
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "y", y)
        s = self.support_radius
        why = _margin_violation(y, s, grid.half_width)
        if why is not None:
            raise ValidationError(why)
        try:
            _ball_nodes(Ball(y, 1.0 / self.delta), grid)
        except DegenerateBallError as exc:
            raise ValidationError(f"plateau {exc}") from None
        if not self.domain.contains_ball(Ball(y, s)):
            raise ValidationError(
                f"support ball B({y}, {s:g}) is not contained in the domain")

    @property
    def support_radius(self) -> float:
        return self.rho / self.delta


def make_witness(params: WitnessParams) -> tuple[tuple, np.ndarray]:
    """``(window, values)``: e^{i eta.x} phi(delta |x - y|) on the nodes of
    the ``Grid.window`` of the support ball B(y, rho/delta), and 0 off it.

    The modulus equals the bump profile exactly, so |f| = 1 on every node
    of B(y, 1/delta) and f vanishes on every node outside B(y, rho/delta).
    At eta = 0, where e^{i 0.x} = 1 exactly, ``values`` is the real profile.
    """
    grid = params.domain.grid
    # delta * radius >= rho after rounding, so the bump is 0 off the window
    radius = params.support_radius
    while params.delta * radius < params.rho:
        radius = math.nextafter(radius, math.inf)
    window, dist = grid.window(params.y, radius)
    amp = bump_profile(params.delta * dist, params.rho)
    if not any(params.eta):
        return window, amp
    axes = np.ix_(*(grid.x_axis[s] for s in window))
    phase_arg = sum(e * x for e, x in zip(params.eta, axes))
    return window, np.exp(1j * phase_arg) * amp


def mollification_residual(a: Symbol, params: WitnessParams,
                           f: tuple) -> tuple[np.ndarray, float]:
    """``(W f, eps)`` for the witness ``f = make_witness(params)``: the image
    W f = r_Omega g of g = F^{-1} a F f, kept only on Omega as its values
    there in row-major order, and the measured sup-node residual
    eps = max |g - a(eta) f| over the whole grid.

    ``eta`` is snapped to the nearest frequency node; the residual is the
    observed epsilon of the lower-bound chains and shrinks as delta does
    whenever the symbol is continuous at eta.  The witness is supported in
    Omega, so e_Omega f = f.  The residual reads every node of g, so a
    non-finite g raises :class:`NumericFailure`.

    f is written into one zeroed grid array of its dtype that g then
    replaces, so no second grid-sized array is held while g is transformed.
    A separate witness array would be written only on its window; numpy
    advises huge pages for arrays of 4 MiB and more, so its resident size
    would depend on where it was mapped, and so would a run's peak memory.

    At eta = 0 the witness is real, and under a Hermitian symbol, such as
    every shipped demo symbol, g is real too: that float array is
    transformed by rfftn and irfft, with half the memory and about half the
    transform time of the complex pair that every other witness takes (the
    measurements are in :mod:`whlab.operators`).
    """
    grid = params.domain.grid
    if a.grid != grid:
        raise ValidationError("symbol and witness live on different grids")
    window, values = f
    g = np.zeros(grid.shape, dtype=values.dtype)
    g[window] = values
    g = _multiplier_image(a, g)
    idx, _ = nearest_freq_node(grid, params.eta)
    # formed first, so its temporaries are freed before the grid-sized err is
    near = np.abs(g[window] - a.at(idx) * values)
    err = np.abs(g)  # f is 0 off its window, where g - a(eta) f = g exactly
    err[window] = near
    residual = float(np.max(err))
    del err  # freed before the gather on Omega
    if not math.isfinite(residual):
        raise NumericFailure(f"the witness image is not finite: residual {residual}")
    return g[params.domain.inside], residual


def place_witness_center(omega: DomainMask, delta: float, rho: float,
                         ray=None) -> np.ndarray:
    """Deterministic center: the largest admissible |y| along the ray.

    Admissible means the support ball B(y, rho/delta) obeys the box margin
    rule and fits inside Omega.  ``ray`` defaults to the domain's central
    ray.  Omega is a cone, so the support fits inside it from
    t = s / clearance(ray) on; its nodes are checked by :class:`WitnessParams`.
    Raises for a ray that does not point into Omega, and when no placement
    exists for this delta (grid too small).
    """
    grid = omega.grid
    s = rho / delta
    L = grid.half_width
    why = _margin_violation(np.zeros(grid.n), s, L)  # at the origin: s <= L/4
    if why is not None:
        raise ValidationError(f"{why}; no admissible placement")
    ray = as_point(omega.ray if ray is None else ray, grid.n)
    ray = np.ldexp(ray, -math.frexp(float(np.max(np.abs(ray))))[1])  # exact; max in [1/2, 1)
    norm = float(np.linalg.norm(ray))
    if not (0.0 < norm < math.inf):
        raise ValidationError("ray must be a nonzero direction of finite length")
    ray = ray / norm
    clear = omega.clearance(ray)
    if clear <= 0.0:
        raise ValidationError("ray does not point into the domain")
    t_min = s / clear
    t_box = (0.75 * L - s) / float(np.max(np.abs(ray)))
    while _margin_violation(t_box * ray, s, L) is not None:
        t_box = math.nextafter(t_box, 0.0)
    if t_box < t_min:
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

    @property
    def chains_passed(self) -> bool:
        return all(line.passed for line in self.ledger)


@dataclass(frozen=True, eq=False)
class WitnessPlan:
    """A witness run checked by :func:`plan_norm_lowerbound` or
    :func:`plan_kuratowski`: the symbol, the space, the probing frequency
    node at frequency ``eta``, and the witnesses; the experiments run it."""

    symbol: Symbol
    space: SpaceSpec
    node: tuple
    eta: tuple
    witnesses: tuple


def _resolve_eta(a: Symbol, space: SpaceSpec, eta):
    """The probing frequency node of a plan, for a symbol on the grid of ``space``."""
    if a.grid != space.grid:
        raise ValidationError("symbol and space live on different grids")
    return argmax_freq_node(a) if eta is None else nearest_freq_node(a.grid, eta)


def _measure_witness(a: Symbol, space: SpaceSpec, params: WitnessParams,
                     tag: str, ledger: list):
    """Norms, image and residual of the witness f = make_witness(params).

    Appends the two sandwich lines ||chi_small|| <= ||f|| <= ||chi_big||
    to ``ledger`` (a failed one raises) and returns ``(W f, record)`` with
    W f as :func:`mollification_residual` hands it on and a record whose
    ratio is left nan for the caller.  ||f|| reads only the witness's
    window, where f lives.
    """
    window, values = make_witness(params)
    norm_f = part_norm(space_part(space, window), values)[1]
    ns = indicator_norm(Ball(params.y, 1.0 / params.delta), space)[0]
    nb = indicator_norm(Ball(params.y, params.support_radius), space)[1]
    for line in (_line(f"sandwich-lower[{tag}]", ns, norm_f, SANDWICH_SLACK * norm_f),
                 _line(f"sandwich-upper[{tag}]", norm_f, nb, SANDWICH_SLACK * nb)):
        if not line.passed:
            raise NumericFailure(f"sandwich inequality violated beyond slack: {line}")
        ledger.append(line)
    image, residual = mollification_residual(a, params, (window, values))
    return image, WitnessRecord(
        params.delta, params.y, math.nan, ns, norm_f, nb, nb / ns, residual)


def plan_norm_lowerbound(a: Symbol, space: SpaceSpec, rho: float,
                         delta_schedule, eta=None, ray=None):
    """Validate a norm-lb run and place its witnesses in the domain of ``space``.

    The plan's witnesses are, per delta, ``(delta, params)`` with params
    either its :class:`WitnessParams` or the message explaining why no
    witness fits.  Raises unless rho > 1, the schedule is finite, positive
    and strictly decreasing, and at least one delta admits a witness.
    """
    _check_rho(rho)
    deltas = [float(d) for d in delta_schedule]
    if not deltas:
        raise ValidationError("delta schedule is empty")
    if not all(0 < d < math.inf for d in deltas):
        raise ValidationError("delta schedule must be finite and positive")
    if not all(b < a_ for a_, b in zip(deltas, deltas[1:])):
        raise ValidationError("delta schedule must be strictly decreasing")
    node, eta_vec = _resolve_eta(a, space, eta)
    plan = []
    for delta in deltas:
        try:
            y = place_witness_center(space.domain, delta, rho, ray)
            plan.append((delta, WitnessParams(delta, tuple(eta_vec), tuple(y),
                                              rho, space.domain)))
        except ValidationError as exc:
            plan.append((delta, str(exc)))
    if all(isinstance(params, str) for _, params in plan):
        raise ValidationError(
            "no delta in the schedule admits a witness placement on this grid: "
            + " ".join(f"(delta={delta:g}: {why})" for delta, why in plan))
    return WitnessPlan(a, space, node, tuple(eta_vec), tuple(plan))


def plan_kuratowski(a: Symbol, space: SpaceSpec, rho: float, theta: float,
                    lam: float, m: int, y0: float | None = None, eta=None):
    """Validate a kappa-lb run: one :class:`WitnessParams` (delta_j = 1/R_j)
    per ball of :func:`whlab.doubling.separated_sequence` with tau = rho, so
    the witness supports are the family's rho-inflations.  ``y0 = None``
    picks the largest value, stepped past rounding, whose outermost support
    B(y_m, rho R_m) keeps the margin rule of :class:`WitnessParams`."""
    _check_rho(rho)
    omega = space.domain
    if y0 is None:
        ray, lam_m = _check_family(omega, rho, theta, lam, m)
        L, tt = omega.grid.half_width, rho * theta

        def fits(y0: float) -> bool:  # ball m's support, as WitnessParams sees it
            dist = y0 * lam ** m
            return _margin_violation(dist * ray, rho / (1.0 / (theta * dist)), L) is None

        y0 = min(0.25 * L / tt, 0.75 * L / (float(np.max(np.abs(ray))) + tt)) / lam_m
        while y0 > 0.0 and not fits(y0):
            y0 = math.nextafter(y0, 0.0)
        if not (y0 >= 4.0 * omega.grid.h / theta):
            raise ValidationError(
                f"no y0 meets both the witness margin rule and 4h/theta: the "
                f"margin rule needs y0 <= {y0:g}, resolving the innermost "
                f"ball needs y0 >= {4.0 * omega.grid.h / theta:g}")
    family = separated_sequence(omega, rho, theta, lam, m, y0)
    node, eta_vec = _resolve_eta(a, space, eta)
    params = tuple(WitnessParams(1.0 / radius, tuple(eta_vec), y, rho, omega)
                   for y, radius in family)
    return WitnessPlan(a, space, node, tuple(eta_vec), params)


def norm_lowerbound_experiment(plan: WitnessPlan) -> ExperimentReport:
    """Witness ratios ||W f|| / ||f|| over the shrinking-delta schedule of a
    :func:`plan_norm_lowerbound` plan, whose centers lie on the ray.  The
    plateau chain

        |a(eta)| ||chi_{B(y,1/delta)}|| <= ||W f|| + eps ||chi_{B(y,1/delta)}||

    is re-checked with the measured residual eps, and the report's
    achieved lower bound is the best ratio.  Placement failures for
    individual deltas are recorded and non-fatal as long as one witness
    succeeds.
    """
    a, space = plan.symbol, plan.space
    a_abs = abs(a.at(plan.node))
    omega = space_part(space, space.domain.inside)

    records = []
    ledger = []
    for delta, params in plan.witnesses:
        if isinstance(params, str):
            records.append(WitnessRecord(delta, (), math.nan, math.nan,
                                         math.nan, math.nan, math.nan,
                                         math.nan, error=params))
            continue
        tag = f"delta={delta:g}"
        g, rec = _measure_witness(a, space, params, tag, ledger)
        wnorm = part_norm(omega, g)[0]
        ledger.append(_line(f"plateau-chain[{tag}]", a_abs * rec.norm_small,
                            wnorm + rec.residual * rec.norm_small, CHAIN_SLACK))
        records.append(replace(rec, ratio=wnorm / rec.norm_witness))
    measured = [r for r in records if r.error is None]
    return ExperimentReport(
        sup_norm=a.sup_norm,
        eta=plan.eta,
        a_eta_abs=a_abs,
        witnesses=tuple(records),
        ledger=tuple(ledger),
        eps_obs=max(r.residual for r in measured),
        doubling_estimate=min(r.quotient for r in measured),
        achieved_lower_bound=max(r.ratio for r in measured),
    )


def kuratowski_experiment(plan: WitnessPlan) -> ExperimentReport:
    """Pairwise image distances of normalized witnesses over the separated
    family of a :func:`plan_kuratowski` plan.

    The family balls (center, R) have pairwise disjoint rho-inflations;
    witness scales are tied to the radii by delta_j = 1/R_j, so the support
    balls are exactly the inflated family balls.  The minimum of
    d_jk = ||W(phi_j - phi_k)|| is the reported separation; half of it is
    the noncompactness lower bound, checked per pair against
    |a(eta)| / (S_est + slack) minus the normalized residual terms (the
    raw-residual variant is recorded alongside).
    """
    a, space = plan.symbol, plan.space
    a_abs = abs(a.at(plan.node))

    records = []
    ledger = []
    images = []  # the normalized images W f / ||f||, on Omega
    for j, params in enumerate(plan.witnesses):
        g, rec = _measure_witness(a, space, params, f"j={j}", ledger)
        g *= 1.0 / rec.norm_witness
        images.append(g)
        records.append(rec)
    omega = space_part(space, space.domain.inside)  # not held while images are formed

    s_est = max(r.quotient for r in records)
    eps_obs = max(r.residual for r in records)
    pairs = []
    for j, k in itertools.combinations(range(len(records)), 2):
        d = part_norm(omega, images[j] - images[k])[0]
        ns_min = min(records[j].norm_small, records[k].norm_small)
        eps_norm = eps_obs / ns_min
        bound = a_abs / (s_est + S_EST_SLACK) - 2.0 * eps_norm
        bound_raw = a_abs / (s_est + S_EST_SLACK) - 2.0 * eps_obs
        line = _line(f"pairwise-chain[{j},{k}]", bound, d, CHAIN_SLACK)
        ledger.append(line)
        pairs.append(PairRecord(j, k, d, bound, bound_raw, line.passed))
    kappa_lb = min(p.distance for p in pairs)
    kappa_half = 0.5 * kappa_lb
    target = 0.5 * min(p.bound for p in pairs)
    ledger.append(_line("kappa-half-target", target, kappa_half, CHAIN_SLACK))
    return ExperimentReport(
        sup_norm=a.sup_norm,
        eta=plan.eta,
        a_eta_abs=a_abs,
        witnesses=tuple(records),
        ledger=tuple(ledger),
        eps_obs=eps_obs,
        doubling_estimate=s_est,
        pairs=tuple(pairs),
        kappa_lower_bound=kappa_lb,
        kappa_half=kappa_half,
        family_size=len(records),
    )
