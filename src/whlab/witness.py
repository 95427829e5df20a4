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

Every number measured from a witness reads |W f| only, so the real phi
stands for f and its image is taken demodulated at eta
(:func:`mollification_residual`).  The plan gives each witness a transform box
B, its window widened by a margin, where the image is an exact linear
convolution with the symbol's kernel (:mod:`whlab.kernel`); off B the image is
at most the far field max phi . T(m + 1), so the residual reported is the
larger of the in-box residual and the far field, a bound of |W f - a(eta) f|
at every node, and a ``far-field`` ledger line records the two.  A witness
whose kernel tail admits no box within the grid is transformed on the whole
grid.

A finite family exhibits pairwise separation but cannot, strictly,
lower-bound the noncompactness measure; reports therefore state the
family size next to the bound.

Each norm is a bracket (lo, hi) of :func:`whlab.spaces.part_norm`, and
each certified number reads the end that keeps it conservative: lo for
||W f||, d_jk and the plateau norm ||chi_{B(y,1/delta)}||; hi for ||f||
(so for the 1/||f|| scaling of the kappa images) and for
||chi_{B(y,rho/delta)}||.  Each image is normed as
:func:`mollification_residual` hands it on, ``(window, values)``, with w and p
read as views on its window, and each witness norm reads only the witness's
window.  The norm reads only Omega ∩ supp f in row-major order, so on a
whole-grid image, whose window is Omega's bounding window, these brackets equal
the whole-grid ones bit for bit.  A boxed image is 0 off B: by the lattice
property its norm is a lower bound of the whole-grid one, and the margin keeps
the two within a modular of NORM_RTOL (:func:`_plan_boxes`).  The witnesses of
a kappa plan share one box or all keep the whole grid, so its images lie on one
window, and d_jk is the norm of the whole grid's difference there, again a
lower bound.

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

from .errors import DegenerateBallError, NumericFailure, ValidationError
from .grid import Ball, DomainMask, _ball_nodes, as_point
from .operators import (Symbol, _multiplier_image, _spectral_image,
                        argmax_freq_node, nearest_freq_node)
from .profiles import bump_profile
from .spaces import NORM_RTOL, SpaceSpec, indicator_norm, part_norm

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
    """Concentration scale delta, center y and support ratio rho of the real
    profile phi of a witness.  Its modulation frequency eta is the probing
    node of the plan (:attr:`WitnessPlan.node`), handed to
    :func:`mollification_residual` with it.

    Construction validates the support ball B(y, rho/delta): it must obey
    the periodic-box margin rule (support diameter at most L/2, each center
    coordinate plus the support radius at most 3L/4), its plateau ball
    B(y, 1/delta) must hold a grid node, and it must lie inside Omega
    (continuum clearance, plus every node).
    """

    delta: float
    y: tuple
    rho: float
    domain: DomainMask

    def __post_init__(self):
        if not (0 < self.delta < math.inf):
            raise ValidationError("delta must be finite and positive")
        _check_rho(self.rho)
        grid = self.domain.grid
        y = tuple(as_point(self.y, grid.n).tolist())
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
    """``(window, values)``: the real profile phi(delta |x - y|) of the witness
    f = e^{i eta.x} phi(delta (x - y)), eta the probing frequency of its plan,
    on the nodes of the ``Grid.window`` of the support ball B(y, rho/delta),
    and 0 off it.

    |f| = phi, so phi = 1 on every node of B(y, 1/delta) and phi vanishes on
    every node outside B(y, rho/delta).  The factor e^{i eta.x} is never
    formed: every number measured from f reads |W f|, which
    :func:`mollification_residual` gets from the real phi by demodulation.
    """
    window, dist = _witness_window(params)
    return window, bump_profile(params.delta * dist, params.rho)


def _witness_window(params: WitnessParams) -> tuple:
    """``Grid.window`` of the support ball of the witness, with the radius
    stepped up until delta * radius >= rho after rounding, so that the bump is
    0 off the window."""
    radius = params.support_radius
    while params.delta * radius < params.rho:
        radius = math.nextafter(radius, math.inf)
    return params.domain.grid.window(params.y, radius)


def mollification_residual(a: Symbol, params: WitnessParams, f: tuple,
                           node: tuple, box=None) -> tuple[tuple, float]:
    """``((window, h), eps)`` for the witness ``f = make_witness(params)``
    modulated at the frequency eta of the node with index tuple ``node`` (a
    plan's :attr:`WitnessPlan.node`; ``params`` hold no frequency, so ``node``
    is the one source of eta): the demodulated image h = e^{-i eta.x} W f on
    ``window``, a window of the grid, and the measured residual
    eps = max |h - a(eta) phi| over the nodes where h was formed.

    With eta a frequency node, h = ifft(a[k + node] . fft(phi)[k]) over the
    whole grid (:mod:`whlab.operators`), so |h| = |W f| node by node and eps
    is max |W f - a(eta) f| there; every norm and distance of the experiments
    reads only |h|, and all witnesses of a plan share eta, so W f_j - W f_k
    has the modulus of h_j - h_k.  The residual is the observed epsilon of the
    lower-bound chains and shrinks as delta does whenever the symbol is
    continuous at eta.  The witness is supported in Omega, so e_Omega f = f.
    The residual reads every node of h it is taken over, so a non-finite h
    raises :class:`NumericFailure`.

    With ``box = None`` h is formed on the whole grid and kept on Omega's
    bounding window (:attr:`whlab.grid.DomainMask.window`), and eps is its
    maximum over the whole grid.  With a plan's :class:`whlab.kernel.Box` h is
    formed on the box B, a window around phi's widened by the box's margin m, as
    a linear convolution with the symbol's kernel (:mod:`whlab.kernel`):
    on B it is the whole grid's h up to FFT round-off, and off B |h| is at
    most the box's far field max phi . T(m + 1).  Then eps is the maximum over
    B, and :func:`_measure_witness` raises it to the far field.

    phi is handed to :func:`whlab.operators._multiplier_image` on its window
    only, and h is formed in place in the one complex spectrum array that the
    forward transform writes.
    """
    grid = params.domain.grid
    if a.grid != grid:
        raise ValidationError("symbol and witness live on different grids")
    if len(node) != grid.n or not all(0 <= k < grid.points for k in node):
        raise ValidationError(f"{node} is not the index tuple of a frequency node")
    window, values = f
    if box is None:
        h = _multiplier_image(a, values, node, window)
        kept = on_kept = params.domain.window
    else:
        window = tuple(slice(w.start - b.start, w.stop - b.start)  # phi's within B
                       for w, b in zip(window, box.window))
        h = _spectral_image(box.values, values, (0,) * grid.n, window, False)
        h = h[tuple(slice(0, b.stop - b.start) for b in box.window)]  # B in the box
        kept, on_kept = box.window, ()
    # formed first, so its temporaries are freed before err, the size of h, is
    near = np.abs(h[window] - a.at(node) * values)
    err = np.abs(h)  # phi is 0 off its window, where h - a(eta) phi = h exactly
    err[window] = near
    residual = float(np.max(err))
    del err
    if not math.isfinite(residual):
        raise NumericFailure(f"the witness image is not finite: residual {residual}")
    return (kept, h[on_kept].copy()), residual


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
    node at frequency ``eta``, and the witnesses; the experiments run it.
    Per witness, in the order of ``witnesses``, ``plateaus`` holds the lower
    end of its plateau norm ||chi_{B(y,1/delta)}|| and ``boxes`` its
    :class:`whlab.kernel.Box`, or None where the image is formed on the whole
    grid (:func:`_plan_boxes`); a skipped delta has nan and None.  The boxes of
    a :func:`plan_kuratowski` plan are all one box or all None."""

    symbol: Symbol
    space: SpaceSpec
    node: tuple
    witnesses: tuple
    plateaus: tuple
    boxes: tuple

    @property
    def eta(self) -> tuple:  # read from the node, its one source
        return tuple(self.space.grid.xi_axis[k] for k in self.node)


def _resolve_eta(a: Symbol, space: SpaceSpec, eta):
    """The probing frequency node of a plan, for a symbol on the grid of ``space``."""
    if a.grid != space.grid:
        raise ValidationError("symbol and space live on different grids")
    return (argmax_freq_node(a) if eta is None else nearest_freq_node(a.grid, eta))[0]


def _plan_boxes(a: Symbol, space: SpaceSpec, node: tuple, witnesses,
                shared: bool = False) -> tuple:
    """``(plateaus, boxes)`` of :class:`WitnessPlan` for ``witnesses``, a
    list of :class:`WitnessParams` with None for a skipped delta.

    A witness gets the box B = W + m, W its window, m the smallest margin whose
    far field e = max phi . T(m + 1), put at every node of Omega off B, adds at
    most NORM_RTOL to the modular of any norm taken of its image; T are the
    shell tails of the symbol's kernel K (:func:`whlab.kernel.kernel_tails`).
    With lam = |a(eta)| ||chi_{B(y,1/delta)}||, about the least such norm (the
    plateau's image, before and after the 1/||f|| scaling), and e <= lam, that
    modular is at most (e / lam)^p_min m(chi_Omega), and
    m(chi_Omega) <= #Omega h^n max(w_max^p_min, w_max^p_max).  With ``shared``
    W is the bounding window of every witness's window and m the largest of
    their margins, so every image is known on one box, where it equals the
    whole grid's (:func:`kuratowski_experiment`); a witness whose margin does
    not fit puts all of them on the whole grid.

    The box transform has N_c >= 2 (extent + m) nodes on each axis, extent W's
    there, the least even 2^a 3^b 5^c (:func:`whlab.kernel.fast_size`).  B must
    fit in the grid and the box hold at most a third of its nodes, else the
    witness keeps the whole grid: a 270^2 box took 1.5 ms against 3.2 ms for a
    512^2 real image (1 thread, 2-core VM), and its complex spectrum, which the
    plan holds, is at most two thirds of a real grid array.  Where no witness
    fits at margin 1 the kernel is never taken.  Nor does a margin of
    0 plan a box: the kernel then has at most e off the origin, so
    h = a(eta) phi within 2 e and the residual seldom exceeds e (a constant
    symbol's is round-off, below the a-priori round-off term of its tail), so
    :func:`_measure_witness` would report e as the residual instead of the
    measured one.  Boxes of one shape share one kernel spectrum, which
    :func:`whlab.kernel.box_spectrum` gathers from the kernel's one layout.
    A :class:`whlab.kernel.Box` holds B, that spectrum and e alone: the
    witness's own window W fixes where it lies in B.
    """
    N, n = space.grid.points, space.grid.n
    plateaus = tuple(math.nan if params is None else indicator_norm(
        Ball(params.y, 1.0 / params.delta), space)[0] for params in witnesses)
    windows = [None if params is None else _witness_window(params)[0]
               for params in witnesses]
    if shared:
        union = tuple(slice(min(w[i].start for w in windows),
                            max(w[i].stop for w in windows)) for i in range(n))
        reach = [union] * len(windows)
    else:
        reach = windows

    def shape(window: tuple, m: int, rounded):  # the box transform of W + m, or None
        size = tuple(rounded(2 * (s.stop - s.start + m)) for s in window)
        fits = all(m <= s.start and s.stop + m <= N for s in window)
        return size if fits and 3 * math.prod(size) <= N ** n else None

    # fast_size(k) >= k: a window too large unrounded at margin 1 never fits
    if not any(w is not None and shape(w, 1, int) for w in reach):
        return plateaus, (None,) * len(witnesses)
    # imported by plans with a box in reach only: other runs never compile it
    from .kernel import Box, box_spectrum, fast_size, kernel_tails

    source, tails = kernel_tails(a)
    log_w = math.log(float(np.max(space.weight.values)))
    p_min, p_max = space.exponent.p_min, space.exponent.p_max
    log_omega = (math.log(np.count_nonzero(space.domain.inside) * space.grid.cell_volume)
                 + max(p_min * log_w, p_max * log_w))
    share = math.exp(min(0.0, (math.log(NORM_RTOL) - log_omega) / p_min))  # e / lam
    a_abs = abs(a.at(node))
    margins = []
    for ns in plateaus:
        fits = np.flatnonzero(tails[1:] <= a_abs * ns * share)  # none for a nan plateau
        margins.append(int(fits[0]) if fits.size and fits[0] > 0 else None)
    if shared:
        margins = [None if None in margins else max(margins)] * len(margins)
    sizes = [None if m is None else shape(w, m, fast_size) for w, m in zip(reach, margins)]
    spectra, boxes = {}, []
    for outer, m, size in zip(reach, margins, sizes):
        box = None
        if size is not None:
            if size not in spectra:
                spectra[size] = box_spectrum(source, node, N, size)
            box = Box(tuple(slice(s.start - m, s.stop + m) for s in outer),
                      spectra[size], float(tails[m + 1]))
        boxes.append(box)
    return plateaus, tuple(boxes)


def _measure_witness(plan: WitnessPlan, j: int, params: WitnessParams, tag: str,
                     ledger: list):
    """Norms, image and residual of the witness f = make_witness(params),
    witness ``j`` of ``plan``, modulated at the plan's probing node.

    Appends the two sandwich lines ||chi_small|| <= ||f|| <= ||chi_big||
    to ``ledger`` (a failed one raises) and returns ``(image, record)`` with
    the demodulated image as :func:`mollification_residual` hands it on and a
    record whose ratio is left nan for the caller.  ||f|| reads only the
    witness's window, where f lives.  On a box the record's residual is the
    larger of the in-box residual and the box's far field, so that it bounds
    |W f - a(eta) f| at every node (phi is 0 off B), and the line
    far-field <= residual records the far field.
    """
    space = plan.space
    window, values = make_witness(params)
    norm_f = part_norm(space, window, values)[1]
    ns = plan.plateaus[j]
    nb = indicator_norm(Ball(params.y, params.support_radius), space)[1]
    for line in (_line(f"sandwich-lower[{tag}]", ns, norm_f, SANDWICH_SLACK * norm_f),
                 _line(f"sandwich-upper[{tag}]", norm_f, nb, SANDWICH_SLACK * nb)):
        if not line.passed:
            raise NumericFailure(f"sandwich inequality violated beyond slack: {line}")
        ledger.append(line)
    box = plan.boxes[j]
    image, residual = mollification_residual(plan.symbol, params, (window, values),
                                             plan.node, box)
    if box is not None:
        residual = max(residual, box.far_field)
        ledger.append(_line(f"far-field[{tag}]", box.far_field, residual, 0.0))
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
    node = _resolve_eta(a, space, eta)
    plan = []
    for delta in deltas:
        try:
            y = place_witness_center(space.domain, delta, rho, ray)
            plan.append((delta, WitnessParams(delta, tuple(y), rho, space.domain)))
        except ValidationError as exc:
            plan.append((delta, str(exc)))
    if all(isinstance(params, str) for _, params in plan):
        raise ValidationError(
            "no delta in the schedule admits a witness placement on this grid: "
            + " ".join(f"(delta={delta:g}: {why})" for delta, why in plan))
    placed = [None if isinstance(params, str) else params for _, params in plan]
    return WitnessPlan(a, space, node, tuple(plan),
                       *_plan_boxes(a, space, node, placed))


def plan_kuratowski(a: Symbol, space: SpaceSpec, rho: float, theta: float,
                    lam: float, m: int, y0: float | None = None, eta=None):
    """Validate a kappa-lb run: one :class:`WitnessParams` (delta_j = 1/R_j)
    per ball of :func:`whlab.doubling.separated_sequence` with tau = rho, so
    the witness supports are the family's rho-inflations.  ``y0 = None``
    picks the largest value, stepped past rounding, whose outermost support
    B(y_m, rho R_m) keeps the margin rule of :class:`WitnessParams`."""
    # imported here only: a norm-lb run never compiles the doubling layer
    from .doubling import _check_family, separated_sequence

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
    node = _resolve_eta(a, space, eta)
    params = tuple(WitnessParams(1.0 / radius, y, rho, omega) for y, radius in family)
    return WitnessPlan(a, space, node, params,
                       *_plan_boxes(a, space, node, params, shared=True))


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

    records = []
    ledger = []
    for j, (delta, params) in enumerate(plan.witnesses):
        if isinstance(params, str):
            records.append(WitnessRecord(delta, (), math.nan, math.nan,
                                         math.nan, math.nan, math.nan,
                                         math.nan, error=params))
            continue
        tag = f"delta={delta:g}"
        (window, g), rec = _measure_witness(plan, j, params, tag, ledger)
        wnorm = part_norm(space, window, g)[0]
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
    raw-residual variant is recorded alongside).  Every image lies on one
    window, the plan's shared box or Omega's bounding window, and d_jk is the
    lower end of the norm of h_j/||f_j|| - h_k/||f_k|| there; a plan whose
    images lie on different windows raises :class:`ValidationError`.
    """
    a, space = plan.symbol, plan.space
    a_abs = abs(a.at(plan.node))

    records = []
    ledger = []
    images = []  # the normalized demodulated images h / ||f||
    for j, params in enumerate(plan.witnesses):
        (window, g), rec = _measure_witness(plan, j, params, f"j={j}", ledger)
        g *= 1.0 / rec.norm_witness
        images.append((window, g))
        records.append(rec)
    window = images[0][0]
    if any(other != window for other, _ in images):
        raise ValidationError("the witness images of a kappa-lb plan lie on different "
                              "windows: its boxes must be one shared box or all None")

    s_est = max(r.quotient for r in records)
    eps_obs = max(r.residual for r in records)
    pairs = []
    for j, k in itertools.combinations(range(len(records)), 2):
        d = part_norm(space, window, images[j][1] - images[k][1])[0]
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
