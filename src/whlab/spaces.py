"""Weighted variable Lebesgue space norms X(Omega) = L^{p(.)}(Omega, w).

The modular is the plain Riemann sum on node centers,

    m(f) = sum_{x in Omega} |f(x) w(x)|^{p(x)} h^n,

and the norm is the Luxemburg functional inf{lam > 0 : m(f/lam) <= 1}:
the upper end of a bisection in the power-of-two bracket around it.  A
Newton iteration on log m, checked by two modular sums, brackets the root
to 1e-12 first, so the bisection's tests cost a sum only inside that
bracket.  Both run on |f| w and p gathered once over Omega ∩ supp f.
:func:`part_norm` is the one entry into this kernel: it takes f on some
nodes only (the whole grid, a window or Omega) and the space's part on
them, taken once by :func:`space_part`.  :func:`luxemburg_norm` calls it
on the whole grid, and :func:`indicator_norm` on a ball's window
(:meth:`whlab.grid.Grid.window`), bit for bit.

The associate space is taken in closed form as (p'(.), 1/w) on the same
domain; duality checks elsewhere carry a factor-2 slack for the norm
equivalence this entails.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, ValidationError
from .grid import (Ball, DomainMask, Grid, GridFunction, _ball_nodes, _handed_over,
                   _node_values)
from .profiles import ramp

__all__ = [
    "ExponentField",
    "Weight",
    "SpaceSpec",
    "constant_exponent",
    "step_exponent",
    "exponent_from_values",
    "constant_weight",
    "power_weight",
    "weight_from_values",
    "luxemburg_norm",
    "indicator_norm",
    "SpacePart",
    "space_part",
    "part_norm",
    "associate_space",
    "berezhnoi_ratio",
    "axiom_check",
    "AxiomResult",
]

#: Relative tolerance of the Luxemburg bisection; the norm returned is its
#: upper end, within NORM_RTOL above the root of the discrete modular.
NORM_RTOL = 1e-10
#: Iteration cap of the bisection and of the Newton bracket (the bisection
#: needs about 34 steps, Newton about 5).
NORM_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Per-node exponent p(x) with 1 < p_min <= p(x) <= p_max < inf."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _node_values(self.values, self.grid, float, "exponents")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 1.0):
            raise ValidationError("exponents must be finite and > 1 everywhere")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "p_min", float(vals.min()))
        object.__setattr__(self, "p_max", float(vals.max()))

    def conjugate(self) -> "ExponentField":
        """Node-wise conjugate field p'(x) with 1/p + 1/p' = 1.  Raises where
        p' = p/(p-1) rounds to 1, which happens from about p = 2^53 on."""
        conj = self.values / (self.values - 1.0)
        if not np.all(conj > 1.0):
            raise ValidationError(f"the conjugate p/(p-1) of the exponent p = "
                                  f"{self.values[conj <= 1.0].min():g} rounds to 1; the "
                                  "associate space needs exponents of at most 2^53")
        return ExponentField(self.grid, conj)


@dataclass(frozen=True, eq=False)
class Weight:
    """Per-node positive weight w(x)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _node_values(self.values, self.grid, float, "weights")
        with np.errstate(divide="ignore", over="ignore"):  # 1/w of a subnormal w overflows
            finite = np.isfinite(vals).all() and np.isfinite(1.0 / vals).all()
        if not finite or not np.all(vals > 0.0):
            raise ValidationError("weights must be finite and positive everywhere, "
                                  "with a finite 1/w")
        object.__setattr__(self, "values", vals)

    def reciprocal(self) -> "Weight":
        return Weight(self.grid, 1.0 / self.values)


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """X(Omega) = L^{p(.)}(Omega, w) on a shared grid."""

    grid: Grid
    exponent: ExponentField
    weight: Weight
    domain: DomainMask

    def __post_init__(self):
        for part in (self.exponent, self.weight, self.domain):
            if part.grid != self.grid:
                raise ValidationError("space components must share one grid")


def constant_exponent(grid: Grid, p0: float) -> ExponentField:
    return ExponentField(grid, _handed_over(np.full(grid.shape, float(p0))))


def step_exponent(grid: Grid, left: float, right: float,
                  edge: float = 0.0, width: float | None = None) -> ExponentField:
    """Exponent jumping from ``left`` to ``right`` at ``edge``, smoothed.

    ``width`` is the full length of the transition zone (default: two grid
    cells).  In two dimensions the step runs along the first coordinate.
    """
    if width is None:
        width = 2.0 * grid.h
    vals = ramp(grid.coords()[0], edge, width, left, right)
    return ExponentField(grid, np.broadcast_to(vals, grid.shape))


def exponent_from_values(grid: Grid, values) -> ExponentField:
    return ExponentField(grid, np.broadcast_to(values, grid.shape))


def constant_weight(grid: Grid, value: float = 1.0) -> Weight:
    return Weight(grid, _handed_over(np.full(grid.shape, float(value))))


def power_weight(grid: Grid, gamma: float) -> Weight:
    """w(x) = |x|^gamma sampled at node centers.

    The origin node (index ``points // 2`` on every axis, where the raw
    value is 0 or infinite for gamma != 0) is assigned the average of its
    axis-neighbor values; deterministic and irrelevant in the h -> 0 limit
    for the exponent ranges used here.  Any other value that is not finite
    and positive is an overflow or underflow of |x|^gamma, which
    :class:`Weight` rejects.
    """
    with np.errstate(divide="ignore", over="ignore"):
        vals = grid.window(np.zeros(grid.n))[1] ** float(gamma)
    origin = (grid.points // 2,) * grid.n
    neighbors = [origin[:axis] + (origin[axis] + step,) + origin[axis + 1:]
                 for axis in range(grid.n) for step in (-1, 1)]
    vals[origin] = np.mean([vals[j] for j in neighbors])
    return Weight(grid, _handed_over(vals))


def weight_from_values(grid: Grid, values) -> Weight:
    return Weight(grid, np.broadcast_to(values, grid.shape))


@dataclass(frozen=True, eq=False)
class SpacePart:
    """What the norm of a function known on some nodes of the grid reads:
    the Omega membership, w and p on those nodes, and the cell volume h^n."""

    inside: np.ndarray
    w: np.ndarray
    p: np.ndarray
    cell_volume: float


def space_part(space: SpaceSpec, nodes) -> SpacePart:
    """The :class:`SpacePart` of ``space`` on ``nodes``.  ``nodes`` indexes
    the grid's arrays: a window of slices (:meth:`whlab.grid.Grid.window`;
    ``()`` is the whole grid), whose parts are views, or a bool mask such as
    ``space.domain.inside``, whose parts are gathered in row-major order.

    A witness experiment gathers Omega once and reuses it for every norm of
    an image.  Gathering w and p inside each norm call instead made
    ``perfbench`` ``run_s`` slower: kappa-1d 0.1647 -> 0.1697 s (5 of 6
    alternated pairs) and sector-2d 0.1207 -> 0.1250 s (6 of 6), on a
    2-core VM at ``--seconds 5``."""
    return SpacePart(space.domain.inside[nodes], space.weight.values[nodes],
                     space.exponent.values[nodes], space.grid.cell_volume)


def _support(part: SpacePart, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(|f| w, p)`` over ``Omega ∩ supp f`` on the nodes of ``part``, the
    only nodes the modular sees; ``values`` is f on them, or a bool
    membership for an indicator, whose |f| w is w exactly."""
    absf = np.abs(values)
    keep = part.inside & (absf != 0.0)
    return absf[keep] * part.w[keep], part.p[keep]


def _modular_sum(z: np.ndarray, p: np.ndarray, lam: float, cell_volume: float) -> float:
    """sum (z/lam)^p h^n over the gathered support; may overflow to inf."""
    return float(((z / lam) ** p).sum() * cell_volume)


def _log_modular(logz: np.ndarray, p: np.ndarray, log_cell: float,
                 s: float) -> tuple[float, float]:
    """g(s) = log m(f/e^s) in log-sum-exp form, and its slope's negative.

    ``-g'(s)`` is the mean of p under the weights of the sum's terms.
    """
    t = np.subtract(logz, s)
    np.multiply(p, t, out=t)
    top = float(t.max())
    e = np.exp(np.subtract(t, top, out=t), out=t)
    total = float(e.sum())
    return log_cell + top + math.log(total), float(np.multiply(p, e, out=e).sum()) / total


def _newton_root(z: np.ndarray, p: np.ndarray, cell_volume: float, tol: float) -> float:
    """Root lam of m(f/lam) = 1 by Newton on s = log lam, or nan.

    g(s) = log m(f/e^s) is convex and decreasing, so Newton started left of
    the root climbs to it monotonically; for constant p, g is linear and
    the first step is exact.  The start is s = 0 if g(0) >= 0, else
    g(0) / p_min, where g >= g(0) - p_min s = 0.  Returns nan if a value
    is not finite or the steps do not fall to ``tol``.
    """
    logz = np.log(z)
    log_cell = math.log(cell_volume)
    s = 0.0
    g, slope = _log_modular(logz, p, log_cell, s)
    if g < 0.0:
        s = g / float(p.min())
        g, slope = _log_modular(logz, p, log_cell, s)
    for _ in range(NORM_MAX_ITER):
        step = g / slope
        if not math.isfinite(step):
            break
        s += step
        if abs(step) <= tol:
            try:
                return math.exp(s)
            except OverflowError:  # a root above the float range
                return math.nan
        g, slope = _log_modular(logz, p, log_cell, s)
    return math.nan


def luxemburg_norm(f: GridFunction, space: SpaceSpec) -> float:
    """inf{lam > 0 : modular(f/lam) <= 1}: the upper end of a bisection.

    Returns 0 exactly when f vanishes on Omega.  The bisection starts from
    the power-of-two bracket ``(hi/2, hi]`` around the norm, stops at
    relative width ``NORM_RTOL`` and returns ``hi``.  Its tests
    "modular(f/lam) <= 1" are decided by a Newton root checked by modular
    sums at ``root (1 -+ 1e-12)``, with a modular sum only inside that
    bracket, or for every test if Newton fails or the check does not hold.
    Overflow of the modular counts as "modular > 1", so no rescaling is
    required of the caller.  Raises ``NumericFailure`` when the norm is
    outside the normal float range.  Deterministic and total.
    """
    if f.grid != space.grid:
        raise ValidationError("grid mismatch between function and space")
    return part_norm(space_part(space, ()), f.values)


def indicator_norm(ball: Ball, space: SpaceSpec) -> float:
    """``luxemburg_norm(ball_indicator(ball, space.grid), space)``, bit for bit,
    from the ball's window alone: a sub-box of the grid, whose row-major
    gather visits the ball's nodes in the whole grid's order."""
    window, member = _ball_nodes(ball, space.grid)
    return part_norm(space_part(space, window), member)


def part_norm(part: SpacePart, values: np.ndarray) -> float:
    """The norm kernel: ``luxemburg_norm`` of the f equal to ``values`` on
    the nodes of ``part = space_part(space, nodes)`` and 0 off them, bit for
    bit.  The norm reads only ``Omega ∩ supp f``, in row-major order, on any
    ``nodes`` that hold ``supp f``."""
    if np.shape(values) != np.shape(part.w):
        raise ValidationError(f"{np.shape(values)} values on a space part of "
                              f"shape {np.shape(part.w)}")
    # Overflow, log(0) and inf - inf in the gather and the kernel give the
    # documented non-finite results; one scope per norm keeps numpy quiet.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z, p = _support(part, values)
        if z.size == 0:
            return 0.0
        cell_volume = part.cell_volume

        def sum_leq_one(lam: float) -> bool:
            val = _modular_sum(z, p, lam, cell_volume)
            return math.isfinite(val) and val <= 1.0

        margin = 1e-12
        root = _newton_root(z, p, cell_volume, margin)
        # Below ``under`` the modular is known > 1, from ``over`` on <= 1.
        under, over = root * (1.0 - margin), root * (1.0 + margin)
        if not (math.isfinite(root) and sum_leq_one(over) and not sum_leq_one(under)):
            under, over = 0.0, math.inf

        def leq_one(lam: float) -> bool:
            if lam >= over:
                return True
            if lam <= under:
                return False
            return sum_leq_one(lam)

        # The power of two above the root (1 when there is none), kept where
        # hi and hi/2 are normal floats.
        hi = math.ldexp(1.0, min(max(math.frexp(root)[1], -1021), 1023))
        while not leq_one(hi):
            hi *= 2.0
            if math.isinf(hi):
                raise NumericFailure("Luxemburg norm above the float range")
        while leq_one(hi / 2.0):
            hi /= 2.0
            if hi / 2.0 < sys.float_info.min:
                raise NumericFailure("Luxemburg norm below the normal float range")
        lo = hi / 2.0
        for _ in range(NORM_MAX_ITER):
            if hi - lo <= NORM_RTOL * hi:
                break
            mid = 0.5 * (lo + hi)
            if leq_one(mid):
                hi = mid
            else:
                lo = mid
        return hi


def associate_space(space: SpaceSpec) -> SpaceSpec:
    """The closed-form associate: exponent p'(.), weight 1/w, same Omega."""
    return SpaceSpec(space.grid, space.exponent.conjugate(),
                     space.weight.reciprocal(), space.domain)


def _ball_volume(ball: Ball, n: int) -> float:
    if n == 1:
        return 2.0 * ball.radius
    return math.pi * ball.radius ** 2


def berezhnoi_ratio(ball: Ball, space: SpaceSpec) -> float:
    """(1/|B|) ||chi_B||_X ||chi_B||_X' with the exact continuum volume |B|.

    Requires a domain mask that covers every node; uniform boundedness of this
    quantity over all balls is the bridge from the norm machinery to the
    doubling properties of cones.
    """
    if not space.domain.inside.all():
        raise ValidationError("berezhnoi_ratio requires a domain that covers every node")
    nx = indicator_norm(ball, space)
    nxp = indicator_norm(ball, associate_space(space))
    return nx * nxp / _ball_volume(ball, space.grid.n)


# ---------------------------------------------------------------------------
# Executable axiom battery


@dataclass(frozen=True)
class AxiomResult:
    name: str
    worst: float
    tolerance: float
    passed: bool
    trials: int


def _random_function(rng: np.random.Generator, grid: Grid) -> GridFunction:
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return GridFunction(grid, vals)


def axiom_check(space: SpaceSpec, trials: int = 100, seed: int = 0) -> list[AxiomResult]:
    """Run the lattice-norm axioms on seeded random functions.

    Checks, per trial: absolute homogeneity and the triangle inequality;
    the lattice property; Fatou via truncation to |x| <= k, up to the
    farthest node; finiteness of indicator norms on bounded boxes; and the
    local-integral bound through the factor-2 Hoelder inequality against
    the associate space.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(
            f"the axiom battery needs trials >= 1, an integer (got {trials!r})")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"the axiom battery needs an integer seed >= 0 (got {seed!r})")
    rng = np.random.default_rng(seed)
    grid = space.grid
    dual = associate_space(space)
    hvol = grid.cell_volume
    mask = space.domain.inside

    # Tolerance of each axiom's worst violation, in report order.
    tols = {
        "homogeneity": 1e-8, "triangle": 1e-8, "lattice": 1e-9,
        "fatou-monotone": 1e-9, "fatou-limit": 1e-8,
        "bounded-indicator": 1e-12, "local-integral": 1e-9, "hoelder": 1e-9,
    }
    worst = dict.fromkeys(tols, 0.0)
    L = grid.half_width
    dist0 = grid.window(np.zeros(grid.n))[1]
    radii = [L / 8.0, L / 4.0, L / 2.0, float(dist0.max())]

    for _ in range(trials):
        f = _random_function(rng, grid)
        g = _random_function(rng, grid)
        nf = luxemburg_norm(f, space)
        ng = luxemburg_norm(g, space)

        c = float(rng.uniform(0.1, 10.0))
        ncf = luxemburg_norm(GridFunction(grid, f.values * complex(c)), space)
        worst["homogeneity"] = max(worst["homogeneity"],
                                   abs(ncf - c * nf) / (c * nf))

        nsum = luxemburg_norm(GridFunction(grid, f.values + g.values), space)
        worst["triangle"] = max(worst["triangle"],
                                (nsum - nf - ng) / max(nf + ng, 1e-300))

        damp = rng.uniform(0.0, 1.0, grid.shape)
        smaller = GridFunction(grid, f.values * damp)
        nsmall = luxemburg_norm(smaller, space)
        worst["lattice"] = max(worst["lattice"], nsmall - nf * (1.0 + 1e-12))

        prev = 0.0
        for k in radii:
            fk = GridFunction(grid, np.where(dist0 <= k, f.values, 0.0))
            nk = luxemburg_norm(fk, space)
            worst["fatou-monotone"] = max(worst["fatou-monotone"], prev - nk)
            prev = nk
        worst["fatou-limit"] = max(worst["fatou-limit"],
                                   abs(prev - nf) / max(nf, 1e-300))

        # Bounded box E and the local-integral bound int_E |f| <= C_E ||f||.
        half = float(rng.uniform(grid.h, L / 2.0))
        box = dist0 <= half
        chi = GridFunction(grid, box.astype(complex))
        nchi = luxemburg_norm(chi, space)
        if not math.isfinite(nchi):
            worst["bounded-indicator"] = math.inf
        c_e = 2.0 * luxemburg_norm(chi, dual)
        integral = float(np.sum(np.abs(f.values)[mask & box]) * hvol)
        worst["local-integral"] = max(worst["local-integral"],
                                      integral - c_e * nf * (1.0 + 1e-12))

        pairing = float(np.sum((np.abs(f.values) * np.abs(g.values))[mask]) * hvol)
        ngd = luxemburg_norm(g, dual)
        worst["hoelder"] = max(worst["hoelder"],
                               pairing - 2.0 * nf * ngd * (1.0 + 1e-12))

    return [AxiomResult(name, worst[name], tol, worst[name] <= tol, trials)
            for name, tol in tols.items()]
