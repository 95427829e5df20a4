"""Weighted variable Lebesgue space norms X(Omega) = L^{p(.)}(Omega, w).

The modular is the plain Riemann sum on node centers,

    m(f) = sum_{x in Omega} |f(x) w(x)|^{p(x)} h^n,

and the norm is the Luxemburg functional inf{lam > 0 : m(f/lam) <= 1},
computed by geometric bracketing plus bisection.  The associate space is
taken in closed form as (p'(.), 1/w) on the same domain; duality checks
elsewhere carry a factor-2 slack for the norm equivalence this entails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModularOverflowError, NumericFailure, ValidationError
from .grid import Ball, DomainMask, Grid, GridFunction, ball_indicator, full_space, same_grid
from .profiles import smoothstep

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
    "modular",
    "luxemburg_norm",
    "associate_space",
    "berezhnoi_ratio",
    "muckenhoupt_ratio",
    "axiom_check",
    "AxiomResult",
]

#: Relative tolerance of the Luxemburg bisection.
NORM_RTOL = 1e-10
#: Iteration cap of the bisection (more than enough for NORM_RTOL).
NORM_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Per-node exponent p(x) with 1 < p_min <= p(x) <= p_max < inf."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValidationError("exponent shape does not match grid")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 1.0):
            raise ValidationError("exponents must be finite and > 1 everywhere")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "p_min", float(vals.min()))
        object.__setattr__(self, "p_max", float(vals.max()))

    def conjugate(self) -> "ExponentField":
        """Node-wise conjugate field p'(x) with 1/p + 1/p' = 1."""
        return ExponentField(self.grid, self.values / (self.values - 1.0))


@dataclass(frozen=True, eq=False)
class Weight:
    """Per-node positive weight w(x)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValidationError("weight shape does not match grid")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 0.0):
            raise ValidationError("weights must be finite and positive everywhere")
        vals.flags.writeable = False
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
            if not same_grid(part.grid, self.grid):
                raise ValidationError("space components must share one grid")


def constant_exponent(grid: Grid, p0: float) -> ExponentField:
    return ExponentField(grid, np.full(grid.shape, float(p0)))


def step_exponent(grid: Grid, left: float, right: float,
                  edge: float = 0.0, width: float | None = None) -> ExponentField:
    """Exponent jumping from ``left`` to ``right`` at ``edge``, smoothed.

    ``width`` is the full length of the transition zone (default: two grid
    cells).  In two dimensions the step runs along the first coordinate.
    """
    if width is None:
        width = 2.0 * grid.h
    if width <= 0:
        raise ValidationError("transition width must be positive")
    x = grid.coords()[0]
    vals = left + (right - left) * smoothstep((x - edge) / width + 0.5)
    return ExponentField(grid, np.broadcast_to(vals, grid.shape).copy())


def exponent_from_values(grid: Grid, values) -> ExponentField:
    return ExponentField(grid, np.broadcast_to(np.asarray(values, float), grid.shape).copy())


def constant_weight(grid: Grid, c: float = 1.0) -> Weight:
    return Weight(grid, np.full(grid.shape, float(c)))


def power_weight(grid: Grid, gamma: float) -> Weight:
    """w(x) = |x|^gamma sampled at node centers.

    The origin node (where the raw value is 0 or infinite for gamma != 0)
    is assigned the average of its axis-neighbor values; deterministic and
    irrelevant in the h -> 0 limit for the exponent ranges used here.
    """
    r = grid.distances(np.zeros(grid.n))
    with np.errstate(divide="ignore"):
        vals = r ** float(gamma)
    bad = ~np.isfinite(vals) | (vals <= 0.0)
    if bad.any():
        idxs = np.argwhere(bad)
        for idx in idxs:
            neighbors = []
            for axis in range(grid.n):
                for step in (-1, 1):
                    j = list(idx)
                    j[axis] += step
                    if 0 <= j[axis] < grid.points:
                        v = vals[tuple(j)]
                        if np.isfinite(v) and v > 0:
                            neighbors.append(v)
            if not neighbors:
                raise NumericFailure("cannot repair singular weight node")
            vals[tuple(idx)] = float(np.mean(neighbors))
    return Weight(grid, vals)


def weight_from_values(grid: Grid, values) -> Weight:
    return Weight(grid, np.broadcast_to(np.asarray(values, float), grid.shape).copy())


def modular(f: GridFunction, space: SpaceSpec) -> float:
    """sum over Omega of |f w|^p h^n; raises on overflow."""
    if not same_grid(f.grid, space.grid):
        raise ValidationError("grid mismatch between function and space")
    out = _modular_value(np.abs(f.values), space, 1.0)
    if not math.isfinite(out):
        raise ModularOverflowError("modular overflow; rescale the input")
    return out


def _modular_value(absf: np.ndarray, space: SpaceSpec, lam: float) -> float:
    mask = space.domain.inside
    z = absf[mask] * space.weight.values[mask]
    p = space.exponent.values[mask]
    with np.errstate(over="ignore"):
        terms = (z / lam) ** p
    return float(terms.sum() * space.grid.cell_volume)


def luxemburg_norm(f: GridFunction, space: SpaceSpec) -> float:
    """inf{lam > 0 : modular(f/lam) <= 1}, by bracketing and bisection.

    Returns 0 exactly when f vanishes on Omega.  The bracket is found by
    doubling (or halving) lam geometrically from 1 until the modular
    crosses 1, then bisected to relative tolerance ``NORM_RTOL``; overflow
    of the modular counts as "modular > 1", so no rescaling is required of
    the caller.  Deterministic and total.
    """
    if not same_grid(f.grid, space.grid):
        raise ValidationError("grid mismatch between function and space")
    absf = np.abs(f.values)
    if not np.any(absf[space.domain.inside] != 0.0):
        return 0.0

    def leq_one(lam: float) -> bool:
        val = _modular_value(absf, space, lam)
        return math.isfinite(val) and val <= 1.0

    hi = 1.0
    if leq_one(hi):
        while hi > 1e-300 and leq_one(hi / 2.0):
            hi /= 2.0
    else:
        while not leq_one(hi):
            hi *= 2.0
            if hi > 1e300:
                raise NumericFailure("Luxemburg bracket diverged")
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

    Requires the space over the full domain; uniform boundedness of this
    quantity over all balls is the bridge from the norm machinery to the
    doubling properties of cones.
    """
    if space.domain.kind != "full":
        raise ValidationError("berezhnoi_ratio requires the full-space domain")
    chi = ball_indicator(ball, space.grid)
    nx = luxemburg_norm(chi, space)
    nxp = luxemburg_norm(chi, associate_space(space))
    return nx * nxp / _ball_volume(ball, space.grid.n)


def muckenhoupt_ratio(ball: Ball, exponent: ExponentField, weight: Weight) -> float:
    """(1/|B|) ||w chi_B||_{p(.)} ||chi_B / w||_{p'(.)}.

    For constant p this is the classical bracket up to the |B|
    normalization split; it is :func:`berezhnoi_ratio` of the weighted
    full space because ||chi_B||_{X(w)} = ||w chi_B||_{L^{p(.)}}.
    """
    return berezhnoi_ratio(ball, SpaceSpec(exponent.grid, exponent, weight,
                                           full_space(exponent.grid)))


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
    the lattice property; Fatou via truncation to |x| <= k; finiteness of
    indicator norms on bounded boxes; and the local-integral bound through
    the factor-2 Hoelder inequality against the associate space.
    """
    rng = np.random.default_rng(seed)
    grid = space.grid
    dual = associate_space(space)
    hvol = grid.cell_volume
    mask = space.domain.inside

    worst = {
        "homogeneity": 0.0, "triangle": 0.0, "lattice": 0.0,
        "fatou-monotone": 0.0, "fatou-limit": 0.0,
        "bounded-indicator": 0.0, "local-integral": 0.0, "hoelder": 0.0,
    }
    L = grid.half_width
    radii = [L / 8.0, L / 4.0, L / 2.0, L]

    for _ in range(trials):
        f = _random_function(rng, grid)
        g = _random_function(rng, grid)
        nf = luxemburg_norm(f, space)
        ng = luxemburg_norm(g, space)

        c = float(rng.uniform(0.1, 10.0))
        ncf = luxemburg_norm(c * f, space)
        worst["homogeneity"] = max(worst["homogeneity"],
                                   abs(ncf - c * nf) / (c * nf))

        nsum = luxemburg_norm(f + g, space)
        worst["triangle"] = max(worst["triangle"],
                                (nsum - nf - ng) / max(nf + ng, 1e-300))

        damp = rng.uniform(0.0, 1.0, grid.shape)
        smaller = GridFunction(grid, f.values * damp)
        nsmall = luxemburg_norm(smaller, space)
        worst["lattice"] = max(worst["lattice"], nsmall - nf * (1.0 + 1e-12))

        prev = 0.0
        dist0 = grid.distances(np.zeros(grid.n))
        for k in radii:
            fk = GridFunction(grid, np.where(dist0 <= k, f.values, 0.0))
            nk = luxemburg_norm(fk, space)
            worst["fatou-monotone"] = max(worst["fatou-monotone"], prev - nk)
            prev = nk
        worst["fatou-limit"] = max(worst["fatou-limit"],
                                   abs(prev - nf) / max(nf, 1e-300))

        # Bounded box E and the local-integral bound int_E |f| <= C_E ||f||.
        half = float(rng.uniform(grid.h, L / 2.0))
        box = grid.distances(np.zeros(grid.n)) <= half
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

    tols = {
        "homogeneity": 1e-8, "triangle": 1e-8, "lattice": 1e-9,
        "fatou-monotone": 1e-9, "fatou-limit": 1e-8,
        "bounded-indicator": 1e-12, "local-integral": 1e-9, "hoelder": 1e-9,
    }
    return [AxiomResult(name, worst[name], tols[name],
                        worst[name] <= tols[name], trials)
            for name in worst]
