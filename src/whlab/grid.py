"""Truncated uniform grids on R^n (n in {1, 2}), sampled functions,
domain masks for cones, and the restriction / extension-by-zero pair.

Conventions
-----------
The grid covers the periodic box [-L, L)^n with N nodes per axis,
node spacing h = 2L/N and node coordinates x_m = -L + m h.  The matching
frequency nodes are xi_k = pi k / L, listed in FFT order, the order that
``np.fft.fftn`` writes: k = 0 .. N/2 - 1, then -N/2 .. -1, so node k sits at
index k mod N (Frigo and Johnson, Proc. IEEE 93, 2005).
Ball and mask membership is tested at node centers with strict
inequalities; boundary precision is deliberately traded for an
unambiguous rule.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBallError, ValidationError

__all__ = [
    "Grid",
    "GridFunction",
    "Ball",
    "DomainMask",
    "make_grid",
    "sample",
    "restrict",
    "extend_by_zero",
    "ball_indicator",
    "full_space",
    "half_line",
    "sector",
    "explicit_mask",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L)^n with 2L-periodic FFT pairing.

    Parameters
    ----------
    n : int
        Dimension, 1 or 2.
    half_width : float
        L > 0; the box is [-L, L)^n.
    points : int
        Nodes per axis; an even power of two, at least 8.
    """

    n: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError(f"dimension must be 1 or 2, got {self.n}")
        N = self.points
        if N < 8 or (N & (N - 1)) != 0:
            raise ValidationError(
                f"points must be a power of two >= 8, got {N}")
        limit = np.iinfo(np.intp).max // 16  # bytes per complex sample
        if int(N) ** self.n > limit:
            raise ValidationError(
                f"points ** n = 2**{self.n * (int(N).bit_length() - 1)} exceeds "
                f"{limit}, the most complex samples numpy can index")
        h = 2.0 * self.half_width / N
        try:
            cell_volume = h ** self.n
        except OverflowError:
            cell_volume = math.inf
        if not (h > 0.0 and np.finfo(float).tiny <= cell_volume < math.inf):
            raise ValidationError(
                "half_width must be positive, with a grid spacing h = 2 half_width "
                "/ points whose cell volume h^n is a positive normal float "
                f"(got h = {h:g}, h^n = {cell_volume:g})")
        x_axis = -self.half_width + h * np.arange(N)
        xi_axis = (math.pi / self.half_width) * np.fft.fftfreq(N, 1.0 / N)  # k: 1/N is exact
        x_axis.flags.writeable = False
        xi_axis.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "cell_volume", cell_volume)
        object.__setattr__(self, "x_axis", x_axis)
        object.__setattr__(self, "xi_axis", xi_axis)

    @property
    def shape(self):
        return (self.points,) * self.n

    @property
    def node_count(self):
        return self.points ** self.n

    def _mesh(self, axis: np.ndarray) -> tuple:
        """The open mesh of the product grid of ``axis``: one array per
        axis, broadcastable to ``shape``."""
        return np.ix_(*[axis] * self.n)

    def coords(self):
        """Node coordinate arrays, one per axis, broadcastable to ``shape``."""
        return self._mesh(self.x_axis)

    def freq_coords(self):
        """Frequency node arrays in FFT order, broadcastable to ``shape``."""
        return self._mesh(self.xi_axis)

    def window(self, center, radius: float = math.inf):
        """``(slices, dist)``: the bounding box of B(center, radius), one
        slice per axis over the nodes with |x_i - c_i| < radius, and the
        node distances to ``center`` on it.  The box is exact: a node outside
        it lies at distance >= |x_i - c_i| >= radius.  A rounded subtraction
        is monotone, so -radius < x_i - c_i < radius holds on one index range,
        found by two bisections: O(log N) per axis."""
        c = as_point(center, self.n)
        axis = self.x_axis
        bounds = [(bisect.bisect_right(axis, -radius, key=lambda v: v - ci),
                   bisect.bisect_left(axis, radius, key=lambda v: v - ci)) for ci in c]
        slices = tuple(slice(lo, hi) if lo < hi else slice(0, 0) for lo, hi in bounds)
        axes = np.ix_(*(axis[s] for s in slices))  # open mesh, no copy
        offsets = [x - ci for x, ci in zip(axes, c)]
        return slices, (np.abs(offsets[0]) if self.n == 1 else np.hypot(*offsets))


def as_point(y, n: int) -> np.ndarray:
    """Normalize a scalar / sequence to a finite length-n float point."""
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if arr.shape != (n,):
        raise ValidationError(f"expected a point in R^{n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"expected a finite point, got {arr.tolist()}")
    return arr


def _node_values(values, grid: Grid, dtype, what: str) -> np.ndarray:
    """The storage rule of every per-node type: ``values`` as a read-only
    ``dtype`` array of the grid's shape that the type owns.  It is a copy, so
    a later write to the caller's array, which stays writable, changes
    neither the stored values nor anything the type derived from them.  The
    one array stored as it is is a read-only ``dtype`` array that owns its
    data: its maker handed it over (:func:`_handed_over`).  A real ``dtype``
    (float or bool) rejects a nonzero imaginary part; ``what`` names the
    values."""
    vals = np.asarray(values)
    if dtype is not complex and np.iscomplexobj(vals) and np.any(vals.imag != 0.0):
        raise ValidationError(f"{what} must be real")
    if vals.shape != grid.shape:
        raise ValidationError(
            f"{what} have shape {vals.shape}, not the grid's {grid.shape}")
    if dtype is not complex:
        vals = vals.real
    if vals.flags.writeable or not vals.flags.owndata or vals.dtype != dtype:
        vals = np.array(vals, dtype=dtype)
        vals.flags.writeable = False
    return vals


def _handed_over(values: np.ndarray) -> np.ndarray:
    """A new array that a builder made and hands to a per-node type,
    read-only, so that :func:`_node_values` stores it without a copy."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Validated complex samples, one per grid node; no arithmetic."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _node_values(self.values, self.grid, complex, "grid function values")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("grid function values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball B(y, R); node membership is |x - y| < R."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        object.__setattr__(self, "center", c)
        if not (self.radius > 0):
            raise ValidationError("ball radius must be positive")

    def in_box(self, half: float) -> bool:
        """The box rule: the ball lies in [-half, half]^n, |c| + R <= half."""
        return all(abs(c) + self.radius <= half for c in self.center)


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Per-node indicator of the domain Omega, with the continuum geometry
    of the cone it samples.

    ``distance(y)`` is the continuum distance from y to the complement of
    Omega, nonpositive when y lies outside; ``ray`` is the unit central ray.
    A domain with no continuum boundary (the full space, an explicit mask)
    has distance +inf and ray e_1, so its containment is decided on its nodes.
    """

    grid: Grid
    inside: np.ndarray
    distance: Callable[[np.ndarray], float]
    ray: tuple

    def __post_init__(self):
        ins = _node_values(self.inside, self.grid, bool, "domain mask values")
        if not ins.any():
            raise ValidationError("domain mask selects no node")
        object.__setattr__(self, "inside", ins)

    def clearance(self, y) -> float:
        """Continuum distance from y to the complement of Omega, nonpositive
        when y lies outside Omega.  Every distance rule is a cone's, vertex at
        the origin, so ``clearance(t * y) == t * clearance(y)`` for t > 0.
        """
        return self.distance(as_point(y, self.grid.n))

    def contains_ball(self, ball: Ball) -> bool:
        """True iff the ball lies inside Omega: its radius is at most the
        continuum clearance of its center and every node of the ball lies
        inside the mask."""
        if self.clearance(ball.center) < ball.radius:
            return False
        window, member = _ball_nodes(ball, self.grid)
        return bool(np.all(self.inside[window][member]))


def make_grid(n: int, half_width: float, points: int) -> Grid:
    """Build the truncated uniform grid; see :class:`Grid` for invariants.  The
    counts ``n`` and ``points`` may be integral floats such as 2.0."""
    for name, count in (("n", n), ("points", points)):
        if isinstance(count, (bool, np.bool_)) or count % 1 != 0:
            raise ValidationError(f"{name} must be an integer, got {count!r}")
    return Grid(n=int(n), half_width=float(half_width), points=int(points))


def sample(expr, grid: Grid) -> GridFunction:
    """Evaluate a pointwise rule on the nodes.

    ``expr`` receives one coordinate array per axis (an open mesh) and must
    return finite values broadcastable to the grid shape.
    """
    raw = expr(*grid.coords())
    return GridFunction(grid, np.broadcast_to(np.asarray(raw, dtype=complex), grid.shape))


def restrict(u: GridFunction, omega: DomainMask) -> GridFunction:
    """r_Omega embedded in the full grid: zero the values outside Omega."""
    if u.grid != omega.grid:
        raise ValidationError("grid mismatch between function and mask")
    return GridFunction(u.grid, np.where(omega.inside, u.values, 0.0))


def extend_by_zero(u: GridFunction, omega: DomainMask) -> GridFunction:
    """e_Omega at node level: identical action to :func:`restrict`.

    Both operators multiply by the indicator of Omega, so their composition
    is exactly multiplication by chi_Omega node-wise.
    """
    return restrict(u, omega)


def _ball_nodes(ball: Ball, grid: Grid) -> tuple:
    """The ball's window (:meth:`Grid.window`) and the node membership
    |x - y| < R on it; raises when the ball holds no node."""
    window, dist = grid.window(ball.center, ball.radius)
    member = dist < ball.radius
    if not member.any():
        raise DegenerateBallError(
            f"ball B({ball.center}, {ball.radius}) contains no grid node")
    return window, member


def ball_indicator(ball: Ball, grid: Grid) -> GridFunction:
    """0/1 samples of the open ball; errors when no node is inside."""
    window, member = _ball_nodes(ball, grid)
    vals = np.zeros(grid.shape, dtype=complex)
    vals[window] = member
    return GridFunction(grid, vals)


def full_space(grid: Grid) -> DomainMask:
    return DomainMask(grid, np.ones(grid.shape, dtype=bool),
                      lambda y: math.inf, (1.0,) + (0.0,) * (grid.n - 1))


def half_line(grid: Grid) -> DomainMask:
    """Omega = {x >= 0} on a one-dimensional grid."""
    if grid.n != 1:
        raise ValidationError("half-line masks require n = 1")
    return DomainMask(grid, grid.x_axis >= 0.0, lambda y: float(y[0]), (1.0,))


def sector(grid: Grid, alpha1: float, alpha2: float) -> DomainMask:
    """Open planar cone with angular interval (alpha1, alpha2).

    Membership is decided from the signs of cross products against the edge
    directions, which makes the mask exactly invariant under positive
    scaling of node coordinates.  Requires 0 < alpha2 - alpha1 <= 2 pi.
    """
    if grid.n != 2:
        raise ValidationError("sector masks require n = 2")
    alpha1, alpha2 = float(alpha1), float(alpha2)
    aperture = alpha2 - alpha1
    if not (0.0 < aperture <= 2.0 * math.pi + 1e-12):
        raise ValidationError("sector aperture must lie in (0, 2*pi]")
    x1, x2 = grid.coords()
    # d1 > 0: strictly counterclockwise of the alpha1 edge;
    # d2 > 0: strictly clockwise of the alpha2 edge.
    d1 = -math.sin(alpha1) * x1 + math.cos(alpha1) * x2
    d2 = math.sin(alpha2) * x1 - math.cos(alpha2) * x2
    if aperture >= 2.0 * math.pi - 1e-12:
        # Slit plane: exclude only the closed edge ray (and the origin).
        along = math.cos(alpha1) * x1 + math.sin(alpha1) * x2
        inside = ~((d1 == 0.0) & (along >= 0.0))
    elif aperture > math.pi:
        inside = (d1 > 0.0) | (d2 > 0.0)
    else:
        inside = (d1 > 0.0) & (d2 > 0.0)

    def clearance(y: np.ndarray) -> float:
        r = math.hypot(y[0], y[1])
        if r == 0.0:
            return 0.0
        theta = math.atan2(y[1], y[0])
        past1 = (theta - alpha1) % (2.0 * math.pi)
        before2 = (alpha2 - theta) % (2.0 * math.pi)
        if past1 > aperture or before2 > aperture:
            return -r  # outside the sector
        return r * math.sin(min(past1, before2, 0.5 * math.pi))

    psi = 0.5 * (alpha1 + alpha2)
    return DomainMask(grid, inside, clearance, (math.cos(psi), math.sin(psi)))


def explicit_mask(grid: Grid, inside) -> DomainMask:
    """Omega given by its nodes alone, with the geometry of :func:`full_space`."""
    return DomainMask(grid, inside, lambda y: math.inf, (1.0,) + (0.0,) * (grid.n - 1))
