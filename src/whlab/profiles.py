"""Smooth glue, smoothed steps and the radial plateau bump.

Everything here is built from the classical C-infinity glue

    G(t) = exp(-1/t) for t > 0,  G(t) = 0 otherwise,
    g(t) = G(t) / (G(t) + G(1 - t)),

which rises from 0 at t <= 0 to 1 at t >= 1 and satisfies g(1/2) = 1/2.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["glue", "smoothstep", "ramp", "bump_profile"]


def glue(t):
    """G(t) = exp(-1/t) for t > 0, else 0 (vectorized)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t):
    """Normalized C-infinity ramp: 0 for t <= 0, 1 for t >= 1, g(t) between."""
    t = np.asarray(t, dtype=float)
    a = glue(t)
    # t <= 0 gives a = 0 < G(1 - t), t >= 1 gives G(1 - t) = 0 < a: the
    # quotient is exactly 0 or 1 there.  A nan t gives 0/0.
    with np.errstate(invalid="ignore"):
        return a / (a + glue(1.0 - t))


def ramp(x, edge: float, width: float, low: float, high: float):
    """Smoothed step from ``low`` to ``high`` centered at ``edge``; the
    transition zone has full length ``width``."""
    if width <= 0:
        raise ValidationError("transition width must be positive")
    return low + (high - low) * smoothstep((x - edge) / width + 0.5)


def bump_profile(r, rho):
    """Radial plateau bump: 1 for r <= 1, 0 for r >= rho, glued in between.

    The transition uses the normalized glue at t = (rho - r) / (rho - 1), so
    the profile is even in the underlying coordinate, takes values in [0, 1],
    and the plateau/support conditions hold exactly at every evaluation point:
    rounding is monotone, so r <= 1 gives t >= 1 and r >= rho gives t <= 0
    for every finite rho > 1.
    """
    r = np.abs(np.asarray(r, dtype=float))
    return smoothstep((rho - r) / (rho - 1.0))
