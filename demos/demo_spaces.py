"""Tour of the weighted variable Lebesgue norms.

Shows the Luxemburg norm collapsing to the classical L^p norm for constant
exponents, the split-exponent golden value, how the ball-averaged
norm product separates admissible from inadmissible weights, and the
executable lattice-axiom battery.

Run: python3 demos/demo_spaces.py
"""

import numpy as np

from whlab import (Ball, SpaceSpec, axiom_check, berezhnoi_ratio,
                   constant_exponent, constant_weight, full_space,
                   luxemburg_norm, make_grid, power_weight, sample,
                   step_exponent, weight_from_values)

grid = make_grid(1, 16, 2048)
omega = full_space(grid)
one = constant_weight(grid)

print("== constant exponents: ||chi_[0,2]||_p = 2^(1/p) ==")
chi = sample(lambda x: (x >= 0) & (x < 2), grid)
for p0 in (1.5, 2.0, 3.0):
    space = SpaceSpec(grid, constant_exponent(grid, p0), one, omega)
    val = luxemburg_norm(chi, space)
    print(f"  p = {p0}: {val:.8f}   (exact {2 ** (1 / p0):.8f})")

print("\n== split exponent p = 2 (x<0) / 3 (x>=0) ==")
space = SpaceSpec(grid, step_exponent(grid, 2.0, 3.0), one, omega)
chi11 = sample(lambda x: (x >= -1) & (x < 1), grid)
val = luxemburg_norm(chi11, space)
print(f"  ||chi_[-1,1]|| = {val:.8f}")
print(f"  the real root of lam^3 - lam - 1 = 0 is ~1.32471796; the norm")
print(f"  solves lam^-2 + lam^-3 = 1, the same equation rearranged")

print("\n== ball-averaged norm products over dyadic balls ==")
radii = (1.0, 2.0, 4.0, 8.0)
weights = {
    "w = 1          ": one,
    "w = |x|^0.2    ": power_weight(grid, 0.2),
    "w = e^|x|      ": weight_from_values(grid, np.exp(np.abs(grid.x_axis))),
}
print(f"  {'weight':16s}" + "".join(f"R={R:<8g}" for R in radii))
for name, w in weights.items():
    space = SpaceSpec(grid, constant_exponent(grid, 2), w, omega)
    row = [berezhnoi_ratio(Ball((0.0,), R), space) for R in radii]
    print(f"  {name}" + "".join(f"{v:<10.4f}" for v in row))
print("  flat rows stay admissible; the exponential weight blows up.")

print("\n== the weighted bracket agrees with the classical one ==")
val = berezhnoi_ratio(Ball((0.0,), 1.0), SpaceSpec(
    grid, constant_exponent(grid, 2), power_weight(grid, 0.2), full_space(grid)))
exact = 0.5 * np.sqrt(2 / 1.4) * np.sqrt(2 / 0.6)
print(f"  gamma = 0.2, p = 2, B(0,1): {val:.6f}  (closed form {exact:.6f})")

print("\n== axiom battery on L^{p(.)}(R, |x|^0.2), p = 2/3 split ==")
space = SpaceSpec(grid, step_exponent(grid, 2.0, 3.0), power_weight(grid, 0.2),
                  omega)
for res in axiom_check(space, trials=50, seed=1):
    print(f"  {res.name:18s} worst={res.worst: .2e}  "
          f"{'PASS' if res.passed else 'FAIL'}")
