"""Lower-bounding the Kuratowski seminorm of W_Omega(a).

Normalized witnesses riding a separated ball family have pairwise
operator-image distances that cannot drop below |a(eta)| divided by the
family's doubling constant (minus residual terms).  An infinite such
family would pin the measure of noncompactness; a finite one exhibits the
separation, and half the minimum distance is the reported bound against
the theoretical target of sup|a| / 2.

Run: python3 demos/demo_kappa.py
"""

from decimal import ROUND_FLOOR, Decimal

from whlab import (SpaceSpec, gaussian_symbol, half_line, kuratowski_experiment,
                   make_grid, plan_kuratowski, power_weight, step_exponent)


def down(x: float) -> Decimal:
    """x at 6 decimals rounded toward -inf, so a printed lower bound is one too."""
    return Decimal(x).quantize(Decimal("1e-6"), ROUND_FLOOR)


grid = make_grid(1, 32768, 2 ** 18)
omega = half_line(grid)
space = SpaceSpec(grid, step_exponent(grid, 2.0, 2.5), power_weight(grid, 0.1),
                  omega)
symbol = gaussian_symbol(grid, center=0.0, sigma=2.0, peak=1.0)

# the family's balls B(y_j, R_j) are the witness plateaus, delta_j = 1/R_j
plan = plan_kuratowski(symbol, space, rho=2.0, theta=0.25, lam=8.0, m=4, y0=4.0)
print("separated family (inflations pairwise disjoint in R_+):")
for j, params in enumerate(plan.witnesses):
    print(f"  ball {j}: center {params.y[0]:>6g}, radius {1 / params.delta:>5g}")

report = kuratowski_experiment(plan)

print(f"\nmeasured family doubling constant S_est = {report.doubling_estimate:.4f}")
print(f"worst residual eps = {report.eps_obs:.2e}")
print("pairwise image distances ||W(phi_j - phi_k)||:")
for p in report.pairs:
    print(f"  d[{p.j},{p.k}] = {p.distance:.6f}  "
          f"(certified floor {p.bound:.4f})  "
          f"{'PASS' if p.passed else 'FAIL'}")

print(f"\nkappa lower bound   = {down(report.kappa_lower_bound)}")
print(f"reported half-bound = {down(report.kappa_half)}  "
      f"(theory target: sup|a|/2 = {report.sup_norm / 2:g}, "
      f"family size {report.family_size})")
