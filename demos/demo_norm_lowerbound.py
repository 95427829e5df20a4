"""Certifying sup|a| <= ||W_Omega(a)|| with modulated bump witnesses.

A witness e^{i eta x} phi(delta (x - y)) concentrates its spectrum near
eta, so the compression W_Omega(a) acts on it like multiplication by
a(eta) up to a measured residual.  Shrinking delta drives the witness
ratio ||W f|| / ||f|| up toward sup|a| -- on a weighted variable-exponent
space over the half-line, far beyond where classical Plancherel arguments
apply.

Run: python3 demos/demo_norm_lowerbound.py
"""

from decimal import ROUND_FLOOR, Decimal

from whlab import (SpaceSpec, gaussian_symbol, half_line, make_grid,
                   norm_lowerbound_experiment, plan_norm_lowerbound,
                   power_weight, step_exponent)


def down(x: float) -> Decimal:
    """x at 6 decimals rounded toward -inf, so a printed lower bound is one too."""
    return Decimal(x).quantize(Decimal("1e-6"), ROUND_FLOOR)


grid = make_grid(1, 256, 8192)
omega = half_line(grid)
space = SpaceSpec(grid, step_exponent(grid, 2.0, 2.5), power_weight(grid, 0.1),
                  omega)
symbol = gaussian_symbol(grid, center=0.0, sigma=2.0, peak=1.0)

print("X = L^{p(.)}(R_+, |x|^0.1) with p stepping 2 -> 2.5 across 0")
print(f"symbol: gaussian, sup|a| = {symbol.sup_norm:g}\n")

plan = plan_norm_lowerbound(symbol, space, rho=2.0,
                            delta_schedule=[0.25, 0.125, 0.0625])
report = norm_lowerbound_experiment(plan)

print(f"probed eta = {report.eta[0]:g}, |a(eta)| = {report.a_eta_abs:g}")
print(f"{'delta':>8s} {'center':>8s} {'ratio':>10s} {'residual':>10s}")
for w in report.witnesses:
    print(f"{w.delta:8.4f} {w.y[0]:8.0f} {w.ratio:10.6f} {w.residual:10.2e}")

print(f"\nachieved lower bound: {down(report.achieved_lower_bound)}"
      f"  (target: sup|a| = {report.sup_norm:g})")
print("every link of the certifying chain, re-derived numerically:")
for line in report.ledger:
    if line.name.startswith("plateau-chain"):
        print(f"  {line.name}: {line.lhs:.4f} <= {line.rhs:.4f}  "
              f"{'PASS' if line.passed else 'FAIL'}")
