"""Doubling constants over balls and cone ray families.

Shows the analytic ratio tau^{n/p} for flat spaces, the weighted shift
tau^{gamma + 1/p} at the origin, the construction of a separated ball
family along the half-line, and the trend of both estimates as tau drops
toward 1.

Run: python3 demos/demo_doubling.py
"""

from whlab import (SpaceSpec, constant_exponent, constant_weight, full_space,
                   doubling_ratio, half_line, make_grid, power_weight,
                   separated_sequence, tau_scan)

grid = make_grid(1, 16, 4096)
omega = full_space(grid)
flat = SpaceSpec(grid, constant_exponent(grid, 2), constant_weight(grid), omega)
weighted = SpaceSpec(grid, constant_exponent(grid, 2), power_weight(grid, 0.2),
                     omega)

print("== doubling ratios vs the analytic values ==")
print(f"  {'tau':>5s} {'flat (tau^0.5)':>16s} {'|x|^0.2 at 0 (tau^0.7)':>24s}")
for tau in (1.1, 1.5, 2.0, 4.0):
    r_flat = doubling_ratio(3.0, 0.9, tau, flat)
    r_w = doubling_ratio(0.0, 0.9, tau, weighted)
    print(f"  {tau:5.2f} {r_flat:8.4f} ({tau ** 0.5:.4f})"
          f"  {r_w:10.4f} ({tau ** 0.7:.4f})")

print("\n== separated family along the half-line ==")
big = make_grid(1, 256, 8192)
homega = half_line(big)
family = separated_sequence(homega, tau=2.0, theta=0.25, lam=4.0, m=3, y0=1.0)
for j, (y, R) in enumerate(family):
    lo, hi = y[0] - 2 * R, y[0] + 2 * R
    print(f"  ball {j}: center {y[0]:g}, radius {R:g}, inflation ({lo:g}, {hi:g})")
print("  inflations are pairwise disjoint and stay inside the half-line.")

hspace = SpaceSpec(big, constant_exponent(big, 2), constant_weight(big), homega)
report = tau_scan(hspace, [2.0], 0.25, 4.0, 3, y0=1.0)[0]
print(f"  S_est = {report.s_est:.4f} over the family "
      f"(analytic 2^0.5 = {2 ** 0.5:.4f}); "
      f"disjointness recheck: {report.disjointness_verified}")

print("\n== both estimates sink toward 1 as tau does ==")
scan_grid = make_grid(1, 32, 16384)
scan_space = SpaceSpec(scan_grid, constant_exponent(scan_grid, 2),
                       constant_weight(scan_grid), half_line(scan_grid))
scan = tau_scan(scan_space, [4.0, 2.0, 1.5, 1.1],
                theta=0.125, lam=4.0, m=3, y0=0.25)
print(f"  {'tau':>5s} {'D_est':>8s} {'S_est':>8s}")
for r in scan:
    print(f"  {r.tau:5.2f} {r.d_est:8.4f} {r.s_est:8.4f}")
