"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from whlab import (Ball, GridFunction, SpaceSpec, axiom_check,
                   berezhnoi_ratio, constant_exponent,
                   constant_symbol, constant_weight, doubling_ratio,
                   full_space, gaussian_symbol, half_line,
                   kuratowski_experiment, luxemburg_norm, make_grid,
                   norm_lowerbound_experiment,
                   plan_kuratowski, plan_norm_lowerbound, plan_tau_scan,
                   power_weight, sample,
                   smoothed_step_symbol, step_exponent, tau_scan,
                   weight_from_values, WitnessParams)


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def passed(n, msg):
    print(f"criterion {n} PASS: {msg}")


def l2(grid, weight=None, domain=None):
    return SpaceSpec(grid, constant_exponent(grid, 2),
                     weight if weight is not None else constant_weight(grid),
                     domain if domain is not None else full_space(grid))


def criterion4_space(grid):
    return SpaceSpec(grid, step_exponent(grid, 2.0, 2.5),
                     power_weight(grid, 0.1), half_line(grid))


def test_criterion_1_luxemburg_reduces_to_lp():
    with Timer() as t:
        g = make_grid(1, 16, 1024)
        om = full_space(g)
        chi = sample(lambda x: (x >= 0) & (x < 2), g)
        for p0 in (1.5, 2.0, 3.0):
            S = SpaceSpec(g, constant_exponent(g, p0), constant_weight(g), om)
            val = luxemburg_norm(chi, S)
            assert val == pytest.approx(2.0 ** (1.0 / p0), rel=0.01)
    assert t.elapsed < 1.0
    passed(1, f"||chi_[0,2]||_p = 2^(1/p) within 1% for p in {{1.5,2,3}} "
              f"({t.elapsed:.2f}s)")


def test_criterion_2_variable_exponent_golden_value():
    with Timer() as t:
        root = brentq(lambda lam: lam ** 3 - lam - 1.0, 1.0, 2.0)
        g = make_grid(1, 16, 1024)
        S = SpaceSpec(g, step_exponent(g, 2.0, 3.0), constant_weight(g),
                      full_space(g))
        chi = sample(lambda x: (x >= -1) & (x < 1), g)
        val = luxemburg_norm(chi, S)
        assert val == pytest.approx(root, rel=0.01)
    assert t.elapsed < 1.0
    passed(2, f"split-exponent norm {val:.6f} matches the root {root:.6f} "
              f"of lam^3-lam-1 within 1% ({t.elapsed:.2f}s)")


def test_criterion_3_plancherel_chain(norm_probe, witness_on_grid):
    with Timer() as t:
        g = make_grid(1, 64, 4096)
        om = full_space(g)
        S = l2(g)
        a = gaussian_symbol(g, 0.0, 2.0, 1.0)
        rep = norm_lowerbound_experiment(plan_norm_lowerbound(a, S, 2.0, [0.25, 0.125]))
        witness_probes = [
            GridFunction(g, np.exp(1j * rep.eta[0] * g.x_axis)
                         * witness_on_grid(WitnessParams(w.delta, w.y, 2.0, om)).values)
            for w in rep.witnesses if w.error is None
        ]
        rng = np.random.default_rng(12)
        random_probes = [
            sample(lambda x, s=s: np.exp(-((x - s) / 4.0) ** 2)
                   * np.exp(1j * 0.1 * s * x), g)
            for s in rng.uniform(-20, 20, 10)
        ]
        ratios = [norm_probe(a, S, [u]) for u in witness_probes + random_probes]
        best_witness = norm_probe(a, S, witness_probes)
        assert best_witness >= 0.95
        assert all(r <= 1.0 + 1e-6 for r in ratios)
    assert t.elapsed < 5.0
    passed(3, f"witness probes reach {best_witness:.4f} >= 0.95 and no probe "
              f"exceeds 1+1e-6 ({t.elapsed:.2f}s)")


def test_criterion_4_norm_lower_bound_weighted_variable():
    with Timer() as t:
        g = make_grid(1, 256, 8192)
        om = half_line(g)
        S = criterion4_space(g)
        a = gaussian_symbol(g, 0.0, 2.0, 1.0)
        rep = norm_lowerbound_experiment(
            plan_norm_lowerbound(a, S, 2.0, [0.25, 0.125, 0.0625]))
        assert all(w.error is None for w in rep.witnesses)
        assert rep.achieved_lower_bound >= 0.90 * a.sup_norm
        chains = [ln for ln in rep.ledger if ln.name.startswith("plateau-chain")]
        assert len(chains) == 3
        assert all(ln.passed for ln in chains)
    assert t.elapsed < 30.0
    passed(4, f"achieved {rep.achieved_lower_bound:.4f} >= 0.90 sup|a| with the "
              f"plateau chain passing at deltas 1/4, 1/8, 1/16 ({t.elapsed:.2f}s)")


def test_criterion_5_kappa_lower_bound():
    with Timer() as t:
        g = make_grid(1, 32768, 2 ** 18)
        om = half_line(g)
        S = criterion4_space(g)
        a = gaussian_symbol(g, 0.0, 2.0, 1.0)
        rep = kuratowski_experiment(plan_kuratowski(a, S, 2.0, 0.25, 8.0, 4, y0=4.0))
        assert rep.family_size == 4
        assert rep.kappa_lower_bound >= 0.85 * rep.a_eta_abs
        pairwise = [ln for ln in rep.ledger if ln.name.startswith("pairwise-chain")]
        assert len(pairwise) == 6
        assert all(ln.passed for ln in pairwise)
        assert rep.kappa_half >= 0.425 * rep.a_eta_abs
    assert t.elapsed < 60.0
    passed(5, f"kappa_lb {rep.kappa_lower_bound:.4f} >= 0.85 |a(eta)|, all 6 "
              f"pairwise chains pass, half-bound {rep.kappa_half:.4f} >= 0.425 "
              f"({t.elapsed:.2f}s)")


def test_criterion_6_doubling_analytics():
    # n = 1, constant p = 2: ratio = tau^{1/2} within 3%
    g1 = make_grid(1, 16, 4096)
    S1 = l2(g1)
    for tau in (1.1, 1.5, 2.0, 4.0):
        assert doubling_ratio(3.0, 0.9, tau, S1) == pytest.approx(tau ** 0.5, rel=0.03)
    # n = 2, N = 256: ratio = tau^{2/p} = tau within 5%
    g2 = make_grid(2, 4, 256)
    S2 = l2(g2)
    for tau in (1.1, 1.5, 2.0, 4.0):
        assert doubling_ratio((0.0, 0.0), 0.4, tau, S2) == pytest.approx(tau, rel=0.05)
    # power weight gamma = 0.2, origin-centered: tau^{0.7} within 3%
    Sw = l2(g1, weight=power_weight(g1, 0.2))
    for tau in (1.1, 1.5, 2.0, 4.0):
        assert doubling_ratio(0.0, 0.9, tau, Sw) == pytest.approx(tau ** 0.7, rel=0.03)
    passed(6, "doubling ratios match tau^{1/2} (n=1), tau (n=2, p=2) and "
              "tau^{0.7} (gamma=0.2) at their stated tolerances")


def test_criterion_7_tau_trend():
    taus = [4.0, 2.0, 1.5, 1.1]
    g = make_grid(1, 32, 16384)
    configs = {
        "constant p=2": l2(g, domain=half_line(g)),
        "power weight 0.2": l2(g, weight=power_weight(g, 0.2),
                               domain=half_line(g)),
    }
    for name, S in configs.items():
        reps = tau_scan(S, *plan_tau_scan(S.domain, taus, theta=0.125, lam=4.0,
                                          m=3, y0=0.25))
        d_ests = [r.d_est for r in reps]
        s_ests = [r.s_est for r in reps]
        assert all(b < a for a, b in zip(d_ests, d_ests[1:])), name
        assert all(b < a for a, b in zip(s_ests, s_ests[1:])), name
        assert d_ests[-1] <= 1.06, name
    passed(7, "D_est and S_est decrease strictly along tau 4 -> 1.1 with "
              f"D_est(1.1) <= 1.06 on both scan configs")


def test_criterion_8_berezhnoi_muckenhoupt_discrimination():
    g = make_grid(1, 16, 2048)
    om = full_space(g)
    radii = (1.0, 2.0, 4.0, 8.0)
    # constant-p unweighted: ratio = 1 within 3% over the dyadic sweep
    for p0 in (1.5, 2.0, 3.0):
        S = SpaceSpec(g, constant_exponent(g, p0), constant_weight(g), om)
        for R in radii:
            assert berezhnoi_ratio(Ball((0.0,), R), S) == pytest.approx(1.0, rel=0.03)
    # exponential weight: strictly increasing, last/first at least 5
    Se = l2(g, weight=weight_from_values(g, np.exp(np.abs(g.x_axis))))
    sweep = [berezhnoi_ratio(Ball((0.0,), R), Se) for R in radii]
    assert all(b > a for a, b in zip(sweep, sweep[1:]))
    assert sweep[-1] / sweep[0] >= 5.0
    # A_p-range power weight: bounded sweep, max/min at most 1.2
    Sp = l2(g, weight=power_weight(g, 0.2))
    sweep_p = [berezhnoi_ratio(Ball((0.0,), R), Sp) for R in radii]
    assert max(sweep_p) / min(sweep_p) <= 1.2
    passed(8, f"unweighted ratio = 1 within 3%; e^|x| sweep grows "
              f"{sweep[-1] / sweep[0]:.0f}x; power-weight sweep spread "
              f"{max(sweep_p) / min(sweep_p):.3f} <= 1.2")


def acceptance_spaces():
    g = make_grid(1, 16, 1024)
    om = full_space(g)
    one = constant_weight(g)
    out = {}
    for p0 in (1.5, 2.0, 3.0):
        out[f"L^{p0}(R)"] = SpaceSpec(g, constant_exponent(g, p0), one, om)
    out["L^{2/3}(R)"] = SpaceSpec(g, step_exponent(g, 2.0, 3.0), one, om)
    out["L^{p(.)}(R_+,|x|^0.1)"] = SpaceSpec(g, step_exponent(g, 2.0, 2.5),
                                             power_weight(g, 0.1), half_line(g))
    out["L^2(|x|^0.2)"] = SpaceSpec(g, constant_exponent(g, 2),
                                    power_weight(g, 0.2), om)
    out["L^2(e^|x|)"] = SpaceSpec(g, constant_exponent(g, 2),
                                  weight_from_values(g, np.exp(np.abs(g.x_axis))), om)
    return out


def test_criterion_9_axiom_suite():
    failures = []
    for name, S in acceptance_spaces().items():
        for res in axiom_check(S, trials=100, seed=2024):
            if not res.passed:
                failures.append((name, res.name, res.worst))
    assert failures == []
    passed(9, "homogeneity/triangle, lattice and Fatou-by-truncation pass on "
              "100 seeded random functions in each acceptance space")


def test_criterion_10_corollary_probe():
    g = make_grid(1, 256, 8192)
    om = half_line(g)
    S = l2(g, domain=om)
    fam = dict(rho=2.0, theta=0.25, lam=4.0, m=3, y0=1.0)
    symbols = {
        "gaussian": gaussian_symbol(g, 0.0, 2.0, 1.0),
        "constant 0.7": constant_symbol(g, 0.7),
        "smoothed step": smoothed_step_symbol(g, edge=-5.0),
    }
    for name, a in symbols.items():
        assert a.sup_norm >= 0.5
        rep = kuratowski_experiment(plan_kuratowski(a, S, **fam))
        assert rep.kappa_lower_bound >= 0.4, name
    zero = constant_symbol(g, 0.0)
    repk = kuratowski_experiment(plan_kuratowski(zero, S, **fam))
    repn = norm_lowerbound_experiment(
        plan_norm_lowerbound(zero, S, 2.0, [0.25, 0.125]))
    outputs = [repk.kappa_lower_bound, repk.eps_obs, repn.eps_obs,
               repn.achieved_lower_bound]
    outputs += [p.distance for p in repk.pairs]
    outputs += [w.ratio for w in repn.witnesses if w.error is None]
    assert all(abs(v) <= 1e-8 for v in outputs)
    passed(10, "kappa_lb >= 0.4 for every symbol with sup|a| >= 0.5; the zero "
               "symbol leaves every output below 1e-8")
