"""Norm-lb runs checked against bounds known independently of the run.

* Constant symbol c: W_Omega(c) = c I, so ||W_Omega(c)|| = |c| in every
  space, and no certified norm lower bound may exceed |c|.
* Unweighted L^2: by discrete Parseval, ||F^-1 a F f||_2 <= max_k |a_k| ||f||_2
  on the grid, and r_Omega only lowers the norm, so no witness ratio may
  exceed sup|a|.

Both hold exactly up to the round-off of the transforms, which the 1e-12
margin of the norm brackets covers; a ratio of two bracket ends that are
not the conservative ones breaks the first.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import (constant_exponent, constant_symbol, constant_weight,
                   gaussian_symbol, half_line, make_grid, norm_lowerbound_experiment,
                   plan_norm_lowerbound, power_weight, sector, smoothed_step_symbol,
                   SpaceSpec, witness)

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def domains(draw):
    """The half-line at 4096 nodes or a sector at 256², with a delta schedule
    whose witnesses fit in it."""
    if draw(st.booleans()):
        return half_line(make_grid(1, 64.0, 4096)), [1.0, 0.5, 0.25]
    alpha1 = draw(st.floats(0.0, 2 * np.pi))
    opening = draw(st.floats(np.pi / 2, np.pi))
    return sector(make_grid(2, 32.0, 256), alpha1, alpha1 + opening), [1.0, 0.5]


@st.composite
def spaces(draw):
    """L^p(Omega, w) with p in [1.2, 4] and a power weight |x|^gamma,
    gamma in [-0.3, 0.6], or a constant weight."""
    omega, schedule = draw(domains())
    g = omega.grid
    p = constant_exponent(g, draw(st.floats(1.2, 4.0)))
    w = (power_weight(g, draw(st.floats(-0.3, 0.6))) if draw(st.booleans())
         else constant_weight(g, draw(st.floats(0.25, 4.0))))
    return SpaceSpec(g, p, w, omega), schedule


def norm_lb(symbol_of, space, schedule):
    a = symbol_of(space.grid)
    return a, norm_lowerbound_experiment(plan_norm_lowerbound(a, space, 2.0, schedule))


def constant_symbol_run(run, c):
    space, schedule = run
    return norm_lb(lambda g: constant_symbol(g, c), space, schedule)[1]


@ORACLE
@given(run=spaces(), c=st.floats(0.1, 2.0))
def test_constant_symbol_certifies_at_most_its_modulus(run, c):
    rep = constant_symbol_run(run, c)
    assert rep.achieved_lower_bound <= abs(c)
    assert rep.chains_passed


def test_upper_end_ratios_break_the_constant_symbol_oracle(monkeypatch):
    # Read with its upper end in the numerator, a ratio of two norms of the
    # same function scaled by c lands above |c| on some of these runs.
    part_norm = witness.part_norm
    monkeypatch.setattr(witness, "part_norm",
                        lambda part, values: (part_norm(part, values)[1],) * 2)
    rng = np.random.default_rng(0)
    g = make_grid(1, 64.0, 4096)
    above = 0
    for _ in range(8):
        c, p = rng.uniform(0.1, 2.0), rng.uniform(1.2, 4.0)
        space = SpaceSpec(g, constant_exponent(g, p), constant_weight(g), half_line(g))
        above += constant_symbol_run((space, [1.0, 0.5, 0.25]), c).achieved_lower_bound > c
    assert above > 0


@st.composite
def l2_symbols(draw):
    """A Gaussian (centre in [-1, 1]^n, so eta need not be 0) or a smoothed
    step, as a builder on a grid."""
    peak = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        centre, sigma = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 4.0))
        return lambda g: gaussian_symbol(g, [centre] * g.n, sigma, peak)
    edge, width = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 1.0))
    low = draw(st.floats(0.0, 0.5))
    return lambda g: smoothed_step_symbol(g, edge, width, low, peak)


@ORACLE
@given(omega=domains(), symbol_of=l2_symbols())
def test_unweighted_l2_ratios_stay_at_most_the_sup_norm(omega, symbol_of):
    omega, schedule = omega
    g = omega.grid
    space = SpaceSpec(g, constant_exponent(g, 2.0), constant_weight(g), omega)
    a, rep = norm_lb(symbol_of, space, schedule)
    assert all(w.ratio <= a.sup_norm for w in rep.witnesses if w.error is None)
