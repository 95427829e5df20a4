"""whlab: lower-bound experiments for Wiener-Hopf type operators on
weighted variable Lebesgue spaces over cones.

The package discretizes R^n (n = 1, 2) on a truncated uniform grid,
equips it with Luxemburg norms for X(Omega) = L^{p(.)}(Omega, w), builds
the compression W_Omega(a) = r_Omega F^{-1} a F e_Omega of a Fourier
multiplier to a cone, and runs the constructive witness experiments that
certify, at desk scale,

    sup |a|  <=  ||W_Omega(a)||        (norm lower bound)
    sup |a| / 2  <=  ||W_Omega(a)||_kappa   (noncompactness lower bound,
                                             up to the measured doubling
                                             constant and residual terms)

together with the doubling-constant scans the bounds rest on.
"""

from .errors import DegenerateBallError, NumericFailure, ValidationError
from .grid import (Ball, DomainMask, Grid, GridFunction, ball_indicator,
                   explicit_mask, extend_by_zero, full_space, half_line,
                   make_grid, restrict, sample, sector)
from .spaces import (AxiomResult, ExponentField, SpaceSpec, Weight, associate_space,
                     axiom_check, berezhnoi_ratio, constant_exponent, constant_weight,
                     exponent_from_values, indicator_norm, luxemburg_norm, power_weight,
                     step_exponent, weight_from_values)
from .doubling import (DoublingEntry, DoublingReport, doubling_ratio, plan_tau_scan,
                       plan_weak_doubling, separated_sequence, tau_scan)
from .operators import (Symbol, apply_multiplier, argmax_freq_node,
                        constant_symbol, fourier, gaussian_symbol,
                        inverse_fourier, nearest_freq_node, smoothed_step_symbol,
                        symbol_from_function, symbol_from_values, wiener_hopf_apply)
from .witness import (ExperimentReport, LedgerLine, PairRecord, WitnessPlan,
                      WitnessParams, WitnessRecord, kuratowski_experiment, make_witness,
                      mollification_residual, norm_lowerbound_experiment,
                      place_witness_center, plan_kuratowski, plan_norm_lowerbound)

__version__ = "0.1.0"
