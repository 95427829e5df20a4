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

# the public API: the __all__ of each layer
from .errors import *
from .grid import *
from .spaces import *
from .doubling import *
from .operators import *
from .witness import *

__version__ = "0.1.0"
