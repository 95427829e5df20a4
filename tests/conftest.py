import numpy as np
import pytest

from whlab import (GridFunction, ValidationError, luxemburg_norm, make_witness,
                   wiener_hopf_apply)


@pytest.fixture
def norm_probe():
    """max over probes of ||W_Omega(a) u||_X(Omega) / ||u||_X(Omega), with
    Omega the domain of the space: a lower bound for the operator norm,
    never an upper bound.  Probes that vanish on Omega are skipped; if all
    vanish, that is an error."""
    def probe(a, space, probes):
        ratios = []
        for u in probes:
            denom = luxemburg_norm(u, space)
            if denom != 0.0:
                image = wiener_hopf_apply(a, space.domain, u)
                ratios.append(luxemburg_norm(image, space) / denom)
        if not ratios:
            raise ValidationError("all probes vanish on Omega")
        return max(ratios)
    return probe


@pytest.fixture(scope="session")
def witness_on_grid():
    """make_witness(params) on the whole grid: its values on its window, 0 elsewhere."""
    def on_grid(params):
        window, values = make_witness(params)
        out = np.zeros(params.domain.grid.shape, dtype=complex)
        out[window] = values
        return GridFunction(params.domain.grid, out)
    return on_grid
