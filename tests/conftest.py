"""Shared fixtures."""

import pytest

from spinflip.dynamics import CustomRates
from spinflip.lattice import Torus


@pytest.fixture
def weighted_cycle():
    """c(i, sigma) = 1 + a_i sigma_{i+1} on a ring of 4 sites: not
    translation invariant, and Gamma is a weighted cyclic shift with unequal
    weights, so it is not normal."""
    n = 4
    weights = (0.1, 0.3, 0.05, 0.2)
    return CustomRates(
        Torus((n,)),
        lambda i: (i, (i + 1) % n),
        lambda i, s: 1.0 + weights[i] * (1.0 if s >> ((i + 1) % n) & 1 else -1.0),
    )
