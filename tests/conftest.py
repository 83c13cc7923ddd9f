"""Shared fixtures and dense oracles."""

import numpy as np
import pytest
from scipy.special import logsumexp

from spinflip.dynamics import CustomRates
from spinflip.gibbs import probs_of
from spinflip.lattice import Torus


def log_exponential_moment(mu, values: np.ndarray):
    """log E_mu e^{v - E_mu v}, log-sum-exp stabilized.  values may stack
    functions on leading axes, giving an array over those axes; one row
    gives a float."""
    probs = probs_of(mu)
    values = np.asarray(values, dtype=float)
    out = logsumexp(values - (values @ probs)[..., None], b=probs, axis=-1)
    return out if values.ndim > 1 else float(out)


def variance(mu, values: np.ndarray) -> float:
    probs = probs_of(mu)
    values = np.asarray(values, dtype=float)
    mean = float(probs @ values)
    return max(float(probs @ (values - mean) ** 2), 0.0)


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
