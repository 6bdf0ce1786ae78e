"""Shared fixtures and small builders used across the test suite."""

import datetime

import numpy as np
import pytest

from quantfolio.market_data import ReturnsMatrix
from quantfolio.priors import Prior

START = datetime.date(2020, 1, 1)


def make_returns(values, assets=None, kind="simple"):
    """Wrap a T x N array in a ReturnsMatrix with consecutive daily dates."""
    values = np.asarray(values, dtype=float)
    T, n = values.shape
    names = tuple(assets) if assets else tuple(f"A{i}" for i in range(n))
    dates = tuple(START + datetime.timedelta(days=i) for i in range(T))
    return ReturnsMatrix(dates=dates, assets=names, values=values, kind=kind)


def make_prior(mu, sigma, scenarios=None, assets=()):
    mu = np.asarray(mu, dtype=float)
    if scenarios is None:
        scenarios = np.zeros((3, mu.size))
    return Prior(mu=mu, sigma=np.asarray(sigma, dtype=float),
                 scenarios=np.asarray(scenarios, dtype=float), assets=tuple(assets))


def market_panel(T, N, seed=0):
    """T×N returns: N(5e-4, 0.01) asset noise plus one common N(0, 0.01) factor."""
    rng = np.random.default_rng(seed)
    return rng.normal(5e-4, 0.01, (T, N)) + rng.normal(0.0, 0.01, (T, 1))


def random_psd(rng, n, scale=1.0):
    """Well-conditioned random covariance matrix."""
    B = rng.normal(size=(n, n))
    return scale * (B @ B.T + n * np.eye(n))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
