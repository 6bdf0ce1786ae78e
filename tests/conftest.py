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


def block_residuals(problem, res):
    """The residuals of a `SolveResult` recomputed on the blocks of its
    `QpProblem`: primal (the largest violation of A_eq x = b_eq, G x ≤ h and
    lb ≤ x ≤ ub) and dual (|Px + q + A_eqᵀy_eq + Gᵀy_ineq + y_bound|∞), then
    the magnitudes their tolerances scale by: the largest |A_eq x|, |G x| or
    bounded |x_j|, and the largest |Px|, |A_eqᵀy_eq + Gᵀy_ineq + y_bound| or |q|."""
    x, q = res.x, np.asarray(problem.q, dtype=float)
    n = x.size
    Px = np.zeros(n) if problem.P is None else problem.P @ x
    lb = np.full(n, -np.inf) if problem.lb is None else problem.lb
    ub = np.full(n, np.inf) if problem.ub is None else problem.ub
    ATy = res.y_bound.copy()
    r_prim, prim_scale = 0.0, np.abs(x[np.isfinite(lb) | np.isfinite(ub)]).max(initial=0.0)
    for M, rhs, y, eq in ((problem.A_eq, problem.b_eq, res.y_eq, True),
                          (problem.G, problem.h, res.y_ineq, False)):
        if M is not None:
            Mx = M @ x
            ATy += M.T @ y
            r_prim = max(r_prim, (np.abs(Mx - rhs) if eq else Mx - rhs).max(initial=0.0))
            prim_scale = max(prim_scale, np.abs(Mx).max(initial=0.0))
    r_prim = max(r_prim, (lb - x).max(initial=0.0), (x - ub).max(initial=0.0))
    dual_scale = max(np.abs(Px).max(), np.abs(ATy).max(), np.abs(q).max())
    return r_prim, np.abs(Px + q + ATy).max(), prim_scale, dual_scale


@pytest.fixture
def rng():
    return np.random.default_rng(0)
