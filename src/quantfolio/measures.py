"""Scalar risk and reward measures on realized return series.

Sign convention: risk measures return positive loss magnitudes, so that
"risk ≤ cap" constraints read naturally. `measure_value` evaluates any measure
on a return series; `risk_of_weights` evaluates one on the weights of a
portfolio, given a covariance and scenario matrix, and is the one risk
function of both `mean_risk.portfolio_risk(weights, model, prior)`, which
reads the measure and beta off a `MeanRisk`, and HRP's bisection. Every
measure is computed down axis 0, so `risk_of_weights` also takes an n×k
matrix of k portfolios and returns their k risks from one matrix product and
one pass of the measure over the T×k series; HRP gets all its bisection risks
that way.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .exceptions import (
    EmptySeries,
    InvalidConfig,
    MissingCell,
    TooFewSamples,
    require_finite,
    require_member,
)


class RiskMeasure(enum.Enum):
    VARIANCE = "variance"
    STANDARD_DEVIATION = "standard_deviation"
    MEAN_ABSOLUTE_DEVIATION = "mean_absolute_deviation"
    CVAR = "cvar"
    CDAR = "cdar"
    MAX_DRAWDOWN = "max_drawdown"
    WORST_REALIZATION = "worst_realization"


DEFAULT_BETA = 0.95

# wᵀΣw and its square root: an optimizer takes either as the quadratic term
# wᵀΣw (standard deviation has the argmin of variance), never as an epigraph
QUADRATIC_MEASURES = (RiskMeasure.VARIANCE, RiskMeasure.STANDARD_DEVIATION)


def check_beta(beta):
    """Reject a confidence level beta that is not a finite number in (0, 1)."""
    require_finite("beta", beta)
    if not 0 < beta < 1:
        raise InvalidConfig(f"beta must be in (0, 1), got {beta}")


def _as_series(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    _check_series(arr)
    return arr


def _check_series(r: np.ndarray):
    if r.size == 0:
        raise EmptySeries("empty return series")
    if not np.all(np.isfinite(r)):
        raise MissingCell("return series contains non-finite values")


# The measures below run down axis 0: a 1-D series gives one value, a T×k
# matrix the k values of its columns by the same arithmetic.

def _cvar(r: np.ndarray, beta: float):
    check_beta(beta)
    losses = np.sort(-r, axis=0)[::-1]
    T = losses.shape[0]
    m = (1.0 - beta) * T
    if m >= T:
        return losses.mean(axis=0)
    k = math.floor(m)
    tail = losses[:k].sum(axis=0) + (m - k) * losses[k]
    return tail / m


def _drawdowns(r: np.ndarray, compounded: bool) -> np.ndarray:
    if compounded:
        wealth = np.cumprod(1.0 + r, axis=0)
        peak = np.maximum.accumulate(wealth, axis=0)
        return 1.0 - wealth / peak
    cumulative = np.cumsum(r, axis=0)
    peak = np.maximum.accumulate(cumulative, axis=0)
    return peak - cumulative


def _variance(r: np.ndarray):
    if r.shape[0] < 2:
        raise TooFewSamples("variance needs at least 2 samples")
    return r.var(ddof=1, axis=0)


def _measure(r: np.ndarray, measure: RiskMeasure, beta: float, compounded: bool):
    """Any supported measure of the series `r` (or of each column of `r`)."""
    if measure is RiskMeasure.VARIANCE:
        return _variance(r)
    if measure is RiskMeasure.STANDARD_DEVIATION:
        return np.sqrt(_variance(r))
    if measure is RiskMeasure.MEAN_ABSOLUTE_DEVIATION:
        return np.abs(r - r.mean(axis=0)).mean(axis=0)
    if measure is RiskMeasure.WORST_REALIZATION:
        return -r.min(axis=0)
    if measure is RiskMeasure.CVAR:
        return _cvar(r, beta)
    if measure is RiskMeasure.CDAR:
        return _cvar(-_drawdowns(r, compounded), beta)
    if measure is RiskMeasure.MAX_DRAWDOWN:
        return _drawdowns(r, compounded).max(axis=0)
    raise InvalidConfig(f"unknown measure {measure!r}")


def cvar(values, beta: float = DEFAULT_BETA) -> float:
    """Conditional value-at-risk: mean of the worst (1−β) fraction of losses.

    Uses the exact Rockafellar–Uryasev value with fractional tail weighting,
    so it coincides with the optimum of the LP reformulation.
    """
    return float(_cvar(_as_series(values), beta))


def drawdown_path(values, compounded: bool = False) -> np.ndarray:
    """Per-period drawdowns from the running peak (peak taken over observed periods)."""
    return _drawdowns(_as_series(values), compounded)


def cdar(values, beta: float = DEFAULT_BETA, compounded: bool = False) -> float:
    """Conditional drawdown-at-risk: CVaR of the drawdown path."""
    return measure_value(values, RiskMeasure.CDAR, beta=beta, compounded=compounded)


def max_drawdown(values, compounded: bool = False) -> float:
    return measure_value(values, RiskMeasure.MAX_DRAWDOWN, compounded=compounded)


def worst_realization(values) -> float:
    return measure_value(values, RiskMeasure.WORST_REALIZATION)


def variance(values) -> float:
    return measure_value(values, RiskMeasure.VARIANCE)


def standard_deviation(values) -> float:
    return measure_value(values, RiskMeasure.STANDARD_DEVIATION)


def mean_absolute_deviation(values) -> float:
    return measure_value(values, RiskMeasure.MEAN_ABSOLUTE_DEVIATION)


def measure_value(
    values,
    measure: RiskMeasure,
    beta: float = DEFAULT_BETA,
    compounded: bool = False,
) -> float:
    """Evaluate any supported risk measure, a member or its value string, on
    a realized return series."""
    measure = require_member(RiskMeasure, "measure", measure)
    return float(_measure(_as_series(values), measure, beta, compounded))


def risk_of_weights(weights, sigma, scenarios, measure: RiskMeasure,
                    beta: float = DEFAULT_BETA):
    """Risk of portfolio `weights`: variance and standard deviation read
    `sigma`; every other measure is `measure_value` of `scenarios @ weights`.

    `weights` may also be an n×k matrix whose columns are k portfolios: then
    one product with `sigma` or `scenarios` and one pass of the measure down
    the k columns return the k risks as an array, each equal to the 1-D call
    on its column up to rounding. A 1-D `weights` returns a float. `measure`
    is a member or its value string.
    """
    measure = require_member(RiskMeasure, "measure", measure)
    W = np.asarray(weights, dtype=float)
    if measure in QUADRATIC_MEASURES:
        var = W @ sigma @ W if W.ndim == 1 else np.einsum("ij,ij->j", W, sigma @ W)
        risk = var if measure is RiskMeasure.VARIANCE else np.sqrt(var)
    else:
        series = scenarios @ W
        _check_series(series)
        risk = _measure(series, measure, beta, False)
    return float(risk) if W.ndim == 1 else risk
