"""Scalar risk and reward measures on realized return series.

Sign convention: risk measures return positive loss magnitudes, so that
"risk ≤ cap" constraints read naturally. `measure_value` evaluates any measure
on a return series; `risk_of_weights` evaluates one on the weights of a
portfolio, given a covariance and scenario matrix, and is the one risk
function of both `mean_risk.portfolio_risk` and HRP's bisection.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .exceptions import EmptySeries, TooFewSamples


class RiskMeasure(enum.Enum):
    VARIANCE = "variance"
    STANDARD_DEVIATION = "standard_deviation"
    MEAN_ABSOLUTE_DEVIATION = "mean_absolute_deviation"
    CVAR = "cvar"
    CDAR = "cdar"
    MAX_DRAWDOWN = "max_drawdown"
    WORST_REALIZATION = "worst_realization"


DEFAULT_BETA = 0.95


def _as_series(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySeries("empty return series")
    if not np.all(np.isfinite(arr)):
        raise ValueError("return series contains non-finite values")
    return arr


def cvar(values, beta: float = DEFAULT_BETA) -> float:
    """Conditional value-at-risk: mean of the worst (1−β) fraction of losses.

    Uses the exact Rockafellar–Uryasev value with fractional tail weighting,
    so it coincides with the optimum of the LP reformulation.
    """
    r = _as_series(values)
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    losses = np.sort(-r)[::-1]
    T = losses.size
    m = (1.0 - beta) * T
    if m >= T:
        return float(losses.mean())
    k = math.floor(m)
    tail = losses[:k].sum() + (m - k) * losses[k]
    return float(tail / m)


def drawdown_path(values, compounded: bool = False) -> np.ndarray:
    """Per-period drawdowns from the running peak (peak taken over observed periods)."""
    r = _as_series(values)
    if compounded:
        wealth = np.cumprod(1.0 + r)
        peak = np.maximum.accumulate(wealth)
        return 1.0 - wealth / peak
    cumulative = np.cumsum(r)
    peak = np.maximum.accumulate(cumulative)
    return peak - cumulative


def cdar(values, beta: float = DEFAULT_BETA, compounded: bool = False) -> float:
    """Conditional drawdown-at-risk: CVaR of the drawdown path."""
    dd = drawdown_path(values, compounded=compounded)
    return cvar(-dd, beta=beta)


def max_drawdown(values, compounded: bool = False) -> float:
    return float(drawdown_path(values, compounded=compounded).max())


def worst_realization(values) -> float:
    r = _as_series(values)
    return float(-r.min())


def variance(values) -> float:
    r = _as_series(values)
    if r.size < 2:
        raise TooFewSamples("variance needs at least 2 samples")
    return float(r.var(ddof=1))


def standard_deviation(values) -> float:
    return math.sqrt(variance(values))


def mean_absolute_deviation(values) -> float:
    r = _as_series(values)
    return float(np.abs(r - r.mean()).mean())


# the measures that take neither `beta` nor `compounded`
_PLAIN_MEASURES = {
    RiskMeasure.VARIANCE: variance,
    RiskMeasure.STANDARD_DEVIATION: standard_deviation,
    RiskMeasure.MEAN_ABSOLUTE_DEVIATION: mean_absolute_deviation,
    RiskMeasure.WORST_REALIZATION: worst_realization,
}


def measure_value(
    values,
    measure: RiskMeasure,
    beta: float = DEFAULT_BETA,
    compounded: bool = False,
) -> float:
    """Evaluate any supported risk measure on a realized return series."""
    if measure in _PLAIN_MEASURES:
        return _PLAIN_MEASURES[measure](values)
    if measure is RiskMeasure.CVAR:
        return cvar(values, beta=beta)
    if measure is RiskMeasure.CDAR:
        return cdar(values, beta=beta, compounded=compounded)
    if measure is RiskMeasure.MAX_DRAWDOWN:
        return max_drawdown(values, compounded=compounded)
    raise ValueError(f"unknown measure {measure}")


def risk_of_weights(weights, sigma, scenarios, measure: RiskMeasure,
                    beta: float = DEFAULT_BETA) -> float:
    """Risk of portfolio `weights`: variance and standard deviation read
    `sigma`; every other measure is `measure_value` of `scenarios @ weights`."""
    if measure in (RiskMeasure.VARIANCE, RiskMeasure.STANDARD_DEVIATION):
        var = float(weights @ sigma @ weights)
        return var if measure is RiskMeasure.VARIANCE else math.sqrt(var)
    return measure_value(scenarios @ weights, measure, beta=beta)
