"""Portfolio and Population value types plus the summary statistics report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import measures
from .exceptions import (
    AssetMismatch,
    DimensionMismatch,
    EmptyPopulation,
    InvalidConfig,
    MissingCell,
    TooFewSamples,
)
from .market_data import ReturnsMatrix, returns_values
from .measures import RiskMeasure

PERIODS_PER_YEAR = 252


@dataclass
class Portfolio:
    """A realized return series, optionally with the weights that produced it."""

    name: str
    returns: np.ndarray
    weights: np.ndarray | None = None
    dates: tuple = ()
    periods_per_year: int = PERIODS_PER_YEAR

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=float).ravel()
        if not np.all(np.isfinite(self.returns)):
            raise MissingCell("portfolio returns must be finite")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float).ravel()
            if not np.all(np.isfinite(self.weights)):
                raise MissingCell("weights must be finite")
        if self.dates and len(self.dates) != self.returns.size:
            raise DimensionMismatch(f"{len(self.dates)} dates vs {self.returns.size} returns")

    @property
    def n_periods(self) -> int:
        return self.returns.size

    def summary(self) -> dict[str, float]:
        return summary(self)


def predict(weights: np.ndarray, X: ReturnsMatrix, assets=(), name="portfolio") -> Portfolio:
    """Realized portfolio return series under fixed weights."""
    values = returns_values(X)
    x_assets = tuple(X.assets) if isinstance(X, ReturnsMatrix) else ()
    if assets and x_assets and tuple(assets) != x_assets:
        raise AssetMismatch(f"weights cover {tuple(assets)} but data has {x_assets}")
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != values.shape[1]:
        raise AssetMismatch(f"{w.size} weights vs {values.shape[1]} return columns")
    dates = tuple(X.dates) if isinstance(X, ReturnsMatrix) else ()
    return Portfolio(name=name, returns=values @ w, weights=w, dates=dates)


@dataclass
class MultiPeriodPortfolio(Portfolio):
    """Concatenated out-of-sample segments, each with its own weights."""

    segments: list[tuple[np.ndarray, tuple]] = field(default_factory=list)


@dataclass
class Population:
    members: list

    def summary(self) -> list[dict[str, float | str]]:
        return population_summary(self)


def summary(p) -> dict[str, float]:
    """Ordered statistics map; every risk figure delegates to the measures module."""
    r = np.asarray(p.returns, dtype=float)
    if r.size < 2:
        raise TooFewSamples("summary needs at least 2 return periods")
    periods = getattr(p, "periods_per_year", PERIODS_PER_YEAR)
    ann_mean = float(r.mean()) * periods
    ann_vol = measures.standard_deviation(r) * np.sqrt(periods)
    sharpe = ann_mean / ann_vol if ann_vol > 0 else 0.0
    return {
        "cumulative_return": float(np.prod(1.0 + r) - 1.0),
        "annualized_mean": ann_mean,
        "annualized_volatility": float(ann_vol),
        "sharpe_ratio": float(sharpe),
        "cvar_95": measures.cvar(r, beta=0.95),
        "cdar_95": measures.cdar(r, beta=0.95, compounded=False),
        "max_drawdown": measures.max_drawdown(r, compounded=True),
        "worst_realization": measures.worst_realization(r),
    }


def population_summary(pop: Population) -> list[dict[str, float | str]]:
    """One row per member, input order preserved."""
    members = pop.members if isinstance(pop, Population) else list(pop)
    if not members:
        raise EmptyPopulation("population has no members")
    rows: list[dict[str, float | str]] = []
    for member in members:
        row: dict[str, float | str] = {"name": member.name}
        row.update(summary(member))
        rows.append(row)
    return rows


def frontier_report(
    points,
    X_train,
    X_test,
    risk_measure: RiskMeasure = RiskMeasure.STANDARD_DEVIATION,
    beta: float = 0.95,
) -> list[dict[str, float | str | int]]:
    """Realized (mean, risk) of every frontier point on train and test data."""
    if not points:
        raise InvalidConfig("no frontier points to report")
    rows: list[dict[str, float | str | int]] = []
    for idx, point in enumerate(points):
        for label, X in (("train", X_train), ("test", X_test)):
            series = predict(point.weights, X).returns
            rows.append({
                "point": idx,
                "dataset": label,
                "mean": float(series.mean()),
                "risk": measures.measure_value(series, risk_measure, beta=beta),
            })
    return rows
