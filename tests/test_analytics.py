import numpy as np
import pytest

from quantfolio import measures
from quantfolio.analytics import (
    MultiPeriodPortfolio,
    Population,
    Portfolio,
    frontier_report,
    population_summary,
    predict,
    summary,
)
from quantfolio.exceptions import (
    AssetMismatch,
    DimensionMismatch,
    EmptyPopulation,
    InvalidConfig,
    MissingCell,
    TooFewSamples,
)
from quantfolio.mean_risk import FrontierPoint
from quantfolio.measures import RiskMeasure

from conftest import make_returns


def test_summary_delegates_to_measures(rng):
    r = rng.normal(0.0005, 0.01, 250)
    stats = summary(Portfolio(name="p", returns=r))
    assert stats["cumulative_return"] == pytest.approx(np.prod(1 + r) - 1, abs=1e-12)
    assert stats["annualized_mean"] == pytest.approx(r.mean() * 252, abs=1e-12)
    assert stats["annualized_volatility"] == pytest.approx(
        measures.standard_deviation(r) * np.sqrt(252), abs=1e-12)
    assert stats["cvar_95"] == pytest.approx(measures.cvar(r, beta=0.95), abs=1e-15)
    assert stats["cdar_95"] == pytest.approx(measures.cdar(r, beta=0.95), abs=1e-15)
    assert stats["max_drawdown"] == pytest.approx(
        measures.max_drawdown(r, compounded=True), abs=1e-15)
    assert stats["worst_realization"] == pytest.approx(
        measures.worst_realization(r), abs=1e-15)
    assert stats["sharpe_ratio"] == pytest.approx(
        stats["annualized_mean"] / stats["annualized_volatility"], abs=1e-12)


def test_summary_key_order_is_stable(rng):
    stats = summary(Portfolio(name="p", returns=rng.normal(0, 0.01, 30)))
    assert list(stats) == [
        "cumulative_return", "annualized_mean", "annualized_volatility",
        "sharpe_ratio", "cvar_95", "cdar_95", "max_drawdown",
        "worst_realization",
    ]


def test_summary_zero_volatility_sharpe():
    stats = summary(Portfolio(name="flat", returns=np.zeros(10)))
    assert stats["sharpe_ratio"] == 0.0


def test_summary_needs_two_periods():
    with pytest.raises(TooFewSamples):
        summary(Portfolio(name="p", returns=np.array([0.01])))


def test_annualization_scaling(rng):
    r = rng.normal(0.001, 0.01, 100)
    daily = summary(Portfolio(name="d", returns=r, periods_per_year=252))
    monthly = summary(Portfolio(name="m", returns=r, periods_per_year=12))
    assert daily["annualized_mean"] == pytest.approx(
        monthly["annualized_mean"] * 252 / 12, abs=1e-12)
    assert daily["cvar_95"] == monthly["cvar_95"]  # per-period, not annualized


def test_portfolio_rejects_nonfinite():
    with pytest.raises(MissingCell):
        Portfolio(name="bad", returns=np.array([0.01, np.nan]))


def test_portfolio_rejects_bad_weights_and_dates():
    with pytest.raises(MissingCell):
        Portfolio(name="bad", returns=np.zeros(2), weights=np.array([0.5, np.inf]))
    with pytest.raises(DimensionMismatch, match="3 dates vs 2 returns"):
        Portfolio(name="bad", returns=np.zeros(2), dates=(1, 2, 3))


def test_predict_rejects_a_returns_array_that_is_not_2d():
    with pytest.raises(DimensionMismatch, match="got 1 dimension"):
        predict(np.ones(3) / 3, np.zeros(3))


def test_multi_period_portfolio_summary(rng):
    r = rng.normal(0, 0.01, 60)
    mpp = MultiPeriodPortfolio(name="wf", returns=r)
    assert mpp.summary() == summary(mpp)
    assert mpp.n_periods == 60
    assert isinstance(mpp, Portfolio) and mpp.segments == [] and mpp.weights is None


def test_population_summary_preserves_order(rng):
    members = [Portfolio(name=f"p{i}", returns=rng.normal(0, 0.01, 40))
               for i in range(3)]
    rows = population_summary(Population(members=members))
    assert [row["name"] for row in rows] == ["p0", "p1", "p2"]
    for row, member in zip(rows, members):
        expected = summary(member)
        assert all(row[k] == expected[k] for k in expected)


def test_population_summary_empty():
    with pytest.raises(EmptyPopulation):
        population_summary(Population(members=[]))


def test_frontier_report_shapes(rng):
    train = make_returns(rng.normal(0.0005, 0.01, (80, 3)))
    test = make_returns(rng.normal(0.0005, 0.01, (40, 3)))
    points = [FrontierPoint(weights=rng.dirichlet(np.ones(3)),
                            expected_return=0.0, risk=0.0) for _ in range(4)]
    rows = frontier_report(points, train, test)
    assert len(rows) == 8  # one train and one test row per point
    for row in rows:
        assert set(row) == {"point", "dataset", "mean", "risk"}
    # identical train and test data give identical realized rows
    same = frontier_report(points, train, train,
                           risk_measure=RiskMeasure.CVAR)
    by_point = {}
    for row in same:
        by_point.setdefault(row["point"], []).append(row)
    for pair in by_point.values():
        assert pair[0]["mean"] == pair[1]["mean"]
        assert pair[0]["risk"] == pair[1]["risk"]


def test_frontier_report_asset_mismatch(rng):
    train = make_returns(rng.normal(0, 0.01, (50, 3)))
    points = [FrontierPoint(weights=np.array([0.5, 0.5]),
                            expected_return=0.0, risk=0.0)]
    with pytest.raises(AssetMismatch):
        frontier_report(points, train, train)


def test_frontier_report_no_points(rng):
    train = make_returns(rng.normal(0, 0.01, (50, 2)))
    with pytest.raises(InvalidConfig):
        frontier_report([], train, train)
