"""Estimator and configuration contracts: typed errors for non-finite
constraint and objective input, `fit` leaves hyper-parameters alone,
`predict` checks the asset labels it was fitted on, and every estimator
class reports, clones and sets its hyper-parameters."""

import inspect
import json
from importlib import resources

import numpy as np
import pytest

from quantfolio.cli import EXIT_CONFIG, main
from quantfolio.exceptions import AssetMismatch, InvalidConfig
from quantfolio.base import BaseEstimator, clone
from quantfolio.hierarchical import (
    EqualWeighted,
    HierarchicalRiskParity,
    InverseVolatility,
    NestedClustersOptimization,
    StackingOptimization,
)
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction
from quantfolio.measures import RiskMeasure
from quantfolio.model_selection import CpcvConfig
from quantfolio.priors import BlackLitterman, EmpiricalPrior, FactorModel, ViewSet

from conftest import make_returns


@pytest.fixture
def X(rng):
    return make_returns(rng.normal(0.0005, 0.01, (60, 3)))


@pytest.mark.parametrize("kwargs", [
    dict(min_return=float("nan")),
    dict(min_return=float("inf")),
    dict(min_return="0.01"),
    dict(budget=float("nan")),
    dict(linear_A=np.ones((1, 3)), linear_b=np.array([np.nan])),
    dict(linear_A=np.array([[1.0, np.inf, 0.0]]), linear_b=np.array([0.1])),
    dict(linear_A=np.ones((1, 3)), linear_b=None),
    dict(linear_A=None, linear_b=np.array([0.1])),
    dict(risk_aversion=float("nan")),
    dict(l2_coef=float("nan")),
    dict(beta=[0.5]),
    dict(risk_caps=[(RiskMeasure.CVAR, float("nan"))]),
    dict(risk_caps=[(RiskMeasure.CVAR, "0.1")]),
    dict(risk_caps=[(RiskMeasure.CVAR, [0.1, 0.2])]),
    dict(risk_caps=[RiskMeasure.CVAR]),
])
def test_non_finite_input_is_invalid_config(X, kwargs):
    with pytest.raises(InvalidConfig):
        MeanRisk(**kwargs).fit(X)


@pytest.mark.parametrize("min_return", [float("nan"), "0.01"])
def test_cli_non_finite_min_return_exits_config_error(tmp_path, min_return):
    with resources.as_file(resources.files("quantfolio").joinpath(
            "data/sample_prices.csv")) as prices:
        cfg = {"data": {"prices": str(prices)},
               "model": {"kind": "mean_risk"},
               "constraints": {"min_return": min_return}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # NaN is written as the bare token NaN
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("make", [
    lambda p: MeanRisk(prior_estimator=p),
    lambda p: HierarchicalRiskParity(prior_estimator=p),
    lambda p: InverseVolatility(prior_estimator=p),
    lambda p: BlackLitterman(base_estimator=p),
])
def test_fit_leaves_hyper_parameters_unfitted(X, make):
    inner = EmpiricalPrior(cov_estimator="ledoit_wolf")
    est = make(inner)
    before = est.get_params()
    est.fit(X)
    assert est.get_params() == before
    assert not hasattr(inner, "prior_")


@pytest.mark.parametrize("est", [HierarchicalRiskParity(), InverseVolatility(), MeanRisk()])
def test_predict_rejects_relabelled_columns(X, est):
    est.fit(X)
    relabelled = make_returns(X.values, assets=("A1", "A0", "A2"))
    with pytest.raises(AssetMismatch):
        est.predict(relabelled)


# every exported estimator class, built with a non-default value for each
# of its hyper-parameters
NON_DEFAULT = {
    MeanRisk: lambda: MeanRisk(
        objective=ObjectiveFunction.MAXIMIZE_UTILITY, risk_measure=RiskMeasure.CVAR,
        prior_estimator=EmpiricalPrior(cov_estimator="ledoit_wolf"), budget=0.9,
        min_weights=np.zeros(3), max_weights=np.full(3, 0.8),
        max_weight_per_asset={"A0": 0.5}, linear_A=np.ones((1, 3)),
        linear_b=np.array([0.5]), min_return=0.0,
        risk_caps=[(RiskMeasure.MEAN_ABSOLUTE_DEVIATION, 0.1)],
        l1_coef=0.01, l2_coef=0.02, risk_aversion=2.0, beta=0.9),
    HierarchicalRiskParity: lambda: HierarchicalRiskParity(
        risk_measure=RiskMeasure.CVAR, linkage="ward",
        prior_estimator=EmpiricalPrior(mean_estimator="ew"), beta=0.9),
    NestedClustersOptimization: lambda: NestedClustersOptimization(
        inner_estimator=MeanRisk(risk_measure=RiskMeasure.MEAN_ABSOLUTE_DEVIATION),
        outer_estimator=HierarchicalRiskParity(), k=2, linkage="ward"),
    StackingOptimization: lambda: StackingOptimization(
        estimators=[("ivp", InverseVolatility()), ("hrp", HierarchicalRiskParity())],
        final_estimator=MeanRisk(risk_measure=RiskMeasure.CVAR), cv=CpcvConfig(k=4, p=2),
        n_jobs=2),
    InverseVolatility: lambda: InverseVolatility(
        prior_estimator=EmpiricalPrior(cov_estimator="ledoit_wolf")),
    EmpiricalPrior: lambda: EmpiricalPrior(
        mean_estimator="ew", cov_estimator="gerber", halflife=30.0, gerber_c=0.3,
        rmt_passes=1),
    FactorModel: lambda: FactorModel(ridge_alpha=0.5),
    BlackLitterman: lambda: BlackLitterman(
        views=ViewSet(P=np.eye(3)[:1], Q=[0.001]),
        base_estimator=EmpiricalPrior(cov_estimator="ledoit_wolf")),
    EqualWeighted: EqualWeighted,
}


def _nested(params):
    """Every estimator among the values, also inside a list of (name, estimator) pairs."""
    for value in params.values():
        if isinstance(value, BaseEstimator):
            yield value
        elif isinstance(value, list):
            yield from (est for _, est in value if isinstance(est, BaseEstimator))


@pytest.mark.parametrize("cls", list(NON_DEFAULT), ids=lambda cls: cls.__name__)
def test_estimator_params_clone_and_set(cls):
    est = NON_DEFAULT[cls]()
    params = est.get_params(deep=False)
    signature = inspect.signature(cls).parameters
    assert list(params) == list(signature)
    for name, value in params.items():
        assert repr(value) != repr(signature[name].default), name

    twin = clone(est)
    assert type(twin) is cls and twin is not est
    assert repr(twin) == repr(est)
    for inner, twin_inner in zip(_nested(params), _nested(twin.get_params(deep=False)),
                                 strict=True):
        assert twin_inner is not inner

    for name, inner in params.items():
        if isinstance(inner, BaseEstimator):
            sub = next(iter(inner.get_params(deep=False)))
            marker = object()
            assert est.set_params(**{f"{name}__{sub}": marker}) is est
            assert getattr(inner, sub) is marker
            assert est.get_params()[f"{name}__{sub}"] is marker
