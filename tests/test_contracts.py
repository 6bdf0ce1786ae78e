"""Estimator and configuration contracts: typed errors for non-finite
constraint and objective input, `fit` leaves hyper-parameters alone,
`predict` checks the asset labels it was fitted on."""

import json
from importlib import resources

import numpy as np
import pytest

from quantfolio.cli import EXIT_CONFIG, main
from quantfolio.exceptions import AssetMismatch, InvalidConfig
from quantfolio.hierarchical import HierarchicalRiskParity, InverseVolatility
from quantfolio.mean_risk import MeanRisk
from quantfolio.priors import BlackLitterman, EmpiricalPrior

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
