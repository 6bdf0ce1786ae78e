import re

import numpy as np
import pytest

import quantfolio.solver
from quantfolio.base import clone
from quantfolio.exceptions import (
    AssetMismatch,
    DimensionMismatch,
    InfeasibleProblem,
    InvalidConfig,
    SolverFailure,
    UnboundedProblem,
    UnsupportedMeasure,
)
from quantfolio.measures import RiskMeasure, measure_value
from quantfolio.mean_risk import (
    MeanRisk,
    ObjectiveFunction,
    _assemble,
    efficient_frontier,
    optimize,
    portfolio_risk,
    predict,
)
from quantfolio.priors import EmpiricalPrior
from quantfolio.reformulations import ProblemBuilder, reformulate_risk
from quantfolio.solver import solve

from conftest import make_prior, make_returns, random_psd

LP_MEASURES = (
    RiskMeasure.MEAN_ABSOLUTE_DEVIATION,
    RiskMeasure.CVAR,
    RiskMeasure.CDAR,
    RiskMeasure.MAX_DRAWDOWN,
    RiskMeasure.WORST_REALIZATION,
)


def _model(objective, measure=RiskMeasure.VARIANCE, **kw):
    return MeanRisk(objective=objective, risk_measure=measure, **kw)


def test_gmv_symmetric_two_assets():
    # [DERIVED] symmetric covariance: equal weights by symmetry
    prior = make_prior([0.0, 0.0], [[0.04, 0.02], [0.02, 0.04]])
    w = optimize(_model(ObjectiveFunction.MINIMIZE_RISK), prior)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-8)


def test_gmv_diagonal_inverse_variance():
    # [DERIVED] diag(1, 4): long-only GMV = inverse-variance = (0.8, 0.2)
    prior = make_prior([0.0, 0.0], np.diag([1.0, 4.0]))
    w = optimize(_model(ObjectiveFunction.MINIMIZE_RISK), prior)
    np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-8)


def test_gmv_named_weight_cap():
    # capping the heavy asset at 0.2 forces (0.2, 0.8)
    prior = make_prior([0.0, 0.0], np.diag([1.0, 4.0]), assets=("a", "b"))
    model = _model(ObjectiveFunction.MINIMIZE_RISK, max_weight_per_asset={"a": 0.2})
    w = optimize(model, prior)
    np.testing.assert_allclose(w, [0.2, 0.8], atol=1e-8)


def test_cap_unknown_asset_rejected():
    prior = make_prior([0.0, 0.0], np.eye(2), assets=("a", "b"))
    model = _model(ObjectiveFunction.MINIMIZE_RISK, max_weight_per_asset={"zz": 0.2})
    with pytest.raises(AssetMismatch):
        optimize(model, prior)


def test_maximize_return_picks_best_asset():
    prior = make_prior([0.01, 0.05, 0.03], np.eye(3))
    w = optimize(_model(ObjectiveFunction.MAXIMIZE_RETURN), prior)
    np.testing.assert_allclose(w, [0.0, 1.0, 0.0], atol=1e-8)


def test_utility_limits():
    prior = make_prior([0.01, 0.05], np.diag([0.01, 0.04]))
    w_gmv = optimize(_model(ObjectiveFunction.MINIMIZE_RISK), prior)
    w_lo = optimize(_model(ObjectiveFunction.MAXIMIZE_UTILITY, risk_aversion=1e6), prior)
    np.testing.assert_allclose(w_lo, w_gmv, atol=1e-4)
    w_hi = optimize(_model(ObjectiveFunction.MAXIMIZE_UTILITY, risk_aversion=1e-6), prior)
    np.testing.assert_allclose(w_hi, [0.0, 1.0], atol=1e-4)


def test_tangency_identity_covariance():
    # [DERIVED] sigma=I, mu=(0.1,0.2): max Sharpe weights proportional to mu
    prior = make_prior([0.1, 0.2], np.eye(2))
    w = optimize(_model(ObjectiveFunction.MAXIMIZE_RATIO), prior)
    np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-6)


def test_ratio_invariant_to_return_scale():
    prior1 = make_prior([0.1, 0.2], np.eye(2))
    prior2 = make_prior([0.3, 0.6], np.eye(2))
    w1 = optimize(_model(ObjectiveFunction.MAXIMIZE_RATIO), prior1)
    w2 = optimize(_model(ObjectiveFunction.MAXIMIZE_RATIO), prior2)
    np.testing.assert_allclose(w1, w2, atol=1e-6)


def _decimal_draw(seed):
    """T=40, N=5 decimal-scale returns: N(1e-3, 0.01) plus an N(0, 0.005) factor."""
    rng = np.random.default_rng(seed)
    return rng.normal(1e-3, 0.01, (40, 5)) + rng.normal(0.0, 0.005, (40, 1))


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("measure", [RiskMeasure.CVAR, RiskMeasure.MEAN_ABSOLUTE_DEVIATION,
                                     RiskMeasure.WORST_REALIZATION])
def test_ratio_on_decimal_returns_matches_percent_fit(measure, seed):
    # these homogenized LPs stalled at MaxIterations on decimal returns
    X = _decimal_draw(seed)
    w = MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO, measure).fit(X).weights_
    w_percent = MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO, measure).fit(100 * X).weights_
    np.testing.assert_allclose(w, w_percent, rtol=0, atol=1e-10)


@pytest.mark.parametrize("decimal, percent", [
    (dict(min_return=0.0032), dict(min_return=0.32)),
    (dict(risk_caps=[(RiskMeasure.MEAN_ABSOLUTE_DEVIATION, 0.0065)]),
     dict(risk_caps=[(RiskMeasure.MEAN_ABSOLUTE_DEVIATION, 0.65)])),
], ids=["min_return", "mad_cap"])
def test_ratio_floor_and_cap_on_decimal_returns(decimal, percent):
    # the floor and the cap bind, and rescale with the returns
    X = _decimal_draw(2)
    w = MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO, RiskMeasure.CVAR, **decimal).fit(X).weights_
    w_percent = MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO, RiskMeasure.CVAR,
                         **percent).fit(100 * X).weights_
    np.testing.assert_allclose(w, w_percent, rtol=0, atol=1e-10)
    if "min_return" in decimal:
        assert X.mean(axis=0) @ w == pytest.approx(decimal["min_return"], abs=1e-12)
    else:
        mad = measure_value(X @ w, RiskMeasure.MEAN_ABSOLUTE_DEVIATION)
        assert mad == pytest.approx(decimal["risk_caps"][0][1], abs=1e-12)


def test_l2_regularization_pulls_toward_equal_weights():
    prior = make_prior([0.0, 0.0], np.diag([1.0, 4.0]))
    base = optimize(_model(ObjectiveFunction.MINIMIZE_RISK), prior)
    shrunk = optimize(_model(ObjectiveFunction.MINIMIZE_RISK, l2_coef=100.0), prior)
    assert abs(shrunk[0] - 0.5) < abs(base[0] - 0.5)
    np.testing.assert_allclose(shrunk.sum(), 1.0, atol=1e-8)


def test_l1_constant_under_long_only_budget(rng):
    # with w >= 0 and sum w = 1 the L1 norm is constant, so the solution
    # must not move
    sigma = random_psd(rng, 4, scale=0.01)
    prior = make_prior(np.zeros(4), sigma)
    w0 = optimize(_model(ObjectiveFunction.MINIMIZE_RISK), prior)
    with pytest.warns(UserWarning, match="l1_coef"):
        w1 = optimize(_model(ObjectiveFunction.MINIMIZE_RISK, l1_coef=0.5), prior)
    np.testing.assert_allclose(w0, w1, atol=1e-6)


def test_min_return_floor_binds():
    prior = make_prior([0.01, 0.05], np.diag([0.01, 0.04]))
    w = optimize(_model(ObjectiveFunction.MINIMIZE_RISK, min_return=0.03), prior)
    assert prior.mu @ w >= 0.03 - 1e-8


def test_min_return_infeasible_names_constraint():
    prior = make_prior([0.01, 0.05], np.eye(2))
    with pytest.raises(InfeasibleProblem, match="min_return"):
        optimize(_model(ObjectiveFunction.MINIMIZE_RISK, min_return=99.0), prior)


@pytest.mark.parametrize("measure", list(RiskMeasure))
def test_ratio_without_positive_return_is_infeasible(measure):
    # all five asset means are negative, so every long-only portfolio loses
    # on average and the return/risk ratio has no maximizer (the CLI maps
    # InfeasibleProblem to exit code 4)
    rng = np.random.default_rng(1)
    S = rng.normal(5e-4, 0.01, (60, 5)) + rng.normal(0.0, 0.01, (60, 1))
    best = S.mean(axis=0).max()
    assert best < 0
    model = MeanRisk(objective=ObjectiveFunction.MAXIMIZE_RATIO, risk_measure=measure)
    with pytest.raises(InfeasibleProblem,
                       match="no feasible portfolio has a positive expected return") as exc:
        model.fit(S)
    quoted = float(re.search(r"\(maximum (\S+)\)", str(exc.value)).group(1))
    assert quoted == pytest.approx(best, rel=1e-5)


@pytest.mark.parametrize("objective", [ObjectiveFunction.MINIMIZE_RISK,
                                       ObjectiveFunction.MAXIMIZE_RATIO])
@pytest.mark.parametrize("cap", [-np.inf, -1.0])
def test_risk_cap_below_every_portfolio_is_infeasible(objective, cap):
    # -inf once warned in the solver, and under the ratio became an infinite
    # coefficient of the scale column
    rng = np.random.default_rng(0)
    S = rng.normal(5e-4, 0.01, (120, 5)) + rng.normal(0.0, 0.01, (120, 1))
    with pytest.raises(InfeasibleProblem):
        MeanRisk(objective=objective, risk_caps=[(RiskMeasure.CVAR, cap)]).fit(S)


@pytest.mark.parametrize("objective", [ObjectiveFunction.MINIMIZE_RISK,
                                       ObjectiveFunction.MAXIMIZE_RATIO])
def test_risk_cap_of_inf_leaves_the_fit_uncapped(objective):
    # the cap's epigraph block once stayed in the LP with a row bounded on
    # neither side, and ADMM stalled on it for 20,000 iterations
    rng = np.random.default_rng(5)
    S = rng.normal(5e-4, 0.01, (120, 5)) + rng.normal(0.0, 0.01, (120, 1))
    kwargs = dict(objective=objective, risk_measure=RiskMeasure.CVAR)
    capped = MeanRisk(**kwargs, risk_caps=[(RiskMeasure.CVAR, np.inf),
                                           (RiskMeasure.MAX_DRAWDOWN, np.inf)]).fit(S)
    np.testing.assert_array_equal(capped.weights_, MeanRisk(**kwargs).fit(S).weights_)


@pytest.mark.parametrize("measure", [RiskMeasure.VARIANCE, RiskMeasure.STANDARD_DEVIATION])
def test_risk_cap_of_inf_on_a_quadratic_measure_is_still_unsupported(measure):
    prior = make_prior([0.01, 0.02], np.eye(2))
    model = _model(ObjectiveFunction.MINIMIZE_RISK, risk_caps=[(measure, np.inf)])
    with pytest.raises(UnsupportedMeasure, match="cap CVaR or MAD instead"):
        optimize(model, prior)


def test_budget_outside_bounds_rejected():
    prior = make_prior([0.0, 0.0], np.eye(2))
    with pytest.raises(InvalidConfig):
        optimize(_model(ObjectiveFunction.MINIMIZE_RISK, budget=3.0), prior)


@pytest.mark.parametrize("measure", [RiskMeasure.VARIANCE, RiskMeasure.STANDARD_DEVIATION])
def test_variance_risk_cap_unsupported(measure):
    # a cap on either would be a quadratic constraint; neither has an epigraph
    prior = make_prior([0.01, 0.02], np.eye(2))
    model = _model(ObjectiveFunction.MAXIMIZE_RETURN, risk_caps=[(measure, 0.5)])
    with pytest.raises(UnsupportedMeasure, match="cap CVaR or MAD instead"):
        optimize(model, prior)
    builder = ProblemBuilder()
    with pytest.raises(UnsupportedMeasure, match="cap CVaR or MAD instead"):
        reformulate_risk(builder, measure, prior.scenarios, builder.add_variables(2))


def test_cvar_risk_cap_binds(rng):
    scenarios = rng.normal(0.001, 0.02, (80, 3))
    scenarios[:, 2] += 0.004  # attractive but risky leg
    scenarios[::7, 2] -= 0.12
    prior = make_prior(scenarios.mean(axis=0), np.cov(scenarios, rowvar=False),
                       scenarios=scenarios)
    free = optimize(_model(ObjectiveFunction.MAXIMIZE_RETURN, RiskMeasure.CVAR), prior)
    hi = measure_value(scenarios @ free, RiskMeasure.CVAR)
    w_min = optimize(_model(ObjectiveFunction.MINIMIZE_RISK, RiskMeasure.CVAR), prior)
    lo = measure_value(scenarios @ w_min, RiskMeasure.CVAR)
    cap = 0.5 * (lo + hi)  # strictly between min achievable and unconstrained
    model = _model(ObjectiveFunction.MAXIMIZE_RETURN, RiskMeasure.CVAR,
                   risk_caps=[(RiskMeasure.CVAR, cap)])
    w = optimize(model, prior)
    assert measure_value(scenarios @ w, RiskMeasure.CVAR) <= cap + 1e-6
    # the cap genuinely binds: capped return below unconstrained return
    assert prior.mu @ w < prior.mu @ free - 1e-6


def _lp_block_objective(measure, scenarios, w, beta=0.95):
    """Solve the epigraph block with the weights pinned by equality rows."""
    n = scenarios.shape[1]
    builder = ProblemBuilder()
    w_idx = builder.add_variables(n)
    builder.add_rows(w_idx, np.eye(n), w, eq=True)
    builder.add_cost(reformulate_risk(builder, measure, scenarios, w_idx, beta=beta))
    res = solve(builder.build())
    assert res.status == "Optimal"
    return res.objective


def test_lp_blocks_match_measures(rng):
    # epigraph reformulations evaluated at fixed weights must reproduce the
    # direct measure computation
    scenarios = rng.normal(0, 0.02, (40, 3))
    for _ in range(6):
        w = rng.dirichlet(np.ones(3))
        series = scenarios @ w
        for measure in LP_MEASURES:
            got = _lp_block_objective(measure, scenarios, w)
            want = measure_value(series, measure, beta=0.95)
            assert got == pytest.approx(want, abs=1e-8), measure


def test_frontier_endpoints_and_monotonicity(rng):
    scenarios = rng.normal(0.0005, 0.01, (120, 5))
    prior = make_prior(scenarios.mean(axis=0), np.cov(scenarios, rowvar=False),
                       scenarios=scenarios)
    points = efficient_frontier(_model(ObjectiveFunction.MINIMIZE_RISK), prior, size=12)
    assert len(points) == 12
    returns = [p.expected_return for p in points]
    risks = [p.risk for p in points]
    assert all(a <= b + 1e-8 for a, b in zip(returns, returns[1:]))
    assert all(a <= b + 1e-8 for a, b in zip(risks, risks[1:]))
    # last point hits the best achievable return
    w_max = optimize(_model(ObjectiveFunction.MAXIMIZE_RETURN), prior)
    assert returns[-1] == pytest.approx(float(prior.mu @ w_max), abs=1e-6)


def test_frontier_size_one():
    prior = make_prior([0.01, 0.02], np.diag([0.01, 0.04]))
    points = efficient_frontier(_model(ObjectiveFunction.MINIMIZE_RISK), prior, size=1)
    assert len(points) == 1


def test_portfolio_risk_measures():
    prior = make_prior([0.0, 0.0], np.diag([0.01, 0.04]),
                       scenarios=np.array([[0.01, 0.0], [-0.01, 0.0], [0.0, 0.02]]))
    w = np.array([1.0, 0.0])
    model = _model(ObjectiveFunction.MINIMIZE_RISK)
    assert portfolio_risk(w, model, prior) == pytest.approx(0.01, abs=1e-12)
    model_sd = _model(ObjectiveFunction.MINIMIZE_RISK, RiskMeasure.STANDARD_DEVIATION)
    assert portfolio_risk(w, model_sd, prior) == pytest.approx(0.1, abs=1e-12)


def test_mean_risk_estimator_roundtrip(rng):
    X = make_returns(rng.normal(0.0005, 0.01, (90, 4)))
    model = MeanRisk(l2_coef=0.01)
    params = model.get_params()
    assert params["l2_coef"] == 0.01
    twin = clone(model)
    model.fit(X)
    twin.fit(X)
    np.testing.assert_array_equal(model.weights_, twin.weights_)
    port = model.predict(X)
    np.testing.assert_allclose(port.returns, X.values @ model.weights_, atol=1e-15)


def test_predict_asset_mismatch(rng):
    X = make_returns(rng.normal(0, 0.01, (30, 3)))
    with pytest.raises(AssetMismatch):
        predict(np.array([0.5, 0.5]), X)


@pytest.mark.parametrize("kwargs, message", [
    (dict(min_weights=[0.0, 0.0]), "lower weight bound (min_weights) has shape (2,)"),
    (dict(max_weights=[[1.0]]), "upper weight bound (max_weights) has shape (1, 1)"),
], ids=["min_weights", "max_weights"])
def test_weight_bound_of_wrong_shape_is_dimension_mismatch(rng, kwargs, message):
    # a bound is a number or one entry per asset; numpy would broadcast (1,) silently
    X = make_returns(rng.normal(0.0005, 0.01, (60, 5)))
    with pytest.raises(DimensionMismatch, match=re.escape(f"{message}, not () or (5,)")):
        MeanRisk(**kwargs).fit(X)


def test_unbounded_return_raises(rng):
    # with both sides of the box open, the budget row alone cannot bound the return
    X = make_returns(rng.normal(0.0005, 0.01, (60, 5)))
    model = MeanRisk(objective=ObjectiveFunction.MAXIMIZE_RETURN,
                     min_weights=-np.inf, max_weights=np.inf)
    with pytest.raises(UnboundedProblem):
        model.fit(X)


def test_solver_stop_raises_solver_failure(rng, monkeypatch):
    # a utility fit is a QP, capped by the interior-point method; without the
    # finish, one iteration does not reach the optimum
    monkeypatch.setattr(quantfolio.solver, "IPM_MAX_ITERATIONS", 1)
    monkeypatch.setattr(quantfolio.solver, "_finish", lambda *args: None)
    X = make_returns(rng.normal(0.0005, 0.01, (60, 5)))
    with pytest.raises(SolverFailure, match="status MaxIterations after 1 iterations"):
        MeanRisk(objective=ObjectiveFunction.MAXIMIZE_UTILITY).fit(X)


@pytest.mark.parametrize("seed", [1, 4, 5, 8])
def test_weights_at_a_bound_carry_no_solver_noise(seed):
    # long-only utility fits whose optimum has weights at 0: each is exactly
    # 0.0, never a residue such as 4e-17 or -3e-17, and never -0.0
    rng = np.random.default_rng(seed)
    X = rng.normal(5e-4, 0.01, (250, 30)) + rng.normal(0.0, 0.01, (250, 1))
    w = MeanRisk(objective=ObjectiveFunction.MAXIMIZE_UTILITY,
                 prior_estimator=EmpiricalPrior(cov_estimator="denoised")).fit(X).weights_
    assert np.any(w == 0.0)
    assert not np.any((w != 0.0) & (np.abs(w) < 1e-12))
    assert not np.any(np.signbit(w[w == 0.0]))


def test_set_params_plain_and_nested_keys():
    model = MeanRisk(prior_estimator=EmpiricalPrior())
    assert model.set_params(l2_coef=0.5, prior_estimator__cov_estimator="ledoit_wolf") is model
    assert model.l2_coef == 0.5
    assert model.prior_estimator.cov_estimator == "ledoit_wolf"
    assert model.get_params()["prior_estimator__cov_estimator"] == "ledoit_wolf"
    twin = clone(model)
    assert twin.l2_coef == 0.5
    assert twin.prior_estimator.cov_estimator == "ledoit_wolf"
    assert twin.prior_estimator is not model.prior_estimator
    with pytest.raises(ValueError, match="unknown parameter 'l3_coef' for MeanRisk"):
        model.set_params(l3_coef=1.0)


def test_set_params_checks_every_key_before_setting_any():
    model = MeanRisk()
    with pytest.raises(InvalidConfig, match="unknown parameter 'bogus' for MeanRisk"):
        model.set_params(l1_coef=0.5, bogus=1)
    assert model.l1_coef == 0.0


def test_set_params_of_an_absent_nested_estimator_is_invalid_config():
    model = MeanRisk()
    with pytest.raises(InvalidConfig, match="'prior_estimator__halflife'"):
        model.set_params(prior_estimator__halflife=3)
    assert model.prior_estimator is None


def _small_panel():
    # 50×3: small enough that every objective × measure solves quickly
    rng = np.random.default_rng(0)
    return rng.normal(5e-4, 0.01, (50, 3)) + rng.normal(0.0, 0.01, (50, 1))


@pytest.mark.parametrize("measure", list(RiskMeasure), ids=lambda m: m.value)
@pytest.mark.parametrize("objective", list(ObjectiveFunction), ids=lambda o: o.value)
def test_value_strings_fit_as_their_members(objective, measure):
    X = _small_panel()
    want = MeanRisk(objective=objective, risk_measure=measure).fit(X).weights_
    model = MeanRisk(objective=objective.value, risk_measure=measure.value)
    np.testing.assert_array_equal(model.fit(X).weights_, want)
    assert model.objective == objective.value  # the fit converts a copy


def test_a_risk_cap_measure_may_be_its_value_string():
    X = _small_panel()
    cap = measure_value(X.mean(axis=1), RiskMeasure.CVAR)  # equal weight is feasible
    want = MeanRisk(objective=ObjectiveFunction.MAXIMIZE_RETURN,
                    risk_caps=[(RiskMeasure.CVAR, cap)]).fit(X).weights_
    got = MeanRisk(objective="maximize_return", risk_caps=[("cvar", cap)]).fit(X).weights_
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("params", [
    {"objective": "maximise_return"},
    {"risk_measure": "c_var"},
    {"risk_caps": [("c_var", 0.1)]},
], ids=["objective", "risk_measure", "risk_cap"])
def test_unknown_value_string_is_invalid_config(params):
    with pytest.raises(InvalidConfig, match="unknown"):
        MeanRisk(**params).fit(_small_panel())


def test_assembly_rejects_an_objective_it_does_not_know():
    # a model that skipped `_check` keeps its value string, which matches no
    # branch: it must not fall through to the ratio problem
    prior = MeanRisk().fit(_small_panel()).prior_
    with pytest.raises(InvalidConfig, match="unknown objective"):
        _assemble(MeanRisk(objective="maximize_return"), prior)
