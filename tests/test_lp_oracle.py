"""The golden LPs solved again by scipy's HiGHS, an oracle independent of the
interior point.

Every golden case whose assembled problem has no quadratic term is an LP.
HiGHS solves the same assembled `QpProblem` (its sparse `G`/`A_eq` as they
are), so a disagreement points at the solver, not at the reformulation. One
more LP comes from the packaged sample data: a point of a CVaR frontier.
The LPs of `STALLED` are checked the same way: each once ended in
MaxIterations (or, with an infeasible cap, in SolverFailure) on the LP
solver of the time.
"""

import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.optimize

from quantfolio.exceptions import InfeasibleProblem, QuantfolioError
from quantfolio.market_data import load_prices, prices_to_returns, time_split
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction, _assemble, optimize
from quantfolio.measures import RiskMeasure, measure_value
from quantfolio.priors import fit_prior
from quantfolio.solver import solve

from conftest import market_panel
from test_golden_weights import CAPS, _cases, _prior

M = RiskMeasure
O = ObjectiveFunction


def _lps():
    """name -> assembled QpProblem, for the golden cases that assemble to an LP."""
    lps = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regularization ignored under MaximizeRatio
        for name, (objective, measure, cons, extra) in _cases().items():
            try:
                problem = _assemble(MeanRisk(objective, measure, **cons, **extra), _prior())[0]
            except QuantfolioError:  # rejected before any solve
                continue
            if problem.P is None:
                lps[name] = problem
    return lps


def _sample_frontier_lp():
    """CVaR MinimizeRisk on the train split of the packaged sample data (T=261,
    N=10, as `quantfolio frontier` splits it), with `min_return` at the 11th of
    the 12 targets of a 12-point frontier."""
    X = prices_to_returns(load_prices(resources.files("quantfolio") / "data" / "sample_prices.csv"))
    model = MeanRisk(ObjectiveFunction.MINIMIZE_RISK, RiskMeasure.CVAR)
    prior = fit_prior(None, time_split(X, 0.3)[0])
    r_min = prior.mu @ optimize(model, prior)
    r_max = prior.mu @ optimize(replace(model, objective=ObjectiveFunction.MAXIMIZE_RETURN), prior)
    target = float(np.linspace(r_min, r_max, 12)[10])
    return _assemble(replace(model, min_return=target), prior)[0]


LPS = _lps()
INFEASIBLE = {"minimize_risk/cvar/infeasible_floor"}
SAMPLE_FRONTIER_LP = "sample_data/cvar/frontier_target_11_of_12"
PROBLEMS = {**LPS, SAMPLE_FRONTIER_LP: _sample_frontier_lp()}


def _highs(problem):
    return scipy.optimize.linprog(
        problem.q, A_ub=problem.G, b_ub=problem.h, A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=np.column_stack([problem.lb, problem.ub]), method="highs")


def test_golden_lp_count():
    assert len(LPS) == 40 and INFEASIBLE <= set(LPS)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lp_objective_matches_highs(name):
    problem = PROBLEMS[name]
    ipm, highs = solve(problem), _highs(problem)
    if name in INFEASIBLE:
        assert (ipm.status, highs.status) == ("Infeasible", 2)
        return
    assert (ipm.status, highs.status) == ("Optimal", 0), highs.message
    assert abs(ipm.objective - highs.fun) <= 1e-8 * max(1.0, abs(highs.fun))


def _stalled():
    """name -> (model, prior) of LPs that once stalled."""
    panel = fit_prior(None, market_panel(40, 4))
    return {
        "panel_40x4/minimize_risk/cvar": (MeanRisk(risk_measure=M.CVAR), panel),
        "panel_40x4/maximize_utility/cdar": (MeanRisk(O.MAXIMIZE_UTILITY, M.CDAR), panel),
        # two caps, CVaR ≤ 1.2 and MAD ≤ 0.6, where each cap alone solved
        "golden/maximize_return/cvar/caps": (MeanRisk(O.MAXIMIZE_RETURN, M.CVAR, risk_caps=CAPS),
                                             _prior()),
        "golden/maximize_return/worst_realization/caps": (
            MeanRisk(O.MAXIMIZE_RETURN, M.WORST_REALIZATION, risk_caps=CAPS), _prior()),
        "golden/maximize_ratio/worst_realization/caps": (
            MeanRisk(O.MAXIMIZE_RATIO, M.WORST_REALIZATION, risk_caps=CAPS), _prior()),
        "panel_60x10/minimize_risk/max_drawdown": (MeanRisk(risk_measure=M.MAX_DRAWDOWN),
                                                   fit_prior(None, market_panel(60, 10))),
        "panel_250x20_seed2/minimize_risk/mad": (
            MeanRisk(risk_measure=M.MEAN_ABSOLUTE_DEVIATION),
            fit_prior(None, market_panel(250, 20, 2))),
    }


STALLED = _stalled()


@pytest.mark.parametrize("name", sorted(STALLED))
def test_stalled_lp_matches_highs(name):
    model, prior = STALLED[name]
    problem = _assemble(model, prior)[0]
    ipm, highs = solve(problem), _highs(problem)
    assert (ipm.status, highs.status) == ("Optimal", 0), highs.message
    assert abs(ipm.objective - highs.fun) <= 1e-8 * max(1.0, abs(highs.fun))


@pytest.mark.parametrize("risk_aversion", [1e300, 1e307])
def test_huge_risk_aversion_gives_the_minimum_cvar(risk_aversion):
    # the return term is below any tolerance, so the optimum's CVaR is the
    # minimum CVaR (HiGHS on the MinimizeRisk LP; it takes no coefficient this
    # large). RuntimeWarnings are errors, as under the test configuration
    prior = fit_prior(None, market_panel(120, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = optimize(MeanRisk(O.MAXIMIZE_UTILITY, M.CVAR, risk_aversion=risk_aversion), prior)
    highs = _highs(_assemble(MeanRisk(risk_measure=M.CVAR), prior)[0])
    assert highs.status == 0, highs.message
    assert measure_value(prior.scenarios @ w, M.CVAR) == pytest.approx(highs.fun, rel=1e-8)


def test_cvar_cap_below_every_portfolio_is_infeasible():
    # the interior point ends unconverged and HiGHS classifies the LP, as it
    # does on its own
    prior = fit_prior(None, market_panel(250, 20))
    model = MeanRisk(risk_measure=M.CVAR, risk_caps=[(M.CVAR, 1e-4)])
    assert _highs(_assemble(model, prior)[0]).status == 2
    with pytest.raises(InfeasibleProblem):
        optimize(model, prior)
