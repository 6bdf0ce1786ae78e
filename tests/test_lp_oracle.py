"""The golden LPs solved again by scipy's HiGHS, an oracle independent of ADMM.

Every golden case whose assembled problem has no quadratic term is an LP.
HiGHS solves the same assembled `QpProblem` (its sparse `G`/`A_eq` as they
are), so a disagreement points at the solver, not at the reformulation. One
more LP comes from the packaged sample data: a point of a CVaR frontier.
"""

import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.optimize

from quantfolio.exceptions import QuantfolioError
from quantfolio.market_data import load_prices, prices_to_returns, time_split
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction, _assemble, optimize
from quantfolio.measures import RiskMeasure
from quantfolio.priors import fit_prior
from quantfolio.solver import solve

from test_golden_weights import _cases, _prior


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
def test_admm_objective_matches_highs(name):
    problem = PROBLEMS[name]
    admm, highs = solve(problem), _highs(problem)
    if name in INFEASIBLE:
        assert (admm.status, highs.status) == ("Infeasible", 2)
        return
    assert (admm.status, highs.status) == ("Optimal", 0), highs.message
    assert abs(admm.objective - highs.fun) <= 1e-8 * max(1.0, abs(highs.fun))
