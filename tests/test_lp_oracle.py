"""The golden LPs solved again by scipy's HiGHS, an oracle independent of ADMM.

Every golden case whose assembled problem has no quadratic term is an LP.
HiGHS solves the same assembled `QpProblem` (its sparse `G`/`A_eq` as they
are), so a disagreement points at the solver, not at the reformulation.
"""

import warnings

import numpy as np
import pytest
import scipy.optimize

from quantfolio.exceptions import QuantfolioError
from quantfolio.mean_risk import Constraints, ProblemSpec, _assemble
from quantfolio.solver import solve

from test_golden_weights import _cases, _prior


def _lps():
    """name -> assembled QpProblem, for the golden cases that assemble to an LP."""
    lps = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regularization ignored under MaximizeRatio
        for name, (objective, measure, cons, extra) in _cases().items():
            try:
                problem = _assemble(ProblemSpec(objective, measure, _prior(),
                                                constraints=Constraints(**cons), **extra))[0]
            except QuantfolioError:  # rejected before any solve
                continue
            if problem.P is None:
                lps[name] = problem
    return lps


LPS = _lps()
INFEASIBLE = {"minimize_risk/cvar/infeasible_floor"}


def _highs(problem):
    return scipy.optimize.linprog(
        problem.q, A_ub=problem.G, b_ub=problem.h, A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=np.column_stack([problem.lb, problem.ub]), method="highs")


def test_golden_lp_count():
    assert len(LPS) == 40 and INFEASIBLE <= set(LPS)


@pytest.mark.parametrize("name", sorted(LPS))
def test_admm_objective_matches_highs(name):
    problem = LPS[name]
    admm, highs = solve(problem), _highs(problem)
    if name in INFEASIBLE:
        assert (admm.status, highs.status) == ("Infeasible", 2)
        return
    assert (admm.status, highs.status) == ("Optimal", 0), highs.message
    assert abs(admm.objective - highs.fun) <= 1e-8 * max(1.0, abs(highs.fun))
