"""QPs checked against oracles independent of the interior-point solver.

Small random QPs are solved exactly by enumerating every active set; `solve`
must reach that point, and so must the active-set finish started from a wrong
set. Variance QPs with a CVaR or MAD cap take their cap from the measure's
minimum, found by scipy's HiGHS on the assembled LP (as in
`test_lp_oracle.py`), and from its value at the minimum-variance portfolio.
Capped MaximizeRatio QPs on the golden prior are checked against SLSQP in
weight space.
"""

import functools
import itertools

import numpy as np
import pytest
import scipy.optimize

import quantfolio.solver
from quantfolio.exceptions import InfeasibleProblem
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction, _assemble, optimize
from quantfolio.measures import RiskMeasure, measure_value
from quantfolio.solver import QpProblem, _finish, solve

from conftest import block_residuals, make_returns, market_panel, random_psd
from test_golden_weights import _prior


def _kkt_point(P, q, A, l, u):
    """The KKT point of min ½xᵀPx + qᵀx s.t. l ≤ Ax ≤ u (P positive definite),
    found by solving the equality-constrained KKT system of every active set."""
    n = q.size
    eq = np.flatnonzero(l == u)
    ineq = [(i, side) for i in np.flatnonzero(l != u)
            for side, bound in (("low", l[i]), ("up", u[i])) if np.isfinite(bound)]
    for size in range(n - eq.size + 1):
        for active in itertools.combinations(ineq, size):
            rows = np.concatenate([eq, [i for i, _ in active]]).astype(int)
            if len({*rows}) < rows.size:  # a row cannot sit at both of its bounds
                continue
            b = np.concatenate([l[eq], [l[i] if side == "low" else u[i] for i, side in active]])
            M = A[rows]
            kkt = np.block([[P, M.T], [M, np.zeros((rows.size, rows.size))]])
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-q, b]))
            except np.linalg.LinAlgError:  # dependent rows
                continue
            x, lam = sol[:n], sol[n:]
            Ax = A @ x
            signs = np.array([-1.0 if side == "low" else 1.0 for _, side in active])
            if (np.all(Ax <= u + 1e-12) and np.all(Ax >= l - 1e-12)
                    and np.all(signs * lam[eq.size:] >= -1e-12)):
                return x
    raise AssertionError("no active set satisfies the KKT conditions")


def _rows(problem):
    """P, q and the dense rows A = [A_eq; G; I] with l ≤ Ax ≤ u: the form
    `_kkt_point` enumerates, a bound being a row of the identity."""
    n = problem.dimensions()
    blocks = [(problem.A_eq, problem.b_eq, problem.b_eq)]
    if problem.G is not None:
        blocks.append((problem.G, np.full(problem.h.size, -np.inf), problem.h))
    lb = np.full(n, -np.inf) if problem.lb is None else problem.lb
    ub = np.full(n, np.inf) if problem.ub is None else problem.ub
    blocks.append((np.eye(n), lb, ub))
    A, l, u = (np.vstack(part) if i == 0 else np.concatenate(part)
               for i, part in enumerate(zip(*blocks)))
    return problem.P, problem.q, A, l, u


def _random_qp(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    P = random_psd(rng, n, scale=0.01)
    q = rng.normal(scale=0.05, size=n)
    ones = np.ones((1, n))
    lb = {"long_only": 0.0, "short_bounded": -0.5}.get(kind.split("+")[0])
    bounds = {} if lb is None else dict(lb=np.full(n, lb), ub=np.full(n, 1.0 if lb == 0 else 1.5))
    rows = {}
    k = kind.count("+")
    if k:
        # k random rows, strictly satisfied by the equal-weight portfolio
        G = rng.normal(size=(k, n))
        rows = dict(G=G, h=G @ np.full(n, 1.0 / n) + rng.uniform(0.01, 0.1, k))
    return QpProblem(q=q, P=P, A_eq=ones, b_eq=np.array([1.0]), **bounds, **rows)


@pytest.mark.parametrize("kind", ["long_only", "short_bounded", "budget_only",
                                  "long_only+row", "short_bounded+row+row", "budget_only+row"])
def test_random_qps_match_enumerated_kkt_point(kind):
    for seed in range(25):
        problem = _random_qp(kind, seed)
        res = solve(problem)
        assert res.status == "Optimal", seed
        np.testing.assert_allclose(res.x, _kkt_point(*_rows(problem)), rtol=0, atol=1e-9,
                                   err_msg=str(seed))
        # the reported residuals are those of (x, y_eq, y_ineq, y_bound) on
        # the problem's blocks
        r_prim, r_dual, prim_scale, dual_scale = block_residuals(problem, res)
        assert abs(res.primal_residual - r_prim) <= 1e-12 * prim_scale
        assert abs(res.dual_residual - r_dual) <= 1e-12 * dual_scale


def _panel(T, N, seed):
    return make_returns(market_panel(T, N, seed))


@functools.cache
def _capped_setup(seed, measure):
    """The panel, the minimum variance, the measure's minimum (HiGHS) and its
    value at the minimum-variance portfolio."""
    X = _panel(250, 20, seed)
    model = MeanRisk().fit(X)
    prior, w_mv = model.prior_, model.weights_
    problem, w_idx, _ = _assemble(MeanRisk(ObjectiveFunction.MINIMIZE_RISK, measure), prior)
    highs = scipy.optimize.linprog(
        problem.q, A_ub=problem.G, b_ub=problem.h, A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=np.column_stack([problem.lb, problem.ub]), method="highs")
    assert highs.status == 0, highs.message
    return (X, w_mv @ prior.sigma @ w_mv, measure_value(X.values @ highs.x[w_idx], measure),
            measure_value(X.values @ w_mv, measure))


@pytest.mark.parametrize("where", ["halfway", "near_minimum"])
@pytest.mark.parametrize("objective", [ObjectiveFunction.MINIMIZE_RISK,
                                       ObjectiveFunction.MAXIMIZE_UTILITY])
@pytest.mark.parametrize("measure", [RiskMeasure.CVAR, RiskMeasure.MEAN_ABSOLUTE_DEVIATION])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_variance_with_binding_cap_is_optimal(seed, measure, objective, where):
    # the cap lies halfway between the measure's minimum and its value at the
    # minimum-variance portfolio, or at 1.001 times the minimum, so the problem
    # is strictly feasible. Near the minimum, the interior point's dual residual
    # on seed 0 / MAD / MinimizeRisk stalls above its tolerance, and the solve
    # is finished from its best iterate
    X, var_min, lowest, at_min_variance = _capped_setup(seed, measure)
    cap = 0.5 * (lowest + at_min_variance) if where == "halfway" else 1.001 * lowest
    model = MeanRisk(objective=objective, risk_caps=[(measure, cap)]).fit(X)
    w = model.weights_
    assert measure_value(X.values @ w, measure) <= cap * (1.0 + 1e-6)
    assert w @ model.prior_.sigma @ w >= var_min * (1.0 - 1e-9)
    if objective is ObjectiveFunction.MINIMIZE_RISK:  # the cap binds
        assert measure_value(X.values @ w, measure) >= cap * (1.0 - 1e-6)


def test_stalled_run_without_the_finish_returns_its_best_iterate(monkeypatch):
    # the near-minimum MAD cap of seed 0 / MinimizeRisk: the interior point
    # stalls above its dual tolerance for all its iterations, but its best
    # iterate meets EPS_ABS/EPS_REL, so even without the finish the result is
    # Optimal, and that iterate
    mad = RiskMeasure.MEAN_ABSOLUTE_DEVIATION
    X, var_min, lowest, _ = _capped_setup(0, mad)
    cap = 1.001 * lowest
    prior = MeanRisk().fit(X).prior_
    problem, w_idx, _ = _assemble(MeanRisk(risk_caps=[(mad, cap)]), prior)
    monkeypatch.setattr(quantfolio.solver, "_finish", lambda *args: None)
    res = solve(problem)
    assert res.status == "Optimal"
    assert res.iterations == quantfolio.solver.IPM_MAX_ITERATIONS
    w = res.x[w_idx]
    assert measure_value(X.values @ w, mad) == pytest.approx(cap, rel=1e-6)
    assert w @ prior.sigma @ w >= var_min * (1.0 - 1e-9)


@pytest.mark.parametrize("measure", [RiskMeasure.CVAR, RiskMeasure.MEAN_ABSOLUTE_DEVIATION])
def test_dense_and_csr_rows_reach_the_same_point(measure, monkeypatch):
    # the capped QP's rows [A_eq; G] exceed IPM_DENSE_CELLS, so the interior
    # point runs on CSR rows; forced onto dense rows it reaches the same
    # finished point
    X, _, lowest, at_min_variance = _capped_setup(0, measure)
    model = MeanRisk(risk_caps=[(measure, 0.5 * (lowest + at_min_variance))])
    problem, _, _ = _assemble(model, MeanRisk().fit(X).prior_)
    cells = (problem.A_eq.shape[0] + problem.G.shape[0]) * problem.dimensions()
    assert cells > quantfolio.solver.IPM_DENSE_CELLS
    csr = solve(problem)
    monkeypatch.setattr(quantfolio.solver, "IPM_DENSE_CELLS", cells * 2)
    dense = solve(problem)
    assert csr.status == dense.status == "Optimal"
    assert np.abs(csr.x - dense.x).max() <= 1e-9


@pytest.mark.parametrize("measure", [RiskMeasure.CVAR, RiskMeasure.MEAN_ABSOLUTE_DEVIATION])
def test_cap_below_the_measure_minimum_is_infeasible(measure):
    X, _, lowest, _ = _capped_setup(0, measure)
    with pytest.raises(InfeasibleProblem):
        MeanRisk(risk_caps=[(measure, 0.9 * lowest)]).fit(X)


@pytest.mark.parametrize("cap", [(RiskMeasure.CVAR, 1.2),
                                 (RiskMeasure.MEAN_ABSOLUTE_DEVIATION, 0.6)])
def test_ratio_variance_with_cap_matches_slsqp(cap):
    # MaximizeRatio under variance with a binding cap, on the golden prior: the
    # Sharpe ratio equals an SLSQP solve in weight space, from equal weights
    prior = _prior()
    w = optimize(MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO, RiskMeasure.VARIANCE,
                          risk_caps=[cap]), prior)
    n = w.size

    def sharpe(v):
        return prior.mu @ v / np.sqrt(v @ prior.sigma @ v)

    slsqp = scipy.optimize.minimize(
        lambda v: -sharpe(v), np.full(n, 1.0 / n), method="SLSQP", bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0},
                     {"type": "ineq",
                      "fun": lambda v: cap[1] - measure_value(prior.scenarios @ v, cap[0])}],
        options={"ftol": 1e-14, "maxiter": 1000})
    assert slsqp.success, slsqp.message
    assert measure_value(prior.scenarios @ w, cap[0]) <= cap[1] * (1.0 + 1e-9)
    assert sharpe(w) == pytest.approx(-slsqp.fun, rel=1e-9)


def test_ratio_variance_with_cdar_cap_binds():
    # a CDaR cap at 0.98 times the CDaR of the minimum-variance portfolio,
    # below that of the uncapped tangency portfolio: the capped tangency
    # portfolio is Optimal with the cap binding
    X = _panel(250, 20, 0)
    cap = 0.98 * measure_value(X.values @ MeanRisk().fit(X).weights_, RiskMeasure.CDAR)
    uncapped = MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO).fit(X).weights_
    assert measure_value(X.values @ uncapped, RiskMeasure.CDAR) > cap
    w = MeanRisk(ObjectiveFunction.MAXIMIZE_RATIO,
                 risk_caps=[(RiskMeasure.CDAR, cap)]).fit(X).weights_
    assert measure_value(X.values @ w, RiskMeasure.CDAR) == pytest.approx(cap, rel=1e-9)


@pytest.mark.parametrize("change", ["missing_row", "extra_row"])
def test_finish_corrects_a_wrong_active_set(change):
    # the finish started from a wrong guess: a lower bound active at the
    # optimum left out (it is violated and joins), or the lower bound of a
    # positive weight put in (its multiplier has the wrong sign and it leaves)
    for seed in range(25):
        problem = _random_qp("long_only", seed)
        x_star = _kkt_point(*_rows(problem))
        at_zero, positive = np.flatnonzero(np.abs(x_star) < 1e-12), np.flatnonzero(x_star > 1e-6)
        if at_zero.size and positive.size:
            break
    n = problem.dimensions()
    lower = np.zeros(n, dtype=bool)
    lower[at_zero] = True
    if change == "missing_row":
        lower[at_zero[0]] = False
    else:
        lower[positive[0]] = True
    # the budget row is the one row, an equality (p = 1)
    x, _, y_bound = _finish(problem.P, problem.q, problem.A_eq, problem.b_eq, 1, problem.lb,
                            problem.ub, np.zeros(n), np.zeros(1), np.zeros(0, dtype=bool),
                            lower, np.zeros(n, dtype=bool))
    np.testing.assert_allclose(x, x_star, rtol=0, atol=1e-9)
    assert np.all(y_bound <= 1e-12)  # lower-bound multipliers
