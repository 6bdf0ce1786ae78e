import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

import quantfolio.solver
from quantfolio.exceptions import QuantfolioError
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction, _assemble
from quantfolio.measures import RiskMeasure
from quantfolio.priors import Prior
from quantfolio.solver import QpProblem, _dense_rows, _finish, _select_independent, solve

from conftest import block_residuals, random_psd
from test_golden_weights import _cases, _prior


def test_unconstrained_quadratic():
    # min 1/2 x'Ix - (1,2)'x has the closed-form minimizer (1, 2)
    res = solve(QpProblem(q=np.array([-1.0, -2.0]), P=np.eye(2)))
    assert res.status == "Optimal"
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-8)
    assert res.objective == pytest.approx(-2.5, abs=1e-8)


def test_equality_constrained_quadratic():
    # min 1/2 ||x||^2 s.t. x1 + x2 = 2 -> x = (1, 1) by symmetry
    res = solve(QpProblem(
        q=np.zeros(2), P=np.eye(2),
        A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]),
    ))
    assert res.status == "Optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)


def test_box_constrained_lp():
    # min -x1 - 2 x2 with 0 <= x <= 1 pushes both to the upper bound
    res = solve(QpProblem(q=np.array([-1.0, -2.0]), lb=np.zeros(2), ub=np.ones(2)))
    assert res.status == "Optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)


def test_lp_with_inequalities():
    # min -x1 - x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6, x >= 0
    # vertex solution at the intersection: x = (8/5, 6/5)
    res = solve(QpProblem(
        q=np.array([-1.0, -1.0]),
        G=np.array([[1.0, 2.0], [3.0, 1.0]]), h=np.array([4.0, 6.0]),
        lb=np.zeros(2), ub=np.full(2, np.inf),
    ))
    assert res.status == "Optimal"
    np.testing.assert_allclose(res.x, [1.6, 1.2], atol=1e-7)


def test_infeasible_detected():
    # x >= 2 componentwise but x1 + x2 <= 1
    res = solve(QpProblem(
        q=np.zeros(2), P=np.eye(2),
        G=np.array([[1.0, 1.0]]), h=np.array([1.0]),
        lb=np.full(2, 2.0), ub=np.full(2, 10.0),
    ))
    assert res.status == "Infeasible"


@pytest.mark.parametrize("P", [None, np.eye(2)], ids=["lp", "qp"])
@pytest.mark.parametrize("rows", [
    dict(G=np.array([[1.0, 1.0]]), h=np.array([-np.inf])),  # a row capped at -inf
    dict(A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([np.inf])),  # a row fixed at +inf
    dict(lb=np.array([0.5, 0.0]), ub=np.array([0.4, 1.0])),  # crossing bounds
], ids=["upper_minus_inf", "equal_plus_inf", "lower_above_upper"])
def test_row_bounds_admitting_no_value_are_infeasible(P, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(QpProblem(q=np.ones(2), P=P, **rows))
    assert res.status == "Infeasible" and res.iterations == 0
    assert res.x.shape == (2,) and np.isnan(res.objective)


def test_unbounded_detected():
    res = solve(QpProblem(q=np.array([-1.0]), lb=np.zeros(1), ub=np.full(1, np.inf)))
    assert res.status == "Unbounded"


def test_random_equality_qps_match_kkt(rng):
    # KKT closed form for equality-constrained QPs is an independent oracle
    for _ in range(10):
        n, m = 6, 2
        P = random_psd(rng, n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        kkt = np.block([[P, A.T], [A, np.zeros((m, m))]])
        sol = np.linalg.solve(kkt, np.concatenate([-q, b]))
        res = solve(QpProblem(q=q, P=P, A_eq=A, b_eq=b))
        assert res.status == "Optimal"
        np.testing.assert_allclose(res.x, sol[:n], atol=1e-6)


def test_gmv_closed_form(rng):
    # budget-only minimum variance: w = Sigma^-1 1 / (1' Sigma^-1 1)
    for _ in range(5):
        sigma = random_psd(rng, 5, scale=0.01)
        ones = np.ones(5)
        w_star = np.linalg.solve(sigma, ones)
        w_star /= w_star.sum()
        res = solve(QpProblem(
            q=np.zeros(5), P=sigma, A_eq=ones[None, :], b_eq=np.array([1.0]),
        ))
        assert res.status == "Optimal"
        np.testing.assert_allclose(res.x, w_star, atol=1e-7)


def test_polish_reaches_tight_residuals(rng):
    sigma = random_psd(rng, 4, scale=0.01)
    res = solve(QpProblem(
        q=np.zeros(4), P=sigma,
        A_eq=np.ones((1, 4)), b_eq=np.array([1.0]),
        lb=np.zeros(4), ub=np.ones(4),
    ))
    assert res.status == "Optimal"
    assert res.primal_residual < 1e-8
    assert res.dual_residual < 1e-8


# a 3-variable QP whose optimum x = (0.4322, 0, 0.5678) the interior point
# reaches in two iterations
ONE_ITERATION_QP = QpProblem(
    q=np.array([-0.4411, 1.3261, -0.4385]),
    P=np.array([[0.0692, -0.0365, -0.0209],
                [-0.0365, 0.1324, 0.01],
                [-0.0209, 0.01, 0.0431]]),
    A_eq=np.ones((1, 3)), b_eq=np.array([1.0]),
    lb=np.zeros(3), ub=np.ones(3),
)


def test_iteration_cap(monkeypatch):
    # a QP: its iterations are those of the interior-point method. Without the
    # finish, one iteration certifies nothing
    monkeypatch.setattr(quantfolio.solver, "IPM_MAX_ITERATIONS", 1)
    monkeypatch.setattr(quantfolio.solver, "_finish", lambda *args: None)
    res = solve(ONE_ITERATION_QP)
    assert res.status == "MaxIterations"
    assert res.iterations == 1


def test_finish_after_one_iteration_reaches_the_optimum(monkeypatch):
    # after one iteration the box rows of x₁ and x₃ have a slack below their
    # dual at both bounds; the finish guesses each at the side with the larger
    # dual only (guessed at both, it cycles between vertices). The optimum has
    # x₂ = 0 and equal gradients on x₁ and x₃: 0.1541 x₁ = 0.0666
    monkeypatch.setattr(quantfolio.solver, "IPM_MAX_ITERATIONS", 1)
    res = solve(ONE_ITERATION_QP)
    assert res.status == "Optimal"
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, [0.0666 / 0.1541, 0.0, 0.0875 / 0.1541], rtol=1e-12)
    assert res.x[1] == 0.0


def test_fits_leave_scipy_optimize_unloaded():
    # HiGHS is loaded only to classify a QP the interior point leaves
    # unsolved. Run in a fresh interpreter: test modules import
    # scipy.optimize themselves.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import quantfolio.cli
        from quantfolio import (HierarchicalRiskParity, MeanRisk,
                                NestedClustersOptimization, RiskMeasure)
        from quantfolio.exceptions import InfeasibleProblem
        rng = np.random.default_rng(0)
        X = rng.normal(5e-4, 0.01, (120, 6)) + rng.normal(0.0, 0.01, (120, 1))
        MeanRisk().fit(X)
        MeanRisk(risk_measure=RiskMeasure.CVAR).fit(X)
        HierarchicalRiskParity().fit(X)
        NestedClustersOptimization().fit(X)
        assert "scipy.optimize" not in sys.modules
        try:
            MeanRisk(risk_caps=[(RiskMeasure.CVAR, -1.0)]).fit(X)
        except InfeasibleProblem:
            pass
        else:
            raise AssertionError("a CVaR cap below any portfolio's CVaR was met")
        assert "scipy.optimize" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(quantfolio.solver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Problems without a single constraint row go through the same solve paths
# as any other; the expected outcomes are those of the former closed-form
# path (eigenvalue test, then a least-squares stationarity check).
@pytest.mark.parametrize("P, q, status, x", [
    # singular P, q in its range: the minimum-norm stationary point
    (np.diag([1.0, 0.0, 4.0]), [-1.0, 0.0, 2.0], "Optimal", [1.0, 0.0, -0.5]),
    # singular P, q outside its range
    (np.diag([1.0, 0.0]), [-1.0, -1.0], "Unbounded", None),
    # linear objective only
    (None, [-1.0, 0.5], "Unbounded", None),
    # all-zero objective
    (np.zeros((3, 3)), [0.0, 0.0, 0.0], "Optimal", [0.0, 0.0, 0.0]),
], ids=["singular_consistent", "singular_inconsistent", "linear_only", "all_zero"])
def test_problem_without_rows(P, q, status, x):
    res = solve(QpProblem(q=np.array(q), P=P))
    assert res.status == status
    if x is not None:
        np.testing.assert_allclose(res.x, x, atol=1e-8)


def _select_independent_loop(rows, tol=1e-8):
    """Reference: the row-by-row modified Gram-Schmidt the vectorised version replaced."""
    basis: list[np.ndarray] = []
    keep = []
    for i, r in enumerate(rows):
        nr = np.linalg.norm(r)
        if nr <= 1e-14:
            continue
        v = r / nr
        for _ in range(2):  # reorthogonalize for stability
            for b in basis:
                v = v - (v @ b) * b
        nv = np.linalg.norm(v)
        if nv > tol:
            basis.append(v / nv)
            keep.append(i)
    return keep


def _candidate_rows(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    r = int(rng.integers(1, 3 * n))
    if kind == "random":
        return rng.normal(size=(r, n))
    if kind == "rank_deficient":
        rank = int(rng.integers(1, n))
        return rng.normal(size=(r, rank)) @ rng.normal(size=(rank, n))
    if kind == "duplicated":
        base = rng.normal(size=(max(r // 2, 1), n))
        rows = base[rng.integers(0, base.shape[0], r)]
        rows[rng.random(r) < 0.2] = 0.0
        return rows
    # signed unit rows, as box and budget rows of the drawdown LPs look
    return np.eye(n)[rng.integers(0, n, r)] * rng.choice([-1.0, 1.0], (r, 1))


def _select(rows):
    """`_select_independent` on every row of a dense array, in row order, on all columns."""
    return _select_independent(scipy.sparse.csr_array(rows), np.arange(rows.shape[0]),
                               np.arange(rows.shape[1]))


@pytest.mark.parametrize("kind", ["random", "rank_deficient", "duplicated", "signed_unit"])
def test_select_independent_matches_loop(kind):
    for seed in range(100):
        rows = _candidate_rows(kind, seed)
        assert _select(rows) == _select_independent_loop(rows), seed


def test_select_independent_skips_repeated_row():
    # e1, e1, e2, e3: the repeat is dropped and the later independent rows kept
    rows = np.eye(3)[[0, 0, 1, 2]]
    assert _select(rows) == _select_independent_loop(rows) == [0, 2, 3]


def _cdar_problem():
    """A CDaR LP at T=120, N=10: 359 chained drawdown rows over 251 columns."""
    rng = np.random.default_rng(0)
    S = rng.normal(5e-4, 0.01, (120, 10)) + rng.normal(0.0, 0.01, (120, 1))
    prior = Prior(mu=S.mean(axis=0), sigma=np.cov(S, rowvar=False), scenarios=S)
    return _assemble(MeanRisk(ObjectiveFunction.MINIMIZE_RISK, RiskMeasure.CDAR), prior)[0]


def _cdar_rows():
    """The CSR rows [A_eq; G] of `_cdar_problem`, as the interior point keeps them."""
    problem = _cdar_problem()
    return scipy.sparse.vstack([problem.A_eq, problem.G], format="csr")


@pytest.mark.parametrize("kind", ["empty_idx", "repeats", "empty_rows", "drawdown"])
def test_dense_rows_matches_csr_slice(kind):
    rng = np.random.default_rng(3)
    if kind == "drawdown":
        A = _cdar_rows()
        idx = rng.integers(0, A.shape[0], 400)
    else:
        dense = rng.normal(size=(12, 7)) * (rng.random((12, 7)) < 0.4)
        dense[[2, 5, 11]] = 0.0  # rows with no stored entry
        A = scipy.sparse.csr_array(dense)
        idx = {"empty_idx": np.array([], dtype=int),
               "repeats": np.array([3, 3, 0, 7, 3, 11, 0]),
               "empty_rows": np.array([2, 4, 5, 11, 1])}[kind]
    got = _dense_rows(A, idx)
    assert got.shape == (idx.size, A.shape[1])
    assert np.array_equal(got, A[idx].toarray())


@pytest.mark.parametrize("case", ["maximize_ratio/variance", "maximize_ratio/variance/min_return",
                                  "minimize_risk/variance/named_cap", "minimize_risk/cvar",
                                  "maximize_return/cvar/cvar_cap"])
def test_finish_puts_variables_exactly_on_their_bounds(case, monkeypatch):
    # long-only QPs and LPs with bounds active at the optimum: every variable
    # the finish fixes at a bound (a nonzero bound multiplier) and every
    # variable of a one-variable row of G that it keeps active (the
    # homogenised bounds of MaximizeRatio) leaves it exactly at that bound,
    # and never at -0.0
    objective, measure, cons, extra = _cases()[case]
    problem, _, _ = _assemble(MeanRisk(objective, measure, **cons, **extra), _prior())
    finished = []
    monkeypatch.setattr(quantfolio.solver, "_finish",
                        lambda *args: finished.append(_finish(*args)) or finished[-1])
    res = solve(problem)
    assert res.status == "Optimal"
    x = finished[-1][0]
    assert np.array_equal(res.x, x)  # the finished point is the one returned
    at_bound = [(j, problem.ub[j] if y > 0 else problem.lb[j])
                for j, y in enumerate(res.y_bound) if y != 0]
    G = problem.G.toarray() if problem.G is not None else np.zeros((0, x.size))
    for row, h, y in zip(G, problem.h if problem.G is not None else (), res.y_ineq):
        if y != 0 and np.count_nonzero(row) == 1:
            j = int(np.flatnonzero(row)[0])
            at_bound.append((j, h / row[j]))
    assert at_bound
    for j, bound in at_bound:
        assert x[j] == bound and not np.signbit(x[j])


def test_cdar_lp_repeats_exactly():
    problem = _cdar_problem()
    first, second = solve(problem), solve(problem)
    assert first.status == second.status == "Optimal"
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)


def test_cdar_chained_block_shape_and_solve():
    # CDaR at T=300, N=5: the chained block has 3T − 1 = 899 rows over the
    # weights, T peaks, α and T auxiliaries; its peak rows hold N entries of
    # C_t and p_t, its chain rows p_{t−1} and p_t, its loss rows N entries and
    # p_t, α and z_t. Assembly and the solve stay under 16 arrays of the n×n
    # reduced KKT matrix's size (measured: 7.3, and 11.3 while the finish
    # kept a dense unregularised copy of its KKT matrix for refinement)
    T, N = 300, 5
    rng = np.random.default_rng(0)
    S = rng.normal(5e-4, 0.01, (T, N)) + rng.normal(0.0, 0.01, (T, 1))
    prior = Prior(mu=S.mean(axis=0), sigma=np.cov(S, rowvar=False), scenarios=S)
    tracemalloc.start()
    try:
        problem, _, _ = _assemble(MeanRisk(ObjectiveFunction.MINIMIZE_RISK, RiskMeasure.CDAR),
                                  prior)
        res = solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    G, n = problem.G, problem.dimensions()
    assert scipy.sparse.issparse(G) and G.shape == (3 * T - 1, N + 2 * T + 1) and n == G.shape[1]
    assert (G != 0).sum() == T * (N + 1) + 2 * (T - 1) + T * (N + 3)
    assert res.status == "Optimal"
    assert peak < 16 * n * n * 8


def test_failed_finish_makes_at_most_finish_rounds_kkt_solves(monkeypatch):
    # the LP of the golden case minimize_risk/cvar/infeasible_floor: the
    # interior point ends unconverged, the finish from its best iterate fails,
    # making no more KKT solves than it has correction rounds, and HiGHS
    # classifies the LP
    objective, measure, cons, extra = _cases()["minimize_risk/cvar/infeasible_floor"]
    problem, _, _ = _assemble(MeanRisk(objective, measure, **cons, **extra), _prior())
    polish_step = quantfolio.solver._polish_step
    finished, kkt_solves = [], []

    def finish(*args):
        finished.append(_finish(*args))
        return finished[-1]

    monkeypatch.setattr(quantfolio.solver, "_finish", finish)
    monkeypatch.setattr(quantfolio.solver, "_polish_step",
                        lambda *args: kkt_solves.append(1) or polish_step(*args))
    res = solve(problem)
    assert res.status == "Infeasible"
    assert finished == [None]
    assert 1 <= len(kkt_solves) <= quantfolio.solver.FINISH_ROUNDS


@pytest.mark.parametrize("case", ["maximize_ratio/cvar/caps", "maximize_ratio/variance/short",
                                  "minimize_risk/cdar", "maximize_utility/mad/l1+mixed"])
def test_polished_residuals_match_unscaled_recomputation(case):
    # the solver measures residuals on the problem normalised by its largest
    # P or q entry; recompute them from the returned point and multipliers on
    # the problem's own blocks
    objective, measure, cons, extra = _cases()[case]
    problem, _, _ = _assemble(MeanRisk(objective, measure, **cons, **extra), _prior())
    res = solve(problem)
    assert res.status == "Optimal"
    r_prim, r_dual, prim_scale, dual_scale = block_residuals(problem, res)
    # a finished point, far inside the tolerance EPS_ABS = 1e-8
    assert max(res.primal_residual, res.dual_residual) < 1e-12
    assert abs(res.primal_residual - r_prim) <= 1e-12 * prim_scale
    assert abs(res.dual_residual - r_dual) <= 1e-12 * dual_scale


def test_unfinished_dual_residual_matches_unscaled_recomputation(monkeypatch):
    # an interior-point iterate after 3 iterations, without the finish: its
    # dual residual is far from zero, so a wrong unscaling of y shows
    monkeypatch.setattr(quantfolio.solver, "IPM_MAX_ITERATIONS", 3)
    monkeypatch.setattr(quantfolio.solver, "_finish", lambda *args: None)
    objective, measure, cons, extra = _cases()["maximize_utility/mad/l1+mixed"]
    problem, _, _ = _assemble(MeanRisk(objective, measure, **cons, **extra), _prior())
    res = solve(problem)
    assert (res.status, res.iterations) == ("MaxIterations", 3)
    _, r_dual, _, dual_scale = block_residuals(problem, res)
    assert res.dual_residual > 1e-6 * dual_scale
    assert abs(res.dual_residual - r_dual) <= 1e-12 * dual_scale


@pytest.mark.parametrize("P", [None, np.diag([0.2, 0.1, 0.3])], ids=["lp", "qp"])
def test_variable_with_equal_bounds_is_optimal_at_that_value(P):
    # x₂ has lb = ub = 0.3: the solve keeps it there exactly, and the budget
    # and the objective decide the rest
    res = solve(QpProblem(q=np.array([-1.0, -2.0, 0.5]), P=P, A_eq=np.ones((1, 3)),
                          b_eq=np.array([1.0]), lb=np.array([0.0, 0.3, 0.0]),
                          ub=np.array([1.0, 0.3, 1.0])))
    assert res.status == "Optimal"
    assert res.x[1] == 0.3
    np.testing.assert_allclose(res.x, [0.7, 0.3, 0.0], atol=1e-9)


@pytest.mark.parametrize("P", [None, np.eye(2)], ids=["lp", "qp"])
def test_one_sided_bounds(P):
    # x₁ ≥ 0.25 with no upper bound, x₂ ≤ -0.5 with no lower bound; the
    # objective pushes both onto their one bound, with multipliers of the
    # bound's sign: < 0 at lb, > 0 at ub
    res = solve(QpProblem(q=np.array([1.0, -2.0]), P=P, lb=np.array([0.25, -np.inf]),
                          ub=np.array([np.inf, -0.5])))
    assert res.status == "Optimal"
    assert res.x.tolist() == [0.25, -0.5]
    assert res.y_bound[0] < 0.0 < res.y_bound[1]
    # the open sides alone: each variable's optimum is unbounded
    for lb, ub in ((np.array([0.25, 0.25]), None), (None, np.array([-0.5, -0.5]))):
        assert solve(QpProblem(q=np.array([-1.0, 1.0]), lb=lb, ub=ub)).status == "Unbounded"


@pytest.mark.filterwarnings("ignore:L1/L2 regularization")
@pytest.mark.parametrize("name", sorted(_cases()))
def test_block_multipliers_are_stationary_and_signed(name):
    # every golden problem that solves: the bound multipliers are positive only
    # at a variable's upper bound and negative only at its lower one, the
    # rows of G carry non-negative multipliers, and Px + q + A_eqᵀy_eq +
    # Gᵀy_ineq + y_bound = 0 within the solver's tolerance
    objective, measure, cons, extra = _cases()[name]
    try:
        problem, _, _ = _assemble(MeanRisk(objective, measure, **cons, **extra), _prior())
    except QuantfolioError:  # a case whose error is its golden outcome
        return
    res = solve(problem)
    if res.status != "Optimal":
        return
    r_prim, r_dual, prim_scale, dual_scale = block_residuals(problem, res)
    tol = quantfolio.solver.EPS_ABS
    assert r_dual <= tol + quantfolio.solver.EPS_REL * dual_scale
    assert abs(res.dual_residual - r_dual) <= 1e-12 * dual_scale
    y_tol = 1e-9 * max(1.0, np.abs(res.y_bound).max())
    upper, lower = res.y_bound > y_tol, res.y_bound < -y_tol
    np.testing.assert_allclose(res.x[upper], problem.ub[upper], rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.x[lower], problem.lb[lower], rtol=0, atol=1e-8)
    assert np.all(res.y_ineq >= -y_tol)
    assert res.y_eq.shape == problem.b_eq.shape
    assert res.y_ineq.shape == (0 if problem.G is None else problem.G.shape[0],)


def test_dense_budget_and_box_problem_needs_no_sparse_matrix(monkeypatch):
    # a dense QpProblem under the dense cell count: no scipy.sparse matrix is
    # built on the way to its optimum
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was built")

    for name in ("csr_array", "csc_array", "coo_array", "csr_matrix", "csc_matrix",
                 "coo_matrix", "vstack", "hstack"):
        monkeypatch.setattr(scipy.sparse, name, refuse)
    res = solve(ONE_ITERATION_QP)
    assert res.status == "Optimal"
    np.testing.assert_allclose(res.x, [0.0666 / 0.1541, 0.0, 0.0875 / 0.1541], rtol=1e-12)
