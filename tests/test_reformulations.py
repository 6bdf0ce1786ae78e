"""Each vectorized epigraph block equals the same rows written one by one.

The reference loops below build the rows in the documented order (MAD rows
interleaved ±; for drawdowns the T peak rows p_t ≥ C_tᵀw, the T − 1 chain
rows p_t ≥ p_{t−1}, then one loss row p_t − C_tᵀw per period), so any
change to the order or the values of a block shows here before it reaches
a solve.
"""

import numpy as np
import pytest

from quantfolio.exceptions import InfeasibleProblem
from quantfolio.mean_risk import MeanRisk, optimize
from quantfolio.measures import RiskMeasure
from quantfolio.priors import Prior
from quantfolio.reformulations import ProblemBuilder, reformulate_risk
from quantfolio.solver import solve

T, N, BETA = 6, 3, 0.9


def _reference_rows(measure, S):
    """(G, q, lb) of the block built row by row, weights in columns 0..N-1."""
    rows, q, lb = [], {}, {}
    C = np.cumsum(S, axis=0)

    def row(entries):
        rows.append(entries)

    if measure is RiskMeasure.MEAN_ABSOLUTE_DEVIATION:
        dev = S - S.mean(axis=0)
        for t in range(T):
            lb[N + t], q[N + t] = 0.0, 1.0 / T
            row({**dict(enumerate(dev[t])), N + t: -1.0})
            row({**dict(enumerate(-dev[t])), N + t: -1.0})
    else:
        losses = [dict(enumerate(-S[t])) for t in range(T)]
        aux = N  # the column of α (or y): after the weights, and after the peaks if any
        if measure in (RiskMeasure.CDAR, RiskMeasure.MAX_DRAWDOWN):
            peak = N  # p_t in column N + t
            for t in range(T):
                row({**dict(enumerate(C[t])), peak + t: -1.0})
            for t in range(1, T):
                row({peak + t - 1: 1.0, peak + t: -1.0})
            losses = [{**dict(enumerate(-C[t])), peak + t: 1.0} for t in range(T)]
            aux = N + T
        q[aux] = 1.0
        if measure in (RiskMeasure.CVAR, RiskMeasure.CDAR):
            for t in range(T):
                lb[aux + 1 + t], q[aux + 1 + t] = 0.0, 1.0 / ((1.0 - BETA) * T)
                row({**losses[t], aux: -1.0, aux + 1 + t: -1.0})
        else:
            if measure is RiskMeasure.MAX_DRAWDOWN:
                lb[aux] = 0.0
            for t in range(T):
                row({**losses[t], aux: -1.0})
    n = 1 + max(max(r) for r in rows)
    G = np.zeros((len(rows), n))
    for r, entries in enumerate(rows):
        for col, coef in entries.items():
            G[r, col] = coef
    q_vec, lb_vec = np.zeros(n), np.full(n, -np.inf)
    for col, coef in q.items():
        q_vec[col] = coef
    for col, bound in lb.items():
        lb_vec[col] = bound
    return G, q_vec, lb_vec


@pytest.mark.parametrize("measure", [
    RiskMeasure.MEAN_ABSOLUTE_DEVIATION, RiskMeasure.CVAR, RiskMeasure.CDAR,
    RiskMeasure.MAX_DRAWDOWN, RiskMeasure.WORST_REALIZATION,
])
def test_block_equals_row_by_row_reference(measure):
    S = np.random.default_rng(3).normal(0, 0.02, (T, N))
    S[2, 1] = 0.0
    builder = ProblemBuilder()
    w_idx = builder.add_variables(N)
    builder.add_cost(reformulate_risk(builder, measure, S, w_idx, beta=BETA))
    problem = builder.build()

    G, q, lb = _reference_rows(measure, S)
    np.testing.assert_array_equal(problem.G.toarray(), G)
    np.testing.assert_array_equal(problem.h, np.zeros(G.shape[0]))
    np.testing.assert_array_equal(problem.q, q)
    np.testing.assert_array_equal(problem.lb, lb)
    np.testing.assert_array_equal(problem.ub, np.full(q.size, np.inf))
    assert problem.A_eq is None and problem.P is None


def test_build_writes_blocks_in_order():
    builder = ProblemBuilder()
    x = builder.add_variables(3, lb=np.array([0.0, -1.0, -np.inf]), ub=2.0)
    builder.add_rows(x[[2, 0]], [[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])
    builder.add_rows(x[1:], [7.0, 8.0], 9.0)
    builder.add_rows(x, np.ones(3), 1.0, eq=True)
    builder.add_cost((x[:2], np.array([1.0, -1.0])), factor=2.0)
    p = builder.build()
    np.testing.assert_array_equal(p.G.toarray(),
                                  [[2.0, 0.0, 1.0], [4.0, 0.0, 3.0], [0.0, 7.0, 8.0]])
    np.testing.assert_array_equal(p.h, [5.0, 6.0, 9.0])
    np.testing.assert_array_equal(p.A_eq.toarray(), [[1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(p.b_eq, [1.0])
    np.testing.assert_array_equal(p.q, [2.0, -2.0, 0.0])
    np.testing.assert_array_equal(p.lb, [0.0, -1.0, -np.inf])
    np.testing.assert_array_equal(p.ub, [2.0, 2.0, 2.0])


INF = np.inf


@pytest.mark.parametrize("rows, lb, ub, G, status", [
    # a > 0 tightens ub, a < 0 tightens lb; a zero limit gives 0.0, not -0.0
    ([([0], [2.0], 1.0), ([1], [-4.0], 2.0), ([2], [-1.0], 0.0)],
     [0.0, -0.5, 0.0], [0.5, 3.0, INF], None, "Optimal"),
    # looser rows leave the bounds as they were
    ([([0], [1.0], 5.0), ([1], [-1.0], 7.0), ([2], [1.0], INF)],
     [0.0, -1.0, -INF], [3.0, 3.0, INF], None, "Optimal"),
    # a two-variable row stays in G, between the rows that became bounds
    ([([0], [2.0], 1.0), ([0, 2], [1.0, 1.0], 1.0), ([0], [4.0], 3.0)],
     [0.0, -1.0, -INF], [0.5, 3.0, INF], [[1.0, 0.0, 1.0]], "Optimal"),
    # h = −∞ admits no value
    ([([2], [1.0], -INF)], [0.0, -1.0, -INF], [3.0, 3.0, -INF], None, "Infeasible"),
    # a row that conflicts with the column's bound
    ([([0], [-1.0], -4.0)], [4.0, -1.0, -INF], [3.0, 3.0, INF], None, "Infeasible"),
], ids=["tighten", "looser", "two_variable", "minus_infinity", "conflict"])
def test_build_turns_one_variable_rows_into_bounds(rows, lb, ub, G, status):
    builder = ProblemBuilder()
    x = builder.add_variables(3, lb=np.array([0.0, -1.0, -INF]), ub=np.array([3.0, 3.0, INF]))
    for cols, M, rhs in rows:
        builder.add_rows(x[cols], M, rhs)
    problem = builder.build()
    np.testing.assert_array_equal(problem.lb, lb)
    np.testing.assert_array_equal(problem.ub, ub)
    bounds = np.concatenate([problem.lb, problem.ub])
    assert not np.signbit(bounds[bounds == 0.0]).any()
    if G is None:
        assert problem.G is None and problem.h is None
    else:
        np.testing.assert_array_equal(problem.G.toarray(), G)
        np.testing.assert_array_equal(problem.h, [1.0])
    res = solve(problem)
    assert res.status == status
    if status == "Infeasible":
        assert res.iterations == 0


def test_one_asset_linear_row_conflicting_with_its_bound_is_infeasible():
    # w₀ ≥ 0.6 from `linear_A` against max_weights = 0.5: the builder's bound
    # lb₀ = 0.6 exceeds ub₀, and `optimize` raises
    rng = np.random.default_rng(0)
    S = rng.normal(5e-4, 0.01, (60, 3))
    prior = Prior(mu=S.mean(axis=0), sigma=np.cov(S, rowvar=False), scenarios=S)
    model = MeanRisk(max_weights=0.5, linear_A=[[1.0, 0.0, 0.0]], linear_b=[0.6])
    with pytest.raises(InfeasibleProblem):
        optimize(model, prior)
