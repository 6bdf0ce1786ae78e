"""Epigraph reformulations turning scenario risk measures into LP blocks.

Problems are assembled from row blocks: `ProblemBuilder.add_rows(cols, M,
rhs)` records `M · x[cols] ≤ rhs` (or `=`) for a dense or `scipy.sparse` M,
and `build()` writes every block into one CSR `G` and one CSR `A_eq`, in the
order the blocks were added, but for an inequality row on one variable: that
becomes a bound. Each reformulation adds its auxiliary variables and one
sparse row block, and returns the risk value as a `(cols, coefs)` linear
term. Minimizing that term over the auxiliaries with the weights held fixed
reproduces the measures-module value exactly, which is the central
correctness property tested against the measures module. Variance has no
block: the mean-risk layer adds it as a quadratic term.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .exceptions import UnsupportedMeasure
from .measures import DEFAULT_BETA, QUADRATIC_MEASURES, RiskMeasure
from .solver import QpProblem


def unit_rows(n: int, idx: np.ndarray) -> scipy.sparse.csr_array:
    """CSR rows of the n×n identity picked by `idx`: row r is e_idx[r]."""
    return scipy.sparse.csr_array((np.ones(idx.size), idx, np.arange(idx.size + 1)),
                                  shape=(idx.size, n))


class ProblemBuilder:
    """Incrementally assemble a QpProblem from variable and row blocks."""

    def __init__(self):
        self.n = 0
        self._lb: list[np.ndarray] = []
        self._ub: list[np.ndarray] = []
        self._rows: dict[bool, list] = {True: [], False: []}  # eq -> [(cols, COO M, rhs)]
        self._cost: list[tuple[np.ndarray, np.ndarray]] = []
        self._quad: list[tuple[np.ndarray, np.ndarray]] = []  # (indices, M): adds xᵀMx

    def add_variables(self, count: int, lb=-np.inf, ub=np.inf) -> np.ndarray:
        """`count` new columns with scalar or per-variable bounds."""
        idx = np.arange(self.n, self.n + count)
        self.n += count
        self._lb.append(np.broadcast_to(np.asarray(lb, dtype=float), (count,)))
        self._ub.append(np.broadcast_to(np.asarray(ub, dtype=float), (count,)))
        return idx

    def add_rows(self, cols, M, rhs, eq: bool = False):
        """M · x[cols] = rhs if `eq`, else M · x[cols] ≤ rhs; one row per row of M.

        M is dense (a 1-D M is one row) or `scipy.sparse`.
        """
        M = scipy.sparse.coo_array(M if scipy.sparse.issparse(M) else np.atleast_2d(M),
                                   dtype=float)
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (M.shape[0],))
        self._rows[eq].append((np.asarray(cols, dtype=int), M, rhs))

    def add_cost(self, expr: tuple[np.ndarray, np.ndarray], factor: float = 1.0):
        """Adds factor · Σ coefs·x[cols] to the objective."""
        cols, coefs = expr
        self._cost.append((np.asarray(cols, dtype=int), np.asarray(coefs, dtype=float) * factor))

    def add_quadratic(self, indices: np.ndarray, M: np.ndarray):
        """Adds xᵀ M x (no ½ factor) over the given variable block."""
        self._quad.append((np.asarray(indices, dtype=int), np.asarray(M, dtype=float)))

    def build(self) -> QpProblem:
        """The problem of the blocks. An inequality row a·x_j ≤ h on one variable
        is the bound x_j ≤ h/a (a > 0) or x_j ≥ h/a (a < 0), intersected with
        the column's bounds, and leaves G (None when no row is left)."""
        n = self.n
        q = np.zeros(n)
        for cols, coefs in self._cost:
            q[cols] += coefs
        P = None
        if self._quad:
            P = np.zeros((n, n))
            for idx, M in self._quad:
                P[np.ix_(idx, idx)] += 2.0 * (M + M.T) / 2  # solver uses ½xᵀPx
        A_eq, b_eq = _stack(self._rows[True], n)
        G, h = _stack(self._rows[False], n)
        lb = np.concatenate([np.zeros(0), *self._lb])
        ub = np.concatenate([np.zeros(0), *self._ub])
        if G is not None:
            G.eliminate_zeros()  # a stored zero is no coefficient to divide by
            one = np.diff(G.indptr) == 1
            pos = G.indptr[:-1][one]  # the position of such a row's one entry
            j, a = G.indices[pos], G.data[pos]
            bound = h[one] / a + 0.0  # + 0.0 turns −0.0 into 0.0
            np.minimum.at(ub, j[a > 0], bound[a > 0])
            np.maximum.at(lb, j[a < 0], bound[a < 0])
            if one.any():
                G, h = (None, None) if one.all() else (G[~one], h[~one])
        return QpProblem(q=q, P=P, A_eq=A_eq, b_eq=b_eq, G=G, h=h, lb=lb, ub=ub)


def _stack(blocks, n: int):
    """CSR (matrix, rhs) holding the row blocks in order; (None, None) if empty."""
    starts = np.cumsum([0] + [M.shape[0] for _, M, _ in blocks])
    if starts[-1] == 0:
        return None, None
    row = np.concatenate([M.row + r for (_, M, _), r in zip(blocks, starts)])
    col = np.concatenate([cols[M.col] for cols, M, _ in blocks])
    val = np.concatenate([M.data for _, M, _ in blocks])
    A = scipy.sparse.csr_array((val, (row, col)), shape=(starts[-1], n))
    return A, np.concatenate([rhs for _, _, rhs in blocks])


_EPIGRAPH_MEASURES = (RiskMeasure.MEAN_ABSOLUTE_DEVIATION, RiskMeasure.CVAR, RiskMeasure.CDAR,
                      RiskMeasure.MAX_DRAWDOWN, RiskMeasure.WORST_REALIZATION)


def require_epigraph(measure: RiskMeasure):
    """Raise UnsupportedMeasure unless `reformulate_risk` has a block for `measure`."""
    if measure in QUADRATIC_MEASURES:
        raise UnsupportedMeasure(
            "variance/std-dev risk caps need a quadratic constraint, which "
            "the LP/QP solver does not support; cap CVaR or MAD instead"
        )
    if measure not in _EPIGRAPH_MEASURES:
        raise UnsupportedMeasure(f"no reformulation for {measure}")


def reformulate_risk(
    builder: ProblemBuilder,
    measure: RiskMeasure,
    scenarios: np.ndarray,
    w_idx: np.ndarray,
    beta: float = DEFAULT_BETA,
) -> tuple[np.ndarray, np.ndarray]:
    """Register the epigraph block for `measure` on the scenarios (T×N); returns
    its risk as a `(cols, coefs)` linear term.

    Variance and standard deviation have no epigraph: a variance objective is
    a quadratic term, and a cap on either would need a quadratic constraint.
    Drawdown-based blocks use uncompounded drawdowns (linear in w).
    """
    require_epigraph(measure)
    S = np.asarray(scenarios, dtype=float)
    T = S.shape[0]

    if measure is RiskMeasure.MEAN_ABSOLUTE_DEVIATION:
        # u_t ≥ ±(r_t − m)ᵀw  →  ±(r_t − m)ᵀw − u_t ≤ 0; the two rows of t adjacent
        u = builder.add_variables(T, lb=0.0)
        dev = np.repeat(S - S.mean(axis=0), 2, axis=0)
        dev[1::2] *= -1.0
        builder.add_rows(np.concatenate([w_idx, u]),
                         scipy.sparse.hstack([dev, -unit_rows(T, np.arange(T).repeat(2))]), 0.0)
        return u, np.full(T, 1.0 / T)

    eye = unit_rows(T, np.arange(T))
    if measure in (RiskMeasure.CDAR, RiskMeasure.MAX_DRAWDOWN):
        # Chained peaks (Chekhlov, Uryasev & Zabarankin 2005): p_t ≥ C_tᵀw and
        # p_t ≥ p_{t−1} make p_t at least the running peak max_{s≤t} C_sᵀw,
        # and the loss of t is p_t − C_tᵀw. A higher peak only raises losses,
        # so the least risk over p is the measure's value. 3T − 1 rows in all.
        C = np.cumsum(S, axis=0)  # cumulative scenario returns, C_tᵀw linear
        p = builder.add_variables(T)
        cols = np.concatenate([w_idx, p])
        builder.add_rows(cols, scipy.sparse.hstack([C, -eye]), 0.0)
        builder.add_rows(p, unit_rows(T, np.arange(T - 1)) - unit_rows(T, np.arange(1, T)), 0.0)
        losses = scipy.sparse.hstack([-C, eye])
    else:  # CVaR and worst realization: one loss row −r_tᵀw per scenario
        cols = w_idx
        losses = scipy.sparse.coo_array(-S)

    if measure in (RiskMeasure.CVAR, RiskMeasure.CDAR):
        # z_t ≥ L_rᵀw − α  →  L_rᵀw − α − z_t ≤ 0; risk α + Σz/((1−β)T)
        aux = builder.add_variables(1)  # alpha, free
        z = builder.add_variables(T, lb=0.0)
        M = scipy.sparse.hstack([losses, -np.ones((T, 1)), -eye])
        builder.add_rows(np.concatenate([cols, aux, z]), M, 0.0)
        factor = 1.0 / ((1.0 - beta) * T)
        return np.concatenate([aux, z]), np.concatenate([[1.0], np.full(T, factor)])

    # max drawdown and worst realization: y ≥ L_rᵀw  →  [L | −1] ≤ 0
    yv = builder.add_variables(1, lb=0.0 if measure is RiskMeasure.MAX_DRAWDOWN else -np.inf)
    builder.add_rows(np.append(cols, yv), scipy.sparse.hstack([losses, -np.ones((T, 1))]), 0.0)
    return yv, np.ones(1)
