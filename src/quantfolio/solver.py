"""Operator-splitting (ADMM) solver for convex QPs and LPs.

Problems are solved in the form

    minimize    (1/2) xᵀP x + qᵀx
    subject to  l ≤ A x ≤ u

with Ruiz equilibration, a reduced (normal-equations) linear system per
iteration, and an active-set polish that finishes the solve to near machine
precision once the iterate is moderately accurate. A polish is tried when
ADMM converges and every POLISH_INTERVAL iterations; a QP (nonzero P) also
tries one at the checks CHECK_INTERVAL·2^j below POLISH_INTERVAL (25, 50,
100, 200, 400), since its active set is usually known within the first few
checks. An LP keeps the plain interval: on the drawdown LPs the early
attempts certify nothing and only add KKT solves. The
constraint matrix A is CSR throughout: A_eq, G and the box rows are stacked
as CSR, Ruiz scaling rescales its stored values, and the iterations and the
convergence and infeasibility checks run on that scaled CSR and one
transpose. The checks judge unscaled residuals by rescaling vectors with
the Ruiz factors: A₀x = (Ax)/E, P₀x = (Px)/(cD) and A₀ᵀy = (Aᵀy)/(cD),
defined once in `solve` (`A0x`, `P0x`, `A0Ty`) and used by the residual
function and both infeasibility certificates. One residual function judges
ADMM iterates and polished points alike. Equality rows (|u − l| < 1e-14)
are found once, on the caller's bounds; they get the stiffer penalty and
always enter the polish. The only dense arrays are P, the n×n reduced
matrix and its factor, and the rows of the unscaled A that a polish
selects. Everything runs sequentially, so results are bit-deterministic for
fixed inputs.

On the small QPs of a backtest a polish costs more in Python calls than in
arithmetic, so it makes few of them: `_dense_rows` gathers the candidate and
dual-fit rows straight from the CSR arrays with a handful of vectorised
index operations, `_select_independent` normalises every candidate row in
one operation before its greedy loop, and the KKT system is factored and
refined by LAPACK's `dgetrf`/`dgetrs` directly (the routines inside
`lu_factor`/`lu_solve`, without their per-call checks), as the reduced
system is solved by `dpotrs`. After the KKT solve, each kept row with a
single nonzero a (a box row, or a one-variable row of G) sets its variable to
b / a exactly, never to -0.0, so a variable at its bound carries no solver
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

# Fixed solver constants, read at call time.
EPS_ABS = 1e-8
EPS_REL = 1e-8
EPS_INFEAS = 1e-9
MAX_ITERATIONS = 20000
RHO = 0.1
SIGMA = 1e-6
ALPHA = 1.6
CHECK_INTERVAL = 25
SCALING_ITERATIONS = 10
POLISH_REFINE_STEPS = 8
# attempt polish every this many iterations; a QP also at CHECK_INTERVAL·2^j below it
POLISH_INTERVAL = 500


@dataclass
class QpProblem:
    """min ½xᵀPx + qᵀx s.t. A_eq x = b_eq, G x ≤ h, lb ≤ x ≤ ub.

    `A_eq` and `G` may be dense 2-D arrays or `scipy.sparse` matrices.
    """

    q: np.ndarray
    P: np.ndarray | None = None
    A_eq: np.ndarray | scipy.sparse.sparray | None = None
    b_eq: np.ndarray | None = None
    G: np.ndarray | scipy.sparse.sparray | None = None
    h: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def dimensions(self) -> int:
        return np.asarray(self.q).size


@dataclass
class SolveResult:
    x: np.ndarray
    objective: float
    status: str  # Optimal | Infeasible | Unbounded | MaxIterations
    iterations: int
    primal_residual: float
    dual_residual: float
    y: np.ndarray = field(default=None, repr=False)


def unit_rows(n: int, idx: np.ndarray) -> scipy.sparse.csr_array:
    """CSR rows of the n×n identity picked by `idx`: row r is e_idx[r]."""
    return scipy.sparse.csr_array((np.ones(idx.size), idx, np.arange(idx.size + 1)),
                                  shape=(idx.size, n))


def _stack_problem(problem: QpProblem):
    """P, q, and the CSR rows A = [A_eq; G; box] with their bounds l ≤ Ax ≤ u."""
    n = problem.dimensions()
    q = np.asarray(problem.q, dtype=float).ravel()
    P = np.zeros((n, n)) if problem.P is None else np.asarray(problem.P, dtype=float)
    P = (P + P.T) / 2

    blocks = []
    if problem.A_eq is not None:
        b_eq = np.asarray(problem.b_eq, dtype=float).ravel()
        blocks.append((problem.A_eq, b_eq, b_eq))
    if problem.G is not None:
        h = np.asarray(problem.h, dtype=float).ravel()
        blocks.append((problem.G, np.full(h.size, -np.inf), h))
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    box = np.flatnonzero(np.isfinite(lb) | np.isfinite(ub))
    blocks.append((unit_rows(n, box), lb[box], ub[box]))
    rows, lower, upper = zip(*blocks)
    A = scipy.sparse.vstack([scipy.sparse.csr_array(M, dtype=float) for M in rows],
                            format="csr")
    return P, q, A, np.concatenate(lower), np.concatenate(upper)


def _ruiz_equilibrate(P, q, A):
    """Scale P, q and the CSR A (its pattern kept) so row/column ∞-norms approach 1."""
    m, n = A.shape
    row = np.repeat(np.arange(m), np.diff(A.indptr))
    col = A.indices
    a = A.data
    D = np.ones(n)
    E = np.ones(m)
    c = 1.0
    for _ in range(SCALING_ITERATIONS):
        col_norms = np.abs(P).max(axis=0, initial=0.0)
        row_norms = np.zeros(m)
        np.maximum.at(col_norms, col, np.abs(a))
        np.maximum.at(row_norms, row, np.abs(a))
        d = 1.0 / np.sqrt(np.where(col_norms > 1e-12, col_norms, 1.0))
        e = 1.0 / np.sqrt(np.where(row_norms > 1e-12, row_norms, 1.0))
        P = P * d[:, None] * d[None, :]
        a = a * e[row] * d[col]
        q = q * d
        D *= d
        E *= e
        # cost scaling keeps the objective terms on comparable footing
        p_cols = np.abs(P).max(axis=0, initial=0.0)
        gamma_denom = max(p_cols.mean() if n else 0.0, np.abs(q).max(initial=0.0))
        gamma = 1.0 / gamma_denom if gamma_denom > 1e-12 else 1.0
        P = P * gamma
        q = q * gamma
        c *= gamma
    return P, q, scipy.sparse.csr_array((a, col, A.indptr), shape=A.shape), D, E, c


def _factor_reduced(P, A, AT, rho_vec):
    """Factor P + σI + Aᵀ diag(ρ) A (SPD by the σ shift) from the CSR A and its AT;
    returns the function that solves the reduced system for a right-hand side."""
    A_rho = scipy.sparse.csr_array((A.data * np.repeat(rho_vec, np.diff(A.indptr)),
                                    A.indices, A.indptr), shape=A.shape)
    M = P + SIGMA * np.eye(P.shape[0]) + (AT @ A_rho).toarray()
    try:
        L, _ = scipy.linalg.cho_factor(M, lower=True)
    except scipy.linalg.LinAlgError:
        lu = scipy.linalg.lu_factor(M)
        return lambda rhs: scipy.linalg.lu_solve(lu, rhs, check_finite=False)
    # the LAPACK call inside cho_solve, without its per-call input checks
    return lambda rhs: scipy.linalg.lapack.dpotrs(L, rhs, lower=1)[0]


def solve(problem: QpProblem) -> SolveResult:
    """Solve a QP/LP; non-optimal outcomes are returned in-band via `status`."""
    P0, q0, A0, l, u = _stack_problem(problem)
    m, n = A0.shape
    eq_mask = np.isfinite(l) & np.isfinite(u) & (np.abs(u - l) < 1e-14)

    P, q, A, D, E, c = _ruiz_equilibrate(P0, q0, A0)
    ls = l * E
    us = u * E
    AT = A.T.tocsr()

    # the unscaled products at a scaled point: A₀ at D x, P₀ at D x, A₀ᵀ at E y / c
    def A0x(x):
        return (A @ x) / E

    def P0x(x):
        return (P @ x) / (c * D)

    def A0Ty(y):
        return (AT @ y) / (c * D)

    def penalty(rho_bar):
        """ρ per row (equality rows 1e3 times stiffer) and its reduced-system solve."""
        rho_vec = np.where(eq_mask, 1e3 * rho_bar, rho_bar)
        return rho_vec, _factor_reduced(P, A, AT, rho_vec)

    def residuals(x, z, y):
        """Unscaled primal and dual residuals of the scaled point (x, z, y),
        with the magnitudes their tolerances scale by."""
        Ax, Px, ATy = A0x(x), P0x(x), A0Ty(y)
        z = z / E
        prim_scale = max(np.abs(Ax).max(initial=0.0), np.abs(z).max(initial=0.0))
        dual_scale = max(np.abs(Px).max(initial=0.0), np.abs(ATy).max(initial=0.0),
                         np.abs(q0).max(initial=0.0))
        return (np.abs(Ax - z).max(initial=0.0), np.abs(Px + q0 + ATy).max(initial=0.0),
                prim_scale, dual_scale)

    rho_bar = RHO
    rho_vec, solve_reduced = penalty(rho_bar)
    x = np.zeros(n)
    z = np.zeros(m)
    y = np.zeros(m)
    status = "MaxIterations"
    rho_updates = 0
    # stall breaker: degenerate LP tails crawl at a too-small rho while the
    # residual ratio looks balanced, so the ratio rule never fires; escalate
    # the penalty outright at fixed checkpoints if still unconverged
    escalation_points = {
        -(-(MAX_ITERATIONS // f) // CHECK_INTERVAL) * CHECK_INTERVAL for f in (10, 4, 2)
    }
    # a QP also polishes at the doubling checks CHECK_INTERVAL·2^j below
    # POLISH_INTERVAL; an LP keeps the plain interval
    early_polish = set()
    k_polish = CHECK_INTERVAL if P0.any() else POLISH_INTERVAL
    while k_polish < POLISH_INTERVAL:
        early_polish.add(k_polish)
        k_polish *= 2

    for k in range(1, MAX_ITERATIONS + 1):
        rhs = SIGMA * x - q + AT @ (rho_vec * z - y)
        x_tilde = solve_reduced(rhs)
        z_tilde = A @ x_tilde
        x_prev = x
        y_prev = y
        x = ALPHA * x_tilde + (1.0 - ALPHA) * x_prev
        z_relaxed = ALPHA * z_tilde + (1.0 - ALPHA) * z
        z_new = np.minimum(np.maximum(z_relaxed + y / rho_vec, ls), us)
        y = y + rho_vec * (z_relaxed - z_new)
        z = z_new

        if k % CHECK_INTERVAL == 0 or k == MAX_ITERATIONS:
            xu = D * x
            yu = (E * y) / c
            r_prim, r_dual, prim_scale, dual_scale = residuals(x, z, y)
            eps_prim = EPS_ABS + EPS_REL * prim_scale
            eps_dual = EPS_ABS + EPS_REL * dual_scale
            converged = r_prim <= eps_prim and r_dual <= eps_dual

            # active-set polish: finishes a converged iterate, and at the
            # early QP checks and every POLISH_INTERVAL iterations is an
            # early exit if it certifies
            if converged or k % POLISH_INTERVAL == 0 or k in early_polish:
                polished = _polish(P0, q0, A0, l, u, eq_mask, xu, yu)
                if polished is not None:
                    xs = polished[0] / D
                    rp, rd, _, _ = residuals(xs, np.clip(A @ xs, ls, us),
                                             c * polished[1] / E)
                    if max(rp, rd) <= max(r_prim, r_dual) + 1e-12 and (
                            converged or (rp <= eps_prim and rd <= eps_dual)):
                        (xu, yu), r_prim, r_dual = polished, rp, rd
                        converged = True

            if converged:
                status = "Optimal"
            elif _primal_infeasible(A0Ty, l, u, y - y_prev, (y - y_prev) * E / c,
                                    EPS_INFEAS):
                status = "Infeasible"
            elif _dual_infeasible(P0x, A0x, q0, l, u, x - x_prev, D * (x - x_prev),
                                  EPS_INFEAS):
                status = "Unbounded"
            elif k in escalation_points:
                rho_bar = float(min(rho_bar * 10.0, 1e6))
                rho_vec, solve_reduced = penalty(rho_bar)
            # penalty adaptation: rebalance rho when the scaled residual
            # ratio drifts; capped update count keeps runs deterministic
            elif rho_updates < 30 and k % (CHECK_INTERVAL * 4) == 0 and k < MAX_ITERATIONS:
                ratio = np.sqrt((r_prim / max(prim_scale, 1e-12))
                                / max(r_dual / max(dual_scale, 1e-12), 1e-16))
                if ratio > 5.0 or ratio < 0.2:
                    rho_bar = float(np.clip(rho_bar * ratio, 1e-6, 1e6))
                    rho_vec, solve_reduced = penalty(rho_bar)
                    rho_updates += 1
            if status != "MaxIterations":
                break

    if status == "Optimal":
        objective = float(0.5 * xu @ P0 @ xu + q0 @ xu)
    else:
        objective = float("nan")
    return SolveResult(
        x=xu,
        objective=objective,
        status=status,
        iterations=k,
        primal_residual=float(r_prim),
        dual_residual=float(r_dual),
        y=yu,
    )


def _primal_infeasible(A0Ty, l, u, dy, dy0, eps):
    """Farkas test on a dual step: `dy` scaled, `dy0` the same step unscaled,
    and `A0Ty` the unscaled Aᵀ product at a scaled dual."""
    norm = np.abs(dy0).max(initial=0.0)
    if norm <= 1e-14:
        return False
    d = dy0 / norm
    if np.abs(A0Ty(dy)).max(initial=0.0) > eps * norm:
        return False
    pos = np.clip(d, 0.0, None)
    neg = np.clip(d, None, 0.0)
    # infinite bounds with a non-vanishing multiplier of the wrong sign void the certificate
    if np.any(~np.isfinite(u) & (pos > eps)) or np.any(~np.isfinite(l) & (neg < -eps)):
        return False
    support = float(np.sum(u[np.isfinite(u)] * pos[np.isfinite(u)]) +
                    np.sum(l[np.isfinite(l)] * neg[np.isfinite(l)]))
    return support < -eps


def _dual_infeasible(P0x, A0x, q0, l, u, dx, dx0, eps):
    """Recession-direction test on a primal step: `dx` scaled, `dx0` the same
    step unscaled, and `P0x`, `A0x` the unscaled products at a scaled point."""
    norm = np.abs(dx0).max(initial=0.0)
    if norm <= 1e-14:
        return False
    if np.abs(P0x(dx)).max(initial=0.0) > eps * norm:
        return False
    if q0 @ (dx0 / norm) > -eps:
        return False
    Ad = A0x(dx) / norm
    ok_upper = np.where(np.isfinite(u), Ad <= eps, True)
    ok_lower = np.where(np.isfinite(l), Ad >= -eps, True)
    return bool(np.all(ok_upper & ok_lower))


def _dense_rows(A, idx):
    """Dense copy of the rows `idx` of the CSR matrix A, in the order of `idx`
    (repeats allowed): `A[idx].toarray()` without building the CSR slice.
    A holds no duplicate entries, as every CSR this module builds."""
    counts = A.indptr[idx + 1] - A.indptr[idx]
    # the positions in A.data of each picked row's entries, row after row
    pos = np.repeat(A.indptr[idx + 1] - np.cumsum(counts), counts) + np.arange(counts.sum())
    out = np.zeros((idx.size, A.shape[1]))
    out[np.repeat(np.arange(idx.size), counts), A.indices[pos]] = A.data[pos]
    return out


def _select_independent(rows, tol=1e-8):
    """Indices of a maximal independent subset of the rows of a 2-D array.

    Greedy in row order: a row is kept when its component orthogonal to the
    rows kept before it has norm above `tol` (relative to the row's norm).
    """
    n = rows.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    nonzero = np.flatnonzero(norms > 1e-14)
    units = rows[nonzero] / norms[nonzero, None]
    basis = np.empty((n, n))  # orthonormal basis of the kept rows, in its first k rows
    k = 0
    keep = []
    for i, v in zip(nonzero.tolist(), units):
        B = basis[:k]
        for _ in range(2):  # reorthogonalize for stability
            v = v - B.T @ (B @ v)
        nv = math.sqrt(v.dot(v))  # np.linalg.norm's own arithmetic
        if nv > tol:
            basis[k] = v / nv
            keep.append(i)
            k += 1
            if k == n:  # the kept rows span the space: no later row is independent
                break
    return keep


def _dual_fit(P, q, A, xv, eq_mask, act_low, act_up):
    """Sign-constrained least-squares dual: y free on equalities, y≥0 on upper-
    active rows, y≤0 on lower-active rows. Returns y, or None if the fit
    fails; a near-zero stationarity residual of (xv, y) certifies optimality
    of a primal-feasible xv."""
    g = -(P @ xv + q)
    eq = np.flatnonzero(eq_mask)
    up = np.flatnonzero(act_up)
    low = np.flatnonzero(act_low)
    # an equality row enters as a (+, -) column pair
    rows = np.concatenate([np.repeat(eq, 2), up, low])
    signs = np.concatenate([np.tile([1.0, -1.0], eq.size), np.ones(up.size),
                            -np.ones(low.size)])
    y = np.zeros(A.shape[0])
    if not rows.size:
        return y
    try:
        z, _ = scipy.optimize.nnls((_dense_rows(A, rows) * signs[:, None]).T, g)
    except (RuntimeError, ValueError):
        return None
    np.add.at(y, rows, signs * z)
    return y


def _polish_step(P, q, A_act, b_act):
    """Equality-solve the KKT system on the active rows A_act x = b_act; returns x or None."""
    n = P.shape[0]
    k = A_act.shape[0]
    delta = 1e-9
    K = np.zeros((n + k, n + k))
    K[:n, :n] = P + delta * np.eye(n)
    K[:n, n:] = A_act.T
    K[n:, :n] = A_act
    K[n:, n:] = -delta * np.eye(k)
    rhs = np.concatenate([-q, b_act])
    # iterative refinement runs against the unregularized KKT system
    K0 = K.copy()
    K0[:n, :n] -= delta * np.eye(n)
    K0[n:, n:] += delta * np.eye(k)
    # the LAPACK calls inside lu_factor and lu_solve, without their per-call checks
    lu, piv, info = scipy.linalg.lapack.dgetrf(K)
    if info != 0:  # a zero pivot: K is singular
        return None
    sol = scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0]
    for _ in range(POLISH_REFINE_STEPS):
        sol = sol + scipy.linalg.lapack.dgetrs(lu, piv, rhs - K0 @ sol)[0]
    x_new = sol[:n]
    if not np.all(np.isfinite(x_new)):
        return None
    return x_new


def _polish(P, q, A, l, u, eq_mask, x, y):
    """Active-set polish: re-solve on a candidate active set and fit its dual.

    The candidate set is read off the ADMM iterate: the equality rows
    `eq_mask`, plus rows within 1e-7 (relative) of a bound, unioned with rows
    whose dual is strong. The inequality candidates are pruned to a linearly
    independent subset for the primal KKT solve (optimal vertices of the
    drawdown LPs are degenerate, so the raw set is often rank-deficient), and
    the dual is a sign-constrained fit over the rows tight at the polished
    point, so complementary slackness holds by construction. Returns the
    candidate (x, y), or None; `solve` judges it.
    """
    has_l = np.isfinite(l) & ~eq_mask
    has_u = np.isfinite(u) & ~eq_mask
    y_norm = max(np.abs(y).max(initial=0.0), 1e-12)
    Ax = A @ x
    idx_eq = np.flatnonzero(eq_mask)

    # tight-slack rows unioned with strong-dual rows
    act_low = has_l & ((np.abs(Ax - l) <= 1e-7 * (1.0 + np.abs(l))) | (y < -1e-4 * y_norm))
    act_up = has_u & ((np.abs(u - Ax) <= 1e-7 * (1.0 + np.abs(u))) | (y > 1e-4 * y_norm))

    # prune to an independent subset: equality rows first, then candidates
    # in descending dual magnitude, so strong-dual rows win the basis
    idx_act = np.flatnonzero(act_low | act_up)
    idx_act = idx_act[np.argsort(-np.abs(y[idx_act]), kind="stable")]
    idx = np.concatenate([idx_eq, idx_act])
    rows = _dense_rows(A, idx)
    kept = np.arange(idx.size) < idx_eq.size  # every equality row stays
    kept[_select_independent(rows)] = True
    sel = np.flatnonzero(kept)
    sel = sel[np.argsort(idx[sel])]  # the KKT system takes its rows in row order
    rows = rows[sel]
    b = np.where(eq_mask | act_low, l, u)[idx[sel]]
    x_new = _polish_step(P, q, rows, b)
    if x_new is None:
        return None
    # a kept row a·x_j = b with one nonzero fixes x_j at b / a exactly (+ 0.0
    # turns a -0.0 into 0.0), so bounds hold without solver noise
    single = np.flatnonzero(np.count_nonzero(rows, axis=1) == 1)
    cols = np.argmax(rows[single] != 0, axis=1)
    x_new[cols] = b[single] / rows[single, cols] + 0.0
    Axn = A @ x_new
    fit_low = has_l & (np.abs(Axn - l) <= 1e-9 * (1.0 + np.abs(l)))
    fit_up = has_u & (np.abs(u - Axn) <= 1e-9 * (1.0 + np.abs(u)))
    y_new = _dual_fit(P, q, A, x_new, eq_mask, fit_low, fit_up)
    return None if y_new is None else (x_new, y_new)
