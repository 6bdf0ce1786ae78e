"""Dense operator-splitting (ADMM) solver for convex QPs and LPs.

Problems are solved in the form

    minimize    (1/2) xᵀP x + qᵀx
    subject to  l ≤ A x ≤ u

with Ruiz equilibration, a reduced (normal-equations) linear system per
iteration, and a periodic active-set polish that finishes the solve to
near machine precision once the iterate is moderately accurate. The
matrix-vector products of the iterations and of the convergence and
infeasibility checks run on CSR copies of the constraint matrix, built once
per solve; scaling, the factorization and polish work on dense arrays.
Everything runs sequentially, so results are bit-deterministic for fixed
inputs.
"""

from __future__ import annotations

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
POLISH_INTERVAL = 500  # attempt polish every this many iterations


@dataclass
class QpProblem:
    """min ½xᵀPx + qᵀx s.t. A_eq x = b_eq, G x ≤ h, lb ≤ x ≤ ub."""

    q: np.ndarray
    P: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    G: np.ndarray | None = None
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


def _stack_problem(problem: QpProblem):
    n = problem.dimensions()
    q = np.asarray(problem.q, dtype=float).ravel()
    P = np.zeros((n, n)) if problem.P is None else np.asarray(problem.P, dtype=float)
    P = (P + P.T) / 2

    rows, lower, upper = [], [], []
    if problem.A_eq is not None and np.asarray(problem.A_eq).size:
        A_eq = np.atleast_2d(np.asarray(problem.A_eq, dtype=float))
        b_eq = np.asarray(problem.b_eq, dtype=float).ravel()
        rows.append(A_eq)
        lower.append(b_eq)
        upper.append(b_eq)
    if problem.G is not None and np.asarray(problem.G).size:
        G = np.atleast_2d(np.asarray(problem.G, dtype=float))
        h = np.asarray(problem.h, dtype=float).ravel()
        rows.append(G)
        lower.append(np.full(h.size, -np.inf))
        upper.append(h)
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    box = np.isfinite(lb) | np.isfinite(ub)
    if box.any():
        I = np.eye(n)[box]
        rows.append(I)
        lower.append(lb[box])
        upper.append(ub[box])

    if rows:
        A = np.vstack(rows)
        l = np.concatenate(lower)
        u = np.concatenate(upper)
    else:
        A = np.zeros((0, n))
        l = np.zeros(0)
        u = np.zeros(0)
    return P, q, A, l, u


def _ruiz_equilibrate(P, q, A):
    """Scale P, q, A so row/column infinity norms approach 1."""
    n = P.shape[0]
    m = A.shape[0]
    D = np.ones(n)
    E = np.ones(m)
    c = 1.0
    for _ in range(SCALING_ITERATIONS):
        col_norms = np.maximum(
            np.abs(P).max(axis=0, initial=0.0), np.abs(A).max(axis=0, initial=0.0)
        )
        row_norms = np.abs(A).max(axis=1, initial=0.0) if m else np.zeros(0)
        d = 1.0 / np.sqrt(np.where(col_norms > 1e-12, col_norms, 1.0))
        e = 1.0 / np.sqrt(np.where(row_norms > 1e-12, row_norms, 1.0))
        P = P * d[:, None] * d[None, :]
        A = A * e[:, None] * d[None, :]
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
    return P, q, A, D, E, c


def _factor_reduced(P, A, rho_vec):
    """Factor P + σI + Aᵀ diag(ρ) A (SPD thanks to the σ shift)."""
    M = P + SIGMA * np.eye(P.shape[0]) + (A.T * rho_vec) @ A
    try:
        return ("cho", scipy.linalg.cho_factor(M, lower=True))
    except scipy.linalg.LinAlgError:
        return ("lu", scipy.linalg.lu_factor(M))


def _reduced_solve(factor, rhs):
    kind, data = factor
    if kind == "cho":
        # the LAPACK call inside cho_solve, without its per-call input checks
        x, _ = scipy.linalg.lapack.dpotrs(data[0], rhs, lower=1)
        return x
    return scipy.linalg.lu_solve(data, rhs, check_finite=False)


def solve(problem: QpProblem) -> SolveResult:
    """Solve a QP/LP; non-optimal outcomes are returned in-band via `status`."""
    P0, q0, A0, l, u = _stack_problem(problem)
    n = P0.shape[0]
    m = A0.shape[0]

    P, q, A, D, E, c = _ruiz_equilibrate(P0, q0, A0)
    ls = l * E
    us = u * E

    eq_mask = np.isfinite(ls) & np.isfinite(us) & (np.abs(us - ls) < 1e-14)
    rho_bar = RHO
    rho_vec = np.where(eq_mask, 1e3 * rho_bar, rho_bar)
    factor = _factor_reduced(P, A, rho_vec)
    A_csr = scipy.sparse.csr_array(A)
    AT_csr = A_csr.T.tocsr()
    A0_csr = scipy.sparse.csr_array(A0)
    A0T_csr = A0_csr.T.tocsr()

    x = np.zeros(n)
    z = np.zeros(m)
    y = np.zeros(m)
    status = "MaxIterations"
    iterations = MAX_ITERATIONS
    r_prim = r_dual = np.inf
    xu = np.zeros(n)
    yu = np.zeros(m)
    rho_updates = 0
    polish_result = None
    # stall breaker: degenerate LP tails crawl at a too-small rho while the
    # residual ratio looks balanced, so the ratio rule never fires; escalate
    # the penalty outright at fixed checkpoints if still unconverged
    escalation_points = {
        -(-(MAX_ITERATIONS // f) // CHECK_INTERVAL) * CHECK_INTERVAL for f in (10, 4, 2)
    }

    for k in range(1, MAX_ITERATIONS + 1):
        rhs = SIGMA * x - q + AT_csr @ (rho_vec * z - y)
        x_tilde = _reduced_solve(factor, rhs)
        z_tilde = A_csr @ x_tilde
        x_prev = x
        y_prev = y
        x = ALPHA * x_tilde + (1.0 - ALPHA) * x_prev
        z_relaxed = ALPHA * z_tilde + (1.0 - ALPHA) * z
        z_new = np.minimum(np.maximum(z_relaxed + y / rho_vec, ls), us)
        y = y + rho_vec * (z_relaxed - z_new)
        z = z_new

        if k % CHECK_INTERVAL == 0 or k == MAX_ITERATIONS:
            # unscaled iterates
            xu = D * x
            zu = z / E
            yu = (E * y) / c
            Ax = A0_csr @ xu
            Px = P0 @ xu
            ATy = A0T_csr @ yu
            r_prim = np.abs(Ax - zu).max(initial=0.0)
            r_dual = np.abs(Px + q0 + ATy).max(initial=0.0)
            eps_prim = EPS_ABS + EPS_REL * max(
                np.abs(Ax).max(initial=0.0), np.abs(zu).max(initial=0.0)
            )
            eps_dual = EPS_ABS + EPS_REL * max(
                np.abs(Px).max(initial=0.0),
                np.abs(ATy).max(initial=0.0),
                np.abs(q0).max(initial=0.0),
            )
            if r_prim <= eps_prim and r_dual <= eps_dual:
                status = "Optimal"
                iterations = k
                break

            # periodic active-set polish as an early exit
            if k % POLISH_INTERVAL == 0:
                polished = _polish(P0, q0, A0, l, u, xu, yu, r_prim, r_dual)
                if polished is not None and polished[2] <= eps_prim and polished[3] <= eps_dual:
                    status = "Optimal"
                    iterations = k
                    polish_result = polished
                    break

            dy = (y - y_prev) * E / c
            if _primal_infeasible(A0T_csr, l, u, dy, EPS_INFEAS):
                status = "Infeasible"
                iterations = k
                break
            dx = D * (x - x_prev)
            if _dual_infeasible(P0, q0, A0_csr, l, u, dx, EPS_INFEAS):
                status = "Unbounded"
                iterations = k
                break

            if k in escalation_points:
                rho_bar = float(min(rho_bar * 10.0, 1e6))
                rho_vec = np.where(eq_mask, 1e3 * rho_bar, rho_bar)
                factor = _factor_reduced(P, A, rho_vec)
                continue

            # penalty adaptation: rebalance rho when the scaled residual
            # ratio drifts; capped update count keeps runs deterministic
            if rho_updates < 30 and k % (CHECK_INTERVAL * 4) == 0 and k < MAX_ITERATIONS:
                prim_scale = max(np.abs(Ax).max(initial=0.0), np.abs(zu).max(initial=0.0), 1e-12)
                dual_scale = max(
                    np.abs(Px).max(initial=0.0),
                    np.abs(ATy).max(initial=0.0),
                    np.abs(q0).max(initial=0.0),
                    1e-12,
                )
                ratio = np.sqrt((r_prim / prim_scale) / max(r_dual / dual_scale, 1e-16))
                if ratio > 5.0 or ratio < 0.2:
                    rho_bar = float(np.clip(rho_bar * ratio, 1e-6, 1e6))
                    rho_vec = np.where(eq_mask, 1e3 * rho_bar, rho_bar)
                    factor = _factor_reduced(P, A, rho_vec)
                    rho_updates += 1

    if polish_result is not None:
        xu, yu, r_prim, r_dual = polish_result
    elif status == "Optimal":
        polished = _polish(P0, q0, A0, l, u, xu, yu, r_prim, r_dual)
        if polished is not None:
            xu, yu, r_prim, r_dual = polished

    if status == "Optimal":
        objective = float(0.5 * xu @ P0 @ xu + q0 @ xu)
    else:
        objective = float("nan")
    return SolveResult(
        x=xu,
        objective=objective,
        status=status,
        iterations=iterations,
        primal_residual=float(r_prim),
        dual_residual=float(r_dual),
        y=yu,
    )


def _primal_infeasible(AT, l, u, dy, eps):
    """AT is the transposed constraint matrix."""
    norm = np.abs(dy).max(initial=0.0)
    if norm <= 1e-14:
        return False
    d = dy / norm
    if np.abs(AT @ d).max(initial=0.0) > eps:
        return False
    pos = np.clip(d, 0.0, None)
    neg = np.clip(d, None, 0.0)
    # infinite bounds with a non-vanishing multiplier of the wrong sign void the certificate
    if np.any(~np.isfinite(u) & (pos > eps)) or np.any(~np.isfinite(l) & (neg < -eps)):
        return False
    support = float(np.sum(u[np.isfinite(u)] * pos[np.isfinite(u)]) +
                    np.sum(l[np.isfinite(l)] * neg[np.isfinite(l)]))
    return support < -eps


def _dual_infeasible(P, q, A, l, u, dx, eps):
    norm = np.abs(dx).max(initial=0.0)
    if norm <= 1e-14:
        return False
    d = dx / norm
    if np.abs(P @ d).max(initial=0.0) > eps:
        return False
    if q @ d > -eps:
        return False
    Ad = A @ d
    ok_upper = np.where(np.isfinite(u), Ad <= eps, True)
    ok_lower = np.where(np.isfinite(l), Ad >= -eps, True)
    return bool(np.all(ok_upper & ok_lower))


def _primal_violation(A, l, u, xv):
    Axv = A @ xv
    rp = float(np.maximum(Axv - u, 0.0).max(initial=0.0))
    return max(rp, float(np.maximum(l - Axv, 0.0).max(initial=0.0)))


def _select_independent(rows, tol=1e-8):
    """Indices of a maximal independent subset of the rows of a 2-D array.

    Greedy in row order: a row is kept when its component orthogonal to the
    rows kept before it has norm above `tol` (relative to the row's norm).
    """
    n = rows.shape[1]
    basis = np.empty((n, n))  # orthonormal basis of the kept rows, in its first k rows
    k = 0
    keep = []
    for i, r in enumerate(rows):
        nr = np.linalg.norm(r)
        if nr <= 1e-14:
            continue
        v = r / nr
        B = basis[:k]
        for _ in range(2):  # reorthogonalize for stability
            v = v - B.T @ (B @ v)
        nv = np.linalg.norm(v)
        if nv > tol:
            basis[k] = v / nv
            keep.append(i)
            k += 1
            if k == n:  # the kept rows span the space: no later row is independent
                break
    return keep


def _dual_fit(P, q, A, xv, eq_mask, act_low, act_up):
    """Sign-constrained least-squares dual: y free on equalities, y≥0 on upper-
    active rows, y≤0 on lower-active rows. Returns (y, stationarity residual);
    a near-zero residual certifies optimality of a primal-feasible xv."""
    g = -(P @ xv + q)
    cols = []
    meta = []  # (constraint row, sign)
    for i in np.flatnonzero(eq_mask):
        cols.append(A[i])
        meta.append((i, 1.0))
        cols.append(-A[i])
        meta.append((i, -1.0))
    for i in np.flatnonzero(act_up):
        cols.append(A[i])
        meta.append((i, 1.0))
    for i in np.flatnonzero(act_low):
        cols.append(-A[i])
        meta.append((i, -1.0))
    y = np.zeros(A.shape[0])
    if not cols:
        return y, float(np.abs(g).max(initial=0.0))
    B = np.column_stack(cols)
    try:
        z, _ = scipy.optimize.nnls(B, g)
    except (RuntimeError, ValueError):
        return y, np.inf
    for (i, s), zi in zip(meta, z):
        y[i] += s * zi
    rd = float(np.abs(P @ xv + q + A.T @ y).max(initial=0.0))
    return y, rd


def _polish_step(P, q, A, l, u, eq_mask, low, up):
    """Equality-solve the KKT system on a candidate active set."""
    n = P.shape[0]
    m = A.shape[0]
    active = eq_mask | low | up
    idx = np.flatnonzero(active)
    A_red = A[idx]
    rhs_red = np.where(eq_mask[idx] | low[idx], l[idx], u[idx])

    k = idx.size
    delta = 1e-9
    K = np.zeros((n + k, n + k))
    K[:n, :n] = P + delta * np.eye(n)
    if k:
        K[:n, n:] = A_red.T
        K[n:, :n] = A_red
        K[n:, n:] = -delta * np.eye(k)
    rhs = np.concatenate([-q, rhs_red])
    try:
        lu = scipy.linalg.lu_factor(K)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    sol = scipy.linalg.lu_solve(lu, rhs)
    # iterative refinement against the unregularized KKT system
    K0 = K.copy()
    K0[:n, :n] -= delta * np.eye(n)
    if k:
        K0[n:, n:] += delta * np.eye(k)
    for _ in range(POLISH_REFINE_STEPS):
        sol = sol + scipy.linalg.lu_solve(lu, rhs - K0 @ sol)
    x_new = sol[:n]
    y_new = np.zeros(m)
    if k:
        y_new[idx] = sol[n:]
    if not np.all(np.isfinite(x_new)):
        return None
    return x_new, y_new


def _polish(P, q, A, l, u, x, y, rp, rd):
    """Active-set polish: re-solve on a candidate active set and certify it.

    The candidate set is read off the ADMM iterate: rows within 1e-7
    (relative) of a bound, unioned with rows whose dual is strong. It is
    pruned to a linearly independent subset for the primal KKT solve
    (optimal vertices of the drawdown LPs are degenerate, so the raw set is
    often rank-deficient), and the polished point is certified with a
    sign-constrained dual fit over the rows tight at it. Returns
    (x, y, rp, rd) if it is no worse than the ADMM iterate, else None.
    """
    eq_mask = np.isfinite(l) & np.isfinite(u) & (np.abs(u - l) < 1e-14)
    has_l = np.isfinite(l) & ~eq_mask
    has_u = np.isfinite(u) & ~eq_mask
    y_norm = max(np.abs(y).max(initial=0.0), 1e-12)
    Ax = A @ x
    idx_eq = np.flatnonzero(eq_mask)
    m = A.shape[0]

    # tight-slack rows unioned with strong-dual rows
    act_low = has_l & ((np.abs(Ax - l) <= 1e-7 * (1.0 + np.abs(l))) | (y < -1e-4 * y_norm))
    act_up = has_u & ((np.abs(u - Ax) <= 1e-7 * (1.0 + np.abs(u))) | (y > 1e-4 * y_norm))

    # prune to an independent subset: equality rows first, then candidates
    # in descending dual magnitude, so strong-dual rows win the basis
    idx_act = np.flatnonzero(act_low | act_up)
    idx_act = idx_act[np.argsort(-np.abs(y[idx_act]), kind="stable")]
    keep = _select_independent(A[np.concatenate([idx_eq, idx_act])])
    kept = np.array([idx_act[j - idx_eq.size] for j in keep if j >= idx_eq.size],
                    dtype=int)
    sel = np.zeros(m, dtype=bool)
    sel[kept] = True
    step = _polish_step(P, q, A, l, u, eq_mask, act_low & sel, act_up & sel)
    if step is None:
        return None
    x_new, _ = step
    rp_new = _primal_violation(A, l, u, x_new)
    # certify against the rows actually tight at x_new: complementary
    # slackness then holds by construction
    Axn = A @ x_new
    fit_low = has_l & (np.abs(Axn - l) <= 1e-9 * (1.0 + np.abs(l)))
    fit_up = has_u & (np.abs(u - Axn) <= 1e-9 * (1.0 + np.abs(u)))
    y_new, rd_new = _dual_fit(P, q, A, x_new, eq_mask, fit_low, fit_up)
    if max(rp_new, rd_new) <= max(rp, rd) + 1e-12:
        return x_new, y_new, rp_new, rd_new
    return None
