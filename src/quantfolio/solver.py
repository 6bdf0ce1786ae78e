"""Convex QP and LP solver: an interior-point method with an active-set finish.

`solve` takes a `QpProblem`, min ½xᵀPx + qᵀx s.t. A_eq x = b_eq, G x ≤ h,
lb ≤ x ≤ ub, as it holds it; an LP is the case P = None, and an infinite h,
lb or ub entry leaves that side open. It returns a `SolveResult` with
unscaled residuals and one block of multipliers per block of constraints
(Px + q + A_eqᵀy_eq + Gᵀy_ineq + y_bound = 0 at an optimum). A bound that
admits no value (b_eq infinite, h = −∞, lb = +∞, ub = −∞ or lb > ub) makes
the problem Infeasible before any iteration. Everything runs sequentially,
so results are bit-deterministic for fixed inputs.

`_interior_point` runs a Mehrotra predictor-corrector on E x = b, C x ≤ d:
E is A_eq, and C is the rows of G with a finite h, then x_j ≤ ub_j and
−x_j ≤ −lb_j for each finite bound, each with its own slack and dual. P and
q are normalised by their largest entry. Each iteration factors the reduced
KKT matrix [P + Gᵀ diag(z/s) G + D, Eᵀ; E, 0], D the bounds' z/s on the
diagonal, regularised by ±IPM_REGULARIZATION (dense, (n + #E)²), once with
LAPACK's `dgetrf`, and solves it for the predictor and the corrector with
`dgetrs`. The bounds never exist as rows: their products with C are gathers
and scatters. [E; G] is one matrix, dense up to IPM_DENSE_CELLS cells, where
dense products cost less per call, and CSR above, where the long sparse row
blocks of CVaR, MAD and drawdown LPs and caps make CSR products cheaper. The
iterations stop at the relative tolerance IPM_TOLERANCE, at
IPM_MAX_ITERATIONS, or at a non-finite iterate, without a floating-point
warning.

The result is the best iterate (the smallest residual in units of its
tolerance; a converged run's last), replaced by the finish from it when the
finish's primal, dual and complementarity residuals are no worse, up to
1e-12. It is Optimal if its residuals meet EPS_ABS/EPS_REL. Otherwise two
HiGHS LPs (scipy's `linprog`, given the bounds as `bounds=`) classify it: a
phase-1 LP gives Infeasible, and a negative optimum of the recession LP
min qᵀd s.t. Pd = 0, Ed = 0, Gd ≤ 0, d ≤ 0 where ub is finite, d ≥ 0 where
lb is, |d| ≤ 1 gives Unbounded; anything else is MaxIterations.
`scipy.optimize` is imported there, so a process that meets no such problem
never loads it.

The finish exists because an interior point is accurate only to its
tolerance (along the flat directions of an ill-conditioned covariance its
weights can be off by 1e-5). `_finish` fixes each variable it guesses at a
bound exactly there (+0.0, never −0.0), makes one regularised KKT solve
(`_polish_step`) on the free variables with E and the rows of G it guesses
active (pruned by `_select_independent` when they outnumber the free
variables), and reads each bound's multiplier off the gradient. For up to
FINISH_ROUNDS rounds a violated bound or row then joins the guess and one
with a wrong-signed multiplier leaves it. The guess is the bounds and rows
whose slack is below their dual (s < z), of a variable guessed at both
bounds only the side with the larger dual; the solve refines from the
interior point, so a direction the guess leaves free, such as the
auxiliaries of a loose CVaR or MAD cap, keeps a feasible value. It calls
LAPACK's `dgetrf`/`dgetrs` directly (the routines inside `lu_factor` and
`lu_solve`, without their per-call checks) and gathers rows straight from
the CSR arrays (`_dense_rows`), since on small problems Python calls cost
more than arithmetic. `_snap_to_tight_bounds` then puts a variable exactly
at h / a wherever a row of G with one nonzero a (such as the homogenised
bounds of MaximizeRatio) is within FINISH_TOLERANCE of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

# Fixed solver constants, read at call time.
EPS_ABS = 1e-8
EPS_REL = 1e-8
EPS_INFEAS = 1e-9
POLISH_REFINE_STEPS = 8
IPM_MAX_ITERATIONS = 100
IPM_TOLERANCE = 1e-9  # relative, on the problem normalised by its largest P or q entry
IPM_REGULARIZATION = 1e-12  # keeps the reduced KKT matrix nonsingular
# [E; G] is dense up to this many cells, else CSR. On capped variance QPs
# (N = 20) the two cost the same near 60,000-90,000 cells of MAD rows, and CVaR
# rows stay cheaper dense past 150,000; the CDaR LP at T = 120, N = 10 (90,360
# cells) takes 20 ms on CSR and 33 ms dense
IPM_DENSE_CELLS = 1 << 16
FINISH_ROUNDS = 4
# the finish corrects a larger bound violation or wrong-signed multiplier, and
# puts a variable this close to a one-variable row's bound on it
FINISH_TOLERANCE = 1e-12


@dataclass
class QpProblem:
    """min ½xᵀPx + qᵀx s.t. A_eq x = b_eq, G x ≤ h, lb ≤ x ≤ ub.

    `A_eq` and `G` may be dense 2-D arrays or `scipy.sparse` matrices; a
    None block has no rows, and a None bound vector leaves that side open.
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
    """A point, its status and unscaled residuals, with multipliers per block:
    y_eq on the rows of A_eq, y_ineq ≥ 0 on those of G (0 where h = +∞) and
    y_bound on the variables (> 0 at ub, < 0 at lb)."""

    x: np.ndarray
    objective: float
    status: str  # Optimal | Infeasible | Unbounded | MaxIterations
    iterations: int
    primal_residual: float
    dual_residual: float
    y_eq: np.ndarray = field(default=None, repr=False)
    y_ineq: np.ndarray = field(default=None, repr=False)
    y_bound: np.ndarray = field(default=None, repr=False)


def _block(M, rhs, n):
    """A block of rows as a float array or CSR matrix, with its right-hand
    side; no block is a (0, n) array."""
    if M is None:
        return np.zeros((0, n)), np.zeros(0)
    M = (M.tocsr().astype(float, copy=False) if scipy.sparse.issparse(M)
         else np.atleast_2d(np.asarray(M, dtype=float)))
    return M, np.asarray(rhs, dtype=float).ravel()


def solve(problem: QpProblem) -> SolveResult:
    """Solve a QP/LP; non-optimal outcomes are returned in-band via `status`."""
    n = problem.dimensions()
    q = np.asarray(problem.q, dtype=float).ravel()
    P = np.zeros((n, n)) if problem.P is None else np.asarray(problem.P, dtype=float)
    E, b = _block(problem.A_eq, problem.b_eq, n)
    G, h = _block(problem.G, problem.h, n)
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    if (np.isinf(b).any() or (h == -np.inf).any()
            or np.any((lb == np.inf) | (ub == -np.inf) | (lb > ub))):
        return SolveResult(np.zeros(n), float("nan"), "Infeasible", 0, float("inf"), 0.0,
                           np.zeros(b.size), np.zeros(h.size), np.zeros(n))
    return _interior_point((P + P.T) / 2, q, E, b, G, h, lb, ub)


def _scale_rows(A, v):
    """The CSR A with its row i multiplied by v[i], its pattern kept."""
    return scipy.sparse.csr_array((A.data * np.repeat(v, np.diff(A.indptr)), A.indices,
                                   A.indptr), shape=A.shape)


def _kkt_residuals(P0, q0, B, c, p, lb, ub, x, y, y_bound):
    """Unscaled residuals of (x, y, y_bound) on the rows B = [E; G] (the first
    p equalities, right-hand side c) and lb ≤ x ≤ ub: primal (the largest
    violation), dual (|P₀x + q₀ + Bᵀy + y_bound|∞), complementarity (the
    largest |multiplier| times the distance to its nearer bound) and the
    magnitudes their tolerances scale by."""
    Bx, Px = B @ x, P0 @ x
    ATy = B.T @ y + y_bound
    r = Bx - c
    r_prim = max(np.abs(r[:p]).max(initial=0.0), r[p:].max(initial=0.0),
                 (lb - x).max(initial=0.0), (x - ub).max(initial=0.0))
    held = y_bound != 0
    near = np.minimum(np.abs(ub - x), np.abs(x - lb))[held]
    r_comp = max(np.abs(y * r).max(initial=0.0), np.abs(y_bound[held] * near).max(initial=0.0))
    bounded = np.isfinite(lb) | np.isfinite(ub)
    dual_scale = max(np.abs(Px).max(initial=0.0), np.abs(ATy).max(initial=0.0),
                     np.abs(q0).max(initial=0.0))
    return (r_prim, np.abs(Px + q0 + ATy).max(initial=0.0), r_comp,
            max(np.abs(Bx).max(initial=0.0), np.abs(x[bounded]).max(initial=0.0)), dual_scale)


def _interior_point(P0, q0, E0, b, G0, h, lb, ub):
    """Mehrotra predictor-corrector on min ½xᵀPx + qᵀx s.t. E x = b, C x ≤ d,
    then the active-set finish. E is E0; C is the rows of G0 with a finite h
    (G, stored with E as B = [E; G]), then the unit rows of the finite upper
    bounds U and the negated ones of the finite lower bounds L.
    """
    n = q0.size
    fin = np.flatnonzero(np.isfinite(h))
    U, L = np.flatnonzero(np.isfinite(ub)), np.flatnonzero(np.isfinite(lb))
    p, mg = b.size, fin.size
    m = mg + U.size + L.size
    c = np.concatenate([b, h[fin], ub[U], -lb[L]])
    d = c[p:]
    E = _take(E0, np.arange(p))
    if (p + mg) * n <= IPM_DENSE_CELLS:
        G = _take(G0, fin)
        B = np.vstack([E, G])
        BT, GT = B.T, G.T

        def gram(w):
            return (GT * w) @ G
    else:
        G = scipy.sparse.csr_array(G0)[fin]
        B = scipy.sparse.vstack([scipy.sparse.csr_array(E), G], format="csr")
        BT, GT = B.T.tocsr(), G.T.tocsr()

        def gram(w):
            return (GT @ _scale_rows(G, w)).toarray()

    def plus_bounds_t(v, out):
        """out plus the bound rows' part of Cᵀv (v on the rows of C), in place."""
        out[U] += v[mg:mg + U.size]
        out[L] -= v[mg + U.size:]
        return out

    def Cx(x):
        """C x: the finite rows of G, x on U, −x on L."""
        return np.concatenate([G @ x, x[U], -x[L]])

    largest = max(np.abs(P0).max(), np.abs(q0).max())
    scale = 1.0 / largest if largest > 0 else 1.0
    P, q = P0 * scale, q0 * scale
    tol_prim = IPM_TOLERANCE * (1.0 + np.abs(c).max(initial=0.0))
    tol_dual = IPM_TOLERANCE * (1.0 + np.abs(q).max())
    # the reduced KKT matrix [P + Cᵀ diag(w) C, Eᵀ; E, 0] but for its Cᵀ diag(w) C
    # term, regularised by ±IPM_REGULARIZATION on its diagonal blocks
    K0 = np.zeros((n + p, n + p))
    K0[:n, :n] = P
    K0[:n, n:] = E.T
    K0[n:, :n] = E
    K0[np.diag_indices(n + p)] += np.repeat([IPM_REGULARIZATION, -IPM_REGULARIZATION], [n, p])

    def factor(w):
        """LU factors of the reduced KKT matrix at the weights w = z/s, or None."""
        K = K0.copy()
        if mg:
            K[:n, :n] += gram(w[:mg])
        D = np.zeros(n)
        D[U] = w[mg:mg + U.size]
        D[L] += w[mg + U.size:]
        K.reshape(-1)[:n * (n + p + 1):n + p + 1] += D  # a view of the first n diagonal cells
        lu, piv, info = scipy.linalg.lapack.dgetrf(K, overwrite_a=1)
        return None if info != 0 else (lu, piv)

    def positive(v):
        """v shifted so that its smallest entry is 1, unless all of it is positive."""
        t = -v.min() if v.size else -1.0
        return v + (1.0 + t) if t >= -1e-8 * max(np.abs(v).max(initial=0.0), 1.0) else v

    # the iterate v = (x, ν, z, s): ν are the duals of E, z those of the rows of C
    v = np.concatenate([np.zeros(n + p), np.ones(2 * m)])
    k = 0
    # the iterate with the smallest residual in units of its tolerance, which
    # the result is taken from
    best, best_v = np.inf, v
    with np.errstate(all="ignore"):  # a breakdown shows as a non-finite iterate instead
        # start: x minimises ½xᵀPx + qᵀx + ½|Cx − d|² on Ex = b; s = d − Cx and
        # z = −s, each shifted into the positive orthant
        lu_piv = factor(np.ones(m))
        if lu_piv is not None:
            v[:n + p] = scipy.linalg.lapack.dgetrs(
                *lu_piv, np.concatenate([plus_bounds_t(d, GT @ d[:mg]) - q, b]))[0]
            Cv = Cx(v[:n])
            v[n + p:] = np.concatenate([positive(Cv - d), positive(d - Cv)])
        for k in range(IPM_MAX_ITERATIONS + 1):
            x, dual, zs = v[:n], v[n:n + p + m], v[n + p:]
            z, s = zs[:m], zs[m:]
            Px = P @ x
            r_d = Px + q + plus_bounds_t(z, BT @ dual[:p + mg])
            r_p = np.concatenate([B @ x, x[U], -x[L]]) - c
            r_p[p:] += s
            gap = s @ z
            r_p_max, r_d_max = np.abs(r_p).max(initial=0.0), np.abs(r_d).max(initial=0.0)
            tol_gap = IPM_TOLERANCE * (1.0 + abs(0.5 * x @ Px + q @ x))
            scaled = max(r_p_max / tol_prim, r_d_max / tol_dual, gap / tol_gap)
            if scaled < best:
                best, best_v = scaled, v
            converged = r_p_max <= tol_prim and r_d_max <= tol_dual and gap <= tol_gap
            if converged or k == IPM_MAX_ITERATIONS:
                break
            w = z / s
            lu_piv = factor(w)
            if lu_piv is None:
                break
            r_e, r_i = r_p[:p], r_p[p:]

            def direction(r_c):
                """Newton step (dx, dν, dz, ds) on the residuals, with the
                complementarity target s∘z − r_c."""
                t = (z * r_i - r_c) / s
                rhs = np.concatenate([-r_d - plus_bounds_t(t, GT @ t[:mg]), -r_e])
                dv = scipy.linalg.lapack.dgetrs(*lu_piv, rhs)[0]
                Cdx = Cx(dv[:n])
                return np.concatenate([dv, w * Cdx + t, -r_i - Cdx])

            def max_step(dv):
                """Largest α ≤ 1 with z + α dz ≥ 0 and s + α ds ≥ 0 (z, s > 0)."""
                t = float((dv[n + p:] / zs).min(initial=0.0))
                return 1.0 if t >= -1.0 else -1.0 / t

            # predictor (affine scaling), then a corrector centred at σμ
            dv = direction(s * z)
            alpha = max_step(dv)
            dz, ds = dv[n + p:n + p + m], dv[n + p + m:]
            mu = gap / m if m else 0.0
            sigma = ((s + alpha * ds) @ (z + alpha * dz) / m / mu) ** 3 if mu > 0 else 0.0
            dv = direction(s * z + ds * dz - sigma * mu)
            step = v + 0.999 * max_step(dv) * dv  # stay just inside the boundary
            if not np.isfinite(step).all():
                break
            v = step

    rows_c = c[:p + mg]  # the right-hand side of the rows of B

    def point(v):
        """x, the duals of the rows of B and the bound multipliers (> 0 at ub,
        < 0 at lb) at the iterate v."""
        return v[:n], v[n:n + p + mg], plus_bounds_t(v[n + p:n + p + m], np.zeros(n))

    def residuals(x, y, y_bound):
        return _kkt_residuals(P0, q0, B, rows_c, p, lb, ub, x, y / scale, y_bound / scale)

    def finish(v):
        """The finish from the iterate v on the bounds and rows whose slack is
        below their dual: its (x, y, y_bound) followed by their residuals, or None."""
        x, y, y_bound = point(v)
        act = v[n + p + m:] < v[n + p:n + p + m]
        at_ub, at_lb = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        at_ub[U[act[mg:mg + U.size]]] = True
        at_lb[L[act[mg + U.size:]]] = True
        # a variable guessed at both bounds keeps the side with the larger dual
        both = at_ub & at_lb
        at_ub[both] = y_bound[both] > 0.0
        at_lb[both] = ~at_ub[both]
        finished = _finish(P, q, B, rows_c, p, lb, ub, x, y, act[:mg], at_lb, at_ub)
        return None if finished is None else finished + residuals(*finished)

    # the best iterate (a converged run's last), or its finish when that is no worse
    result = point(best_v)
    result += residuals(*result)
    finished = finish(best_v)
    if finished is not None and max(finished[3:6]) <= max(result[3:6]) + 1e-12:
        result = finished
    x, y, y_bound, r_prim, r_dual, r_comp, prim_scale, dual_scale = result
    if (r_prim <= EPS_ABS + EPS_REL * prim_scale
            and max(r_dual, r_comp) <= EPS_ABS + EPS_REL * dual_scale):
        status = "Optimal"
    else:
        status = _classify(P, q, E, b, G, rows_c[p:], lb, ub)
    objective = float(0.5 * x @ P0 @ x + q0 @ x) if status == "Optimal" else float("nan")
    y_ineq = np.zeros(h.size)
    y_ineq[fin] = y[p:] / scale
    return SolveResult(x, objective, status, k, float(r_prim), float(r_dual),
                       y_eq=y[:p] / scale, y_ineq=y_ineq, y_bound=y_bound / scale)


def _finish(P, q, B, c, p, lb, ub, x, y, active, at_lb, at_ub):
    """Active-set finish of an interior point (x, y) of the normalised problem
    (P an n×n array, zero for an LP) on the rows B = [E; G] (the first p
    equalities, right-hand side c) and lb ≤ x ≤ ub, from the guesses `at_lb`
    and `at_ub` of the variables at a bound and `active` of the rows of G.
    Returns (x, y, y_bound), y on the rows of B, or None."""
    G, h = B[p:], c[p:]
    for _ in range(FINISH_ROUNDS):
        fixed = at_lb | at_ub
        free = np.flatnonzero(~fixed)
        x_new = np.where(at_ub, ub, np.where(at_lb, lb, x)) + 0.0
        x_fixed = np.where(fixed, x_new, 0.0)
        # E's rows, and the active rows of G in descending |y|, pruned to a subset
        # independent on the free variables when they outnumber those
        cand = p + np.flatnonzero(active)
        idx = np.concatenate([np.arange(p), cand[np.argsort(-np.abs(y[cand]), kind="stable")]])
        if idx.size > free.size:
            kept = np.arange(idx.size) < p
            kept[_select_independent(B, idx, free)] = True
            idx = idx[kept]
        idx = np.sort(idx)  # the KKT system takes its rows in row order
        rows = _take(B, idx)
        sol = _polish_step(P[np.ix_(free, free)], q[free] + P[free] @ x_fixed, rows[:, free],
                           c[idx] - rows @ x_fixed, np.concatenate([x[free], y[idx]]))
        if sol is None or not np.all(np.isfinite(sol)):
            return None
        x_new[free] = sol[:free.size]
        y_new = np.zeros(y.size)
        y_new[idx] = sol[free.size:]
        y_bound = np.where(fixed, -(P @ x_new + q + B.T @ y_new), 0.0)
        tol = FINISH_TOLERANCE
        y_tol = tol * max(1.0, np.abs(y_new).max(initial=0.0), np.abs(y_bound).max())
        add = ~active & (G @ x_new - h > tol * (1.0 + np.abs(h)))
        drop = active & (y_new[p:] < -y_tol)
        add_ub = ~at_ub & (x_new - ub > tol * (1.0 + np.abs(ub)))
        add_lb = ~at_lb & (lb - x_new > tol * (1.0 + np.abs(lb)))
        drop_ub = at_ub & (y_bound < -y_tol)
        drop_lb = at_lb & (y_bound > y_tol)
        if not any(v.any() for v in (add, drop, add_ub, add_lb, drop_ub, drop_lb)):
            _snap_to_tight_bounds(G, h, x_new)
            return x_new, y_new, y_bound
        active = (active | add) & ~drop
        at_ub = (at_ub | add_ub) & ~drop_ub
        at_lb = (at_lb | add_lb) & ~drop_lb
    return None


def _classify(P, q, E, b, G, h, lb, ub):
    """Status of a problem the interior-point method left unsolved, from two HiGHS LPs:
    Infeasible when no x meets Ex = b, Gx ≤ h, lb ≤ x ≤ ub; Unbounded when a
    direction with Pd = 0, Ed = 0, Gd ≤ 0, d ≤ 0 where ub is finite, d ≥ 0
    where lb is, and |d| ≤ 1 has qᵀd < 0; MaxIterations otherwise."""
    import scipy.optimize  # here, not at the top: only a problem left unsolved needs HiGHS

    n = q.size
    ub_rows = dict(A_ub=G, b_ub=h) if h.size else {}
    eq = dict(A_eq=E, b_eq=b) if b.size else {}
    if scipy.optimize.linprog(np.zeros(n), **ub_rows, **eq, bounds=np.column_stack([lb, ub]),
                              method="highs").status == 2:
        return "Infeasible"
    ub_rows = dict(A_ub=G, b_ub=np.zeros(h.size)) if h.size else {}
    cone = np.column_stack([np.where(np.isfinite(lb), 0.0, -1.0),
                            np.where(np.isfinite(ub), 0.0, 1.0)])
    ray = scipy.optimize.linprog(q, **ub_rows, A_eq=np.vstack([P, E]),
                                 b_eq=np.zeros(n + b.size), bounds=cone, method="highs")
    if ray.status == 0 and ray.fun < -EPS_INFEAS:
        return "Unbounded"
    return "MaxIterations"


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


def _take(M, idx):
    """Dense copy of the rows `idx` of M, a dense array or a CSR matrix."""
    return M[idx] if isinstance(M, np.ndarray) else _dense_rows(M, idx)


def _select_independent(A, idx, cols, tol=1e-8):
    """Positions in `idx` of a maximal subset of those rows of A (dense or
    CSR) independent on the columns `cols`. Greedy in the order of `idx`: a
    row is kept when its component orthogonal to the rows kept before it has
    norm above `tol` (relative to the row's norm). The rows are copied dense
    cols.size at a time, and none once the kept rows span the space, so a
    long candidate list never exists as one dense array."""
    n = cols.size
    basis = np.empty((n, n))  # orthonormal basis of the kept rows, in its first k rows
    k = 0
    keep = []
    for start in range(0, idx.size, max(n, 1)):
        rows = _take(A, idx[start:start + n])[:, cols]
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        nonzero = np.flatnonzero(norms > 1e-14)
        units = rows[nonzero] / norms[nonzero, None]
        for i, v in zip((start + nonzero).tolist(), units):
            B = basis[:k]
            for _ in range(2):  # reorthogonalize for stability
                v = v - B.T @ (B @ v)
            nv = math.sqrt(v.dot(v))  # np.linalg.norm's own arithmetic
            if nv > tol:
                basis[k] = v / nv
                keep.append(i)
                k += 1
                if k == n:  # the kept rows span the space: no later row is independent
                    return keep
    return keep


def _polish_step(P, q, A, b, start):
    """Equality-solve the KKT system on the rows A x = b; returns the solution
    (x, then the rows' multipliers) or None. P is the Hessian, zero for an LP.
    Refinement runs from `start` against the unregularised system, as
    products with P and A: a direction the rows leave free keeps its value."""
    n, k = q.size, b.size
    if n + k == 0:  # every variable fixed, and no row: nothing to solve
        return start
    delta = 1e-9
    K = np.zeros((n + k, n + k), order="F")  # LAPACK's order: factored in place
    K[:n, :n] = P
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[np.diag_indices(n + k)] += np.repeat([delta, -delta], [n, k])
    # the LAPACK calls inside lu_factor and lu_solve, without their per-call checks
    lu, piv, info = scipy.linalg.lapack.dgetrf(K, overwrite_a=1)
    if info != 0:  # a zero pivot: K is singular
        return None

    def residual(v):
        """[−q; b] less the unregularised [P, Aᵀ; A, 0] times v."""
        return np.concatenate([-q - P @ v[:n] - A.T @ v[n:], b - A @ v[:n]])

    sol = start + scipy.linalg.lapack.dgetrs(lu, piv, residual(start))[0]
    for _ in range(POLISH_REFINE_STEPS):
        sol = sol + scipy.linalg.lapack.dgetrs(lu, piv, residual(sol))[0]
    if not np.all(np.isfinite(sol[:n])):
        return None
    return sol


def _snap_to_tight_bounds(G, h, x):
    """Put x_j exactly at h / a (+ 0.0 turns a -0.0 into 0.0) wherever a row
    a·x_j ≤ h of G with one nonzero is within FINISH_TOLERANCE of h, so a
    variable at its bound carries no solver noise."""
    r, cols = G.nonzero()
    one = np.bincount(r, minlength=G.shape[0])[r] == 1
    rows, cols = r[one], cols[one]
    a, bound = (G @ np.ones(x.size))[rows], h[rows]  # a row's sum is its one nonzero
    tight = np.abs(a * x[cols] - bound) <= FINISH_TOLERANCE * (1.0 + np.abs(bound))
    x[cols[tight]] = bound[tight] / a[tight] + 0.0
