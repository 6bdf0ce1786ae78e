"""Convex QP and LP solver: an interior-point method with an active-set finish.

Problems are solved in the form

    minimize    (1/2) xᵀP x + qᵀx
    subject to  l ≤ A x ≤ u

where `_stack_problem` stacks the A_eq, G and box rows of a `QpProblem` as
one CSR A; an LP is the case P = 0. `solve` returns a `SolveResult` whose y
holds one multiplier per row of A (y ≥ 0 at an upper bound, y ≤ 0 at a lower
one, Px + q + Aᵀy = 0 at an optimum) and whose residuals are unscaled. A row
whose bounds admit no value (u = −∞, l = +∞ or l > u) makes the problem
Infeasible before any iteration. Equality rows (|u − l| < 1e-14) are found
once, on the caller's bounds. Everything runs sequentially, so results are
bit-deterministic for fixed inputs.

`_interior_point` runs a Mehrotra predictor-corrector on
min ½xᵀPx + qᵀx s.t. E x = b, C x ≤ d. E holds the equality rows of A; C
holds the rows with a finite upper bound and, negated, those with a finite
lower bound, so the box rows give ±I. P and q are normalised by their
largest entry. Each iteration factors the reduced KKT matrix
[P + Cᵀ diag(z/s) C, Eᵀ; E, 0], regularised by ±IPM_REGULARIZATION on its
diagonal (dense, (n + #E)²), once with LAPACK's `dgetrf` and solves it for
the predictor and the corrector with `dgetrs`. E and C are kept as one
matrix [E; C]: a dense array up to IPM_DENSE_CELLS cells, where dense
products cost less per call, and CSR above, where the long sparse row blocks
of CVaR, MAD and drawdown LPs and caps make CSR products cheaper and the
dense array large. The iterations stop at the relative tolerance
IPM_TOLERANCE, at IPM_MAX_ITERATIONS, or at a non-finite iterate; none of
them emits a floating-point warning.

The result starts from the best iterate, the one with the smallest residual
in units of its tolerance (a converged run's last), and the finish from that
iterate replaces it when the finish's primal, dual and complementarity
residuals are no worse, up to 1e-12. The result is Optimal if its residuals
meet EPS_ABS/EPS_REL. Otherwise two HiGHS LPs (scipy's `linprog`) classify
the problem: a phase-1 LP on the rows gives Infeasible, and a negative
optimum of the recession LP min qᵀd s.t. Pd = 0, Ed = 0, Cd ≤ 0, |d| ≤ 1
gives Unbounded; any other outcome is MaxIterations. So an infeasible or
unbounded problem is classified after at most IPM_MAX_ITERATIONS
iterations. `scipy.optimize` is imported there, on first use, so a process
that meets no such problem never loads it.

The active-set finish exists because an interior point is accurate only to
its tolerance (along the flat directions of an ill-conditioned covariance
its weights can be off by 1e-5). `_finish` makes one regularised KKT solve
on the equality rows and a guess of the active rows (`_polish_step`, pruned
by `_select_independent` when there are more rows than variables); for up
to FINISH_ROUNDS rounds a violated row then joins the set and a row with a
wrong-signed multiplier leaves it. The guess is the rows whose slack is
below their dual (s < z), keeping of a row that qualifies at both bounds
only the side with the larger dual, and the finish refines from the
interior point, so a direction the active rows leave free, such as the
auxiliaries of a loose CVaR or MAD cap, keeps a feasible value.

The finish costs more in Python calls than in arithmetic on small problems,
so it makes few of them: `_dense_rows` gathers rows straight from the CSR
arrays with a handful of vectorised index operations, `_select_independent`
copies and normalises the candidate rows n at a time before its greedy loop
and stops once the kept rows span the space, and the KKT system is factored
and refined by LAPACK's `dgetrf`/`dgetrs` directly (the routines inside
`lu_factor`/`lu_solve`, without their per-call checks). After the KKT solve,
`_snap_to_tight_bounds` sets a variable to b / a exactly, never to -0.0,
wherever a row with a single nonzero a (a box row, or a one-variable row of
G) is within FINISH_TOLERANCE of its bound b, so a variable at its bound
carries no solver noise.
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
# [E; C] is dense up to this many cells, else CSR: near where the two cost the
# same on capped variance QPs, 30,000-90,000 cells by the density of the rows
IPM_DENSE_CELLS = 1 << 16
FINISH_ROUNDS = 4
# the finish corrects a larger bound violation or wrong-signed multiplier, and
# puts a variable this close to its bound on it
FINISH_TOLERANCE = 1e-12


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


def _scale_rows(A, v):
    """The CSR A with its row i multiplied by v[i], its pattern kept."""
    return scipy.sparse.csr_array((A.data * np.repeat(v, np.diff(A.indptr)), A.indices,
                                   A.indptr), shape=A.shape)


def solve(problem: QpProblem) -> SolveResult:
    """Solve a QP/LP; non-optimal outcomes are returned in-band via `status`."""
    P0, q0, A0, l, u = _stack_problem(problem)
    if np.any((u == -np.inf) | (l == np.inf) | (l > u)):
        return SolveResult(x=np.zeros(q0.size), objective=float("nan"), status="Infeasible",
                           iterations=0, primal_residual=float("inf"), dual_residual=0.0,
                           y=np.zeros(l.size))
    eq_mask = np.isfinite(l) & np.isfinite(u) & (np.abs(u - l) < 1e-14)
    return _interior_point(P0, q0, A0, l, u, eq_mask)


def _kkt_residuals(P0, q0, A0, l, u, x, y):
    """Unscaled residuals of (x, y): primal (the bound violation of A₀x), dual
    (|P₀x + q₀ + A₀ᵀy|∞) and complementarity (the largest |yᵢ| times the
    distance of (A₀x)ᵢ to the nearer bound of row i), with the magnitudes their
    tolerances scale by."""
    Ax, Px, ATy = A0 @ x, P0 @ x, A0.T @ y
    r_prim = max(np.max(Ax - u, initial=0.0), np.max(l - Ax, initial=0.0))
    held = y != 0
    near = np.minimum(np.abs(u - Ax), np.abs(Ax - l))[held]
    dual_scale = max(np.abs(Px).max(initial=0.0), np.abs(ATy).max(initial=0.0),
                     np.abs(q0).max(initial=0.0))
    return (r_prim, np.abs(Px + q0 + ATy).max(initial=0.0),
            np.abs(y[held] * near).max(initial=0.0), np.abs(Ax).max(initial=0.0), dual_scale)


def _interior_point(P0, q0, A0, l, u, eq_mask):
    """Mehrotra predictor-corrector on min ½xᵀPx + qᵀx s.t. E x = b, C x ≤ d,
    then the active-set finish.

    E holds the equality rows of the stacked A₀. C holds A₀'s rows with a
    finite upper bound and, negated, its rows with a finite lower bound, so
    the box rows give ±I. Both are kept as one matrix [E; C], so that each
    residual takes one product. P and q are normalised by their largest entry.
    """
    n = q0.size
    eq = np.flatnonzero(eq_mask)
    up = np.flatnonzero(np.isfinite(u) & ~eq_mask)
    low = np.flatnonzero(np.isfinite(l) & ~eq_mask)
    p, m = eq.size, up.size + low.size
    rows = np.concatenate([eq, up, low])  # the row of A₀ behind each row of [E; C]
    sign = np.repeat([1.0, 1.0, -1.0], [p, up.size, low.size])
    c = sign * np.concatenate([l[eq], u[up], l[low]])
    b, d = c[:p], c[p:]
    if rows.size * n <= IPM_DENSE_CELLS:
        B = _dense_rows(A0, rows) * sign[:, None]
        BT, E, C = B.T, B[:p], B[p:]
        CT = C.T

        def gram(w):
            return (CT * w) @ C
    else:
        B = _scale_rows(A0[rows], sign)
        BT, E, C = B.T.tocsr(), _dense_rows(A0, eq), B[p:]
        CT = C.T.tocsr()

        def gram(w):
            return (CT @ _scale_rows(C, w)).toarray()
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
        K[:n, :n] += gram(w)
        lu, piv, info = scipy.linalg.lapack.dgetrf(K, overwrite_a=1)
        return None if info != 0 else (lu, piv)

    def positive(v):
        """v shifted so that its smallest entry is 1, unless all of it is positive."""
        t = -v.min() if v.size else -1.0
        return v + (1.0 + t) if t >= -1e-8 * max(np.abs(v).max(initial=0.0), 1.0) else v

    # the iterate v = (x, ν, z, s): ν and z are the duals of the rows of [E; C]
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
            v[:n + p] = scipy.linalg.lapack.dgetrs(*lu_piv, np.concatenate([CT @ d - q, b]))[0]
            Cx = C @ v[:n]
            v[n + p:] = np.concatenate([positive(Cx - d), positive(d - Cx)])
        for k in range(IPM_MAX_ITERATIONS + 1):
            x, dual, zs = v[:n], v[n:n + p + m], v[n + p:]
            z, s = zs[:m], zs[m:]
            r_d = P @ x + q + BT @ dual
            r_p = B @ x - c
            r_p[p:] += s
            gap = s @ z
            r_p_max, r_d_max = np.abs(r_p).max(initial=0.0), np.abs(r_d).max(initial=0.0)
            tol_gap = IPM_TOLERANCE * (1.0 + abs(0.5 * x @ P @ x + q @ x))
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
                dv = scipy.linalg.lapack.dgetrs(*lu_piv, np.concatenate([-r_d - CT @ t, -r_e]))[0]
                Cdx = C @ dv[:n]
                return np.concatenate([dv, w * Cdx + t, -r_i - Cdx])

            def max_step(dv):
                """Largest α ≤ 1 with z + α dz ≥ 0 and s + α ds ≥ 0 (z, s > 0)."""
                t = float(np.min(dv[n + p:] / zs, initial=0.0))
                return 1.0 if t >= -1.0 else -1.0 / t

            # predictor (affine scaling), then a corrector centred at σμ
            dv = direction(s * z)
            alpha = max_step(dv)
            dz, ds = dv[n + p:n + p + m], dv[n + p + m:]
            mu = gap / m if m else 0.0
            sigma = ((s + alpha * ds) @ (z + alpha * dz) / m / mu) ** 3 if mu > 0 else 0.0
            dv = direction(s * z + ds * dz - sigma * mu)
            step = v + 0.999 * max_step(dv) * dv  # stay just inside the boundary
            if not np.all(np.isfinite(step)):
                break
            v = step

    def point(v):
        """x and the dual y on the rows of A₀, in its sign convention, at the iterate v."""
        y = np.zeros(A0.shape[0])
        np.add.at(y, rows, sign * v[n:n + p + m])
        return v[:n], y

    def finish(v):
        """The finish from the iterate v on the rows whose slack is below their
        dual: its (x, y) followed by their `_kkt_residuals`, or None."""
        x, y = point(v)
        z, s = v[n + p:n + p + m], v[n + p + m:]
        upper = np.zeros(y.size, dtype=bool)
        lower = np.zeros(y.size, dtype=bool)
        upper[up[s[:up.size] < z[:up.size]]] = True
        lower[low[s[up.size:] < z[up.size:]]] = True
        # a row guessed active at both bounds keeps the side with the larger
        # dual: y there is its upper z less its lower z
        both = upper & lower
        upper[both] = y[both] > 0.0
        lower[both] = ~upper[both]
        finished = _finish(P, q, A0, l, u, eq_mask, x, y, lower, upper)
        if finished is None:
            return None
        return finished + _kkt_residuals(P0, q0, A0, l, u, finished[0], finished[1] / scale)

    # the best iterate (a converged run's last), or its finish when that is no worse
    x, y = point(best_v)
    result = (x, y) + _kkt_residuals(P0, q0, A0, l, u, x, y / scale)
    finished = finish(best_v)
    if finished is not None and max(finished[2:5]) <= max(result[2:5]) + 1e-12:
        result = finished
    x, y, r_prim, r_dual, r_comp, prim_scale, dual_scale = result
    if (r_prim <= EPS_ABS + EPS_REL * prim_scale
            and max(r_dual, r_comp) <= EPS_ABS + EPS_REL * dual_scale):
        status = "Optimal"
    else:
        status = _classify(P, q, C, d, E, b)
    return SolveResult(
        x=x,
        objective=float(0.5 * x @ P0 @ x + q0 @ x) if status == "Optimal" else float("nan"),
        status=status,
        iterations=k,
        primal_residual=float(r_prim),
        dual_residual=float(r_dual),
        y=y / scale,
    )


def _finish(P, q, A, l, u, eq_mask, x, y, lower, upper):
    """Active-set finish of an interior point of the normalised problem (P an
    n×n array, zero for an LP).

    One regularised KKT solve on the equality rows and the rows active at
    their lower (`lower`) or upper (`upper`) bound, refined from (x, y); then
    up to FINISH_ROUNDS corrections of the set: a violated row joins it and a
    row whose multiplier has the wrong sign leaves. Returns (x, y), y on the
    rows of A in its sign convention, with every variable at a bound exactly
    on it, or None.
    """
    n = q.size
    idx_eq = np.flatnonzero(eq_mask)
    for _ in range(FINISH_ROUNDS):
        idx_act = np.flatnonzero(lower | upper)
        idx, rows = _active_rows(A, idx_eq, idx_act, y, prune=idx_eq.size + idx_act.size > n)
        b = np.where(eq_mask | lower, l, u)[idx]
        sol = _polish_step(P, q, rows, b, np.concatenate([x, y[idx]]))
        if sol is None or not np.all(np.isfinite(sol)):
            return None
        x_new = sol[:n]
        y_new = np.zeros(y.size)
        y_new[idx] = sol[n:]
        Ax = A @ x_new
        tol = FINISH_TOLERANCE
        y_tol = tol * max(1.0, np.abs(y_new).max(initial=0.0))
        add_up = ~upper & ~eq_mask & (Ax - u > tol * (1.0 + np.abs(u)))
        add_low = ~lower & ~eq_mask & (l - Ax > tol * (1.0 + np.abs(l)))
        drop_up = upper & (y_new < -y_tol)
        drop_low = lower & (y_new > y_tol)
        if not (add_up.any() or add_low.any() or drop_up.any() or drop_low.any()):
            _snap_to_tight_bounds(A, l, u, x_new)
            return x_new, y_new
        upper = (upper | add_up) & ~drop_up
        lower = (lower | add_low) & ~drop_low
    return None


def _classify(P, q, C, d, E, b):
    """Status of a problem the interior-point method left unsolved, from two HiGHS LPs:
    Infeasible when no x meets Ex = b, Cx ≤ d; Unbounded when a direction with
    Pd = 0, Ed = 0, Cd ≤ 0 and |d| ≤ 1 has qᵀd < 0; MaxIterations otherwise."""
    import scipy.optimize  # here, not at the top: only a problem left unsolved needs HiGHS

    n = q.size
    ub = dict(A_ub=C, b_ub=d) if d.size else {}
    eq = dict(A_eq=E, b_eq=b) if b.size else {}
    if scipy.optimize.linprog(np.zeros(n), **ub, **eq, bounds=(None, None),
                              method="highs").status == 2:
        return "Infeasible"
    ub = dict(A_ub=C, b_ub=np.zeros(d.size)) if d.size else {}
    ray = scipy.optimize.linprog(q, **ub, A_eq=np.vstack([P, E]), b_eq=np.zeros(n + b.size),
                                 bounds=(-1.0, 1.0), method="highs")
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


def _select_independent(A, idx, tol=1e-8):
    """Positions in `idx` of a maximal independent subset of those rows of the
    CSR matrix A.

    Greedy in the order of `idx`: a row is kept when its component orthogonal
    to the rows kept before it has norm above `tol` (relative to the row's
    norm). The rows are copied dense n at a time, and none after the kept rows
    span the space, so a long candidate list never exists as one dense array.
    """
    n = A.shape[1]
    basis = np.empty((n, n))  # orthonormal basis of the kept rows, in its first k rows
    k = 0
    keep = []
    for start in range(0, idx.size, n):
        rows = _dense_rows(A, idx[start:start + n])
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


def _polish_step(P, q, A_act, b_act, start):
    """Equality-solve the KKT system on the active rows A_act x = b_act; returns the
    solution (x, then the rows' multipliers) or None. P is the n×n Hessian,
    zero for an LP. Iterative refinement runs against the unregularized system
    from `start`: a direction the active rows leave free keeps its value there."""
    n = q.size
    k = A_act.shape[0]
    delta = 1e-9
    K = np.zeros((n + k, n + k), order="F")  # LAPACK's order: factored in place
    K[:n, :n] = P + delta * np.eye(n)
    K[:n, n:] = A_act.T
    K[n:, :n] = A_act
    K[n:, n:] = -delta * np.eye(k)
    rhs = np.concatenate([-q, b_act])
    K0 = K.copy()  # unregularised: P's diagonal less δ again, and a zero block
    K0[np.arange(n), np.arange(n)] -= delta
    K0[n:, n:] = 0.0
    # the LAPACK calls inside lu_factor and lu_solve, without their per-call checks
    lu, piv, info = scipy.linalg.lapack.dgetrf(K, overwrite_a=1)
    if info != 0:  # a zero pivot: K is singular
        return None
    sol = start + scipy.linalg.lapack.dgetrs(lu, piv, rhs - K0 @ start)[0]
    for _ in range(POLISH_REFINE_STEPS):
        sol = sol + scipy.linalg.lapack.dgetrs(lu, piv, rhs - K0 @ sol)[0]
    if not np.all(np.isfinite(sol[:n])):
        return None
    return sol


def _active_rows(A, idx_eq, idx_act, y, prune):
    """The row indices the KKT solve keeps, in row order, and their dense copy.

    Every equality row `idx_eq` stays. With `prune`, the candidates `idx_act`
    are pruned to a linearly independent subset, taken in descending dual
    magnitude |y| so that strong-dual rows win the basis. Only the kept rows
    are copied dense.
    """
    idx_act = idx_act[np.argsort(-np.abs(y[idx_act]), kind="stable")]
    idx = np.concatenate([idx_eq, idx_act])
    if prune:
        kept = np.arange(idx.size) < idx_eq.size
        kept[_select_independent(A, idx)] = True
        idx = idx[kept]
    idx = np.sort(idx)  # the KKT system takes its rows in row order
    return idx, _dense_rows(A, idx)


def _snap_to_tight_bounds(A, l, u, x):
    """Put x_j exactly at b / a (+ 0.0 turns a -0.0 into 0.0) wherever a row
    a·x_j of A with one nonzero is within FINISH_TOLERANCE of its bound b, so
    a variable at its bound carries no solver noise."""
    single = np.flatnonzero(np.diff(A.indptr) == 1)
    cols, a = A.indices[A.indptr[single]], A.data[A.indptr[single]]
    ax = a * x[cols]
    for bound in (l[single], u[single]):
        near = FINISH_TOLERANCE * (1.0 + np.abs(bound))
        tight = (a != 0) & np.isfinite(bound) & (np.abs(ax - bound) <= near)
        x[cols[tight]] = bound[tight] / a[tight] + 0.0

