"""Convex QP and LP solver: an interior-point method with an active-set finish.

`solve` takes a `QpProblem`, min ½xᵀPx + qᵀx s.t. A_eq x = b_eq, G x ≤ h,
lb ≤ x ≤ ub, as it holds it: P, A_eq and G each dense or `scipy.sparse`, and
an infinite h, lb or ub entry leaves that side open. An LP is the case
P = None, held as an empty n×n CSR matrix, so no LP has a dense n×n P. It
returns a `SolveResult` with unscaled residuals and one block of multipliers
per block of constraints (Px + q + A_eqᵀy_eq + Gᵀy_ineq + y_bound = 0 at an
optimum). A bound that admits no value (b_eq infinite, h = −∞, lb = +∞,
ub = −∞ or lb > ub) makes the problem Infeasible before any iteration.
Everything runs sequentially, so results are bit-deterministic for fixed
inputs.

`_interior_point` runs a Mehrotra predictor-corrector on E x = b, C x ≤ d:
E is A_eq, and C is the rows of G with a finite h, then x_j ≤ ub_j and
−x_j ≤ −lb_j for each finite bound, each with its own slack and dual. P and
q are normalised by their largest entry. The iteration starts from x = 0,
ν = 0, z = s = 1, with no start-up factorization, and each iteration factors
the reduced KKT matrix [P + Gᵀ diag(z/s) G + D, Eᵀ; E, 0], D the bounds' z/s
on the diagonal, once (`_kkt_factor`), and solves it for the predictor and
the corrector. The bounds never exist as rows: their products with C are
gathers and scatters. [E; G] is one CSR matrix for the products when G has
rows, the long sparse row blocks of CVaR, MAD and drawdown LPs and caps;
a problem with no G, such as a budget-and-box QP, keeps E alone dense. The
iterations stop at the relative tolerance IPM_TOLERANCE, at
IPM_MAX_ITERATIONS, or at a non-finite iterate, without a floating-point
warning.

`_kkt_factor` splits the columns once per solve. The core is the scenario
auxiliaries of the epigraph blocks (drawdown peaks, CVaR and CDaR tails, MAD
deviations, L1 epigraphs): the columns that P and E leave at zero (P read,
like G, in CSR) and that G holds in no more rows than the median column.
Ordered by the last row that holds them, their block of the matrix is
banded, with half-bandwidth 2 for chained CDaR, 1 for max drawdown and 0 for
CVaR and MAD. Each iteration factors it with a banded LU (`dgbtrf`) and
eliminates it, which leaves a Schur complement on the border (the weights
and the few scalars) with E (Gondzio, EJOR 2012, §5). The n×n matrix is
never formed, and on a narrow band a factor costs O(T·N²) instead of
O((T + N)³); a risk cap's row holds every auxiliary of its measure, and
widens the band to all of them. A problem with no core, such as one with no
G, takes P and G dense and factors the whole matrix dense. Either way
δ = IPM_REGULARIZATION is on the same diagonal, so both factor the same
matrix.

The result is the best iterate (the smallest residual in units of its
tolerance; a converged run's last), replaced by the finish from it when the
finish's primal, dual and complementarity residuals are no worse, up to
1e-12. Its residuals are the iteration's own, unscaled: the largest
violation of a row of E or C, the stationarity residual and complementarity
|y ∘ r|∞ over those rows, each bound its own row. It is Optimal if they meet
EPS_ABS/EPS_REL. Otherwise two HiGHS LPs (scipy's `linprog`, given the
bounds as `bounds=`) classify it: a phase-1 LP gives Infeasible, and a
negative optimum of the recession LP min qᵀd s.t. Pd = 0, Ed = 0, Gd ≤ 0,
d ≤ 0 where ub is finite, d ≥ 0 where lb is, |d| ≤ 1 gives Unbounded;
anything else is MaxIterations. `scipy.optimize` is imported there, so a
process that meets no such problem never loads it.

The finish exists because an interior point is accurate only to its
tolerance (along the flat directions of an ill-conditioned covariance its
weights can be off by 1e-5). It guesses the rows of C active at the
optimum: those whose slack is below their dual (s < z), of a variable
guessed at both bounds only the side with the larger dual. `_finish` then
solves on the interior point's own factor, once per round: a weight 1/δ on
each guessed row and 0 on the others, δ = FINISH_REGULARIZATION, makes the
reduced matrix that of [P, C_actᵀ; C_act, −δI] with E (and the iteration's
IPM_REGULARIZATION), the rows' multipliers eliminated as the iteration
eliminates them. Rows are not
pruned, so dependent ones are fine, and the bounds of the variables it
fixes are rows of the guess like any other. Refinement from the interior
point against the unregularised system, with the iteration's products,
removes the regularisation, as OSQP's polishing does (Stellato et al.,
Math. Prog. Comp. 2020), and stops once a correction is below rounding;
a direction the guess leaves free, such as the auxiliaries of a loose CVaR
or MAD cap, keeps a feasible value. Each variable guessed at a bound is
then set exactly there (+0.0, never −0.0), and its multiplier read off the
gradient. For up to FINISH_ROUNDS rounds a violated row then joins the
guess and one with a wrong-signed multiplier leaves it.

`_kkt_solver` builds [H + δI, Aᵀ; A, −δI] dense in LAPACK's column order,
factors it once with `dgetrf` and solves with `dgetrs` (the routines inside
`lu_factor` and `lu_solve`, without their per-call checks), with A = E and
δ = IPM_REGULARIZATION: H is the border's Schur complement, or, for a
problem with no core, P + Gᵀ diag(w_G) G + D. The matrix is quasi-definite,
so it factors even when the rows are dependent (Vanderbei, SIAM J. Optim.
1995).
"""

from __future__ import annotations

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
FINISH_REGULARIZATION = 1e-9  # the finish's δ, removed by its refinement
FINISH_ROUNDS = 4
# the finish corrects a larger bound or row violation or wrong-signed multiplier
FINISH_TOLERANCE = 1e-12


@dataclass
class QpProblem:
    """min ½xᵀPx + qᵀx s.t. A_eq x = b_eq, G x ≤ h, lb ≤ x ≤ ub.

    `P`, `A_eq` and `G` may each be a dense 2-D array or a `scipy.sparse`
    matrix; P = None is an LP, a None block of rows has no rows, and a None
    bound vector leaves that side open.
    """

    q: np.ndarray
    P: np.ndarray | scipy.sparse.sparray | None = None
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


def _block(M, n):
    """M as a float array or a CSR matrix; None is a (0, n) array, a block of
    no rows. Duplicate CSR entries are summed, on a copy, as products with the
    matrix sum them."""
    if M is None:
        return np.zeros((0, n))
    M = (M.tocsr().astype(float, copy=False) if scipy.sparse.issparse(M)
         else np.atleast_2d(np.asarray(M, dtype=float)))
    if scipy.sparse.issparse(M) and not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M


def solve(problem: QpProblem) -> SolveResult:
    """Solve a QP/LP; non-optimal outcomes are returned in-band via `status`."""
    n = problem.dimensions()
    q = np.asarray(problem.q, dtype=float).ravel()
    P = scipy.sparse.csr_array((n, n)) if problem.P is None else _block(problem.P, n)
    E, G = _block(problem.A_eq, n), _block(problem.G, n)
    b = np.zeros(0) if problem.A_eq is None else np.asarray(problem.b_eq, dtype=float).ravel()
    h = np.zeros(0) if problem.G is None else np.asarray(problem.h, dtype=float).ravel()
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    if (np.isinf(b).any() or (h == -np.inf).any()
            or np.any((lb == np.inf) | (ub == -np.inf) | (lb > ub))):
        return SolveResult(np.zeros(n), float("nan"), "Infeasible", 0, float("inf"), 0.0,
                           np.zeros(b.size), np.zeros(h.size), np.zeros(n))
    return _interior_point(P if problem.P is None else (P + P.T) / 2, q, E, b, G, h, lb, ub)


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
    E = E0 if isinstance(E0, np.ndarray) else E0.toarray()
    if mg:
        G = scipy.sparse.csr_array(G0)[fin]
        B = scipy.sparse.vstack([scipy.sparse.csr_array(E), G], format="csr")
        BT, GT = B.T.tocsr(), G.T.tocsr()
    else:
        G = np.zeros((0, n))
        B, BT, GT = E, E.T, G.T

    def plus_bounds_t(v, out):
        """out plus the bound rows' part of Cᵀv (v on the rows of C), in place."""
        out[U] += v[mg:mg + U.size]
        out[L] -= v[mg + U.size:]
        return out

    entries = P0.data if scipy.sparse.issparse(P0) else P0
    largest = max(np.abs(entries).max(initial=0.0), np.abs(q0).max(initial=0.0))
    scale = 1.0 / largest if largest > 0 else 1.0
    P, q = P0 * scale, q0 * scale
    tol_prim = IPM_TOLERANCE * (1.0 + np.abs(c).max(initial=0.0))
    tol_dual = IPM_TOLERANCE * (1.0 + np.abs(q).max(initial=0.0))
    factor = _kkt_factor(P, E, G, U, L)[0]

    def residual(x, y):
        """Px, then the residuals at x and the multipliers y = (ν, y_C) of the
        rows of E and C: of stationarity, Px + q + Eᵀν + Cᵀy_C, and of the
        rows, (E x − b, C x − d)."""
        Px = P @ x
        return (Px, Px + q + plus_bounds_t(y[p:], BT @ y[:p + mg]),
                np.concatenate([B @ x, x[U], -x[L]]) - c)

    def newton(kkt, w, t, r_d, r_e):
        """The step (dx, dν, dy) on the stationarity and E residuals r_d and
        r_e, with `kkt` the factor at the weights w of the rows of C, whose
        multipliers it eliminates as dy = w∘C dx + t; then C dx."""
        dv = kkt(np.concatenate([-r_d - plus_bounds_t(t, GT @ t[:mg]), -r_e]))
        Cdx = np.concatenate([G @ dv[:n], dv[U], -dv[L]])
        return np.concatenate([dv, w * Cdx + t]), Cdx

    # the iterate v = (x, ν, z, s), from x = 0, ν = 0, z = s = 1: ν are the
    # duals of E, z those of the rows of C and s their slacks
    v = np.concatenate([np.zeros(n + p), np.ones(2 * m)])
    # the iterate with the smallest residual in units of its tolerance, which
    # the result is taken from
    best, best_v = np.inf, v
    with np.errstate(all="ignore"):  # a breakdown shows as a non-finite iterate instead
        for k in range(IPM_MAX_ITERATIONS + 1):
            x, dual, zs = v[:n], v[n:n + p + m], v[n + p:]
            z, s = zs[:m], zs[m:]
            Px, r_d, r_p = residual(x, dual)
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
            kkt = factor(w)
            if kkt is None:
                break
            r_e, r_i = r_p[:p], r_p[p:]

            def direction(r_c):
                """Newton step (dx, dν, dz, ds) on the residuals, with the
                complementarity target s∘z − r_c."""
                dv, Cdx = newton(kkt, w, (z * r_i - r_c) / s, r_d, r_e)
                return np.concatenate([dv, -r_i - Cdx])

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

    def outcome(x, y):
        """x and y = (ν, y_C), then their unscaled residuals: primal (the
        largest violation of a row of E or C), dual (|P₀x + q₀ + Eᵀν + Cᵀy_C|∞,
        from the normalised one), complementarity (|y ∘ r|∞ over the rows,
        r their residuals) and the magnitudes their tolerances scale by
        (|E x|, |C x| and |P₀x|, |Eᵀν + Cᵀy_C|, |q₀|)."""
        Px, r_d, r_p = residual(x, y)
        r_prim = max(np.abs(r_p[:p]).max(initial=0.0), r_p[p:].max(initial=0.0))
        dual_scale = max(np.abs(Px).max(initial=0.0), np.abs(r_d - Px - q).max(initial=0.0),
                         np.abs(q).max(initial=0.0))
        return (x, y, r_prim, np.abs(r_d).max(initial=0.0) / scale,
                np.abs(y * r_p).max(initial=0.0) / scale, np.abs(r_p + c).max(initial=0.0),
                dual_scale / scale)

    # the best iterate (a converged run's last), or the finish from it when
    # that is no worse. The finish guesses the rows of C whose slack is below
    # their dual, and of a variable guessed at both bounds only the side with
    # the larger dual
    x, y = best_v[:n], best_v[n:n + p + m]
    result = outcome(x, y)
    act = best_v[n + p + m:] < y[p:]
    y_bound = plus_bounds_t(y[p:], np.zeros(n))
    at_ub, at_lb = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    at_ub[U[act[mg:mg + U.size]]] = True
    at_lb[L[act[mg + U.size:]]] = True
    act[mg:mg + U.size] &= ~(at_lb & (y_bound <= 0.0))[U]
    act[mg + U.size:] &= ~(at_ub & (y_bound > 0.0))[L]
    finished = _finish(factor, residual, newton, c, p, U, L, x, y, act)
    if finished is not None:
        finished = outcome(*finished)
        if max(finished[2:5]) <= max(result[2:5]) + 1e-12:
            result = finished
    x, y, r_prim, r_dual, r_comp, prim_scale, dual_scale = result
    if (r_prim <= EPS_ABS + EPS_REL * prim_scale
            and max(r_dual, r_comp) <= EPS_ABS + EPS_REL * dual_scale):
        status = "Optimal"
    else:
        status = _classify(P, q, E, b, G, c[p:p + mg], lb, ub)
    objective = float(0.5 * x @ P0 @ x + q0 @ x) if status == "Optimal" else float("nan")
    y_ineq = np.zeros(h.size)
    y_ineq[fin] = y[p:p + mg] / scale
    return SolveResult(x, objective, status, k, float(r_prim), float(r_dual),
                       y_eq=y[:p] / scale, y_ineq=y_ineq,
                       y_bound=plus_bounds_t(y[p:], np.zeros(n)) / scale)


def _finish(factor, residual, newton, c, p, U, L, x, y, act):
    """Active-set finish of an interior point (x, y) of the normalised problem,
    y = (ν, y_C) the multipliers of E x = b and C x ≤ d (c = (b, d); C is the
    rows of G, then U's upper bounds and L's lower ones), from the guess `act`
    of the rows of C active at the optimum. `factor`, `residual` and `newton`
    are the interior point's. Returns the finished (x, y), or None."""
    n, m = x.size, act.size
    iu, il = m - U.size - L.size, m - L.size  # where U's and then L's rows of C start
    d, eps = c[p:], np.finfo(float).eps
    for _ in range(FINISH_ROUNDS):
        # the guessed rows weighted 1/δ, the others left out: `factor` then
        # factors [P, C_actᵀ; C_act, −δI] with E, its rows' multipliers
        # eliminated
        w = np.where(act, 1.0 / FINISH_REGULARIZATION, 0.0)
        kkt = factor(w)
        if kkt is None:
            return None
        at_ub, at_lb = act[iu:il], act[il:]
        fixed = np.concatenate([U[at_ub], L[at_lb]])
        bound = np.concatenate([d[iu:il][at_ub], -d[il:][at_lb]])
        x_new, y_new = x.copy(), y.copy()
        x_new[fixed] = bound
        y_new[p:][~act] = 0.0
        # refinement against the unregularised system removes δ (OSQP's
        # polishing), until a correction is below rounding
        for _ in range(POLISH_REFINE_STEPS + 1):
            _, r_d, r_p = residual(x_new, y_new)
            dv = newton(kkt, w, w * r_p[p:], r_d, r_p[:p])[0]
            x_new, y_new = x_new + dv[:n], y_new + dv[n:]
            if np.abs(dv[:n]).max(initial=0.0) <= eps * np.abs(x_new).max(initial=0.0):
                break
        if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
            return None
        # each variable guessed at a bound exactly there (+0.0, never −0.0),
        # and its multiplier read off the gradient
        x_new[fixed] = bound
        x_new += 0.0
        y_new[p + iu:] = 0.0
        _, r_d, r_p = residual(x_new, y_new)
        y_new[p + iu:p + il][at_ub], y_new[p + il:][at_lb] = -r_d[U[at_ub]], r_d[L[at_lb]]
        tol = FINISH_TOLERANCE
        y_tol = tol * max(1.0, np.abs(y_new).max(initial=0.0))
        add = ~act & (r_p[p:] > tol * (1.0 + np.abs(d)))
        drop = act & (y_new[p:] < -y_tol)
        if not (add.any() or drop.any()):
            return x_new, y_new
        act = (act | add) & ~drop
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
    Ps = scipy.sparse.csr_array(P)
    rows = scipy.sparse.vstack([Ps[np.diff(Ps.indptr) > 0], E])  # Pd = 0 holds on P's zero rows
    eq = dict(A_eq=rows, b_eq=np.zeros(rows.shape[0])) if rows.shape[0] else {}
    cone = np.column_stack([np.where(np.isfinite(lb), 0.0, -1.0),
                            np.where(np.isfinite(ub), 0.0, 1.0)])
    ray = scipy.optimize.linprog(q, **ub_rows, **eq, bounds=cone, method="highs")
    if ray.status == 0 and ray.fun < -EPS_INFEAS:
        return "Unbounded"
    return "MaxIterations"


def _kkt_factor(P, E, G, U, L):
    """The interior point's factor of K = [H + δI, Eᵀ; E, −δI], δ =
    IPM_REGULARIZATION and H = P + Gᵀ diag(w_G) G + D, at the weights w = z/s
    on the rows of G (w_G), then on the bounds U and L, which D puts on the
    diagonal. E is dense, P and G dense or CSR.

    The core is the columns that P and E leave at zero and that G holds, in no
    more of its rows than the median column: the scenario auxiliaries. Ordered
    by the last row of G that holds them, ties by index, their block of H is
    banded; a banded LU (`dgbtrf`) eliminates them, and `_kkt_solver` factors
    the Schur complement on the other columns, the border, with E. H itself is
    never formed. Returns (factor, kd): factor(w) is v ↦ K⁻¹v, or None at a
    zero pivot, and kd the core's half-bandwidth, None when the core is empty
    and factor(w) is `_kkt_solver` of H with E."""
    n, mg = P.shape[0], G.shape[0]
    core = np.zeros(0, dtype=int)
    if mg:
        Ps, Gs = scipy.sparse.csr_array(P), scipy.sparse.csr_array(G)
        count = np.bincount(Gs.indices, minlength=n)
        core = np.flatnonzero((np.bincount(Ps.indices, minlength=n) == 0) & ~E.any(axis=0)
                              & (count > 0) & (count <= np.median(count)))
    if not core.size:
        P, G = (M if isinstance(M, np.ndarray) else M.toarray() for M in (P, G))

        def factor(w):
            H = P + (G.T * w[:mg]) @ G if mg else P.copy()
            H[U, U] += w[mg:mg + U.size]
            H[L, L] += w[mg + U.size:]
            return _kkt_solver(H, E, IPM_REGULARIZATION)
        return factor, None

    border = np.setdiff1d(np.arange(n), core)
    last = np.full(n, -1)
    np.maximum.at(last, Gs.indices, np.repeat(np.arange(mg), np.diff(Gs.indptr)))
    core = core[np.argsort(last[core], kind="stable")]
    nc, nb = core.size, border.size
    Gb, Gc = Gs[:, border].toarray(), Gs[:, core]
    GcT = Gc.T.tocsr()
    # the core block's entry (i, j) is Σ_r G_ri G_rj w_r over the rows r holding
    # both; `band` maps w_G to it in dgbtrf's storage, row 2kd + i − j of column
    # j, below kd rows for the fill of the row interchanges
    per_row = np.diff(Gc.indptr)
    row = np.repeat(np.arange(mg), per_row)  # the row of each core entry
    pairs = per_row[row]
    a = np.repeat(np.arange(row.size), pairs)  # each core entry with each of its row's, b
    b = np.repeat(Gc.indptr[row + 1] - np.cumsum(pairs), pairs) + np.arange(pairs.sum())
    i, j = Gc.indices[a], Gc.indices[b]
    kd = int(np.abs(i - j).max())
    ldab = 3 * kd + 1
    band = scipy.sparse.csr_array((Gc.data[a] * Gc.data[b], (2 * kd + i - j + ldab * j, row[a])),
                                  shape=(ldab * nc, mg))
    P_bb, E_b = Ps[border][:, border].toarray(), E[:, border]

    def factor(w):
        w_G, d = w[:mg], np.zeros(n)
        d[U] = w[mg:mg + U.size]
        d[L] += w[mg + U.size:]
        ab = (band @ w_G).reshape((ldab, nc), order="F")
        ab[2 * kd] += d[core] + IPM_REGULARIZATION
        lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, kd, kd, overwrite_ab=1)
        if info != 0:
            return None
        wGb = w_G[:, None] * Gb
        H_cb = GcT @ wGb  # the core's block of H with the border
        X = scipy.linalg.lapack.dgbtrs(lu, kd, kd, H_cb, piv)[0]  # (H_cc + δI)⁻¹ H_cb
        S = Gb.T @ wGb + P_bb - H_cb.T @ X  # the border's block of H less H_cbᵀ X
        S[np.diag_indices(nb)] += d[border]
        schur = _kkt_solver(S, E_b, IPM_REGULARIZATION)
        if schur is None:
            return None

        def kkt(v):
            y = scipy.linalg.lapack.dgbtrs(lu, kd, kd, v[core], piv)[0]
            sol = schur(np.concatenate([v[border] - H_cb.T @ y, v[n:]]))
            out = np.empty(v.size)
            out[border], out[n:] = sol[:nb], sol[nb:]
            out[core] = y - X @ sol[:nb]
            return out
        return kkt
    return factor, kd


def _kkt_solver(H, A, delta):
    """v ↦ K⁻¹v for K = [H + δI, Aᵀ; A, −δI], H n×n and A k×n dense (n + k may
    be 0), or None when K has a zero pivot."""
    n, k = H.shape[0], A.shape[0]
    if n + k == 0:  # nothing to solve, and dgetrf rejects a 0×0 matrix
        return lambda v: v
    K = np.zeros((n + k, n + k), order="F")  # LAPACK's order: factored in place
    K[:n, :n] = H
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[np.diag_indices(n + k)] += np.repeat([delta, -delta], [n, k])
    # the LAPACK calls inside lu_factor and lu_solve, without their per-call checks
    lu, piv, info = scipy.linalg.lapack.dgetrf(K, overwrite_a=1)
    if info != 0:  # a zero pivot: K is singular
        return None
    return lambda v: scipy.linalg.lapack.dgetrs(lu, piv, v)[0]
