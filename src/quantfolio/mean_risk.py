"""Mean-risk optimization: four objectives over the supported risk measures.

A `MeanRisk` estimator's fields declare the whole problem. `optimize(model,
prior)`, `efficient_frontier(model, prior, size)` and `portfolio_risk(weights,
model, prior)` take the model with a fitted prior and ignore its
`prior_estimator`. Each objective is expressed as a QP/LP on the
reformulation layer, with weight constraints, L1/L2 regularization and risk
caps. All four share one assembly path; MaximizeRatio adds a scale column and
homogenizes the same constraint rows.
"""
from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .analytics import predict  # noqa: F401  (public as quantfolio.mean_risk.predict)
from .base import BaseEstimator
from .exceptions import (
    AssetMismatch,
    DimensionMismatch,
    InfeasibleProblem,
    InvalidConfig,
    SolverFailure,
    UnboundedProblem,
    require_finite,
    require_member,
    require_real,
)
from .measures import DEFAULT_BETA, RiskMeasure, risk_of_weights
from .priors import Prior, fit_prior
from .reformulations import ProblemBuilder, reformulate_risk, require_epigraph
from .solver import solve


class ObjectiveFunction(Enum):
    MINIMIZE_RISK = "minimize_risk"
    MAXIMIZE_RETURN = "maximize_return"
    MAXIMIZE_UTILITY = "maximize_utility"
    MAXIMIZE_RATIO = "maximize_ratio"


def _check(model: MeanRisk) -> MeanRisk:
    """Reject unusable hyper-parameters; run before every solve. Returns a
    copy whose objective and measures are members, where the model may give
    their value strings ("cvar" for RiskMeasure.CVAR)."""
    objective = require_member(ObjectiveFunction, "objective", model.objective)
    risk_measure = require_member(RiskMeasure, "risk_measure", model.risk_measure)
    require_finite("budget", model.budget)
    # an infinite bound leaves that side of the box open
    require_real("min_weights", model.min_weights, array=True)
    require_real("max_weights", model.max_weights, array=True)
    if model.max_weight_per_asset is not None and not isinstance(
            model.max_weight_per_asset, Mapping):
        raise InvalidConfig("max_weight_per_asset must map asset names to caps, "
                            f"got {model.max_weight_per_asset!r}")
    for name, cap in (model.max_weight_per_asset or {}).items():
        require_real(f"weight cap of {name!r}", cap)
    if model.min_return is not None:
        require_finite("min_return", model.min_return)
    if (model.linear_A is None) != (model.linear_b is None):
        raise InvalidConfig("linear_A and linear_b must be given together")
    if model.linear_A is not None:
        require_finite("linear_A", model.linear_A, array=True)
        require_finite("linear_b", model.linear_b, array=True)
    risk_caps = []
    for cap in model.risk_caps or ():
        if not isinstance(cap, (tuple, list)) or len(cap) != 2:
            raise InvalidConfig(f"a risk cap must be a (measure, bound) pair, got {cap!r}")
        # +inf leaves the measure uncapped, as an infinite weight bound leaves the box open
        require_real(f"risk cap bound of {cap[0]}", cap[1])
        risk_caps.append((require_member(RiskMeasure, "risk cap measure", cap[0]), cap[1]))
    for name in ("l1_coef", "l2_coef", "risk_aversion", "beta"):
        require_finite(name, getattr(model, name))
    if model.l1_coef < 0 or model.l2_coef < 0:
        raise InvalidConfig("regularization coefficients must be >= 0")
    if model.risk_aversion < 0:
        raise InvalidConfig("risk_aversion must be >= 0")
    if not 0 < model.beta < 1:
        raise InvalidConfig("beta must lie in (0, 1)")
    return replace(model, objective=objective, risk_measure=risk_measure, risk_caps=risk_caps)


def _bounds(model, n: int, assets: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The box [lb, ub] on n weights, named caps resolved against `assets`."""
    lb = np.asarray(model.min_weights, dtype=float)
    ub = np.asarray(model.max_weights, dtype=float)
    for name, bound in (("lower weight bound (min_weights)", lb),
                        ("upper weight bound (max_weights)", ub)):
        if bound.ndim and bound.shape != (n,):
            raise DimensionMismatch(f"{name} has shape {bound.shape}, not () or ({n},)")
    lb, ub = np.broadcast_to(lb, (n,)).copy(), np.broadcast_to(ub, (n,)).copy()
    if model.max_weight_per_asset:
        if not assets:
            raise InvalidConfig("named weight caps need a prior with asset names")
        index = {a: i for i, a in enumerate(assets)}
        for name, cap in model.max_weight_per_asset.items():
            if name not in index:
                raise AssetMismatch(f"capped asset {name!r} not in prior assets")
            ub[index[name]] = min(ub[index[name]], float(cap))
    if np.any(lb > ub):
        raise InvalidConfig("lower bound exceeds upper bound for some asset")
    if not (lb.sum() - 1e-12 <= model.budget <= ub.sum() + 1e-12):
        raise InvalidConfig(
            f"budget {model.budget} outside [{lb.sum()}, {ub.sum()}] implied by bounds"
        )
    return lb, ub


@dataclass(frozen=True)
class FrontierPoint:
    weights: np.ndarray
    expected_return: float
    risk: float


# measures optimized as the quadratic term wᵀΣw, not by an epigraph: standard
# deviation has the argmin of variance
_QUADRATIC = (RiskMeasure.VARIANCE, RiskMeasure.STANDARD_DEVIATION)


def _add_regularization(builder, model, w_idx, lb):
    """L2 as a quadratic term; L1 via |w| epigraph when shorting is allowed."""
    n = w_idx.size
    if model.l2_coef > 0:
        builder.add_quadratic(w_idx, model.l2_coef * np.eye(n))
    if model.l1_coef > 0:
        if np.all(lb >= 0):
            warnings.warn(
                "l1_coef is a no-op for long-only portfolios (the L1 norm is "
                "fixed at the budget); ignoring",
                stacklevel=3,
            )
            return
        a = builder.add_variables(n, lb=0.0)
        # ±w_j − a_j ≤ 0, the two rows of j adjacent
        signs = np.repeat(np.eye(n), 2, axis=0)
        signs[1::2] *= -1.0
        builder.add_rows(np.concatenate([w_idx, a]),
                         np.hstack([signs, -np.repeat(np.eye(n), 2, axis=0)]), 0.0)
        builder.add_cost((a, np.full(n, model.l1_coef)))


def _add_constraints(builder, model, prior, w_idx, lb, ub, t=None):
    """Budget, linear, return-floor and risk-cap rows on the weights.

    Given the ratio objective's scale column `t`, every row a·w (= or ≤) c
    is homogenized into a·y − c·t (= or ≤) 0, and the finite box bounds
    become rows of the same form.
    """
    n = w_idx.size

    def rows(cols, M, rhs, eq=False):
        M, rhs = np.atleast_2d(M), np.atleast_1d(np.asarray(rhs, dtype=float))
        if t is not None:
            cols, M, rhs = np.append(cols, t), np.column_stack([M, -rhs]), 0.0
        builder.add_rows(cols, M, rhs, eq)

    rows(w_idx, np.ones(n), model.budget, eq=True)
    if t is not None:
        # −w_j ≤ −lb_j and w_j ≤ ub_j, the two rows of j adjacent
        E = np.repeat(np.eye(n), 2, axis=0)
        E[0::2] *= -1.0
        limit = np.column_stack([-lb, ub]).ravel()
        keep = np.isfinite(limit)
        rows(w_idx, E[keep], limit[keep])
    if model.linear_A is not None:
        A = np.atleast_2d(np.asarray(model.linear_A, dtype=float))
        b = np.asarray(model.linear_b, dtype=float).ravel()
        if A.shape != (b.size, n):
            raise DimensionMismatch(f"linear rows {A.shape} vs b {b.shape} on N={n}")
        rows(w_idx, -A, -b)
    if model.min_return is not None:
        rows(w_idx, -prior.mu, -model.min_return)
    for measure, bound in model.risk_caps or ():
        if bound == np.inf:  # leaves a measure that could be capped uncapped: no rows
            require_epigraph(measure)
            continue
        risk = reformulate_risk(builder, measure, prior.scenarios, w_idx, model.beta)
        if bound == -np.inf:  # kept as a bound: homogenized, t's coefficient would be infinite
            builder.add_rows(*risk, bound)
        else:
            rows(*risk, bound)


def _add_risk_cost(builder, model, prior, w_idx, factor):
    """factor · risk: a quadratic term, or the linear term of the measure's epigraph."""
    if model.risk_measure in _QUADRATIC:
        builder.add_quadratic(w_idx, factor * prior.sigma)
    else:
        builder.add_cost(reformulate_risk(builder, model.risk_measure, prior.scenarios,
                                          w_idx, model.beta), factor)


def _infeasible_detail(model, prior) -> str:
    """Why the problem has no solution, read off the maximum expected return
    over its weight constraints; empty when that says nothing."""
    ratio = model.objective is ObjectiveFunction.MAXIMIZE_RATIO
    if model.min_return is None and not ratio:
        return ""
    try:
        r_max = float(prior.mu @ optimize(replace(
            model, objective=ObjectiveFunction.MAXIMIZE_RETURN, l1_coef=0.0, l2_coef=0.0,
            min_return=None, risk_caps=None), prior))
    except (InfeasibleProblem, UnboundedProblem, SolverFailure):
        return ""
    if model.min_return is not None and r_max < model.min_return - 1e-12:
        return f": min_return={model.min_return} exceeds the maximum achievable return {r_max:.6g}"
    if ratio and r_max <= 0.0:
        return f": no feasible portfolio has a positive expected return (maximum {r_max:.6g})"
    return ""


def _raise_for_status(res, model, prior):
    if res.status == "Optimal":
        return
    if res.status == "Infeasible":
        raise InfeasibleProblem(f"constraint set is infeasible{_infeasible_detail(model, prior)}")
    if res.status == "Unbounded":
        raise UnboundedProblem("objective unbounded over the feasible set")
    raise SolverFailure(
        f"solver stopped with status {res.status} after {res.iterations} iterations "
        f"(residuals {res.primal_residual:.2e}/{res.dual_residual:.2e})"
    )


def _assemble(model: MeanRisk, prior: Prior):
    """The problem of a checked model (one that `_check` returned) on the
    prior, its weight columns and the ratio scale column.

    MaximizeRatio is solved homogenized over y = t·w with a scale column
    t ≥ 0. Degree-1 measures: maximize mu'y subject to risk(y) <= 1 plus the
    homogenized constraint cone. Variance / std dev: minimize y'Sigma y
    subject to mu'y = 1 (classic tangency form, reported ratio is mean over
    std dev). Recover w = y/t. The other objectives have no scale column
    (t is None).
    """
    n = prior.n_assets
    lb, ub = _bounds(model, n, prior.assets)
    ratio = model.objective is ObjectiveFunction.MAXIMIZE_RATIO

    builder = ProblemBuilder()
    if ratio:
        if model.l1_coef > 0 or model.l2_coef > 0:
            warnings.warn(
                "L1/L2 regularization is not scale-invariant and is ignored under "
                "MaximizeRatio",
                stacklevel=2,
            )
        # the ratio and w = y/t do not depend on the unit of returns: solve in
        # a unit where the scenarios' std is about 1, since on decimal returns
        # the scale column t ≈ 1/risk leaves the LP badly scaled and stalling
        std = float(np.std(prior.scenarios)) if prior.scenarios.size else 0.0
        s = 10.0 ** -round(np.log10(std)) if std > 0 else 1.0
        prior = replace(prior, mu=s * prior.mu, sigma=s * s * prior.sigma,
                        scenarios=s * prior.scenarios)
        model = replace(
            model, min_return=None if model.min_return is None else s * model.min_return,
            risk_caps=[(measure, s * bound) for measure, bound in model.risk_caps or ()])
        w_idx = builder.add_variables(n)
        t = int(builder.add_variables(1, lb=0.0)[0])
    else:
        w_idx = builder.add_variables(n, lb, ub)
        t = None
    _add_constraints(builder, model, prior, w_idx, lb, ub, t)
    if not ratio:
        _add_regularization(builder, model, w_idx, lb)

    neg_mu = (w_idx, -prior.mu)
    if model.objective is ObjectiveFunction.MINIMIZE_RISK:
        _add_risk_cost(builder, model, prior, w_idx, 1.0)
    elif model.objective is ObjectiveFunction.MAXIMIZE_RETURN:
        builder.add_cost(neg_mu)
    elif model.objective is ObjectiveFunction.MAXIMIZE_UTILITY:
        builder.add_cost(neg_mu)
        _add_risk_cost(builder, model, prior, w_idx, model.risk_aversion)
    elif not ratio:
        raise InvalidConfig(f"unknown objective {model.objective!r}")
    elif model.risk_measure in _QUADRATIC:
        builder.add_rows(w_idx, prior.mu, 1.0, eq=True)
        builder.add_quadratic(w_idx, prior.sigma)
    else:
        builder.add_rows(*reformulate_risk(builder, model.risk_measure, prior.scenarios, w_idx,
                                           model.beta), 1.0)
        builder.add_cost(neg_mu)
    with np.errstate(over="ignore"):  # an overflowing coefficient is rejected below
        problem = builder.build()
    if not all(np.isfinite(M).all() for M in (problem.q, problem.P) if M is not None):
        raise InvalidConfig("objective coefficients overflow: a coefficient such as "
                            "l2_coef or risk_aversion is too large")
    return problem, w_idx, t


def optimize(model: MeanRisk, prior: Prior) -> np.ndarray:
    """Solve the model's problem on `prior` (`model.prior_estimator` is not
    used); returns weights on the budget hyperplane."""
    model = _check(model)
    # assembled in a helper so that the builder's row blocks are freed before the solve
    problem, w_idx, t = _assemble(model, prior)
    res = solve(problem)
    _raise_for_status(res, model, prior)
    if t is None:
        return res.x[w_idx].copy()
    t_val = float(res.x[t])
    if not np.isfinite(t_val) or t_val <= 1e-12:
        # the ratio LP's optimum is y = t = 0 when no portfolio earns a positive return
        detail = _infeasible_detail(model, prior)
        if detail:
            raise InfeasibleProblem(f"constraint set is infeasible{detail}")
        raise SolverFailure("ratio homogenization degenerate: scale variable vanished")
    return (res.x[w_idx] / t_val).copy()


def efficient_frontier(model: MeanRisk, prior: Prior, size: int) -> list[FrontierPoint]:
    """Sweep MinimizeRisk over `size` equally spaced return targets; the
    model's objective and min_return are replaced, its other fields kept."""
    if size < 1:
        raise InvalidConfig("frontier size must be >= 1")

    def point_model(objective, min_return=None):
        return replace(model, objective=objective, min_return=min_return)

    w_min = optimize(point_model(ObjectiveFunction.MINIMIZE_RISK), prior)
    r_min = float(prior.mu @ w_min)
    w_max = optimize(point_model(ObjectiveFunction.MAXIMIZE_RETURN), prior)
    r_max = float(prior.mu @ w_max)

    targets = np.linspace(r_min, r_max, size) if size > 1 else np.array([r_min])
    points: list[FrontierPoint] = []
    for target in targets:
        try:
            w = optimize(point_model(ObjectiveFunction.MINIMIZE_RISK, float(target)), prior)
        except (InfeasibleProblem, SolverFailure) as exc:
            warnings.warn(f"frontier point at target {target:.6g} dropped: {exc}",
                          stacklevel=2)
            continue
        points.append(FrontierPoint(
            weights=w,
            expected_return=float(prior.mu @ w),
            risk=portfolio_risk(w, model, prior),
        ))
    if not points:
        raise InfeasibleProblem("every frontier point was infeasible")
    return points


def portfolio_risk(weights: np.ndarray, model: MeanRisk, prior: Prior) -> float:
    """Realized risk of `weights` under the model's measure and beta on `prior`."""
    return risk_of_weights(weights, prior.sigma, prior.scenarios,
                           model.risk_measure, beta=model.beta)


@dataclass(repr=False, eq=False)
class MeanRisk(BaseEstimator):
    """Convex mean-risk optimizer with an estimator-style fit/predict API.

    Its fields are the whole problem. The feasible set: sum(w) = `budget`;
    the box [`min_weights`, `max_weights`], numbers or one per asset, ±inf
    leaving a side open; `max_weight_per_asset`, caps by asset name;
    `linear_A`·w ≥ `linear_b`; the floor `min_return`; and `risk_caps`,
    (RiskMeasure, bound) pairs. `objective`, `risk_measure` and a cap's
    measure take a member or its value string ("maximize_ratio", "cvar").
    Every solve checks the fields; none is changed.
    """

    objective: ObjectiveFunction = ObjectiveFunction.MINIMIZE_RISK
    risk_measure: RiskMeasure = RiskMeasure.VARIANCE
    prior_estimator: BaseEstimator | None = None
    budget: float = 1.0
    min_weights: float | np.ndarray = 0.0
    max_weights: float | np.ndarray = 1.0
    max_weight_per_asset: dict[str, float] | None = None
    linear_A: np.ndarray | None = None
    linear_b: np.ndarray | None = None
    min_return: float | None = None
    risk_caps: list[tuple[RiskMeasure, float]] | None = None
    l1_coef: float = 0.0
    l2_coef: float = 0.0
    risk_aversion: float = 1.0
    beta: float = DEFAULT_BETA

    def fit(self, X, factors=None):
        self.prior_ = fit_prior(self.prior_estimator, X, factors)
        self.weights_ = optimize(self, self.prior_)
        return self
