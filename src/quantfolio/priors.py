"""Prior construction: the (mu, sigma, scenarios) bundle consumed by optimizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments
from .base import BaseEstimator, clone
from .exceptions import (
    DateMisalignment,
    DimensionMismatch,
    InvalidConfig,
    SingularSystem,
    TooFewSamples,
    require_finite,
)
from .market_data import ReturnsMatrix, returns_values


@dataclass(frozen=True)
class Prior:
    """Expected returns, covariance, and the scenario matrix behind them.

    Scenario-based risk measures (CVaR, CDaR, MAD, worst realization) read
    `scenarios`; moment-based ones read `mu`/`sigma`. The scenario column
    means need not equal `mu`. Every entry must be finite, and `sigma`
    symmetric PSD, as the convex solves assume.
    """

    mu: np.ndarray
    sigma: np.ndarray
    scenarios: np.ndarray
    assets: tuple[str, ...] = ()

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).ravel()
        sigma = np.asarray(self.sigma, dtype=float)
        scenarios = np.asarray(self.scenarios, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "scenarios", scenarios)
        n = mu.size
        if sigma.shape != (n, n):
            raise DimensionMismatch(f"sigma shape {sigma.shape} vs N={n}")
        if scenarios.ndim != 2 or scenarios.shape[1] != n:
            raise DimensionMismatch(f"scenarios shape {scenarios.shape} vs N={n}")
        if self.assets and len(self.assets) != n:
            raise DimensionMismatch("asset list length does not match mu")
        for name, values in (("mu", mu), ("scenarios", scenarios)):
            if not np.isfinite(values).all():
                raise InvalidConfig(f"{name} has non-finite entries")
        moments.check_covariance(sigma)

    @property
    def n_assets(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class ViewSet:
    """Linear views P·mu = Q with uncertainty omega (None → He–Litterman default)."""

    P: np.ndarray
    Q: np.ndarray
    omega: np.ndarray | None = None
    tau: float = 0.05

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        Q = np.asarray(self.Q, dtype=float).ravel()
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        if P.shape[0] != Q.size:
            raise DimensionMismatch(f"{P.shape[0]} pick rows vs {Q.size} view values")
        if self.omega is not None:
            require_finite("omega", self.omega, array=True)
            omega = np.asarray(self.omega, dtype=float)
            if omega.ndim == 1:
                omega = np.diag(omega)
            object.__setattr__(self, "omega", omega)
            if omega.shape != (P.shape[0],) * 2:
                raise DimensionMismatch("omega shape does not match view count")
            if P.shape[0] and np.diag(omega).min() <= 0:
                raise InvalidConfig("omega diagonal entries must be positive")
        require_finite("tau", self.tau)
        if self.tau <= 0:
            raise InvalidConfig("tau must be positive")

    @property
    def n_views(self) -> int:
        return self.Q.size


def black_litterman_prior(base: Prior, views: ViewSet) -> Prior:
    """Posterior (mu, sigma) combining the base prior with linear views."""
    N = base.n_assets
    sigma, pi = base.sigma, base.mu
    tau = views.tau
    if views.n_views == 0:
        return Prior(mu=pi, sigma=(1.0 + tau) * sigma, scenarios=base.scenarios,
                     assets=base.assets)
    P, Q = views.P, views.Q
    if P.shape[1] != N:
        raise DimensionMismatch(f"pick matrix has {P.shape[1]} columns for N={N}")
    omega = views.omega
    if omega is None:
        omega = np.diag(np.diag(P @ (tau * sigma) @ P.T))
        if np.diag(omega).min() <= 0:
            raise SingularSystem("default omega degenerate: a view picks no risky combination")
    try:
        tau_sigma_inv = np.linalg.inv(tau * sigma)
        omega_inv = np.linalg.inv(omega)
        M_inv = tau_sigma_inv + P.T @ omega_inv @ P
        M = np.linalg.inv(M_inv)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("posterior system singular") from exc
    mu_post = M @ (tau_sigma_inv @ pi + P.T @ omega_inv @ Q)
    sigma_post = sigma + M
    sigma_post = (sigma_post + sigma_post.T) / 2
    return Prior(mu=mu_post, sigma=sigma_post, scenarios=base.scenarios,
                 assets=base.assets)


_MEAN_ESTIMATORS = ("sample", "ew", "bayes_stein")
_COV_ESTIMATORS = ("sample", "ew", "ledoit_wolf", "gerber", "denoised")


@dataclass(repr=False, eq=False)
class EmpiricalPrior(BaseEstimator):
    """Prior from historical returns; scenarios are the returns themselves."""

    mean_estimator: str = "sample"
    cov_estimator: str = "sample"
    halflife: float = 60.0
    gerber_c: float = 0.5
    rmt_passes: int = 2

    def fit(self, X, factors=None):
        if self.mean_estimator not in _MEAN_ESTIMATORS:
            raise InvalidConfig(f"mean_estimator must be one of {_MEAN_ESTIMATORS}")
        if self.cov_estimator not in _COV_ESTIMATORS:
            raise InvalidConfig(f"cov_estimator must be one of {_COV_ESTIMATORS}")

        base = moments.sample_moments(X)
        estimates = {
            "sample": lambda: base,
            "ew": lambda: moments.ew_moments(X, halflife=self.halflife),
            "bayes_stein": lambda: moments.bayes_stein(base),
            "ledoit_wolf": lambda: moments.ledoit_wolf(X)[0],
            "gerber": lambda: moments.gerber(X, c=self.gerber_c),
            "denoised": lambda: moments.denoise_rmt(base, passes=self.rmt_passes),
        }
        # one call per named estimate, also when mu and sigma name the same one
        picked = {name: estimates[name]()
                  for name in dict.fromkeys((self.mean_estimator, self.cov_estimator))}
        assets = tuple(X.assets) if isinstance(X, ReturnsMatrix) else ()
        self.prior_ = Prior(mu=picked[self.mean_estimator].mu,
                            sigma=picked[self.cov_estimator].sigma,
                            scenarios=returns_values(X), assets=assets)
        return self


@dataclass(repr=False, eq=False)
class FactorModel(BaseEstimator):
    """Factor-model prior via per-asset ridge regression (unpenalized intercept).

    sigma = B Σ_F Bᵀ + diag(residual variances); scenarios are the
    factor-implied reconstructions a + F Bᵀ, residuals excluded.
    """

    ridge_alpha: float = 0.1

    def fit(self, X, factors=None):
        if factors is None:
            raise TooFewSamples("FactorModel requires a factor returns matrix")
        Xv = returns_values(X)
        Fv = returns_values(factors)
        if isinstance(X, ReturnsMatrix) and isinstance(factors, ReturnsMatrix):
            if X.dates != factors.dates:
                raise DateMisalignment("asset and factor returns must share the date axis")
        if Xv.shape[0] != Fv.shape[0]:
            raise DateMisalignment(f"{Xv.shape[0]} asset rows vs {Fv.shape[0]} factor rows")
        T, K = Fv.shape
        if T < K + 2:
            raise TooFewSamples(f"need T > n_factors + 1, got T={T}, K={K}")
        require_finite("ridge_alpha", self.ridge_alpha)
        if self.ridge_alpha < 0:
            raise InvalidConfig("ridge_alpha must be >= 0")

        f_mean = Fv.mean(axis=0)
        x_mean = Xv.mean(axis=0)
        Fc = Fv - f_mean
        Xc = Xv - x_mean
        # centered ridge leaves the intercept unpenalized
        B = np.linalg.solve(Fc.T @ Fc + self.ridge_alpha * np.eye(K), Fc.T @ Xc)  # K×N
        a = x_mean - f_mean @ B
        fitted = a + Fv @ B
        resid_var = (Xv - fitted).var(axis=0, ddof=1)

        sigma_f = np.cov(Fv, rowvar=False, ddof=1).reshape(K, K)
        sigma = B.T @ sigma_f @ B + np.diag(resid_var)
        assets = tuple(X.assets) if isinstance(X, ReturnsMatrix) else ()
        self.prior_ = Prior(mu=a + f_mean @ B, sigma=(sigma + sigma.T) / 2,
                            scenarios=fitted, assets=assets)
        return self


@dataclass(repr=False, eq=False)
class BlackLitterman(BaseEstimator):
    views: ViewSet | None = None
    base_estimator: BaseEstimator | None = None

    def fit(self, X, factors=None):
        base = fit_prior(self.base_estimator, X, factors)
        views = self.views if self.views is not None else ViewSet(P=np.zeros((0, base.n_assets)), Q=np.zeros(0))
        self.prior_ = black_litterman_prior(base, views)
        return self


def fit_prior(estimator: BaseEstimator | None, X, factors=None) -> Prior:
    """Prior of an unfitted copy of `estimator` (EmpiricalPrior() when None) fitted on X."""
    est = EmpiricalPrior() if estimator is None else clone(estimator)
    return est.fit(X, factors=factors).prior_
