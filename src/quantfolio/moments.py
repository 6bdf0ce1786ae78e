"""Expected-return and covariance estimators feeding the prior layer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DecompositionFailure,
    DimensionMismatch,
    InvalidConfig,
    SingularCovariance,
    TooFewSamples,
    require_finite,
    require_int,
)
from .market_data import ReturnsMatrix, returns_values


@dataclass(frozen=True)
class MomentEstimate:
    """(mu, sigma) pair with the sample size it was estimated from."""

    mu: np.ndarray
    sigma: np.ndarray
    sample_size: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).ravel()
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        n = mu.size
        if sigma.shape != (n, n):
            raise DimensionMismatch(f"sigma shape {sigma.shape} vs N={n}")
        check_covariance(sigma)


def check_covariance(sigma: np.ndarray):
    """Reject a square sigma that has a non-finite entry, is not symmetric
    within 1e-12 or is not PSD within 1e-10.

    PSD within 1e-10 means a least eigenvalue above −1e-10, which holds
    exactly when sigma + 1e-10·I is positive definite: one LAPACK Cholesky
    (`dpotrf`) of that matrix tests it, with no eigendecomposition.
    """
    if not np.all(np.isfinite(sigma)):
        raise InvalidConfig("sigma has non-finite entries")
    if np.abs(sigma - sigma.T).max(initial=0.0) > 1e-12:
        raise InvalidConfig("sigma not symmetric within 1e-12")
    n = sigma.shape[0]
    if n and scipy.linalg.lapack.dpotrf(sigma + 1e-10 * np.eye(n), lower=1, overwrite_a=1)[1]:
        raise InvalidConfig("sigma not PSD within tolerance")


def _solve_with_jitter(sigma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sigma @ x = rhs, retrying once with a small diagonal jitter."""
    try:
        return np.linalg.solve(sigma, rhs)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * float(np.mean(np.diag(sigma)))
        try:
            return np.linalg.solve(sigma + jitter * np.eye(sigma.shape[0]), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance singular even after jitter") from exc


def sample_moments(R) -> MomentEstimate:
    """Column means and unbiased (T−1) sample covariance.

    A ReturnsMatrix keeps its estimate (`ReturnsMatrix.sample_estimate`), so
    every call on one instance returns the same object, with read-only `mu`
    and `sigma`; a 2-D array is estimated anew on each call.
    """
    if isinstance(R, ReturnsMatrix):
        return R.sample_estimate
    X = returns_values(R)
    T = X.shape[0]
    if T < 2:
        raise TooFewSamples("need T >= 2")
    mu = X.mean(axis=0)
    Xc = X - mu
    sigma = Xc.T @ Xc / (T - 1)
    sigma = (sigma + sigma.T) / 2
    return MomentEstimate(mu=mu, sigma=sigma, sample_size=T)


def ew_moments(R, halflife: float) -> MomentEstimate:
    """Exponentially weighted mean and covariance, bias-corrected.

    Weights decay by a factor of 2 per `halflife` periods, most recent
    observation heaviest; correction divides by 1 − Σλ².
    """
    X = returns_values(R)
    T, _ = X.shape
    if T < 2:
        raise TooFewSamples("need T >= 2")
    require_finite("halflife", halflife)
    if halflife <= 0:
        raise InvalidConfig("halflife must be positive")
    t = np.arange(T, dtype=float)
    lam = np.power(2.0, -(T - 1 - t) / halflife)
    lam /= lam.sum()
    mu = lam @ X
    Xc = X - mu
    sigma = (Xc * lam[:, None]).T @ Xc / (1.0 - np.sum(lam**2))
    sigma = (sigma + sigma.T) / 2
    return MomentEstimate(mu=mu, sigma=sigma, sample_size=T)


def bayes_stein(est: MomentEstimate) -> MomentEstimate:
    """Shrink expected returns toward the global-minimum-variance portfolio mean."""
    mu, sigma, T = est.mu, est.sigma, est.sample_size
    N = mu.size
    if N < 2:
        raise InvalidConfig("Bayes-Stein shrinkage needs at least 2 assets")
    ones = np.ones(N)
    sigma_inv_ones = _solve_with_jitter(sigma, ones)
    w_gmv = sigma_inv_ones / (ones @ sigma_inv_ones)
    mu0 = float(w_gmv @ mu)
    diff = mu - mu0
    quad = float(diff @ _solve_with_jitter(sigma, diff))
    phi = (N + 2) / ((N + 2) + T * quad)
    phi = min(max(phi, 0.0), 1.0)
    mu_out = (1.0 - phi) * mu + phi * mu0
    return MomentEstimate(mu=mu_out, sigma=sigma, sample_size=T)


def ledoit_wolf(R) -> tuple[MomentEstimate, float]:
    """Shrink the sample covariance toward the scaled identity.

    Returns the estimate and the shrinkage intensity delta in [0, 1].
    The intensity follows the asymptotically optimal closed form for the
    scaled-identity target; the shrunk matrix keeps the sample trace.
    """
    X = returns_values(R)
    T, N = X.shape
    if T < 2:
        raise TooFewSamples("need T >= 2")
    mu = X.mean(axis=0)
    Xc = X - mu
    XtX = Xc.T @ Xc
    S = XtX / T  # biased MLE used for the intensity formula
    m = np.trace(S) / N
    d2 = float(np.sum((S - m * np.eye(N)) ** 2)) / N
    if d2 <= 0:
        delta = 0.0
    else:
        # b̄² = (1/T²) Σ_t ‖x_t x_tᵀ − S‖²_F / N
        sq = Xc**2
        b2_bar = (float(np.sum(sq.T @ sq)) / T - float(np.sum(S**2))) / (T * N)
        b2 = min(b2_bar, d2)
        delta = b2 / d2
    delta = min(max(delta, 0.0), 1.0)

    sample = XtX / (T - 1)  # the unbiased sample covariance, as in `sample_moments`
    sample = (sample + sample.T) / 2
    target = (np.trace(sample) / N) * np.eye(N)
    sigma = (1.0 - delta) * sample + delta * target
    return MomentEstimate(mu=mu, sigma=(sigma + sigma.T) / 2, sample_size=T), delta


def _clip_to_psd_correlation(G: np.ndarray) -> np.ndarray:
    """Eigenvalue clipping at 0, then rescale back to unit diagonal."""
    G = (G + G.T) / 2
    vals, vecs = np.linalg.eigh(G)
    if vals.min() >= 0:
        return G
    vals = np.clip(vals, 0.0, None)
    G = vecs @ np.diag(vals) @ vecs.T
    d = np.sqrt(np.clip(np.diag(G), 1e-30, None))
    G = G / np.outer(d, d)
    np.fill_diagonal(G, 1.0)
    return (G + G.T) / 2


def gerber(R, c: float = 0.5) -> MomentEstimate:
    """Comovement covariance counting only joint moves beyond c standard deviations."""
    X = returns_values(R)
    T, N = X.shape
    if T < 2:
        raise TooFewSamples("need T >= 2")
    require_finite("threshold c", c)
    if c <= 0:
        raise InvalidConfig("threshold c must be positive")
    mu = X.mean(axis=0)
    std = X.std(axis=0, ddof=1)
    thresh = c * std
    up = X >= thresh
    down = X <= -thresh
    # concordant: both up or both down; discordant: one up, one down
    n_conc = up.astype(float).T @ up + down.astype(float).T @ down
    n_disc = up.astype(float).T @ down + down.astype(float).T @ up
    denom = n_conc + n_disc
    with np.errstate(invalid="ignore", divide="ignore"):
        G = np.where(denom > 0, (n_conc - n_disc) / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(G, 1.0)
    G = _clip_to_psd_correlation(G)
    D = np.diag(std)
    sigma = D @ G @ D
    return MomentEstimate(mu=mu, sigma=(sigma + sigma.T) / 2, sample_size=T)


def denoise_rmt(est: MomentEstimate, passes: int = 2) -> MomentEstimate:
    """Flatten the noise bulk of the correlation spectrum at the Marchenko–Pastur edge.

    The bulk variance is fitted by a short fixed-point: starting from σ²=1,
    the cutoff λ+ = (1+√q)²σ² is recomputed `passes` times with σ² set to the
    mean of the eigenvalues below the current cutoff. Eigenvalues at or below
    the final cutoff are replaced by their average; the diagonal is restored,
    so the covariance trace is preserved.
    """
    require_int("passes", passes)
    if passes < 0:
        raise InvalidConfig(f"passes must be >= 0, got {passes}")
    sigma = est.sigma
    N = sigma.shape[0]
    T = est.sample_size
    std = np.sqrt(np.clip(np.diag(sigma), 1e-30, None))
    corr = sigma / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    try:
        vals, vecs = np.linalg.eigh((corr + corr.T) / 2)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure("eigendecomposition failed") from exc

    q = N / T
    sigma2 = 1.0
    cutoff = (1.0 + np.sqrt(q)) ** 2 * sigma2
    for _ in range(passes):
        bulk = vals[vals <= cutoff]
        if bulk.size == 0:
            break
        sigma2 = float(bulk.mean())
        cutoff = (1.0 + np.sqrt(q)) ** 2 * sigma2

    bulk_mask = vals <= cutoff
    if bulk_mask.any():
        vals = vals.copy()
        vals[bulk_mask] = vals[bulk_mask].mean()
    denoised = vecs @ np.diag(vals) @ vecs.T
    d = np.sqrt(np.clip(np.diag(denoised), 1e-30, None))
    denoised = denoised / np.outer(d, d)
    np.fill_diagonal(denoised, 1.0)
    out = np.outer(std, std) * denoised
    return MomentEstimate(mu=est.mu, sigma=(out + out.T) / 2, sample_size=T)
