import numpy as np
import pytest

from quantfolio.exceptions import DateMisalignment, DimensionMismatch, InvalidConfig
from quantfolio.moments import MomentEstimate, sample_moments
from quantfolio.priors import (
    BlackLitterman,
    EmpiricalPrior,
    FactorModel,
    Prior,
    ViewSet,
    black_litterman_prior,
    empirical_prior,
    factor_model_prior,
)

from conftest import make_prior, make_returns


def test_empirical_prior_matches_sample_moments(rng):
    R = make_returns(rng.normal(0, 0.01, (60, 4)))
    prior = empirical_prior(R)
    est = sample_moments(R)
    np.testing.assert_array_equal(prior.mu, est.mu)
    np.testing.assert_array_equal(prior.sigma, est.sigma)
    np.testing.assert_array_equal(prior.scenarios, R.values)
    assert prior.assets == R.assets


def test_empirical_prior_estimator_choices(rng):
    R = make_returns(rng.normal(0, 0.01, (80, 3)))
    prior = empirical_prior(R, mean_estimator="bayes_stein", cov_estimator="ledoit_wolf")
    assert prior.n_assets == 3
    with pytest.raises(Exception):
        empirical_prior(R, mean_estimator="nope")


def test_factor_model_perfect_fit(rng):
    # X equals the single factor, so with no ridge the loading is 1,
    # the intercept 0, and the implied variance equals the factor variance
    f = rng.normal(0, 0.01, (60, 1))
    F = make_returns(f, assets=["F1"])
    X = make_returns(f.copy(), assets=["A"])
    prior = factor_model_prior(X, F, ridge_alpha=0.0)
    assert prior.sigma[0, 0] == pytest.approx(np.var(f, ddof=1), abs=1e-15)
    assert prior.mu[0] == pytest.approx(f.mean(), abs=1e-15)


def test_factor_model_zero_ridge_is_ols(rng):
    T, n, k = 80, 4, 2
    f = rng.normal(0, 0.01, (T, k))
    B = rng.normal(0.5, 0.2, (k, n))
    X_vals = f @ B + rng.normal(0, 0.002, (T, n))
    X = make_returns(X_vals)
    F = make_returns(f, assets=[f"F{i}" for i in range(k)])
    prior = factor_model_prior(X, F, ridge_alpha=0.0)
    # OLS residual variance reconstruction: implied mean matches B_hat mu_f + a
    ones = np.ones((T, 1))
    Z = np.hstack([ones, f])
    coef = np.linalg.lstsq(Z, X_vals, rcond=None)[0]
    mu_f = f.mean(axis=0)
    expected_mu = coef[0] + mu_f @ coef[1:]
    np.testing.assert_allclose(prior.mu, expected_mu, atol=1e-10)


def test_factor_model_large_ridge_kills_loadings(rng):
    f = rng.normal(0, 0.01, (60, 2))
    X = make_returns(rng.normal(0, 0.01, (60, 3)))
    F = make_returns(f, assets=["F0", "F1"])
    prior = factor_model_prior(X, F, ridge_alpha=1e6)
    # with huge ridge the systematic part vanishes: mu collapses to intercepts
    # and sigma to (nearly) the residual diagonal
    assert np.all(np.abs(prior.mu - X.values.mean(axis=0)) < 1e-3)


def test_factor_model_requires_shared_dates(rng):
    X = make_returns(rng.normal(0, 0.01, (30, 2)))
    f = rng.normal(0, 0.01, (29, 1))
    F = make_returns(f, assets=["F"])
    with pytest.raises(DateMisalignment):
        factor_model_prior(X, F)


def test_black_litterman_no_views():
    base = make_prior([0.05, 0.03], np.eye(2) * 0.04)
    post = black_litterman_prior(base, ViewSet(P=np.zeros((0, 2)), Q=np.zeros(0), tau=0.05))
    np.testing.assert_allclose(post.mu, base.mu, atol=1e-12)
    np.testing.assert_allclose(post.sigma, 1.05 * base.sigma, atol=1e-12)


def test_black_litterman_full_confidence():
    # near-zero view uncertainty pins the viewed return at the view value
    base = make_prior([0.05, 0.03], np.eye(2) * 0.04)
    views = ViewSet(P=np.array([[1.0, 0.0]]), Q=np.array([0.07]),
                    omega=np.array([1e-10]), tau=0.05)
    post = black_litterman_prior(base, views)
    assert post.mu[0] == pytest.approx(0.07, abs=1e-4)


def test_black_litterman_default_omega_midpoint():
    # [DERIVED] sigma=I, one unit view: He-Litterman omega = tau * P sigma P',
    # so the posterior viewed mean is exactly the prior/view midpoint
    base = make_prior([0.05, 0.03], np.eye(2))
    views = ViewSet(P=np.array([[1.0, 0.0]]), Q=np.array([0.09]), tau=0.05)
    post = black_litterman_prior(base, views)
    assert post.mu[0] == pytest.approx(0.07, abs=1e-10)


def test_black_litterman_agreeing_view_is_neutral():
    base = make_prior([0.05, 0.03], np.eye(2) * 0.04)
    views = ViewSet(P=np.array([[1.0, 0.0]]), Q=np.array([0.05]), tau=0.05)
    post = black_litterman_prior(base, views)
    np.testing.assert_allclose(post.mu, base.mu, atol=1e-12)


def test_black_litterman_posterior_covariance_shrinks():
    base = make_prior([0.05, 0.03], np.eye(2) * 0.04)
    views = ViewSet(P=np.array([[1.0, 0.0]]), Q=np.array([0.09]), tau=0.05)
    post = black_litterman_prior(base, views)
    no_views = black_litterman_prior(
        base, ViewSet(P=np.zeros((0, 2)), Q=np.zeros(0), tau=0.05))
    # adding information can only reduce posterior uncertainty
    diff = no_views.sigma - post.sigma
    assert np.linalg.eigvalsh(diff).min() >= -1e-12


def test_viewset_validation():
    with pytest.raises(DimensionMismatch):
        ViewSet(P=np.ones((2, 3)), Q=np.ones(1))
    with pytest.raises(ValueError):
        ViewSet(P=np.ones((1, 2)), Q=np.ones(1), omega=np.array([0.0]))
    with pytest.raises(ValueError):
        ViewSet(P=np.ones((1, 2)), Q=np.ones(1), tau=0.0)


def test_prior_estimators_fit_interface(rng):
    X = make_returns(rng.normal(0, 0.01, (60, 3)))
    f = make_returns(rng.normal(0, 0.01, (60, 2)), assets=["F0", "F1"])

    emp = EmpiricalPrior().fit(X)
    np.testing.assert_array_equal(emp.prior_.mu, empirical_prior(X).mu)

    fm = FactorModel(ridge_alpha=0.1).fit(X, factors=f)
    assert fm.prior_.n_assets == 3

    views = ViewSet(P=np.array([[1.0, 0.0, 0.0]]), Q=np.array([0.01]))
    bl = BlackLitterman(views=views).fit(X)
    assert bl.prior_.n_assets == 3
    # estimator params round-trip through get/set
    assert "views" in bl.get_params()


@pytest.mark.parametrize("sigma", [
    [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # eigenvalues -1, 1, 3
    [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # not symmetric
])
def test_prior_and_moments_reject_non_covariance_sigma(sigma):
    # an indefinite sigma once reached the solver, which reported a non-minimal
    # variance as Optimal
    with pytest.raises(InvalidConfig):
        make_prior(np.zeros(3), sigma)
    with pytest.raises(ValueError):
        MomentEstimate(mu=np.zeros(3), sigma=np.array(sigma), sample_size=10)
