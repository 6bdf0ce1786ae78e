import dataclasses
import warnings

import numpy as np
import pytest

import quantfolio.moments
from quantfolio.exceptions import DimensionMismatch, InvalidConfig, TooFewSamples
from quantfolio.moments import (
    MomentEstimate,
    bayes_stein,
    denoise_rmt,
    ew_moments,
    gerber,
    check_covariance,
    ledoit_wolf,
    sample_moments,
)
from quantfolio.priors import Prior

from conftest import make_returns


def _corr(sigma):
    d = np.sqrt(np.diag(sigma))
    return sigma / np.outer(d, d)


def test_sample_moments_fixture():
    # [DERIVED] columns (1,-1,0) and (0,0,0): zero means, var 1 and 0, no covariance
    est = sample_moments(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(est.mu, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(est.sigma, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert est.sample_size == 3


def test_sample_moments_accepts_returns_matrix(rng):
    values = rng.normal(0, 0.01, (40, 3))
    a = sample_moments(values)
    b = sample_moments(make_returns(values))
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_sample_moments_of_a_returns_matrix_is_kept(rng):
    X = make_returns(rng.normal(0, 0.01, (40, 3)))
    est = sample_moments(X)
    assert sample_moments(X) is est
    fresh = sample_moments(X.values.copy())
    assert fresh is not sample_moments(X.values.copy())  # an array is estimated anew
    np.testing.assert_array_equal(est.mu, fresh.mu)
    np.testing.assert_array_equal(est.sigma, fresh.sigma)
    assert est.sample_size == fresh.sample_size
    assert not est.mu.flags.writeable and not est.sigma.flags.writeable
    # a new instance, from take or replace, estimates its own data
    head = X.take(slice(0, 20))
    assert sample_moments(head) is not est and sample_moments(head).sample_size == 20
    np.testing.assert_array_equal(sample_moments(head).sigma,
                                  sample_moments(X.values[:20].copy()).sigma)
    doubled = dataclasses.replace(X, values=2 * X.values)
    np.testing.assert_array_equal(sample_moments(doubled).mu, 2 * est.mu)


def test_sample_moments_needs_two_rows():
    with pytest.raises(TooFewSamples):
        sample_moments(np.zeros((1, 3)))


def test_ew_moments_large_halflife_matches_sample(rng):
    R = rng.normal(0, 0.01, (60, 4))
    ew = ew_moments(R, halflife=1e8)
    sm = sample_moments(R)
    np.testing.assert_allclose(ew.mu, sm.mu, atol=1e-9)
    np.testing.assert_allclose(ew.sigma, sm.sigma, atol=1e-9)


def test_ew_moments_small_halflife_tracks_recent(rng):
    # last row dominates when the halflife is tiny
    R = np.vstack([rng.normal(0, 0.001, (30, 2)), [[0.5, -0.5]]])
    ew = ew_moments(R, halflife=0.1)
    assert ew.mu[0] > 0.4 and ew.mu[1] < -0.4


def test_bayes_stein_hand_case():
    # [DERIVED] N=3, sigma=I, mu=(0.1,0.2,0.3), T=60:
    # mu0=0.2, quad=0.02, phi=5/(5+1.2)=5/6.2
    est = MomentEstimate(mu=np.array([0.1, 0.2, 0.3]), sigma=np.eye(3), sample_size=60)
    shrunk = bayes_stein(est)
    phi = 5.0 / 6.2
    expected = np.array([0.1 + 0.1 * phi, 0.2, 0.3 - 0.1 * phi])
    np.testing.assert_allclose(shrunk.mu, expected, atol=1e-12)
    np.testing.assert_array_equal(shrunk.sigma, est.sigma)


def test_bayes_stein_equal_means_unchanged():
    est = MomentEstimate(mu=np.full(4, 0.07), sigma=np.eye(4), sample_size=50)
    np.testing.assert_allclose(bayes_stein(est).mu, est.mu, atol=1e-14)


def test_bayes_stein_moves_toward_gmv_mean(rng):
    sigma = np.diag(rng.uniform(0.5, 2.0, 5))
    mu = rng.normal(0.1, 0.05, 5)
    est = MomentEstimate(mu=mu, sigma=sigma, sample_size=80)
    shrunk = bayes_stein(est)
    ones = np.ones(5)
    w_gmv = np.linalg.solve(sigma, ones)
    mu0 = (w_gmv / w_gmv.sum()) @ mu
    # every coordinate moves toward mu0, never past it
    before = mu - mu0
    after = shrunk.mu - mu0
    assert np.all(np.abs(after) <= np.abs(before) + 1e-14)
    assert np.all(after * before >= -1e-14)


def test_ledoit_wolf_delta_bounds_and_trace(rng):
    for _ in range(5):
        R = rng.normal(0, 0.01, (40, 6))
        est, delta = ledoit_wolf(R)
        assert 0.0 <= delta <= 1.0
        sample = sample_moments(R)
        assert abs(np.trace(est.sigma) - np.trace(sample.sigma)) < 1e-9
        np.testing.assert_allclose(est.sigma, est.sigma.T, atol=1e-15)


def test_ledoit_wolf_intensity_vanishes_with_data(rng):
    # anisotropic truth: intensity should be small and shrink as T grows
    scales = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    _, d_small = ledoit_wolf(rng.normal(0, 1, (60, 5)) * scales)
    _, d_big = ledoit_wolf(rng.normal(0, 1, (5000, 5)) * scales)
    assert d_big < d_small
    assert d_big < 0.05


def test_gerber_fixture():
    # [DERIVED] 3 concordant and 1 discordant joint exceedance: g = (3-1)/(3+1)
    small = np.tile([0.01, -0.01], (6, 1))
    big = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [2.0, -2.0]])
    R = np.vstack([small, big])
    est = gerber(R, c=0.5)
    s = np.sqrt(np.diag(sample_moments(R).sigma))
    assert est.sigma[0, 1] / (s[0] * s[1]) == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(np.diag(est.sigma), s**2, atol=1e-12)


@pytest.mark.parametrize("draw, indefinite", [
    (lambda rng: rng.normal(0, 0.02, (100, 6)), False),
    (lambda rng: 0.01 * np.random.default_rng(0).standard_t(3, (20, 6)), True),
], ids=["normal", "student_t"])
def test_gerber_psd(rng, monkeypatch, draw, indefinite):
    # the heavy-tailed short panel's raw Gerber matrix is indefinite, so its
    # eigenvalues are clipped; the clipped matrix keeps the sample variances
    R = draw(rng)
    raw = []
    clip = quantfolio.moments._clip_to_psd_correlation
    monkeypatch.setattr(quantfolio.moments, "_clip_to_psd_correlation",
                        lambda G: raw.append(G.copy()) or clip(G))
    est = gerber(R, c=0.5)
    assert (np.linalg.eigvalsh(raw[0]).min() < 0) == indefinite
    assert np.linalg.eigvalsh(est.sigma).min() >= -1e-10
    check_covariance(est.sigma)
    np.testing.assert_allclose(np.diag(est.sigma), R.var(axis=0, ddof=1), rtol=1e-12)


def test_denoise_rmt_trace_preserved(rng):
    R = rng.normal(0, 0.01, (120, 8))
    est = sample_moments(R)
    den = denoise_rmt(est)
    assert abs(np.trace(den.sigma) - np.trace(est.sigma)) < 1e-9
    np.testing.assert_array_equal(den.mu, est.mu)


def test_denoise_rmt_flattens_pure_noise(rng):
    # iid noise: every correlation eigenvalue sits under the MP edge and is
    # replaced by a common average
    R = rng.normal(0, 1, (100, 20))
    den = denoise_rmt(sample_moments(R))
    ev = np.linalg.eigvalsh(_corr(den.sigma))
    assert ev.max() - ev.min() < 1e-6


def test_denoise_rmt_keeps_planted_factor(rng):
    f = rng.normal(0, 1, (500, 1))
    R = f @ np.ones((1, 12)) + rng.normal(0, 0.5, (500, 12))
    est = sample_moments(R)
    top_before = np.linalg.eigvalsh(_corr(est.sigma))[-1]
    top_after = np.linalg.eigvalsh(_corr(denoise_rmt(est).sigma))[-1]
    assert abs(top_after - top_before) / top_before < 0.05


def test_denoise_rmt_rejects_negative_passes(rng):
    # a negative count once ran no pass, as 0 does
    with pytest.raises(InvalidConfig, match="passes must be >= 0"):
        denoise_rmt(sample_moments(rng.normal(0, 0.01, (60, 4))), passes=-3)


def test_estimators_produce_symmetric_psd(rng):
    R = rng.normal(0, 0.02, (80, 5))
    candidates = [
        sample_moments(R).sigma,
        ew_moments(R, halflife=20).sigma,
        ledoit_wolf(R)[0].sigma,
        gerber(R).sigma,
        denoise_rmt(sample_moments(R)).sigma,
    ]
    for sigma in candidates:
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10


def test_moment_estimate_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch, match=r"sigma shape \(3, 3\) vs N=2"):
        MomentEstimate(mu=np.zeros(2), sigma=np.eye(3), sample_size=10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sigma_rejected(bad):
    sigma = np.array([[bad, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        # rejected before any arithmetic on the bad entry can warn
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidConfig, match="non-finite"):
            MomentEstimate(mu=np.zeros(2), sigma=sigma, sample_size=3)
        with pytest.raises(InvalidConfig, match="non-finite"):
            Prior(mu=np.zeros(2), sigma=sigma, scenarios=np.zeros((3, 2)))


def _with_least_eigenvalue(least, n=8, seed=0):
    """A symmetric n x n matrix with spectrum [least, 1e-3 .. 1e-2]."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    sigma = (Q * np.r_[least, np.linspace(1e-3, 1e-2, n - 1)]) @ Q.T
    return (sigma + sigma.T) / 2


def test_check_covariance_psd_tolerance():
    # "PSD within 1e-10": the least eigenvalue may be as low as -1e-10
    with pytest.raises(InvalidConfig, match="not PSD"):
        check_covariance(_with_least_eigenvalue(-2e-10))
    check_covariance(_with_least_eigenvalue(-5e-11))
    check_covariance(_with_least_eigenvalue(0.0))
    check_covariance(np.zeros((0, 0)))


def test_check_covariance_accepts_rank_deficient_sample_covariance(rng):
    # T < N leaves N - T + 1 zero eigenvalues, each computed near 0
    sigma = sample_moments(rng.normal(0, 0.01, (6, 20))).sigma
    assert np.linalg.matrix_rank(sigma) == 5
    check_covariance(sigma)


def test_check_covariance_keeps_its_messages():
    sigma = _with_least_eigenvalue(-1.0)  # indefinite as well
    sigma[0, 0] = np.nan
    with pytest.raises(InvalidConfig, match="non-finite"):
        check_covariance(sigma)
    sigma = _with_least_eigenvalue(-1.0)
    sigma[0, 1] += 1e-9
    with pytest.raises(InvalidConfig, match="not symmetric"):
        check_covariance(sigma)
