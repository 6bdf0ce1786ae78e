import numpy as np
import pytest

from quantfolio.exceptions import EmptySeries, InvalidConfig
from quantfolio.measures import (
    DEFAULT_BETA,
    RiskMeasure,
    cdar,
    cvar,
    drawdown_path,
    max_drawdown,
    mean_absolute_deviation,
    measure_value,
    risk_of_weights,
    standard_deviation,
    variance,
    worst_realization,
)

SERIES = [0.01, 0.02, -0.03, 0.04, -0.05]


def test_cvar_fixture_beta_08():
    # [DERIVED] T=5, beta=0.8: tail mass 0.2 falls entirely on the worst loss
    assert cvar(SERIES, beta=0.8) == pytest.approx(0.05, abs=1e-12)


def test_cvar_fixture_beta_07():
    # [DERIVED] beta=0.7: tail mass 0.3 = full worst loss + half the next one,
    # (0.2*0.05 + 0.1*0.03) / 0.3
    assert cvar(SERIES, beta=0.7) == pytest.approx((0.2 * 0.05 + 0.1 * 0.03) / 0.3,
                                                   abs=1e-12)


def test_cvar_constant_series():
    assert cvar([0.01] * 4, beta=0.9) == pytest.approx(-0.01, abs=1e-12)


def test_cvar_monotone_in_beta(rng):
    r = rng.normal(0, 0.02, 200)
    values = [cvar(r, beta=b) for b in (0.5, 0.7, 0.9, 0.95, 0.99)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= worst_realization(r) + 1e-12


def test_cvar_positive_homogeneity_and_translation(rng):
    r = rng.normal(0, 0.02, 100)
    assert cvar(3.0 * r) == pytest.approx(3.0 * cvar(r), abs=1e-12)
    assert cvar(r + 0.01) == pytest.approx(cvar(r) - 0.01, abs=1e-12)


def test_drawdown_path_compounded():
    # [DERIVED] +10% then -50%: wealth 1.1 -> 0.55, drawdown [0, 0.5]
    np.testing.assert_allclose(drawdown_path([0.1, -0.5], compounded=True),
                               [0.0, 0.5], atol=1e-12)


def test_drawdown_path_uncompounded():
    # [DERIVED] cumulative sums 0.1, -0.2, -0.1 against running peak 0.1
    np.testing.assert_allclose(drawdown_path([0.1, -0.3, 0.1]),
                               [0.0, 0.3, 0.2], atol=1e-12)


def test_cdar_fixture():
    # [DERIVED] drawdown path (0, 0.3, 0.2), beta=0.5: mean of the worst half
    # of the path distribution = (0.3 + 0.5*0.2) / 1.5
    assert cdar([0.1, -0.3, 0.1], beta=0.5) == pytest.approx(0.4 / 1.5, abs=1e-12)


def test_max_drawdown():
    assert max_drawdown([0.1, -0.3, 0.1]) == pytest.approx(0.3, abs=1e-12)
    assert max_drawdown([0.1, -0.5], compounded=True) == pytest.approx(0.5, abs=1e-12)
    assert max_drawdown([0.01, 0.02, 0.03]) == pytest.approx(0.0, abs=1e-15)


def test_dispersion_fixture():
    # [DERIVED] series (0, 2): sample variance 2, std sqrt(2), MAD 1
    assert variance([0.0, 2.0]) == pytest.approx(2.0, abs=1e-12)
    assert standard_deviation([0.0, 2.0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert mean_absolute_deviation([0.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


def test_worst_realization():
    assert worst_realization([0.01, -0.05, 0.02]) == pytest.approx(0.05, abs=1e-15)
    assert worst_realization([0.01, 0.02]) == pytest.approx(-0.01, abs=1e-15)


def test_measure_value_dispatch(rng):
    r = rng.normal(0, 0.02, 60)
    pairs = [
        (RiskMeasure.VARIANCE, variance(r)),
        (RiskMeasure.STANDARD_DEVIATION, standard_deviation(r)),
        (RiskMeasure.MEAN_ABSOLUTE_DEVIATION, mean_absolute_deviation(r)),
        (RiskMeasure.CVAR, cvar(r, beta=DEFAULT_BETA)),
        (RiskMeasure.CDAR, cdar(r, beta=DEFAULT_BETA)),
        (RiskMeasure.MAX_DRAWDOWN, max_drawdown(r)),
        (RiskMeasure.WORST_REALIZATION, worst_realization(r)),
    ]
    for measure, expected in pairs:
        assert measure_value(r, measure) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("measure", list(RiskMeasure), ids=lambda m: m.value)
def test_a_measure_value_string_is_its_member(measure, rng):
    assert measure_value(SERIES, measure.value) == measure_value(SERIES, measure)
    scenarios = rng.normal(0, 0.02, (60, 3))
    sigma = np.cov(scenarios, rowvar=False)
    W = rng.uniform(0, 1, (3, 2))
    np.testing.assert_array_equal(risk_of_weights(W, sigma, scenarios, measure.value),
                                  risk_of_weights(W, sigma, scenarios, measure))


def test_measure_value_rejects_unknown_measure():
    with pytest.raises(InvalidConfig, match="unknown measure"):
        measure_value(SERIES, "conditional_var")


def test_risk_of_weights_reads_sigma_or_scenarios(rng):
    scenarios = rng.normal(0, 0.02, (60, 3))
    sigma = np.diag([1.0, 2.0, 3.0])  # unrelated to the scenarios on purpose
    w = np.array([0.5, 0.3, 0.2])
    var = 0.25 + 2 * 0.09 + 3 * 0.04
    assert risk_of_weights(w, sigma, scenarios, RiskMeasure.VARIANCE) == pytest.approx(var)
    assert risk_of_weights(w, sigma, scenarios, RiskMeasure.STANDARD_DEVIATION) == \
        pytest.approx(np.sqrt(var))
    for measure in (RiskMeasure.MEAN_ABSOLUTE_DEVIATION, RiskMeasure.CVAR,
                    RiskMeasure.WORST_REALIZATION, RiskMeasure.CDAR):
        assert risk_of_weights(w, sigma, scenarios, measure, beta=0.9) == \
            measure_value(scenarios @ w, measure, beta=0.9)


@pytest.mark.parametrize("measure", list(RiskMeasure))
def test_risk_of_weights_matrix_matches_columns(measure, rng):
    scenarios = rng.normal(0.001, 0.02, (50, 4))
    sigma = np.cov(scenarios, rowvar=False)
    W = rng.dirichlet(np.ones(4), size=6).T  # six portfolios, one per column
    W[:, 0] = [0.0, 1.0, 0.0, 0.0]
    got = risk_of_weights(W, sigma, scenarios, measure, beta=0.9)
    want = [risk_of_weights(w, sigma, scenarios, measure, beta=0.9) for w in W.T]
    assert got.shape == (6,)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-17)
    assert isinstance(risk_of_weights(W[:, 1], sigma, scenarios, measure, beta=0.9), float)


def test_risk_of_weights_matrix_rejects_non_finite_scenarios(rng):
    scenarios = rng.normal(0, 0.02, (20, 3))
    scenarios[4, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        risk_of_weights(np.eye(3), np.eye(3), scenarios, RiskMeasure.CVAR)


def test_translation_invariance_of_dispersion(rng):
    r = rng.normal(0, 0.02, 80)
    for fn in (variance, standard_deviation, mean_absolute_deviation):
        assert fn(r + 0.05) == pytest.approx(fn(r), abs=1e-12)


@pytest.mark.parametrize("fn", [cvar, max_drawdown, worst_realization,
                                mean_absolute_deviation])
def test_empty_series_rejected(fn):
    with pytest.raises(EmptySeries):
        fn([])


def test_cvar_beta_bounds():
    with pytest.raises(InvalidConfig):
        cvar(SERIES, beta=0.0)
    with pytest.raises(InvalidConfig):
        cvar(SERIES, beta=1.0)
