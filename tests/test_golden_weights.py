"""Golden weights: every measure x objective plus the constraint variants.

The fixture `golden_weights.json` holds, per case, the optimal weights or the
name of the typed exception the case raises. Assembly refactors must leave
every case unchanged to 1e-10. Regenerate the fixture only when a change is
meant to move the optimum:

    PYTHONPATH=src python tests/test_golden_weights.py --write
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from quantfolio import exceptions
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction, optimize
from quantfolio.measures import RiskMeasure
from quantfolio.priors import Prior

FIXTURE = Path(__file__).with_name("golden_weights.json")
ATOL = 1e-10

M = RiskMeasure
O = ObjectiveFunction


def _prior() -> Prior:
    # returns in percent: at this scale the ratio LPs converge at default settings
    rng = np.random.default_rng(2)
    T, n = 40, 5
    S = rng.normal(0.1, 1.0, (T, n)) + rng.normal(0, 0.5, (T, 1))
    S[::7, 1] = 0.0  # exact zeros reach every scenario block
    return Prior(mu=S.mean(axis=0), sigma=np.cov(S, rowvar=False), scenarios=S,
                 assets=tuple(f"A{i}" for i in range(n)))


SHORT = dict(min_weights=-0.5, max_weights=1.5)
MIXED = dict(min_weights=np.array([-np.inf, 0.0, -0.5, 0.0, -np.inf]),
             max_weights=np.array([1.0, np.inf, 1.0, 0.8, 2.0]))
LINEAR = dict(linear_A=np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]]),
              linear_b=np.array([0.3, -0.2]))
CAPS = [(M.CVAR, 1.2), (M.MEAN_ABSOLUTE_DEVIATION, 0.6)]  # the MAD cap binds
LOOSE_CAPS = [(M.CVAR, 2.5), (M.MEAN_ABSOLUTE_DEVIATION, 1.5)]


def _cases() -> dict[str, tuple]:
    """name -> (objective, measure, constraint fields, other fields) of a MeanRisk."""
    cases = {}
    for measure in M:
        for objective in O:
            cases[f"{objective.value}/{measure.value}"] = (objective, measure, {}, {})
    ratio_measures = (M.VARIANCE, M.CVAR, M.MEAN_ABSOLUTE_DEVIATION, M.WORST_REALIZATION)
    for measure in ratio_measures:
        tag = f"maximize_ratio/{measure.value}"
        cases[f"{tag}/short"] = (O.MAXIMIZE_RATIO, measure, SHORT, {})
        cases[f"{tag}/mixed_bounds"] = (O.MAXIMIZE_RATIO, measure, MIXED, {})
        cases[f"{tag}/linear"] = (O.MAXIMIZE_RATIO, measure, LINEAR, {})
        cases[f"{tag}/min_return"] = (O.MAXIMIZE_RATIO, measure, dict(min_return=0.1), {})
    cases["maximize_ratio/cvar/caps"] = (O.MAXIMIZE_RATIO, M.CVAR, dict(risk_caps=CAPS), {})
    for measure in (M.VARIANCE, M.WORST_REALIZATION):
        cases[f"maximize_ratio/{measure.value}/loose_caps"] = (
            O.MAXIMIZE_RATIO, measure, dict(risk_caps=LOOSE_CAPS), {})
    cases["maximize_ratio/cvar/everything"] = (
        O.MAXIMIZE_RATIO, M.CVAR,
        dict(**SHORT, **LINEAR, min_return=0.05, risk_caps=CAPS), dict(l1_coef=1e-3))
    cases["maximize_return/cvar/cvar_cap"] = (
        O.MAXIMIZE_RETURN, M.CVAR, dict(risk_caps=CAPS[:1]), {})
    cases["minimize_risk/variance/linear+floor+caps"] = (
        O.MINIMIZE_RISK, M.VARIANCE, dict(**LINEAR, min_return=0.05, risk_caps=LOOSE_CAPS), {})
    cases["minimize_risk/variance/l1+l2+short"] = (
        O.MINIMIZE_RISK, M.VARIANCE, SHORT, dict(l1_coef=1e-3, l2_coef=1e-2))
    cases["maximize_utility/cvar/l1+l2+short"] = (
        O.MAXIMIZE_UTILITY, M.CVAR, SHORT, dict(l1_coef=1e-3, l2_coef=1e-2, risk_aversion=5.0))
    cases["maximize_utility/mad/l1+mixed"] = (
        O.MAXIMIZE_UTILITY, M.MEAN_ABSOLUTE_DEVIATION, MIXED,
        dict(l1_coef=1e-3, risk_aversion=2.0))
    cases["minimize_risk/variance/named_cap"] = (
        O.MINIMIZE_RISK, M.VARIANCE, dict(max_weight_per_asset={"A1": 0.1}), {})
    cases["minimize_risk/cvar/infeasible_floor"] = (
        O.MINIMIZE_RISK, M.CVAR, dict(min_return=5.0), {})
    cases["maximize_ratio/variance/infeasible_floor"] = (
        O.MAXIMIZE_RATIO, M.VARIANCE, dict(min_return=5.0), {})
    cases["maximize_return/cvar/variance_cap"] = (
        O.MAXIMIZE_RETURN, M.CVAR, dict(risk_caps=[(M.VARIANCE, 0.1)]), {})
    return cases


def run_case(name: str, prior: Prior | None = None) -> dict:
    """{'weights': [...]} or {'error': <exception class name>} for one case."""
    objective, measure, cons, extra = _cases()[name]
    model = MeanRisk(objective=objective, risk_measure=measure, **cons, **extra)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return {"weights": optimize(model, prior or _prior()).tolist()}
        except exceptions.QuantfolioError as exc:
            return {"error": type(exc).__name__}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def prior():
    return _prior()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_golden_weights(name, golden, prior):
    want, got = golden[name], run_case(name, prior)
    assert got.keys() == want.keys(), got
    if "error" in want:
        assert got == want
    else:
        np.testing.assert_allclose(got["weights"], want["weights"], rtol=0, atol=ATOL)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    shared = _prior()
    table = {name: run_case(name, shared) for name in sorted(_cases())}
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {FIXTURE}")
