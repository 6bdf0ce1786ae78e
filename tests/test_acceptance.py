"""Acceptance suite: ten numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from quantfolio.cli import main
from quantfolio.hierarchical import EqualWeighted, hrp
from quantfolio.measures import RiskMeasure, measure_value
from quantfolio.mean_risk import MeanRisk, ObjectiveFunction, efficient_frontier, optimize
from quantfolio.model_selection import CpcvConfig, cpcv, cross_val_predict, walk_forward
from quantfolio.moments import (
    MomentEstimate,
    bayes_stein,
    denoise_rmt,
    gerber,
    ledoit_wolf,
    sample_moments,
)
from quantfolio.priors import ViewSet, black_litterman_prior
from quantfolio.reformulations import ProblemBuilder, reformulate_risk
from quantfolio.solver import solve

from conftest import make_prior, make_returns, random_psd


@contextmanager
def verdict(number, description, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget_seconds is not None and elapsed > budget_seconds:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds {budget_seconds}s budget")
    except BaseException:
        print(f"\ncriterion {number:02d} {description}: FAIL")
        raise
    print(f"\ncriterion {number:02d} {description}: PASS")


def test_criterion_01_gmv_closed_form():
    with verdict(1, "GMV matches the closed form for 20 seeded covariances",
                 budget_seconds=5):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sigma = random_psd(rng, 5, scale=0.01)
            ones = np.ones(5)
            w_star = np.linalg.solve(sigma, ones)
            w_star /= w_star.sum()
            prior = make_prior(np.zeros(5), sigma)
            model = MeanRisk(
                objective=ObjectiveFunction.MINIMIZE_RISK,
                risk_measure=RiskMeasure.VARIANCE,
                min_weights=-10.0,
                max_weights=10.0,
            )
            w = optimize(model, prior)
            assert np.abs(w - w_star).max() < 1e-6, f"seed {seed}"


def test_criterion_02_cvar_vs_brute_force():
    with verdict(2, "CVaR optimum agrees with a 0.01-step simplex grid",
                 budget_seconds=30):
        rng = np.random.default_rng(42)
        scenarios = rng.normal(0.001, 0.02, (50, 3))
        prior = make_prior(scenarios.mean(axis=0),
                           np.cov(scenarios, rowvar=False), scenarios=scenarios)
        model = MeanRisk(objective=ObjectiveFunction.MINIMIZE_RISK,
                         risk_measure=RiskMeasure.CVAR)
        w = optimize(model, prior)
        solver_obj = measure_value(scenarios @ w, RiskMeasure.CVAR)

        grid = []
        for i in range(101):
            for j in range(101 - i):
                grid.append((i / 100, j / 100, (100 - i - j) / 100))
        W = np.array(grid)
        series = W @ scenarios.T  # (5151, 50)
        grid_obj = min(measure_value(row, RiskMeasure.CVAR) for row in series)

        assert solver_obj <= grid_obj + 1e-9
        assert grid_obj >= solver_obj - 1e-3


def test_criterion_03_reformulation_consistency():
    with verdict(3, "100 fixed-weight LP blocks match the measures module"):
        rng = np.random.default_rng(7)
        scenarios = rng.normal(0, 0.02, (50, 3))
        measures = (RiskMeasure.CVAR, RiskMeasure.CDAR,
                    RiskMeasure.MEAN_ABSOLUTE_DEVIATION,
                    RiskMeasure.WORST_REALIZATION)
        checks = 0
        for _ in range(25):
            w = rng.dirichlet(np.ones(3))
            series = scenarios @ w
            for measure in measures:
                builder = ProblemBuilder()
                w_idx = builder.add_variables(3)
                builder.add_rows(w_idx, np.eye(3), w, eq=True)
                builder.add_cost(reformulate_risk(builder, measure, scenarios, w_idx,
                                                  beta=0.95))
                res = solve(builder.build())
                assert res.status == "Optimal"
                want = measure_value(series, measure, beta=0.95)
                assert abs(res.objective - want) < 1e-8, measure
                checks += 1
        assert checks == 100


def test_criterion_04_frontier_structure():
    with verdict(4, "100-point frontier is monotone, capped, and dominates "
                    "out of sample", budget_seconds=60):
        rng = np.random.default_rng(11)
        n = 20
        loadings = rng.uniform(0.3, 1.1, (n, 2))
        drift = rng.uniform(1e-4, 6e-4, n)

        def draw(T):
            factors = rng.normal(0, 0.008, (T, 2))
            eps = rng.normal(0, 0.009, (T, n))
            return drift + factors @ loadings.T + eps

        train, test = draw(400), draw(400)
        assets = tuple(f"S{i}" for i in range(n))
        prior = make_prior(train.mean(axis=0), np.cov(train, rowvar=False),
                           scenarios=train, assets=assets)
        cap = 0.2
        model = MeanRisk(
            objective=ObjectiveFunction.MINIMIZE_RISK,
            risk_measure=RiskMeasure.VARIANCE,
            max_weight_per_asset={"S0": cap},
            l2_coef=1e-4,
        )
        points = efficient_frontier(model, prior, size=100)
        assert len(points) == 100
        returns = [p.expected_return for p in points]
        risks = [p.risk for p in points]
        assert all(a <= b + 1e-8 for a, b in zip(returns, returns[1:]))
        assert all(a <= b + 1e-8 for a, b in zip(risks, risks[1:]))
        idx = assets.index("S0")
        assert all(p.weights[idx] <= cap + 1e-6 for p in points)

        def max_sharpe(X):
            best = -np.inf
            for p in points:
                series = X @ p.weights
                vol = series.std(ddof=1)
                if vol > 0:
                    best = max(best, series.mean() / vol)
            return best

        assert max_sharpe(train) >= max_sharpe(test)


def test_criterion_05_hrp_oracles():
    with verdict(5, "HRP matches hand oracles and is permutation invariant"):
        prior = make_prior([0.0, 0.0], np.diag([1.0, 3.0]))
        np.testing.assert_array_equal(hrp(prior), [0.75, 0.25])

        sigma = np.array([
            [1.0, 0.8, 0.0, 0.0],
            [0.8, 2.0, 0.0, 0.0],
            [0.0, 0.0, 4.0, 2.0],
            [0.0, 0.0, 2.0, 8.0],
        ])

        def ivp(S):
            iv = 1.0 / np.diag(S)
            return iv / iv.sum()

        def cvar_of(idx):
            sub = sigma[np.ix_(idx, idx)]
            w = ivp(sub)
            return float(w @ sub @ w)

        v_l, v_r = cvar_of([0, 1]), cvar_of([2, 3])
        alpha = 1.0 - v_l / (v_l + v_r)
        expected = np.concatenate([ivp(sigma[:2, :2]) * alpha,
                                   ivp(sigma[2:, 2:]) * (1.0 - alpha)])
        got = hrp(make_prior(np.zeros(4), sigma))
        assert np.abs(got - expected).max() < 1e-12

        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 9))
            S = random_psd(rng, m, scale=0.01)
            w = hrp(make_prior(np.zeros(m), S))
            perm = rng.permutation(m)
            w_p = hrp(make_prior(np.zeros(m), S[np.ix_(perm, perm)]))
            # identical allocation path; only summation order differs,
            # so agreement is exact up to one ulp
            np.testing.assert_allclose(w_p, w[perm], atol=1e-15, rtol=0)


def test_criterion_06_cpcv_combinatorics():
    with verdict(6, "CPCV split counts, multiplicity, paths, purge/embargo"):
        cfg = CpcvConfig(k=10, p=2, purge_horizon=0, embargo_fraction=0.0)
        plan = cpcv(450, cfg)
        assert plan.n_splits == 45
        assert plan.n_paths == 9
        counts = np.zeros(10, dtype=int)
        for blocks in plan.test_folds:
            for fold_id, _ in blocks:
                counts[fold_id] += 1
        assert list(counts) == [9] * 10

        cfg = CpcvConfig(k=10, p=2, purge_horizon=3, embargo_fraction=0.02)
        plan = cpcv(500, cfg)
        embargo = int(0.02 * 500)
        for train, test in plan.splits:
            assert not set(train.tolist()) & set(test.tolist())
            t_lo, t_hi = int(test.min()), int(test.max())
            for i in train:
                assert not (t_lo - 3 <= i < t_lo), "purge window violated"
                assert not (t_hi < i <= t_hi + embargo), "embargo violated"


def test_criterion_07_walk_forward():
    with verdict(7, "walk-forward split ranges and 120-period prediction"):
        plan = walk_forward(372, 252, 60)
        assert plan.n_splits == 2
        np.testing.assert_array_equal(plan.splits[0][0], np.arange(0, 252))
        np.testing.assert_array_equal(plan.splits[0][1], np.arange(252, 312))
        np.testing.assert_array_equal(plan.splits[1][0], np.arange(60, 312))
        np.testing.assert_array_equal(plan.splits[1][1], np.arange(312, 372))

        rng = np.random.default_rng(3)
        X = make_returns(rng.normal(0.0005, 0.01, (372, 4)))
        result = cross_val_predict(EqualWeighted(), X, plan)
        assert result.n_periods == 120


def test_criterion_08_estimator_properties():
    with verdict(8, "Ledoit-Wolf, Bayes-Stein, RMT, and Gerber properties"):
        rng = np.random.default_rng(5)
        for _ in range(5):
            R = rng.normal(0, 0.01, (60, 6))
            est, delta = ledoit_wolf(R)
            assert 0.0 <= delta <= 1.0
            assert abs(np.trace(est.sigma)
                       - np.trace(sample_moments(R).sigma)) < 1e-9

        base = MomentEstimate(mu=np.array([0.1, 0.2, 0.3]), sigma=np.eye(3),
                              sample_size=60)
        phi = 5.0 / 6.2
        expected = np.array([0.1 + 0.1 * phi, 0.2, 0.3 - 0.1 * phi])
        assert np.abs(bayes_stein(base).mu - expected).max() < 1e-12

        R = rng.normal(0, 1, (100, 20))
        den = denoise_rmt(sample_moments(R))
        d = np.sqrt(np.diag(den.sigma))
        ev = np.linalg.eigvalsh(den.sigma / np.outer(d, d))
        assert ev.max() - ev.min() < 1e-6

        small = np.tile([0.01, -0.01], (6, 1))
        big = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [2.0, -2.0]])
        R = np.vstack([small, big])
        est = gerber(R, c=0.5)
        s = np.sqrt(np.diag(sample_moments(R).sigma))
        assert est.sigma[0, 1] / (s[0] * s[1]) == pytest.approx(0.5, abs=1e-14)


def test_criterion_09_black_litterman():
    with verdict(9, "Black-Litterman limit cases"):
        base = make_prior([0.05, 0.03], np.eye(2) * 0.04)
        post = black_litterman_prior(
            base, ViewSet(P=np.zeros((0, 2)), Q=np.zeros(0), tau=0.05))
        assert np.abs(post.mu - base.mu).max() < 1e-12
        assert np.abs(post.sigma - 1.05 * base.sigma).max() < 1e-12

        views = ViewSet(P=np.array([[1.0, 0.0]]), Q=np.array([0.07]),
                        omega=np.array([1e-10]), tau=0.05)
        post = black_litterman_prior(base, views)
        assert abs(post.mu[0] - 0.07) < 1e-4

        base_i = make_prior([0.05, 0.03], np.eye(2))
        views = ViewSet(P=np.array([[1.0, 0.0]]), Q=np.array([0.09]), tau=0.05)
        post = black_litterman_prior(base_i, views)
        assert abs(post.mu[0] - 0.07) < 1e-10


def test_criterion_10_cli_determinism(tmp_path):
    with verdict(10, "cmd_backtest output is byte-identical across runs "
                     "and thread counts"):
        with resources.as_file(
                resources.files("quantfolio").joinpath("data/sample_prices.csv")
        ) as data:
            cfg = {
                "data": {"prices": str(data)},
                "model": {"kind": "hrp"},
                "cv": {"kind": "walk_forward", "train_size": 252,
                       "test_size": 60},
                "seed": 7,
            }
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))

            outputs = []
            for run, threads in (("r1", 1), ("r2", 1), ("r4", 4)):
                out = tmp_path / run
                code = main(["backtest", "--config", str(cfg_path),
                             "--out", str(out), "--seed", "7",
                             "--threads", str(threads)])
                assert code == 0
                outputs.append({p.name: p.read_bytes()
                                for p in sorted(Path(out).iterdir())})
        assert outputs[0] == outputs[1], "repeat run differs"
        assert outputs[0] == outputs[2], "thread count changed the output"
