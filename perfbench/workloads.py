"""The benchmark workloads: seeded inputs, one pass of fixed work, and the check.

Each workload fixes one problem and `--seed` relabels it: the seed draws a
permutation of the asset columns, and the asset names move with their
columns. The optimum is the same up to that relabelling, so the reference
risk values and the weights (keyed by asset name) hold for every seed. The
problems are fixed because ADMM iteration counts vary twentyfold between
random instances of one size, and about one random T=120 drawdown instance
in twelve stalls at MaxIterations; a workload whose work depended on the
seed that much could not be steady within its bound. The order of the
columns still reaches every layer, so a change that depends on it shows.

A pass is the timed unit. `run_pass` does the work and returns what the
program produced; `collect` turns that into one `Op` per expected output,
outside the timed region, and `check` compares each op with the reference.
"""

from __future__ import annotations

import datetime
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import quantfolio.cli
from quantfolio import MeanRisk, RiskMeasure, measure_value

from tracing import span_or_null

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# An op passes when its weights sum to the budget and lie in [0, 1] within
# FEASIBILITY_TOL, and its risk is within RISK_RTOL of the reference risk.
FEASIBILITY_TOL = 1e-6
RISK_RTOL = 1e-6


@dataclass
class Op:
    """One output of a pass: weights by asset name, or the error that replaced them."""

    op_id: str
    weights: dict[str, float] | None = None
    error: str | None = None


def synthetic_returns(T: int, N: int, seed: int = 0) -> np.ndarray:
    """N(5e-4, 0.01) asset noise plus one common N(0, 0.01) market factor."""
    rng = np.random.default_rng(seed)
    return rng.normal(5e-4, 0.01, (T, N)) + rng.normal(0.0, 0.01, (T, 1))


def _permutation(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def _write_prices(path: Path, names: list[str], returns: np.ndarray):
    prices = 100.0 * np.cumprod(np.vstack([np.ones(returns.shape[1]), 1.0 + returns]), axis=0)
    start = datetime.date(2015, 1, 1)
    lines = ["date," + ",".join(names)]
    for i, row in enumerate(prices):
        day = (start + datetime.timedelta(days=i)).isoformat()
        lines.append(day + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_returns(path: Path) -> tuple[list[str], np.ndarray]:
    """Asset names and simple returns of a price CSV, as the program reads it."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[1:]
    prices = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, len(names) + 1),
                        ndmin=2)
    return names, prices[1:] / prices[:-1] - 1.0


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.size = size
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def op_ids(self) -> list[str]:
        raise NotImplementedError

    def reset(self):
        """Remove the previous pass's outputs (not timed)."""

    def run_pass(self, tracer):
        raise NotImplementedError

    def collect(self, raw) -> list[Op]:
        raise NotImplementedError

    def risk(self, op: Op) -> float:
        raise NotImplementedError


class BacktestCpcv(Workload):
    """CLI `backtest --threads 2`, CPCV, seven allocators on a synthetic panel, in process."""

    name = "backtest_cpcv"
    SIZES = {"full": {"T": 1000, "N": 50, "k": 8, "p": 2},
             "tiny": {"T": 80, "N": 6, "k": 4, "p": 2}}
    THREADS = 2
    MODELS = [
        {"kind": "hrp", "name": "hrp_gerber",
         "prior": {"kind": "empirical", "cov_estimator": "gerber"}},
        {"kind": "hrp", "name": "hrp_cvar_ward", "risk_measure": "cvar", "linkage": "ward"},
        {"kind": "mean_risk", "name": "mv_ledoit_wolf", "risk_measure": "variance",
         "prior": {"kind": "empirical", "cov_estimator": "ledoit_wolf"}},
        {"kind": "mean_risk", "name": "utility_denoised", "objective": "maximize_utility",
         "risk_measure": "variance",
         "prior": {"kind": "empirical", "cov_estimator": "denoised"}},
        {"kind": "nco", "name": "nco"},
        {"kind": "inverse_volatility", "name": "inverse_volatility"},
    ]
    # the CLI appends the default benchmark allocator
    PORTFOLIOS = [m["name"] for m in MODELS] + ["equal_weighted"]
    CVAR_PORTFOLIOS = {"hrp_cvar_ward"}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        cfg = self.SIZES[size]
        T, N = cfg["T"], cfg["N"]
        base_names = [f"A{j:02d}" for j in range(N)]
        perm = _permutation(seed, N)
        prices = self.workdir / "prices.csv"
        _write_prices(prices, [base_names[j] for j in perm], synthetic_returns(T, N)[:, perm])
        config = self.workdir / "backtest.json"
        config.write_text(json.dumps({
            "data": {"prices": str(prices)},
            "cv": {"kind": "cpcv", "k": cfg["k"], "p": cfg["p"]},
            "models": self.MODELS,
        }), encoding="utf-8")
        self.k = cfg["k"]
        self.n_splits = math.comb(cfg["k"], cfg["p"])
        self.out = self.workdir / "out"
        self.argv = ["backtest", "--config", str(config), "--out", str(self.out),
                     "--threads", str(self.THREADS)]
        self.names, self.returns = _read_returns(prices)
        self.train_rows: list[np.ndarray] = []

    def op_ids(self):
        return [f"{name}/split{s}" for name in self.PORTFOLIOS for s in range(self.n_splits)]

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, tracer):
        with span_or_null(tracer, "cli.main"):
            try:
                return quantfolio.cli.main(self.argv)
            except Exception as exc:  # an uncaught error fails every op of the pass
                return exc

    def collect(self, raw):
        if raw != 0:
            message = f"cli raised {raw!r}" if isinstance(raw, Exception) else f"cli exit {raw}"
            return [Op(op_id, error=message) for op_id in self.op_ids()]
        audit = json.loads((self.out / "weights_audit.json").read_text(encoding="utf-8"))
        plan = audit["splits"]
        self.train_rows = [np.concatenate([np.arange(lo, hi) for lo, hi in split["train"]])
                           for split in plan["splits"]]
        split_of = {(item["path"], item["fold"]): item["split"] for item in plan["paths"]}
        weights = {}
        for entry in audit["portfolios"]:
            name, _, path = entry["portfolio"].rpartition("_path")
            # a path holds one segment per fold, in date order
            if len(entry["segments"]) != self.k:
                continue
            for fold, segment in enumerate(entry["segments"]):
                split = split_of.get((int(path), fold))
                weights[f"{name}/split{split}"] = segment["weights"]
        return [Op(op_id, weights=weights[op_id]) if op_id in weights
                else Op(op_id, error="missing from weights_audit.json")
                for op_id in self.op_ids()]

    def risk(self, op):
        name, _, split = op.op_id.rpartition("/split")
        w = np.array([op.weights[asset] for asset in self.names])
        series = self.returns[self.train_rows[int(split)]] @ w
        measure = RiskMeasure.CVAR if name in self.CVAR_PORTFOLIOS else RiskMeasure.VARIANCE
        return measure_value(series, measure)


class DrawdownFit(Workload):
    """Library `MeanRisk(...).fit` for CDaR and maximum drawdown on synthetic panels."""

    name = "drawdown_fit"
    SIZES = {"full": [("cdar", 120, 10), ("max_drawdown", 120, 10)],
             "tiny": [("cdar", 30, 4), ("max_drawdown", 30, 4)]}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.fits = []
        for measure, T, N in self.SIZES[size]:
            perm = _permutation(seed, N)
            names = [f"A{j:02d}" for j in perm]
            self.fits.append((f"{measure}_T{T}_N{N}", RiskMeasure(measure), names,
                              synthetic_returns(T, N)[:, perm]))

    def op_ids(self):
        return [op_id for op_id, *_ in self.fits]

    def run_pass(self, tracer):
        results = []
        for op_id, measure, _, X in self.fits:
            with span_or_null(tracer, "bench.fit", fit=op_id):
                try:
                    results.append(MeanRisk(risk_measure=measure).fit(X).weights_)
                except Exception as exc:  # a failed fit is a failed op, not a crash
                    results.append(exc)
        return results

    def collect(self, raw):
        ops = []
        for (op_id, _, names, _), result in zip(self.fits, raw):
            if isinstance(result, Exception):
                ops.append(Op(op_id, error=f"{type(result).__name__}: {result}"))
            else:
                ops.append(Op(op_id, weights=dict(zip(names, map(float, result)))))
        return ops

    def risk(self, op):
        _, measure, names, X = next(fit for fit in self.fits if fit[0] == op.op_id)
        w = np.array([op.weights[name] for name in names])
        return measure_value(X @ w, measure)


WORKLOADS = {cls.name: cls for cls in (BacktestCpcv, DrawdownFit)}


def load_reference(workload: Workload) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload.name][workload.size]


def check(workload: Workload, ops: list[Op], reference: dict) -> list[str]:
    """One message per failed op; an op passes only if feasible and at reference risk."""
    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(f"{op.op_id}: {op.error}")
            continue
        w = np.array(list(op.weights.values()))
        if (abs(w.sum() - 1.0) > FEASIBILITY_TOL or w.min() < -FEASIBILITY_TOL
                or w.max() > 1.0 + FEASIBILITY_TOL):
            failures.append(f"{op.op_id}: infeasible weights (sum {w.sum():.12g})")
            continue
        expected = reference["ops"][op.op_id]
        risk = workload.risk(op)
        if not abs(risk - expected["risk"]) <= RISK_RTOL * abs(expected["risk"]):
            drift = max(abs(op.weights[a] - v) for a, v in expected["weights"].items())
            failures.append(f"{op.op_id}: risk {risk:.12g} vs reference "
                            f"{expected['risk']:.12g} (max weight change {drift:.3g})")
    return failures
