"""Batch command-line front end: JSON configs in, reports and charts out.

Exit codes: 0 success, 2 config error, 3 data error, 4 solver/infeasibility.
All numeric output is formatted to 12 significant digits so runs are
byte-identical given the same config, data, and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analytics import Portfolio, frontier_report, population_summary, predict, summary
from .exceptions import (
    AssetMismatch,
    DimensionMismatch,
    EmptyCv,
    InfeasibleProblem,
    InvalidConfig,
    MalformedCsv,
    MissingCell,
    QuantfolioError,
    SolverFailure,
    UnboundedProblem,
    UnsupportedMeasure,
    require_finite,
    require_int,
    require_member,
)
from .hierarchical import (
    EqualWeighted,
    HierarchicalRiskParity,
    InverseVolatility,
    NestedClustersOptimization,
    StackingOptimization,
)
from .market_data import align, load_prices, prices_to_returns, time_split
from .mean_risk import MeanRisk, ObjectiveFunction, efficient_frontier
from .measures import RiskMeasure
from .model_selection import CpcvConfig, WalkForwardConfig, cross_val_predict
from .priors import BlackLitterman, EmpiricalPrior, FactorModel, ViewSet, fit_prior
from .svg import line_chart

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

_CONFIG_ERRORS = (InvalidConfig, UnsupportedMeasure, AssetMismatch, DimensionMismatch)
_SOLVER_ERRORS = (InfeasibleProblem, UnboundedProblem, SolverFailure)
# every other QuantfolioError is a property of the data
_DATA_ERRORS = (QuantfolioError, FileNotFoundError, IsADirectoryError)


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(value: float) -> str:
    """12 significant digits, '.' decimal, no locale dependence."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value}")
    return f"{value:.12g}"


def _json_dumps(obj, indent: int = 0) -> str:
    if isinstance(obj, dict):
        values, brackets = list(obj.values()), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return _json_scalar(obj)
    if not values:
        return brackets
    inner = "  " * (indent + 1)
    heads = [inner] * len(values)
    if brackets == "{}":
        # every key in one json.dumps call, one to a line: an encoded key holds no newline
        keys = json.dumps([str(k) for k in obj], separators=("\n", ""))[1:-1].split("\n")
        heads = [f"{inner}{k}: " for k in keys]
    if all(isinstance(v, float) for v in values):
        # a container of floats, such as a weights dict: one %-template
        # formats them all as _fmt does one at a time
        if not all(map(math.isfinite, values)):
            _fmt(next(v for v in values if not math.isfinite(v)))
        body = ",\n".join([h.replace("%", "%%") + "%.12g" for h in heads]) % tuple(values)
    else:
        body = ",\n".join([h + _json_dumps(v, indent + 1) for h, v in zip(heads, values)])
    return f"{brackets[0]}\n{body}\n{'  ' * indent}{brackets[1]}"


def _json_scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj):
    _write_text(path, _json_dumps(obj) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(_fmt(float(cell)))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are fatal)

_TOP_KEYS = {"data", "model", "models", "constraints", "cv", "benchmarks", "inputs", "seed"}
_DATA_KEYS = {"prices", "factors", "returns_kind", "test_fraction"}
_CONSTRAINT_KEYS = {"budget", "min_weights", "max_weights",
                    "max_weight_per_asset", "min_return"}
_VIEW_KEYS = {"picks", "value"}

# section type -> kind -> (class, the config keys that kind takes besides "kind")
_KINDS = {
    "model": {
        "mean_risk": (MeanRisk, {"name", "objective", "risk_measure", "beta", "l1_coef",
                                 "l2_coef", "risk_aversion", "prior", "constraints",
                                 "frontier_size"}),
        "hrp": (HierarchicalRiskParity, {"name", "risk_measure", "linkage", "prior", "beta"}),
        "nco": (NestedClustersOptimization, {"name", "inner", "outer", "k", "linkage"}),
        "stacking": (StackingOptimization, {"name", "estimators", "final_estimator", "cv"}),
        "equal_weighted": (EqualWeighted, {"name"}),
        "inverse_volatility": (InverseVolatility, {"name", "prior"}),
    },
    "prior": {
        "empirical": (EmpiricalPrior, {"mean_estimator", "cov_estimator", "halflife",
                                       "gerber_c", "rmt_passes"}),
        "factor_model": (FactorModel, {"ridge_alpha"}),
        "black_litterman": (BlackLitterman, {"views", "tau", "omega", "base"}),
    },
    "cv": {
        "walk_forward": (WalkForwardConfig, {"train_size", "test_size", "expanding"}),
        "cpcv": (CpcvConfig, {"k", "p", "purge_horizon", "embargo_fraction"}),
    },
}
# keys a kind cannot do without
_REQUIRED = {"walk_forward": ("train_size", "test_size"), "stacking": ("estimators",)}
# config key -> constructor parameter, where the two differ
_RENAME = {"prior": "prior_estimator", "base": "base_estimator",
           "inner": "inner_estimator", "outer": "outer_estimator"}
# keys that hold one nested section -> its section type; "estimators" holds a
# list of models
_NESTED = {"prior": "prior", "base": "prior", "inner": "model", "outer": "model",
           "final_estimator": "model", "cv": "cv"}
# keys _build reads itself: no constructor takes them as they are
_UNPASSED = {"kind", "name", "frontier_size", "constraints", "views", "tau", "omega"}
_ENUMS = {"objective": ObjectiveFunction, "risk_measure": RiskMeasure}


def _check_keys(section: dict, allowed: set[str], where: str):
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise InvalidConfig(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    for key, allowed in (("data", _DATA_KEYS), ("constraints", _CONSTRAINT_KEYS)):
        if key in cfg:
            _check_keys(cfg[key], allowed, key)
    for key in ("model", "cv"):
        if key in cfg:
            _check_section(cfg[key], key, key)
    for key in ("models", "benchmarks"):
        if not isinstance(cfg.get(key, []), list):
            raise InvalidConfig(f"{key} must be a JSON list, got {cfg[key]!r}")
    for i, sec in enumerate(cfg.get("models", [])):
        _check_section(sec, "model", f"models[{i}]")
    for i, kind in enumerate(cfg.get("benchmarks", [])):
        _check_section({"kind": kind}, "model", f"benchmarks[{i}]")
    if "seed" in cfg:
        require_int("seed", cfg["seed"])
    return cfg


def _check_section(section: dict, sort: str, where: str):
    """Check a model, prior or cv section and the sections in it against
    the keys of their kinds; a prior's kind defaults to empirical."""
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be a JSON object")
    if "kind" not in section and sort != "prior":
        raise InvalidConfig(f"{where}: missing 'kind'")
    kind = section.get("kind", "empirical")
    if not isinstance(kind, str) or kind not in _KINDS[sort]:
        raise InvalidConfig(f"{where}: unknown {sort} kind {kind!r}")
    _check_keys(section, _KINDS[sort][kind][1] | {"kind"}, where)
    for key in _REQUIRED.get(kind, ()):
        if key not in section:
            raise InvalidConfig(f"{where}: a {kind} {sort} needs {key!r}")
    for key, value in section.items():
        if key == "estimators":
            if not isinstance(value, list) or not value:
                raise InvalidConfig(f"{where}.estimators must be a non-empty list")
            for i, sub in enumerate(value):
                _check_section(sub, "model", f"{where}.estimators[{i}]")
        elif key in _NESTED:
            _check_section(value, _NESTED[key], f"{where}.{key}")
        elif key == "constraints":
            _check_keys(value, _CONSTRAINT_KEYS, f"{where}.constraints")
        elif key == "views":
            if not isinstance(value, list):
                raise InvalidConfig(f"{where}.views must be a list")
            for i, view in enumerate(value):
                _check_keys(view, _VIEW_KEYS, f"{where}.views[{i}]")
                if not isinstance(view.get("picks"), dict) or "value" not in view:
                    raise InvalidConfig(f"{where}.views[{i}] needs a 'picks' object and 'value'")


def _view_set(section: dict, assets: tuple[str, ...]) -> ViewSet:
    index = {a: j for j, a in enumerate(assets)}
    rows = section.get("views", [])
    P = np.zeros((len(rows), len(assets)))
    Q = np.zeros(len(rows))
    for i, view in enumerate(rows):
        for name, coef in view["picks"].items():
            if name not in index:
                raise AssetMismatch(f"view picks unknown asset {name!r}")
            require_finite(f"view pick {name!r}", coef)
            P[i, index[name]] = coef
        require_finite("view value", view["value"])
        Q[i] = view["value"]
    return ViewSet(P=P, Q=Q, **{k: section[k] for k in ("omega", "tau") if k in section})


def _build(sort: str, section: dict, assets: tuple[str, ...], constraints: dict | None = None):
    """Instantiate a section that load_config has checked.

    Only the keys the section gives reach the constructor, so every default
    lives there. `constraints` is the top-level constraints section: it
    applies to a mean_risk model that has no `constraints` key of its own.
    """
    kind = section.get("kind", "empirical")
    params = {}
    for key, value in section.items():
        if key in _UNPASSED:
            continue
        if key == "estimators":
            value = [(_model_name(sub, i), _build("model", sub, assets))
                     for i, sub in enumerate(value)]
        elif key in _NESTED:
            value = _build(_NESTED[key], value, assets)
        elif key in _ENUMS:
            value = require_member(_ENUMS[key], key, value)
        params[_RENAME.get(key, key)] = value
    if kind == "mean_risk":
        params.update(section.get("constraints", constraints) or {})
    if kind == "black_litterman" and not {"views", "tau", "omega"}.isdisjoint(section):
        params["views"] = _view_set(section, assets)
    return _KINDS[sort][kind][0](**params)


def _build_model(section: dict, assets: tuple[str, ...], constraints: dict | None = None):
    return _build("model", section, assets, constraints)


def _build_cv(section: dict):
    return _build("cv", section, ())


def _model_name(section: dict, index: int | None = None) -> str:
    if "name" in section:
        return str(section["name"])
    kind = section["kind"]
    return kind if index is None else f"{kind}_{index}"


# ---------------------------------------------------------------------------
# data loading


def _data_path(data: dict, key: str) -> Path:
    # a Path, never a str: load_prices reads a str holding a comma as CSV text
    path = data[key]
    if not isinstance(path, str):
        raise InvalidConfig(f"data.{key} must be a path string, got {path!r}")
    return Path(path)


def _load_data(cfg: dict):
    """Returns (X, factors) as ReturnsMatrix objects (factors may be None)."""
    data = cfg.get("data")
    if not data or "prices" not in data:
        raise InvalidConfig("config needs a data section with a 'prices' path")
    prices = load_prices(_data_path(data, "prices"))
    kind = data.get("returns_kind", "simple")
    factors = None
    if "factors" in data:
        factor_prices = load_prices(_data_path(data, "factors"))
        prices, factor_prices = align(prices, factor_prices)
        factors = prices_to_returns(factor_prices, kind=kind)
    return prices_to_returns(prices, kind=kind), factors


def _split_rows(X, factors, fraction: float):
    X_train, X_test = time_split(X, fraction)
    if factors is None:
        return X_train, X_test, None
    f_train, _ = time_split(factors, fraction)
    return X_train, X_test, f_train


# ---------------------------------------------------------------------------
# commands


def cmd_optimize(cfg: dict, out: Path, threads: int) -> int:
    if "model" not in cfg:
        raise InvalidConfig("optimize needs a 'model' section")
    X, factors = _load_data(cfg)
    fraction = cfg.get("data", {}).get("test_fraction", 0.3)
    X_train, X_test, f_train = _split_rows(X, factors, fraction)

    model = _build_model(cfg["model"], X.assets, cfg.get("constraints"))
    model.fit(X_train, factors=f_train)
    weights = np.asarray(model.weights_, dtype=float)
    name = _model_name(cfg["model"])
    port_train = predict(weights, X_train, name=name)
    port_test = predict(weights, X_test, name=name)

    _write_json(out / "weights.json", {a: float(w) for a, w in zip(X.assets, weights)})
    _write_json(out / "summary.json",
                {"train": summary(port_train), "test": summary(port_test)})
    # series files carry full-precision returns so report round-trips exactly
    series_obj = {
        "train": {"name": name, "returns": [float(r) for r in port_train.returns]},
        "test": {"name": name, "returns": [float(r) for r in port_test.returns]},
    }
    _write_text(out / "series.json", json.dumps(series_obj, indent=2) + "\n")
    return 0


def cmd_frontier(cfg: dict, out: Path, threads: int) -> int:
    section = cfg.get("model")
    if not section:
        raise InvalidConfig("frontier needs a 'model' section")
    if section["kind"] != "mean_risk":
        raise InvalidConfig("frontier requires a mean_risk model")
    size = section.get("frontier_size", 100)
    require_int("frontier_size", size)
    if size < 1:
        raise InvalidConfig("frontier_size must be an integer >= 1")

    X, factors = _load_data(cfg)
    fraction = cfg.get("data", {}).get("test_fraction", 0.3)
    X_train, X_test, f_train = _split_rows(X, factors, fraction)

    model = _build_model(section, X.assets, cfg.get("constraints"))
    points = efficient_frontier(model, fit_prior(model.prior_estimator, X_train, f_train), size)

    # variance frontiers report the standard deviation, in return units
    measure = model.risk_measure
    if measure is RiskMeasure.VARIANCE:
        measure = RiskMeasure.STANDARD_DEVIATION
    report = frontier_report(points, X_train, X_test, risk_measure=measure, beta=model.beta)
    train, test = report[0::2], report[1::2]
    rows = [[point.expected_return, tr["mean"], tr["risk"], te["mean"], te["risk"],
             *point.weights] for point, tr, te in zip(points, train, test)]

    header = ["target_return", "realized_return_train", "risk_train",
              "realized_return_test", "risk_test"] + list(X.assets)
    _write_csv(out / "frontier.csv", header, rows)
    chart = line_chart(
        [
            ("train", [r["risk"] for r in train], [r["mean"] for r in train]),
            ("test", [r["risk"] for r in test], [r["mean"] for r in test]),
        ],
        title="Efficient frontier",
        x_label="risk", y_label="mean return", markers=True,
    )
    _write_text(out / "frontier.svg", chart)
    return 0


def cmd_backtest(cfg: dict, out: Path, threads: int) -> int:
    if "cv" not in cfg:
        raise InvalidConfig("backtest needs a 'cv' section")
    if "factors" in cfg.get("data", {}):
        raise InvalidConfig("factor data is not supported in backtest")
    sections = cfg.get("models")
    if sections is None:
        sections = [cfg["model"]] if "model" in cfg else []
    if not sections:
        raise InvalidConfig("backtest needs a 'model' or 'models' section")

    X, _ = _load_data(cfg)
    plan = _build_cv(cfg["cv"]).plan(X.n_periods)
    if plan.n_splits == 0:
        raise EmptyCv("cv plan produced no splits")

    named = [(_model_name(sec, i if len(sections) > 1 else None),
              _build_model(sec, X.assets, cfg.get("constraints")))
             for i, sec in enumerate(sections)]
    benchmarks = cfg.get("benchmarks", ["equal_weighted"])
    for bench in benchmarks:
        named.append((bench, _build_model({"kind": bench}, X.assets)))

    portfolios = []
    for result in cross_val_predict(named, X, plan, n_jobs=threads):
        portfolios.extend(result if isinstance(result, list) else [result])

    rows = population_summary(portfolios)
    _write_json(out / "population_summary.json", {"portfolios": rows})
    header = list(rows[0].keys())
    _write_csv(out / "population_summary.csv", header, [[row[k] for k in header] for row in rows])

    audit = []
    for port in portfolios:
        audit.append({
            "portfolio": port.name,
            "segments": [
                {
                    "start": span[0].isoformat(),
                    "end": span[1].isoformat(),
                    "weights": {a: float(w) for a, w in zip(X.assets, weights)},
                }
                for weights, span in port.segments
            ],
        })
    _write_json(out / "weights_audit.json",
                {"splits": json.loads(plan.to_json()), "portfolios": audit})

    chart_series = []
    for port in portfolios:
        wealth = np.cumprod(1.0 + port.returns) - 1.0
        chart_series.append((port.name, list(range(port.n_periods)),
                             [float(v) for v in wealth]))
    chart = line_chart(chart_series, title="Cumulative return (out of sample)",
                       x_label="period", y_label="cumulative return")
    _write_text(out / "cumulative_returns.svg", chart)
    return 0


def _load_series_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read input {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedCsv(f"input {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not payload:
        raise MalformedCsv(f"input {path}: expected a non-empty JSON object")
    for label, entry in payload.items():
        if (not isinstance(entry, dict) or "returns" not in entry
                or not isinstance(entry["returns"], list)):
            raise MalformedCsv(
                f"input {path}, entry {label!r}: expected {{'name', 'returns'}}"
            )
        values = entry["returns"]
        if any(isinstance(v, bool) for v in values):
            raise MalformedCsv(f"input {path}, entry {label!r}: a return is a boolean")
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise MissingCell(f"input {path}, entry {label!r}: non-finite return value")
    return payload


def cmd_report(cfg: dict, out: Path, threads: int) -> int:
    inputs = cfg.get("inputs")
    if not inputs or not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs):
        raise InvalidConfig(f"report needs a non-empty 'inputs' list of paths, got {inputs!r}")

    for path in inputs:
        payload = _load_series_file(path)
        result = {}
        for label, entry in payload.items():
            port = Portfolio(name=str(entry.get("name", label)),
                             returns=np.asarray(entry["returns"], dtype=float))
            result[label] = summary(port)
        stem = Path(path).stem
        _write_json(out / f"{stem}_summary.json", result)
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "optimize": cmd_optimize,
    "frontier": cmd_frontier,
    "backtest": cmd_backtest,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quantfolio",
        description="Portfolio optimization and backtesting from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    if args.threads is not None:
        threads = args.threads
    else:
        try:
            threads = int(os.environ.get("QUANTFOLIO_THREADS", "1"))
        except ValueError:
            print("config error: QUANTFOLIO_THREADS must be an integer", file=sys.stderr)
            return EXIT_CONFIG
    if threads < 1:
        print("config error: thread count must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, threads)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
