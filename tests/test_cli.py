import json
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from quantfolio import cli, mean_risk
from quantfolio.cli import main
from quantfolio.exceptions import SolverFailure
from quantfolio.measures import RiskMeasure

DATA = resources.files("quantfolio").joinpath("data/sample_prices.csv")
NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def prices_path():
    with resources.as_file(DATA) as path:
        yield str(path)


@pytest.fixture(scope="module")
def short_prices_path(tmp_path_factory, prices_path):
    """First 161 price rows (160 returns), enough for cheap backtests."""
    lines = Path(prices_path).read_text().splitlines()
    path = tmp_path_factory.mktemp("data") / "short.csv"
    path.write_text("\n".join(lines[:162]) + "\n")
    return str(path)


def run(tmp_path, command, cfg, name="cfg", threads=None):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / f"{name}_out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return main(argv), out


def read_outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_optimize_outputs(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path, "test_fraction": 0.3},
        "model": {"kind": "mean_risk", "risk_measure": "variance"},
        "constraints": {"max_weight_per_asset": {"AAPL": 0.2}},
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert set(weights) == {"AAPL", "MSFT", "AMZN", "GOOG", "JPM",
                            "XOM", "PFE", "KO", "BA", "NVDA"}
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-8)
    assert weights["AAPL"] <= 0.2 + 1e-6
    assert all(v >= -1e-8 for v in weights.values())
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"train", "test"}
    assert "sharpe_ratio" in summary["train"]
    series = json.loads((out / "series.json").read_text())
    assert len(series["train"]["returns"]) == 112  # 160 returns, 30% test
    assert len(series["test"]["returns"]) == 48


def test_optimize_deterministic(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {"kind": "mean_risk", "risk_measure": "cvar", "beta": 0.9},
    }
    code_a, out_a = run(tmp_path, "optimize", cfg, name="a")
    code_b, out_b = run(tmp_path, "optimize", cfg, name="b")
    assert code_a == code_b == 0
    assert read_outputs(out_a) == read_outputs(out_b)


def test_optimize_unknown_key_is_config_error(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {"kind": "mean_risk"},
        "surprise": True,
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 2
    assert not out.exists()  # validation failed before any output was written


def test_optimize_missing_prices_is_data_error(tmp_path):
    cfg = {
        "data": {"prices": str(tmp_path / "nope.csv")},
        "model": {"kind": "mean_risk"},
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 3
    assert not out.exists()  # the output directory appears at the first write


def test_data_paths_may_contain_a_comma(tmp_path, short_prices_path):
    # a path is a file name, whatever characters it holds
    data_dir = tmp_path / "comma,dir"
    data_dir.mkdir()
    prices = data_dir / "prices.csv"
    prices.write_bytes(Path(short_prices_path).read_bytes())
    cfg = {
        "data": {"prices": str(prices), "factors": str(prices)},
        "model": {"kind": "mean_risk"},
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 0
    assert (out / "weights.json").exists()


def test_optimize_nco_on_two_assets(tmp_path, short_prices_path):
    rows = Path(short_prices_path).read_text().splitlines()
    prices = tmp_path / "two.csv"
    prices.write_text("\n".join(",".join(row.split(",")[:3]) for row in rows) + "\n")
    cfg = {"data": {"prices": str(prices)}, "model": {"kind": "nco"}}
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert set(weights) == {"AAPL", "MSFT"}
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-8)


def test_optimize_bayes_stein_on_one_asset_is_config_error(tmp_path, short_prices_path):
    rows = Path(short_prices_path).read_text().splitlines()
    prices = tmp_path / "one.csv"
    prices.write_text("\n".join(",".join(row.split(",")[:2]) for row in rows) + "\n")
    cfg = {"data": {"prices": str(prices)},
           "model": {"kind": "mean_risk",
                     "prior": {"kind": "empirical", "mean_estimator": "bayes_stein"}}}
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 2


def test_optimize_infeasible_is_solver_error(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {"kind": "mean_risk"},
        "constraints": {"min_return": 99.0},
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 4
    assert not out.exists()


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["optimize", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_bad_thread_count_is_config_error(tmp_path, short_prices_path):
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "mean_risk"}}
    code, _ = run(tmp_path, "optimize", cfg, threads=0)
    assert code == 2


def test_threads_env_var(tmp_path, short_prices_path, monkeypatch):
    monkeypatch.setenv("QUANTFOLIO_THREADS", "oops")
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "mean_risk"}}
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 2
    monkeypatch.setenv("QUANTFOLIO_THREADS", "2")
    code, _ = run(tmp_path, "optimize", cfg, name="env_ok")
    assert code == 0


def test_frontier_outputs(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {"kind": "mean_risk", "risk_measure": "variance",
                  "frontier_size": 5},
        "constraints": {"max_weight_per_asset": {"AAPL": 0.2}},
    }
    code, out = run(tmp_path, "frontier", cfg)
    assert code == 0
    lines = (out / "frontier.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["target_return", "realized_return_train", "risk_train",
                          "realized_return_test", "risk_test"]
    assert len(lines) == 6  # header + 5 points
    aapl_col = header.index("AAPL")
    targets = []
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[aapl_col]) <= 0.2 + 1e-6
        targets.append(float(cells[0]))
    assert targets == sorted(targets)
    root = ET.fromstring((out / "frontier.svg").read_text())
    assert len(root.findall(f"{NS}polyline")) == 2


def test_frontier_size_one(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {"kind": "mean_risk", "frontier_size": 1},
    }
    code, out = run(tmp_path, "frontier", cfg)
    assert code == 0
    assert len((out / "frontier.csv").read_text().splitlines()) == 2


def test_frontier_rejects_non_mean_risk(tmp_path, short_prices_path):
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "hrp"}}
    code, _ = run(tmp_path, "frontier", cfg)
    assert code == 2


def test_frontier_point_failure_is_solver_error(tmp_path, short_prices_path, monkeypatch):
    # the third solve is the frontier's first point (after its two ends): its
    # error ends the command instead of dropping the point
    optimize, calls = mean_risk.optimize, []

    def fail_third(model, prior):
        calls.append(1)
        if len(calls) == 3:
            raise SolverFailure("solver stopped with status MaxIterations")
        return optimize(model, prior)

    monkeypatch.setattr(mean_risk, "optimize", fail_third)
    cfg = {"data": {"prices": short_prices_path},
           "model": {"kind": "mean_risk", "frontier_size": 5}}
    code, out = run(tmp_path, "frontier", cfg)
    assert (code, len(calls)) == (4, 3)
    assert not out.exists()


def test_backtest_walk_forward(tmp_path, prices_path):
    cfg = {
        "data": {"prices": prices_path},
        "model": {"kind": "hrp"},
        "cv": {"kind": "walk_forward", "train_size": 252, "test_size": 60},
    }
    code, out = run(tmp_path, "backtest", cfg)
    assert code == 0
    pop = json.loads((out / "population_summary.json").read_text())
    names = [row["name"] for row in pop["portfolios"]]
    assert names == ["hrp", "equal_weighted"]
    audit = json.loads((out / "weights_audit.json").read_text())
    assert len(audit["splits"]["splits"]) == 2
    for port in audit["portfolios"]:
        assert len(port["segments"]) == 2
        for seg in port["segments"]:
            w = seg["weights"]
            assert sum(w.values()) == pytest.approx(1.0, abs=1e-8)
    # 372 returns, trained on 252: exactly 120 out-of-sample periods
    root = ET.fromstring((out / "cumulative_returns.svg").read_text())
    for poly in root.findall(f"{NS}polyline"):
        assert len(poly.get("points").split()) == 120
    csv_lines = (out / "population_summary.csv").read_text().splitlines()
    assert len(csv_lines) == 3


def test_backtest_cpcv_paths(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "models": [{"kind": "hrp", "name": "tree"},
                   {"kind": "inverse_volatility"}],
        "cv": {"kind": "cpcv", "k": 4, "p": 2,
               "purge_horizon": 1, "embargo_fraction": 0.01},
        "benchmarks": [],
    }
    code, out = run(tmp_path, "backtest", cfg)
    assert code == 0
    pop = json.loads((out / "population_summary.json").read_text())
    names = [row["name"] for row in pop["portfolios"]]
    # C(4,2)=6 splits reconstruct 3 paths per model; the unnamed second
    # model picks up its position index
    assert names == [f"tree_path{i}" for i in range(3)] + \
        [f"inverse_volatility_1_path{i}" for i in range(3)]


def test_backtest_thread_count_neutral(tmp_path, short_prices_path):
    # every (model, split) fit of the backtest, the default equal-weighted
    # benchmark included, runs in one worker pool
    cfg = {
        "data": {"prices": short_prices_path},
        "models": [{"kind": "mean_risk", "risk_measure": "variance"},
                   {"kind": "hrp"}, {"kind": "nco"}],
        "cv": {"kind": "cpcv", "k": 4, "p": 2,
               "purge_horizon": 1, "embargo_fraction": 0.01},
    }
    code_a, out_a = run(tmp_path, "backtest", cfg, name="t1", threads=1)
    code_b, out_b = run(tmp_path, "backtest", cfg, name="t3", threads=3)
    assert code_a == code_b == 0
    assert read_outputs(out_a) == read_outputs(out_b)


def test_backtest_without_cv_is_config_error(tmp_path, short_prices_path):
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "hrp"}}
    code, _ = run(tmp_path, "backtest", cfg)
    assert code == 2


def test_backtest_without_a_split_is_data_error(tmp_path, short_prices_path, capsys):
    # 160 returns hold no window of 150 train and 20 test rows
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "hrp"},
           "cv": {"kind": "walk_forward", "train_size": 150, "test_size": 20}}
    with pytest.warns(UserWarning, match="empty plan"):
        code, _ = run(tmp_path, "backtest", cfg)
    assert code == 3
    assert "data error: split plan is empty" in capsys.readouterr().err


def test_report_round_trip(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {"kind": "mean_risk"},
    }
    code, opt_out = run(tmp_path, "optimize", cfg, name="opt")
    assert code == 0
    report_cfg = {"inputs": [str(opt_out / "series.json")]}
    code, rep_out = run(tmp_path, "report", report_cfg, name="rep")
    assert code == 0
    # recomputed statistics must be byte-identical to the optimize summary
    assert (rep_out / "series_summary.json").read_bytes() == \
        (opt_out / "summary.json").read_bytes()


def test_report_empty_inputs_is_config_error(tmp_path):
    code, _ = run(tmp_path, "report", {"inputs": []})
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ('{"train": {"name": "x", "returns": [0.01, NaN]}}', "non-finite return value"),
    ('{"train": {"name": "x", "returns": [0.01, -Infinity]}}', "non-finite return value"),
    ('{"train": {"name": "x", "returns": [0.01, true, false]}}', "a return is not a number"),
    ('{"train": {"name": "x", "returns": [0.01, "0.02"]}}', "a return is not a number"),
    ('{"train": {"name": "x", "returns": [0.01, null]}}', "a return is not a number"),
    (None, "cannot read input"),
    ('{"train": {"name": "x", "returns": [0.01', "is not valid JSON"),
    ('{"train": [0.01, 0.02]}', "expected {'name', 'returns'}"),
], ids=["nonfinite", "infinite", "boolean", "string", "null", "missing", "not_json",
        "entry_not_object"])
def test_report_unusable_input_is_data_error(tmp_path, capsys, text, message):
    # None: the input file does not exist
    path = tmp_path / "series.json"
    if text is not None:
        path.write_text(text)
    code, _ = run(tmp_path, "report", {"inputs": [str(path)]})
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("inputs", ["o1/series.json", [1], [["a.json"]]])
def test_report_inputs_must_be_a_list_of_paths(tmp_path, inputs):
    code, _ = run(tmp_path, "report", {"inputs": inputs})
    assert code == 2


def test_outputs_section_is_config_error(tmp_path, short_prices_path):
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "mean_risk"},
           "outputs": {"weights": "w.json"}}
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 2
    assert not out.exists()


def test_repeated_asset_name_is_data_error(tmp_path, short_prices_path):
    # one weight per name once hid a column: two entries for three columns
    lines = Path(short_prices_path).read_text().splitlines()[:41]
    rows = [",".join(r.split(",")[:4]) for r in lines]
    rows[0] = "date,A,A,B"
    path = tmp_path / "repeated.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out = run(tmp_path, "optimize", {"data": {"prices": str(path)},
                                           "model": {"kind": "mean_risk"}})
    assert code == 3
    assert not (out / "weights.json").exists()


@pytest.mark.parametrize("section", [[], {}, {"kind": "bogus"}],
                         ids=["list", "empty", "bogus_kind"])
@pytest.mark.parametrize("command", ["optimize", "frontier", "backtest"])
def test_malformed_model_section_is_config_error(tmp_path, short_prices_path, capsys,
                                                 command, section):
    cfg = {"data": {"prices": short_prices_path}, "model": section, "cv": CPCV}
    if command != "backtest":
        del cfg["cv"]
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert "config error: model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("models", [
    [{"kind": "equal_weighted", "name": "x"}, {"kind": "inverse_volatility", "name": "x"}],
    [{"kind": "equal_weighted"}],
], ids=["two_models", "model_and_default_benchmark"])
def test_backtest_repeated_portfolio_name_is_config_error(tmp_path, short_prices_path, capsys,
                                                          models):
    # the default benchmark is named equal_weighted too
    cfg = {"data": {"prices": short_prices_path}, "models": models, "cv": CPCV}
    code, out = run(tmp_path, "backtest", cfg)
    assert code == 2
    assert "names must be distinct and non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_stacking_repeated_estimator_name_is_config_error(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {
            "kind": "stacking",
            "estimators": [{"kind": "equal_weighted", "name": "x"},
                           {"kind": "inverse_volatility", "name": "x"}],
            "cv": {"kind": "walk_forward", "train_size": 60, "test_size": 30},
        },
    }
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 2


def test_black_litterman_config(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {
            "kind": "mean_risk",
            "prior": {
                "kind": "black_litterman",
                "views": [{"picks": {"AAPL": 1.0}, "value": 0.0002}],
                "tau": 0.05,
            },
        },
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 0
    # unknown asset in a view is a config error
    cfg["model"]["prior"]["views"] = [{"picks": {"ZZZ": 1.0}, "value": 0.1}]
    code, _ = run(tmp_path, "optimize", cfg, name="badview")
    assert code == 2


def test_stacking_config(tmp_path, short_prices_path):
    cfg = {
        "data": {"prices": short_prices_path},
        "model": {
            "kind": "stacking",
            "estimators": [{"kind": "equal_weighted"},
                           {"kind": "inverse_volatility"}],
            "final_estimator": {"kind": "mean_risk"},
            "cv": {"kind": "walk_forward", "train_size": 60, "test_size": 30},
        },
    }
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("measure", [m.value for m in RiskMeasure])
def test_optimize_maximize_ratio_under_each_measure(tmp_path, prices_path, measure):
    cfg = {"data": {"prices": prices_path},
           "model": {"kind": "mean_risk", "objective": "maximize_ratio", "risk_measure": measure}}
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-8)
    assert all(v >= -1e-8 for v in weights.values())


def test_optimize_maximize_ratio_where_every_asset_loses_is_solver_error(tmp_path, capsys,
                                                                          prices_path):
    # 120 days of four assets whose simple returns average below -5e-4
    rng = np.random.default_rng(0)
    returns = rng.normal(-2e-3, 0.01, (120, 4))
    assert returns.mean(axis=0).max() < -5e-4
    prices = 100.0 * np.vstack([np.ones(4), np.cumprod(1.0 + returns, axis=0)])
    dates = [line.split(",")[0] for line in Path(prices_path).read_text().splitlines()[1:122]]
    path = tmp_path / "losers.csv"
    path.write_text("date,A,B,C,D\n" + "".join(
        f"{d}," + ",".join(f"{p:.10f}" for p in row) + "\n" for d, row in zip(dates, prices)))
    cfg = {"data": {"prices": str(path)}, "model": {"kind": "mean_risk",
                                                    "objective": "maximize_ratio"}}
    code, out = run(tmp_path, "optimize", cfg)
    assert code == 4
    assert "no feasible portfolio has a positive expected return" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def constant_column_path(tmp_path_factory, short_prices_path):
    """The short price file with AAPL's price frozen at its first value."""
    lines = Path(short_prices_path).read_text().splitlines()
    first = lines[1].split(",")[1]
    rows = [lines[0]] + [",".join([r.split(",")[0], first] + r.split(",")[2:])
                         for r in lines[1:]]
    path = tmp_path_factory.mktemp("data") / "constant.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_zero_variance_asset_is_data_error(tmp_path, constant_column_path):
    cfg = {"data": {"prices": constant_column_path}, "model": {"kind": "hrp"}}
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 3


CPCV = {"kind": "cpcv", "k": 4, "p": 2}


@pytest.mark.parametrize("command, patch", [
    ("optimize", {"model": {"kind": "mean_risk", "prior": {"cov_estimator": "bogus"}}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "ew", "halflife": -1}}}),
    ("optimize", {"model": {"kind": "nco", "k": "three"}}),
    ("optimize", {"model": {"kind": "mean_risk", "prior": {
        "kind": "black_litterman", "views": [{"picks": {"AAPL": 1.0}, "value": 0.0002}],
        "tau": 0}}}),
    ("optimize", {"model": {"kind": "hrp", "risk_measure": "cvar", "beta": 1.5}}),
    ("optimize", {"model": {"kind": "mean_risk", "objective": "bogus"}}),
    ("optimize", {"model": {"kind": "hrp", "linkage": "complete"}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "gerber", "gerber_c": 0}}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "denoised", "rmt_passes": -1}}}),
    ("optimize", {"data": {"returns_kind": "weird"}}),
    ("frontier", {"model": {"kind": "mean_risk", "frontier_size": 0}}),
    ("backtest", {"cv": {"kind": "cpcv", "k": 1}}),
    ("backtest", {"cv": {"kind": "cpcv", "k": 161, "p": 2}}),  # 160 returns
    ("backtest", {"cv": {**CPCV, "purge_horizon": -1}}),
    ("backtest", {"cv": CPCV, "benchmarks": ["bogus"]}),
], ids=["cov_estimator", "halflife", "nco_k", "bl_tau", "hrp_beta", "objective", "linkage",
        "gerber_c", "rmt_passes", "returns_kind", "frontier_size", "cpcv_k_one", "cpcv_k_above_T",
        "purge_horizon", "benchmark_kind"])
def test_bad_hyper_parameter_is_config_error(tmp_path, short_prices_path, command, patch):
    cfg = {"data": {"prices": short_prices_path, **patch.get("data", {})},
           "model": {"kind": "mean_risk"}}
    cfg.update({k: v for k, v in patch.items() if k != "data"})
    code, _ = run(tmp_path, command, cfg)
    assert code == 2


VIEWS = [{"picks": {"AAPL": 1.0}, "value": 0.0002}]


@pytest.mark.parametrize("command, patch", [
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "ew", "halflife": "x"}}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "gerber", "gerber_c": "x"}}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "denoised", "rmt_passes": "x"}}}),
    ("optimize", {"model": {"kind": "mean_risk", "prior": {
        "kind": "black_litterman", "views": VIEWS, "tau": "x"}}}),
    ("optimize", {"data": {"test_fraction": "x"}}),
    ("backtest", {"cv": {"kind": "walk_forward", "train_size": "60", "test_size": 20}}),
    ("backtest", {"cv": {"kind": "cpcv", "k": "8"}}),
    ("backtest", {"cv": {"kind": "cpcv", "embargo_fraction": "x"}}),
    ("optimize", {"constraints": {"max_weights": "x"}}),
], ids=["halflife", "gerber_c", "rmt_passes", "bl_tau", "test_fraction",
        "walk_forward_train_size", "cpcv_k", "cpcv_embargo_fraction", "max_weights"])
def test_quoted_number_is_config_error(tmp_path, short_prices_path, command, patch):
    cfg = {"data": {"prices": short_prices_path, **patch.get("data", {})},
           "model": {"kind": "mean_risk"}}
    cfg.update({k: v for k, v in patch.items() if k != "data"})
    code, _ = run(tmp_path, command, cfg)
    assert code == 2


@pytest.mark.parametrize("command, patch", [
    ("optimize", {"model": {"kind": "mean_risk", "beta": []}}),
    ("optimize", {"model": {"kind": "mean_risk", "l1_coef": []}}),
    ("optimize", {"model": {"kind": "mean_risk", "l2_coef": []}}),
    ("optimize", {"model": {"kind": "mean_risk", "risk_aversion": []}}),
    ("optimize", {"model": {"kind": "hrp", "beta": []}}),
    ("optimize", {"model": {"kind": "mean_risk", "prior": {
        "kind": "black_litterman", "views": VIEWS, "tau": []}}}),
    ("optimize", {"constraints": {"budget": []}}),
    ("optimize", {"constraints": {"min_return": []}}),
    ("backtest", {"cv": {"kind": "cpcv", "k": 4, "p": 2, "embargo_fraction": []}}),
    ("optimize", {"data": {"test_fraction": []}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"cov_estimator": "ew", "halflife": [60]}}}),
    ("optimize", {"constraints": {"budget": [1.0]}}),
    ("optimize", {"model": {"kind": "mean_risk", "beta": [0.5]}}),
], ids=["mean_risk_beta", "l1_coef", "l2_coef", "risk_aversion", "hrp_beta", "bl_tau",
        "budget", "min_return", "cpcv_embargo_fraction", "test_fraction", "halflife",
        "budget_one_element", "beta_one_element"])
def test_list_for_a_number_is_config_error(tmp_path, short_prices_path, capsys, command,
                                           patch):
    # an empty list passes np.all of any check, and [1.0] compares like 1.0
    cfg = {"data": {"prices": short_prices_path, **patch.get("data", {})},
           "model": {"kind": "mean_risk"}}
    cfg.update({k: v for k, v in patch.items() if k != "data"})
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    {"constraints": {"min_weights": [[0], [0, 1]]}},
    {"model": {"kind": "mean_risk", "l2_coef": 1e308}},
], ids=["ragged_min_weights", "overflowing_l2_coef"])
def test_unusable_number_is_config_error(tmp_path, short_prices_path, capsys, patch):
    # numpy cannot build an array from a ragged list, and an l2_coef this
    # large overflows the objective
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "mean_risk"}, **patch}
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, patch", [
    ("backtest", {"cv": {"kind": "walk_forward", "train_size": 60, "test_size": 20,
                         "expanding": "false"}}),
    ("optimize", {"constraints": {"max_weight_per_asset": [0.1]}}),
    ("optimize", {"data": {"prices": 3}}),
    ("optimize", {"model": {"kind": "mean_risk", "prior": {
        "kind": "black_litterman", "views": [{"picks": [1.0], "value": 0.0002}]}}}),
    ("optimize", {"model": {"kind": "mean_risk", "prior": {
        "kind": "black_litterman", "views": 3}}}),
    ("optimize", '{"data": {"prices": "p.csv"}, "model": '),
    ("backtest", {"data": {"factors": "f.csv"}, "cv": CPCV}),
    ("backtest", {"models": [], "cv": CPCV}),
], ids=["walk_forward_expanding", "max_weight_per_asset", "prices_path", "view_picks",
        "views", "not_json", "backtest_factors", "backtest_without_model"])
def test_wrong_json_type_is_config_error(tmp_path, short_prices_path, command, patch):
    # a quoted boolean must not pass on its truth value, a list for an object,
    # nor a number for a list or a path; nor does a config that is not JSON, a
    # backtest given factors (refused before either file is read) or one whose
    # models list is empty
    if isinstance(patch, str):
        cfg = patch
    else:
        cfg = {"data": {"prices": short_prices_path, **patch.get("data", {})},
               "model": {"kind": "mean_risk"}}
        cfg.update({k: v for k, v in patch.items() if k != "data"})
    code, _ = run(tmp_path, command, cfg)
    assert code == 2


@pytest.mark.parametrize("command, patch", [
    ("optimize", {"model": {"kind": "hrp", "constraints": {"max_weights": 0.12}}}),
    ("optimize", {"model": {"kind": "equal_weighted", "prior": {"cov_estimator": "ew"}}}),
    ("optimize", {"model": {"kind": "mean_risk", "linkage": "ward"}}),
    ("optimize", {"model": {"kind": "inverse_volatility", "frontier_size": 5}}),
    ("optimize", {"model": {"kind": "mean_risk",
                            "prior": {"kind": "factor_model", "halflife": 30.0}}}),
    ("backtest", {"cv": {"kind": "walk_forward", "train_size": 60, "test_size": 20,
                         "k": 4}}),
], ids=["hrp_constraints", "equal_weighted_prior", "mean_risk_linkage",
        "inverse_volatility_frontier_size", "factor_model_halflife", "walk_forward_k"])
def test_key_of_another_kind_is_config_error(tmp_path, short_prices_path, command, patch):
    # each key is valid for some kind, but the kind it is given to does not take it
    cfg = {"data": {"prices": short_prices_path, "factors": short_prices_path},
           "model": {"kind": "mean_risk"}, **patch}
    if command == "backtest":
        del cfg["data"]["factors"]
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert not out.exists()


def _readme_example(command):
    """The JSON example under README's `### <command>` heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n### {command}\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("command", ["optimize", "backtest"])
def test_readme_example_runs(tmp_path, short_prices_path, command):
    cfg = _readme_example(command)
    cfg["data"]["prices"] = short_prices_path
    code, _ = run(tmp_path, command, cfg)
    assert code == 0


def test_black_litterman_tau_without_views(tmp_path, short_prices_path):
    # with no views the posterior covariance is (1 + tau) * sigma
    weights = []
    for name, extra in (("default_tau", {}), ("tau", {"tau": 3.0})):
        cfg = {"data": {"prices": short_prices_path},
               "model": {"kind": "mean_risk", "objective": "maximize_utility",
                         "risk_aversion": 100.0,
                         "prior": {"kind": "black_litterman", **extra}}}
        code, out = run(tmp_path, "optimize", cfg, name=name)
        assert code == 0
        weights.append(json.loads((out / "weights.json").read_text()))
    assert weights[0] != weights[1]


# ---------------------------------------------------------------------------
# config section -> estimator, pinned by repr in golden_cli_estimators.json.
# Regenerate the fixture only when a change is meant to move the mapping:
#
#     PYTHONPATH=src python tests/test_cli.py --write

ESTIMATORS_FIXTURE = Path(__file__).with_name("golden_cli_estimators.json")
PIN_ASSETS = ("AAPL", "MSFT", "AMZN")
PIN_TOP_CONSTRAINTS = {"max_weights": 0.6, "min_return": 0.0001}
PIN_VIEWS = [{"picks": {"AAPL": 1.0, "MSFT": -1.0}, "value": 0.001}]


def _with_each(label, section, optional):
    """`section` alone, then `section` plus each optional key in turn."""
    yield label, section
    for key, value in optional.items():
        yield f"{label}+{key}", {**section, key: value}


MODEL_PINS = [
    *_with_each("mean_risk", {"kind": "mean_risk"}, {
        "name": "mv", "objective": "maximize_utility", "risk_measure": "cvar",
        "beta": 0.9, "l1_coef": 0.001, "l2_coef": 0.01, "risk_aversion": 2.0,
        "frontier_size": 7, "prior": {"cov_estimator": "ledoit_wolf"},
        "constraints": {"budget": 1.0, "min_weights": -0.1, "max_weights": 0.4,
                        "max_weight_per_asset": {"AAPL": 0.2}, "min_return": 0.0002},
    }),
    ("mean_risk+empty_constraints", {"kind": "mean_risk", "constraints": {}}),
    *_with_each("hrp", {"kind": "hrp"}, {
        "name": "tree", "risk_measure": "cvar", "linkage": "ward", "beta": 0.9,
        "prior": {"kind": "empirical", "cov_estimator": "gerber", "gerber_c": 0.7},
    }),
    *_with_each("nco", {"kind": "nco"}, {
        "name": "clusters", "k": 2, "linkage": "average",
        "inner": {"kind": "mean_risk", "risk_measure": "cvar"}, "outer": {"kind": "hrp"},
    }),
    *_with_each("stacking", {"kind": "stacking", "estimators": [
        {"kind": "equal_weighted"}, {"kind": "mean_risk", "name": "mv"}]}, {
        "name": "stack", "final_estimator": {"kind": "mean_risk", "objective": "maximize_ratio"},
        "cv": {"kind": "walk_forward", "train_size": 60, "test_size": 20},
    }),
    *_with_each("equal_weighted", {"kind": "equal_weighted"}, {"name": "ew"}),
    *_with_each("inverse_volatility", {"kind": "inverse_volatility"}, {
        "name": "iv", "prior": {"kind": "factor_model"},
    }),
]
PRIOR_PINS = [
    ("empirical_without_kind", {}),
    *_with_each("empirical", {"kind": "empirical"}, {
        "mean_estimator": "bayes_stein", "cov_estimator": "ew", "halflife": 30.0,
        "gerber_c": 0.7, "rmt_passes": 3,
    }),
    *_with_each("factor_model", {"kind": "factor_model"}, {"ridge_alpha": 0.5}),
    *_with_each("black_litterman", {"kind": "black_litterman"}, {
        "base": {"kind": "empirical", "cov_estimator": "ledoit_wolf"},
    }),
    # tau and omega belong to a view set, so they are pinned together with views
    *_with_each("black_litterman_views", {"kind": "black_litterman", "views": PIN_VIEWS}, {
        "tau": 0.1, "omega": [0.0004],
        "base": {"kind": "empirical", "cov_estimator": "ledoit_wolf"},
    }),
]
CV_PINS = [
    *_with_each("walk_forward", {"kind": "walk_forward", "train_size": 60, "test_size": 20},
                {"expanding": True}),
    *_with_each("cpcv", {"kind": "cpcv"}, {
        "k": 6, "p": 3, "purge_horizon": 2, "embargo_fraction": 0.05,
    }),
]


def _pin_builds():
    """Case id -> a call that builds the case the way the commands do."""
    from quantfolio import cli

    builds = {}
    for label, section in MODEL_PINS:
        for top_id, top in (("no_top", None), ("top", PIN_TOP_CONSTRAINTS)):
            builds[f"model/{label}/{top_id}"] = (
                lambda s=section, t=top: cli._build("model", s, "model", PIN_ASSETS, t))
    for label, section in PRIOR_PINS:
        builds[f"prior/{label}"] = lambda s=section: cli._build(
            "model", {"kind": "inverse_volatility", "prior": s}, "model", PIN_ASSETS)
    for label, section in CV_PINS:
        builds[f"cv/{label}"] = lambda s=section: cli._build("cv", s, "cv")
    return builds


PIN_BUILDS = _pin_builds()


@pytest.fixture(scope="module")
def golden_estimators():
    return json.loads(ESTIMATORS_FIXTURE.read_text())


def test_estimator_fixture_covers_every_case(golden_estimators):
    assert set(golden_estimators) == set(PIN_BUILDS)


@pytest.mark.parametrize("case", sorted(PIN_BUILDS))
def test_config_builds_pinned_estimator(golden_estimators, case):
    assert repr(PIN_BUILDS[case]()) == golden_estimators[case]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    ESTIMATORS_FIXTURE.write_text(json.dumps(
        {case: repr(build()) for case, build in sorted(PIN_BUILDS.items())}, indent=1) + "\n")


@pytest.mark.parametrize("constraints, message", [
    ({"min_weights": [0, 0]}, "lower weight bound (min_weights) has shape (2,), not () or (10,)"),
    ({"max_weights": [[1]]}, "upper weight bound (max_weights) has shape (1, 1), not () or (10,)"),
], ids=["min_weights", "max_weights"])
def test_weight_bound_of_wrong_shape_is_config_error(tmp_path, short_prices_path, capsys,
                                                     constraints, message):
    cfg = {"data": {"prices": short_prices_path}, "model": {"kind": "mean_risk"},
           "constraints": constraints}
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("models", "hrp"), ("benchmarks", "equal_weighted")])
def test_models_and_benchmarks_must_be_lists(tmp_path, short_prices_path, capsys, key, value):
    # a string must not be read one character at a time
    cfg = {"data": {"prices": short_prices_path}, "models": [{"kind": "hrp"}],
           "cv": {"kind": "cpcv", "k": 4, "p": 2}, key: value}
    code, out = run(tmp_path, "backtest", cfg)
    assert code == 2
    assert f"config error: {key} must be a JSON list, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_unbounded_problem_is_solver_error(tmp_path, short_prices_path, capsys):
    # the JSON literals -Infinity and Infinity open both sides of the box
    cfg = {"data": {"prices": short_prices_path},
           "model": {"kind": "mean_risk", "objective": "maximize_return"},
           "constraints": {"min_weights": float("-inf"), "max_weights": float("inf")}}
    code, _ = run(tmp_path, "optimize", cfg)
    assert code == 4
    assert "solver error: objective unbounded" in capsys.readouterr().err


def _json_dumps_per_value(obj, indent=0):
    """The JSON writer's format, one value at a time."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_json_dumps_per_value(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_dumps_per_value(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.12g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    assert obj is None
    return "null"


def test_json_dumps_matches_per_value_reference():
    rng = np.random.default_rng(0)
    floats = (rng.normal(size=40) * 10.0 ** rng.integers(-40, 40, 40)).tolist()
    obj = {
        "weights": {f"A{i}": w for i, w in enumerate(floats)},
        "odd keys": {"100%": 0.5, "%s %d %%": -0.0, 'say "hi"': 1e-30, "tab\tnew\nline": 2.0,
                     "é": np.float64(1 / 3), 7: 1.5e300},
        "series": floats[:9] + [np.float64(-2.5e-17)],
        "mixed": [1, True, False, None, "text", 0.1, -0.0, np.int64(4), (1, 2.5), [], {}],
        "nested": {"a": [{"b": [[0.0, 1e-30], {"c": None}]}], "empty": {}, "none": None},
        "splits": [[0, 125], [250, 1000]],
    }
    assert cli._json_dumps(obj) == _json_dumps_per_value(obj)
    assert cli._json_dumps([]) == "[]" and cli._json_dumps({}) == "{}"
    assert cli._json_dumps(0.25) == "0.25"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("container", ["dict", "list", "mixed"])
def test_json_dumps_rejects_non_finite_values(bad, container):
    obj = {"dict": {"a": 0.5, "b": bad}, "list": [0.5, 1.0, bad],
           "mixed": [1, {"x": [0.5, "s", bad]}]}[container]
    with pytest.raises(ValueError, match=f"non-finite value {bad}"):
        cli._json_dumps(obj)
