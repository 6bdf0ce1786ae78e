"""Smoke test of the benchmark at tiny sizes (under a minute).

    python3 -m pytest -q perfbench/smoke.py

Kept out of the default test collection (the file name does not match
test_*.py), so the repository's own suite does not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from quantfolio import RiskMeasure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def _shift_weight(op: workloads.Op, amount: float):
    """Move `amount` of weight from the largest holding to the smallest: still feasible."""
    names = sorted(op.weights, key=op.weights.get)
    op.weights[names[-1]] -= amount
    op.weights[names[0]] += amount


def test_perturbed_output_is_counted_as_failed(tmp_path, monkeypatch):
    workload = workloads.DrawdownFit(7, "tiny", tmp_path)
    reference = workloads.load_reference(workload)
    collect = workload.collect

    def perturbed(raw):
        ops = collect(raw)
        _shift_weight(ops[0], 0.05)
        return ops

    monkeypatch.setattr(workload, "collect", perturbed)
    result = worker.measure(workload, reference, seconds=0, trace=False)
    passes = len(result["untraced_s"])
    assert result["attempted"] == passes * len(workload.op_ids())
    assert result["failed"] == passes
    assert all("vs reference" in message for message in result["failures"])


def test_known_stall_is_counted_as_failed(tmp_path):
    # MaxDrawdown on this panel ends in MaxIterations at the seed commit
    workload = workloads.DrawdownFit(0, "tiny", tmp_path)
    names = [f"A{j:02d}" for j in range(10)]
    workload.fits = [("max_drawdown_T60_N10", RiskMeasure.MAX_DRAWDOWN, names,
                      workloads.synthetic_returns(60, 10))]
    ops = workload.collect(workload.run_pass(None))
    failures = workloads.check(workload, ops, {"ops": {}})
    assert len(failures) == 1 and "SolverFailure" in failures[0]


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "drawdown_fit", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_risk_check_is_column_order_free(tmp_path):
    a = workloads.DrawdownFit(1, "tiny", tmp_path / "a")
    b = workloads.DrawdownFit(2, "tiny", tmp_path / "b")
    assert a.fits[0][2] != b.fits[0][2]
    for w in (a, b):
        ops = w.collect(w.run_pass(None))
        assert workloads.check(w, ops, workloads.load_reference(w)) == []
