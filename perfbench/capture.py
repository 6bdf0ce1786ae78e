"""Capture the reference weights and risk values that the benchmark checks against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/capture.py

Runs one pass of every workload at both sizes and writes perfbench/reference.json.
Weights are keyed by asset name and risk is invariant to the column order, so
one capture (seed 0) serves every seed. Refuses to write a reference for an op
that fails. Re-capture only when the optimum itself is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads


def capture(name: str, size: str, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[name](0, size, workdir)
    workload.reset()
    ops = workload.collect(workload.run_pass(None))
    failed = [f"{op.op_id}: {op.error}" for op in ops if op.error is not None]
    if failed:
        raise SystemExit(f"{name}/{size}: cannot capture failed ops: {failed}")
    return {"ops": {op.op_id: {"risk": workload.risk(op),
                               "weights": dict(sorted(op.weights.items()))}
                    for op in ops}}


def main() -> int:
    workdir = Path(".bench_work") / "capture"
    try:
        reference = {name: {size: capture(name, size, workdir / name / size)
                            for size in ("tiny", "full")}
                     for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
