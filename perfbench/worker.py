"""Child process of run.py: set up one workload, then measure it.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
        --workdir DIR [--setup-only] [--seconds S --trace 0|1 --spans FILE]

Set-up is the import of quantfolio, the generation of the inputs and one
pass of the workload at its tiny size, which runs every first-call path
(lazy imports, BLAS start-up) before anything is timed. With --setup-only
the process stops there; run.py times whole set-up processes from outside.

Otherwise the worker runs passes until --seconds have gone by and prints one
JSON line with pass times, op counts, failures and, when traced, the
per-layer metrics. A traced run alternates untraced and traced passes, so
the trace overhead is measured in one warm process.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

MIN_PASSES = 3  # untraced passes in an untraced run
MIN_TRACED_PASSES = 2  # so that the exact counts can be compared between passes


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(workload, reference, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    untraced, traced, layers, spans = [], [], [], []
    attempted = ok_untraced = 0
    failures: list[str] = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        tracing_this = trace and len(untraced) > len(traced)
        workload.reset()
        gc.collect()  # every pass starts from the same heap, so the peak RSS repeats
        uninstall = tracing.install(tracer) if tracing_this else None
        t0 = time.perf_counter()
        raw = workload.run_pass(tracer if tracing_this else None)
        elapsed = time.perf_counter() - t0
        if uninstall is not None:
            uninstall()
        ops = workload.collect(raw)
        failed = workloads.check(workload, ops, reference)
        attempted += len(ops)
        failures.extend(failed)
        if tracing_this:
            traced.append(elapsed)
            pass_spans = tracer.take()
            layers.append(tracing.layer_metrics(pass_spans))
            spans.extend(s.to_json() for s in pass_spans)
        else:
            untraced.append(elapsed)
            ok_untraced += len(ops) - len(failed)
        if peak_rss_mb is None:
            # later passes only add allocator fragmentation, which one run never sees
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = (len(traced) >= MIN_TRACED_PASSES if trace
                  else len(untraced) >= MIN_PASSES)
        if enough and time.perf_counter() - start >= seconds:
            break

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "ops_per_pass": len(workload.op_ids()),
        "untraced_s": untraced,
        "ok_untraced": ok_untraced,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        metrics, repeated = tracing.summarize(layers)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        layers = {name: {"value": metrics[name], "unit": unit}
                  for name, (unit, _) in tracing.LAYER_METRICS.items()}
        result.update(traced_s=traced, layers=layers, counts_repeated=repeated, spans=spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    warm = cls(0, "tiny", args.workdir / "warm")  # the same warm-up work for every seed
    warm.reset()
    warm.collect(warm.run_pass(None))
    workload = cls(args.seed, args.size, args.workdir / "main")
    if args.setup_only:
        return 0

    result = measure(workload, workloads.load_reference(workload), args.seconds,
                     bool(args.trace))
    spans = result.pop("spans", None)
    if args.spans is not None and spans is not None:
        args.spans.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
