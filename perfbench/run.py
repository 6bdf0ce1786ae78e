"""quantfolio benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; quantfolio is imported from ./src. With
--trace 0 the last line holds the end-to-end metrics (set-up time, median
pass time, ops per second, peak RSS, share of ops that passed the check);
with --trace 1 it holds the per-layer metrics of a traced run. A fuller
record, with the environment and, when traced, every span, goes to
.bench_out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("backtest_cpcv", "drawdown_fit")
SETUP_PROBES = 3  # set-up processes timed per untraced run; setup_s is their median
DEADLINE_S = 170  # the whole run, probes included, ends within this

# one thread per BLAS call, so that BLAS threads do not compete with each
# other or with the backtest's two pool threads for the cores
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _run(cmd: list[str], env: dict, timeout: float, stdout) -> tuple[int, str, float]:
    """Run `cmd` to its end, killing it after `timeout` s; returns (code, stdout, seconds).

    A blocking wait, not subprocess's timeout loop, which polls every 50 ms
    and so would round the set-up times up to that step.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, text=True)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    return proc.returncode, out or "", time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "quantfolio" / "__init__.py").is_file():
        return _fail(f"no quantfolio sources under {root / 'src'}; run from a checkout root")

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")),
              "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        setup_s = []
        for i in range(SETUP_PROBES if not args.trace else 0):
            code, _, seconds = _run(
                worker + ["--workdir", str(work / f"setup{i}"), "--setup-only"],
                env, remaining(), subprocess.DEVNULL)
            if code != 0:
                return _fail(f"set-up process exited with {code}")
            setup_s.append(seconds)
        spans_path = out_dir / f"{name}-spans.json"
        code, out, _ = _run(
            worker + ["--workdir", str(work / "run"), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--spans", str(spans_path)],
            env, remaining(), subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not out.strip():
        return _fail(f"worker exited with {code} (killed if negative; limit {DEADLINE_S} s)")
    run = json.loads(out.strip().splitlines()[-1])

    for message in run["failures"]:
        print(f"perfbench: failed op {message}", file=sys.stderr)
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = run["layers"]
        correct = failed == 0 and run["counts_repeated"]
        if not run["counts_repeated"]:
            print("perfbench: exact work counts differ between traced passes", file=sys.stderr)
    else:
        passes = run["untraced_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "ops_per_s": {"value": run["ok_untraced"] / sum(passes), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        correct = failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "pinned_env": PINNED_ENV, "environment": run["environment"],
        "setup_probes_s": setup_s, "untraced_pass_s": run["untraced_s"],
        "traced_pass_s": run.get("traced_s", []), "ops_per_pass": run["ops_per_pass"],
        "failures": run["failures"], "metrics": metrics,
    }
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
