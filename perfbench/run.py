"""seqassign benchmark: one command for the four workloads.

    python3 perfbench/run.py --workload dp|montecarlo|steer|region|all \
        --seed 1 --seconds 20 --trace 0|1

Each workload runs in its own single-threaded Python process (worker.py)
with BLAS pinned to one thread.  With `--trace 0` the result carries the
end-to-end metrics: work_per_s and peak_rss_mb from the measuring process,
and setup_s as the median over it and several fresh processes that only set
up; both timings are host-scaled (see hostref.py).  With `--trace 1`
one process alternates traced and untraced rounds; the result carries the
per-layer metrics of the traced rounds and both work rates, so the tracing
overhead shows.

Every metric is printed by name with its unit; the last line of standard
output is the result as one JSON object.  Results and traces are written
under perfbench/out/.  Exit code 0 means a result was printed; any other
code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dp", "montecarlo", "steer", "region")
SETUP_PROBES = 8  # setup-only processes per run, after one discarded warm-up
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(OUT)]
    if setup_only:
        argv.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if trace:
        run = spawn(name, seed, seconds, 1, deadline)
        runs = [run]
        metrics = dict(run["per_layer"])
        metrics["trace.work_per_s"] = run["traced_work_per_s"]
        metrics["trace.untraced_work_per_s"] = run["work_per_s"]
        metrics["trace.overhead"] = run["work_per_s"] / run["traced_work_per_s"] - 1.0
        import tracing  # imported by the parent only, for the unit table

        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        spawn(name, seed, seconds, 0, deadline, setup_only=True)  # warm-up: page cache, bytecode
        # half the probes before the measuring process and half after, so the
        # median spans the run rather than one moment of the host's speed
        def probe():
            return spawn(name, seed, seconds, 0, deadline, setup_only=True)

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        main_run = spawn(name, seed, seconds, 0, deadline)
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        runs = [main_run]
        metrics = {
            "work_per_s": main_run["work_per_s"],
            "setup_s": statistics.median([p["setup_s"] for p in setups + [main_run]]),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"{name} unscaled: wall_work_per_s = {main_run['wall_work_per_s']:.6g} 1/s, "
              f"wall_setup_s = {statistics.median([p['wall_setup_s'] for p in setups + [main_run]]):.6g} s")
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"{name}: check failed: {f}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "seqassign" / "__init__.py").is_file():
        print(f"error: no seqassign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            results[name] = res
            for metric, m in res["metrics"].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
            print(f"{name} attempted = {res['attempted']}, failed = {res['failed']}, "
                  f"correct = {res['correct']}")
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(res, indent=1) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
