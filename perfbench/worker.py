"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py, which pins BLAS to one thread and puts the checkout's
`src` on PYTHONPATH.  `--t0` is the parent's CLOCK_MONOTONIC reading taken
just before this process was spawned, so setup_s covers interpreter start,
`import seqassign`, input files and strategy construction.

    python3 perfbench/worker.py --workload dp --seed 1 --seconds 20 --trace 0 \
        --t0 <monotonic> --out perfbench/out [--setup-only]

Rounds repeat until `--seconds` have passed.  The fixed reference
computation of hostref.py runs before each timed step and after the last
one; each step's time is scaled by the mean of its two neighbouring
reference samples, so the host's speed drift cancels.  work_per_s is the
median of the per-round rates on the scaled times, setup_s is scaled by the
reference run right after set-up, and both are also reported unscaled
(`wall_*`).  peak_rss_mb is ru_maxrss at the end of the first round.  With `--trace 1` rounds alternate between traced and untraced,
starting traced so that the first table build's RSS growth is seen; both
medians are reported, so the tracing overhead shows.  With `--trace 0` the
tracing module is never imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import checks
    from workloads import WORKLOADS

    workdir = Path(args.out) / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        wall_setup_s = time.monotonic() - args.t0
        import hostref

        ref = hostref.sample(0.0, min_calls=3)
        setup = {"setup_s": wall_setup_s * hostref.NOMINAL_S / ref, "wall_setup_s": wall_setup_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()

        rates = {False: [], True: []}  # scaled rates, keyed by "round was traced"
        wall_rates = []
        digests = []
        attempted = failed = 0
        traced = tracer is not None
        prev_dt = 0.0
        peak_rss_mb = None
        begin = time.monotonic()
        while True:
            wl.prepare_round()
            if traced:
                tracer.install()
            raw, wall, scaled = [], 0.0, 0.0
            ref_before = hostref.sample(prev_dt)
            for step in wl.steps():
                t0 = time.perf_counter()
                out, n_failed = step()
                dt = time.perf_counter() - t0
                ref_after = hostref.sample(dt)
                prev_dt = dt
                wall += dt
                scaled += dt * hostref.NOMINAL_S * 2 / (ref_before + ref_after)
                ref_before = ref_after
                raw.append(out)
                failed += n_failed
            if traced:
                tracer.uninstall()
            else:
                wall_rates.append(wl.units / wall)
            rates[traced].append(wl.units / scaled)
            if peak_rss_mb is None:
                # later rounds repeat the same work; their growth is heap
                # fragmentation that depends on how many rounds fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted += wl.ops_per_round
            digests.append(wl.digest(raw))
            if time.monotonic() - begin >= args.seconds and (tracer is None or rates[False]):
                break
            if tracer is not None:
                traced = not traced

        # every round repeats the same inputs, so the last round's outputs
        # stand for all of them once their digests agree
        failures = checks.rounds_identical(digests) + wl.check(wl.collect(raw))
        result = {
            "workload": wl.name,
            **setup,
            "work_per_s": statistics.median(rates[False]),
            "wall_work_per_s": statistics.median(wall_rates),
            "round_rates": rates[False],
            "units_per_round": wl.units,
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
        }
        if tracer:
            result["traced_work_per_s"] = statistics.median(rates[True])
            result["traced_round_rates"] = rates[True]
            result["per_layer"] = tracer.metrics(len(rates[True]))
            result["untraced_functions"] = tracer.missing
            tracer.save(Path(args.out) / f"trace-{wl.name}.npz")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
