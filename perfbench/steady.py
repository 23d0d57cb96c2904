"""Steadiness check: run every workload on several seeds and report, per
end-to-end metric, the median and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1:10 --label a          # one set
    python3 perfbench/steady.py --seeds 11:20 --label b
    python3 perfbench/steady.py --compare a b                    # two sets

A set is saved as perfbench/out/steady-<label>.json.  A metric is steady
when its spread stays within a third of its bound (setup_s excepted), and
two sets agree when each median moved by less than the bound and the share
of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_set(workloads, seeds, seconds) -> dict:
    runs: dict = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            for line in lines:  # the unscaled figures, kept for comparison
                if " unscaled: " in line:
                    for part in line.split(": ", 1)[1].split(", "):
                        key, value = part.split(" = ")
                        res[key] = float(value.split()[0])
            res["seed"] = seed
            res["wall_s"] = time.monotonic() - t0
            runs[w].append(res)
            vals = ", ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} {vals} wall={res['wall_s']:.1f}s", flush=True)
    return runs


def summarise(runs: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    table = {}
    for w, results in runs.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = None if name == "setup_s" else bound / 3
            ok = limit is None or spread < limit
            table[(w, name)] = med
            print(f"{w:11s} {name:12s} median {med:12.6g}  spread {spread:6.2%}  "
                  f"bound {bound:.0%}  {'ok' if ok else 'WIDE'}")
        for name in ("wall_work_per_s", "wall_setup_s"):
            vals = [r[name] for r in results if name in r]
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                print(f"{w:11s} {name:16s} median {med:12.6g}  spread {(q3 - q1) / med:6.2%}  (unscaled)")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w:11s} failed share {sorted(shares)}  all correct: {all(r['correct'] for r in results)}")
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="dp,montecarlo,steer,region")
    ap.add_argument("--seeds", default="1:10")
    ap.add_argument("--label", default="a")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        sets = [json.loads((OUT / f"steady-{lab}.json").read_text()) for lab in args.compare]
        medians = [summarise(s) for s in sets]
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec()["end_to_end"]}
        for key in medians[0]:
            a, b = medians[0][key], medians[1][key]
            bound, better = bounds[key[1]]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            print(f"{key[0]:11s} {key[1]:12s} {a:12.6g} -> {b:12.6g}  worse by {worse:7.2%}  "
                  f"{'ok' if worse <= bound else 'REGRESSED'}")
        return 0
    OUT.mkdir(exist_ok=True)
    runs = run_set(args.workloads.split(","), parse_seeds(args.seeds), spec()["run_seconds"])
    (OUT / f"steady-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n")
    summarise(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
