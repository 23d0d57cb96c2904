"""Self-test of the benchmark's checks: each check must pass on real outputs
and fail on a corrupted copy (one perturbed table entry, one flipped success
count, one swapped class, ...).

    python3 perfbench/selftest.py

Runs one small round of each workload (about a minute in all) and exits 0
when every corruption is caught by the check it targets.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, run_round  # noqa: E402

SEED = 3  # a seed whose small steering round hits the target at least once


def bump(arr, i, eps):
    arr = np.array(arr, copy=True)
    arr.flat[i] += eps
    return arr


def dp_corruptions(out):
    def paper_max(o):
        o["p4_argmax"]["p"] += 1e-6

    def reversal(o):
        o["phase_grid"][3, 10] += 1e-9

    def k4_symmetry(o):
        layers = list(o["k4_layers"])
        layers[-1] = bump(layers[-1], 5, 1e-9)
        o["k4_layers"] = layers

    def small_layers(o):
        layers = list(o["k4_layers"])
        layers[5] = bump(layers[5], 7, 1e-9)
        o["k4_layers"] = layers

    def slices(o):
        key = next(iter(o["window"]))
        kinds = o["window"][key]
        best = max((p, kind) for kind, (p, empty) in kinds.items() if not empty)[1]
        kinds[best] = (kinds[best][0], True)

    def conjecture(o):
        n, partial, target = o["conjecture"][-1]
        o["conjecture"][-1] = (n, [partial[0] + 3.0 / n, partial[1]], target)

    return [paper_max, reversal, k4_symmetry, small_layers, slices, conjecture]


def montecarlo_corruptions(out):
    def optimal_4sigma(o):
        rep = o["optimal"]
        rep["successes"] += int(5 * np.sqrt(rep["runs"] * 0.25)) + 1

    def greedy_4sigma(o):
        rep = o["greedy"]
        rep["successes"] -= int(5 * np.sqrt(rep["runs"] * 0.25)) + 1

    def greedy_le_optimal(o):
        o["greedy_exact"] = o["optimal_recursion"] + 1e-9

    def prefix_replay(o):
        o["replay_successes"] += 1

    return [optimal_4sigma, greedy_4sigma, greedy_le_optimal, prefix_replay]


def steer_corruptions(out):
    def tail0(o):
        rep = o["reports"][0]
        rep["tail_p"][0] -= 1.0 / rep["runs"]

    def tail_monotone(o):
        tail = o["reports"][-1]["tail_p"]
        tail[1], tail[2] = tail[2], tail[1] + 0.01

    def wilson(o):
        for rep in o["reports"]:
            rep["hits"] = 0

    def drift_flags(o):
        o["reports"][0]["stage1_positive_drift_flags"] = 1

    def target_config(o):
        cfg = o["reports"][-1]["target_config"]
        cfg[0], cfg[1] = cfg[0] - 1, cfg[1] + 1

    return [tail0, tail_monotone, wilson, drift_flags, target_config]


def region_corruptions(out):
    res = out["graphs"]["K6"]
    slack = [res["subsets"].min_slack(x) for x in res["points"]]
    inner = next(i for i, s in enumerate(slack) if s > 1e-6)
    outer = next(i for i, s in enumerate(slack) if s < -1e-6)

    def agree(o):
        o["graphs"]["K6"]["kind"][inner] = "Inaccessible"

    def bd_sign(o):
        o["graphs"]["K6"]["boundary_distance"][outer] *= -1

    def kernel(o):
        q = o["graphs"]["K6"]["kernel"][inner].copy()
        e = int(np.flatnonzero(q[0])[0])
        q[0, e] += 1e-6
        o["graphs"]["K6"]["kernel"][inner] = q

    def ray_exit(o):
        o["graphs"]["K6"]["ray_exit"][inner] = o["graphs"]["K6"]["points"][inner]

    def clip(o):
        o["graphs"]["K6"]["clip"][outer] = o["graphs"]["K6"]["points"][outer]

    return [agree, bd_sign, kernel, ray_exit, clip]


CORRUPTIONS = {
    "dp": dp_corruptions,
    "montecarlo": montecarlo_corruptions,
    "steer": steer_corruptions,
    "region": region_corruptions,
}


def main() -> int:
    missed = []
    if checks.rounds_identical(["a", "a"]) or not checks.rounds_identical(["a", "b"]):
        missed.append("rounds_repeat")
    for name, make in CORRUPTIONS.items():
        workdir = HERE / "out" / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = WORKLOADS[name](SEED, workdir, small=True)
            wl.setup()
            raw, failed = run_round(wl)
            out = wl.collect(raw)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        base = wl.check(out)
        if failed or base:
            print(f"{name}: checks fail on uncorrupted outputs: {base}")
            missed.append(name)
            continue
        for corrupt in make(out):
            bad = copy.deepcopy(out)
            corrupt(bad)
            caught = [f for f in wl.check(bad) if f.startswith(corrupt.__name__ + ":")]
            print(f"{name}.{corrupt.__name__}: {'caught' if caught else 'MISSED'}")
            if not caught:
                missed.append(f"{name}.{corrupt.__name__}")
    print("selftest:", "ok" if not missed else f"missed {missed}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
