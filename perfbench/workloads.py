"""The four benchmark workloads.

A workload is built from a seed and a scratch directory.  `setup` imports
seqassign and writes or draws the inputs; `steps` lists the timed steps of
one round, which performs the same operations every round; `collect`
(untimed) parses the outputs of a round and computes the references the
checks in checks.py compare with.

CLI-driven workloads call `seqassign.cli.main` in this process, looked up at
call time, so the traced run sees the wrapped function, and empty
seqassign's caches before each command, as a fresh process would have them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

import checks

P4_EDGES = [(1, 2), (2, 3), (3, 4)]
K4_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def states(n: int, m: int) -> int:
    """Configs of total <= n over m edges: the DP states of a table to n."""
    return math.comb(n + m, m)


def write_graph(path: Path, k: int, pairs) -> None:
    path.write_text(f"vertices {k}\n" + "".join(f"{u} {v}\n" for u, v in pairs))


def clear_caches() -> None:
    """Empty every functools cache in seqassign's modules, so that a command
    run in this process starts as cold as `seqassign <command>` does in a
    process of its own, and every round does the same work."""
    for name, mod in list(sys.modules.items()):
        if name == "seqassign" or name.startswith("seqassign."):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_cli(cli, argv) -> tuple[object, str]:
    """Run one CLI command in-process, starting from empty caches; returns
    (exit code or error, stdout)."""
    clear_caches()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except (Exception, SystemExit) as exc:  # one failed command is counted, not fatal
        rc = repr(exc)
    return rc, buf.getvalue()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class CliWorkload:
    """A workload whose round is a fixed list of `seqassign` commands."""

    outputs: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = seed
        self.dir = workdir
        self.small = small

    def setup(self) -> None:
        from seqassign import cli

        self.cli = cli

    @property
    def ops_per_round(self) -> int:
        return len(self.commands)

    def prepare_round(self) -> None:
        pass

    def steps(self) -> list:
        """The timed steps of one round, in order: one per command.  Each
        returns (output, number of failed operations)."""
        return [functools.partial(self._command, argv) for argv in self.commands]

    def _command(self, argv):
        rc, text = run_cli(self.cli, argv)
        return (rc, text), int(rc != 0)

    def digest(self, raw) -> str:
        h = hashlib.sha256(repr(raw).encode())
        for name in self.outputs:
            path = self.dir / name
            h.update(path.read_bytes() if path.exists() else b"missing")
        return h.hexdigest()

    def failed_ops(self, raw) -> list:
        return [(argv[0], rc) for argv, (rc, _) in zip(self.commands, raw) if rc != 0]


class DP(CliWorkload):
    """Exact value tables through `value argmax`, `phase --verify`, `window`
    and `conjecture`: K4 (six edges) and P4 past the size at which the
    composition cache stops fitting (about n=300)."""

    name = "dp"
    outputs = ("k4.tbl", "p4.tbl", "phase.csv", "window.csv", "conj.csv")
    check = staticmethod(checks.check_dp)

    def setup(self) -> None:
        super().setup()
        d = self.dir
        self.k4_n = 12 if self.small else 30
        self.phase_n = 60 if self.small else 310
        self.window_n = [64, 128, 200]
        self.conj_n = [50, 100, 150]
        # the seed relabels K4's vertices and orders its edge list
        rng = random.Random(self.seed)
        label = list(range(1, 5))
        rng.shuffle(label)
        pairs = [(label[u - 1], label[v - 1]) for u, v in K4_PAIRS]
        rng.shuffle(pairs)
        self.k4_edges = [tuple(sorted(p)) for p in pairs]
        write_graph(d / "k4.txt", 4, pairs)
        write_graph(d / "p4.txt", 4, P4_EDGES)
        p4 = d / "p4.txt"
        self.commands = [
            ["value", "argmax", "--graph", d / "k4.txt", "--n", self.k4_n, "--cache", d / "k4.tbl"],
            ["value", "argmax", "--graph", p4, "--n", 200, "--cache", d / "p4.tbl"],
            ["phase", "--graph", p4, "--n", self.phase_n, "--verify", "--out", d / "phase.csv"],
            ["window", "--graph", p4, "--n-list", ",".join(map(str, self.window_n)),
             "--a-grid", "0.5:2:0.5", "--out", d / "window.csv"],
            ["conjecture", "--k", 4, "--n-list", ",".join(map(str, self.conj_n)), "--out", d / "conj.csv"],
        ]
        self.units = (
            states(self.k4_n, 6)
            + states(200, 3)
            + states(self.phase_n, 3)
            + states(max(self.window_n), 3)
            + states(max(self.conj_n), 3)
        )

    def prepare_round(self) -> None:
        # with a cache file present the command would load instead of build
        for name in ("k4.tbl", "p4.tbl"):
            (self.dir / name).unlink(missing_ok=True)

    def collect(self, raw) -> dict:
        d = self.dir
        out = {"failed_ops": self.failed_ops(raw), "k4_edges": self.k4_edges, "p4_edges": P4_EDGES}
        if out["failed_ops"]:
            return out
        out["p4_argmax"] = last_json(raw[1][1])
        out["phase_summary"] = last_json(raw[2][1])
        _, out["p4_layers"] = checks.read_table_file(d / "p4.tbl")
        _, out["k4_layers"] = checks.read_table_file(d / "k4.tbl")
        out["k4_top_configs"] = checks.layer_configs(self.k4_n, 6)
        n = self.phase_n
        grid = np.full((n + 1, n + 1), np.nan)
        for m, l, p in read_csv(d / "phase.csv"):
            grid[int(m), int(l)] = float(p)
        out["phase_grid"] = grid
        out["exact_small"] = {
            "K4": checks.exact_values(4, self.k4_edges, 8),
            "P4": checks.exact_values(4, P4_EDGES, 8),
        }
        window: dict = {}
        for n_, a, kind, p_max, empty, _ in read_csv(d / "window.csv"):
            window.setdefault((int(n_), float(a)), {})[kind] = (float(p_max), empty == "1")
        out["window"] = window
        rows: dict = {}
        for n_, _j, s, target, _gap, _gsym in read_csv(d / "conj.csv"):
            entry = rows.setdefault(int(n_), ([], []))
            entry[0].append(float(s))
            entry[1].append(float(target))
        out["conjecture"] = [(n_, s, t) for n_, (s, t) in rows.items()]
        return out


class MonteCarlo(CliWorkload):
    """`simulate --strategy optimal` (batched table path) and `--strategy
    greedy` (serial loop) on the P4 game started at round(60 x*)."""

    name = "montecarlo"
    check = staticmethod(checks.check_montecarlo)

    def setup(self) -> None:
        super().setup()
        write_graph(self.dir / "p4.txt", 4, P4_EDGES)
        self.config = checks.largest_remainder(60, checks.canonical_point(4, P4_EDGES))
        self.runs = {"optimal": 2000 if self.small else 20000, "greedy": 300 if self.small else 2000}
        cfg = ",".join(map(str, self.config))
        self.commands = [
            ["simulate", "--graph", self.dir / "p4.txt", "--config", cfg, "--strategy", s,
             "--runs", r, "--seed", self.seed, "--format", "json"]
            for s, r in self.runs.items()
        ]
        self.units = sum(self.runs.values()) * sum(self.config)

    def collect(self, raw) -> dict:
        from seqassign import graph, simulate, strategies, values

        out = {"failed_ops": self.failed_ops(raw)}
        if out["failed_ops"]:
            return out
        out["optimal"], out["greedy"] = (last_json(text) for _, text in raw)
        g = graph.path_graph(4)
        table = values.compute_table(g, sum(self.config))
        out["value_at"] = values.value_at(table, self.config)
        out["optimal_recursion"] = checks.optimal_value(4, P4_EDGES, self.config)
        out["greedy_exact"] = checks.policy_value(4, P4_EDGES, self.config, checks.greedy_choice)
        prefix = 200
        out["replay_successes"] = sum(
            simulate.play(g, self.config, strategies.optimal_strategy(table),
                          simulate.child_rng(self.seed, i)).won
            for i in range(prefix)
        )
        out["prefix_estimate_successes"] = simulate.estimate(
            g, self.config, strategies.optimal_strategy(table), prefix, self.seed
        ).successes
        return out


class Steer(CliWorkload):
    """`steer` on P4 from n=400 to n1=50, starting away from the target so
    every drift-stage step goes through ray exits and max-flow kernels.

    A round is several `steer` commands on seeds derived from the run's seed,
    so that each timed step is short enough for the host reference around it
    to stand for the host's speed during it."""

    name = "steer"
    check = staticmethod(checks.check_steer)
    n, n1 = 400, 50
    start = (120, 136, 144)  # round(400 * (0.30, 0.34, 0.36))
    trace_runs, trace_steps = 3, 200  # steering_report's stage-1 diagnostics

    def setup(self) -> None:
        super().setup()
        from seqassign import geometry, graph, strategies

        write_graph(self.dir / "p4.txt", 4, P4_EDGES)
        g = graph.load_graph(self.dir / "p4.txt")
        self.z = geometry.x_star(g)
        # construct the strategy once: validates that the target is interior
        strategies.SteerExact(g, strategies.SteerPlan(z=self.z, n1=self.n1))
        parts, self.runs = (2, 20) if self.small else (8, 15)
        self.outputs = tuple(f"steer-{j}.json" for j in range(parts))
        self.commands = [
            ["steer", "--graph", self.dir / "p4.txt", "--n", self.n, "--n1", self.n1,
             "--config", ",".join(map(str, self.start)), "--runs", self.runs,
             "--seed", self.seed * parts + j, "--out", self.dir / out]
            for j, out in enumerate(self.outputs)
        ]
        self.units = parts * (self.runs * (self.n - self.n1) + self.trace_runs * self.trace_steps)

    def collect(self, raw) -> dict:
        out = {"failed_ops": self.failed_ops(raw), "n1": self.n1,
               "z": checks.canonical_point(4, P4_EDGES)}
        if not out["failed_ops"]:
            out["reports"] = [json.loads((self.dir / name).read_text()) for name in self.outputs]
        return out


class Region:
    """classify_point, boundary_distance, membership_flow, ray_exit and
    clip_to_region on seeded Dirichlet(1) points of K5 and K6."""

    name = "region"
    check = staticmethod(checks.check_region)
    calls = ("classify_point", "boundary_distance", "membership_flow", "ray_exit", "clip_to_region")

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = seed
        self.sizes = {5: 20, 6: 10} if small else {5: 200, 6: 100}

    def setup(self) -> None:
        from seqassign import errors, geometry, graph

        self.geo, self.errors = geometry, errors
        rng = np.random.default_rng(self.seed)
        self.graphs = {}
        for k, count in self.sizes.items():
            g = graph.complete_graph(k)
            self.graphs[f"K{k}"] = (g, geometry.x_star(g), rng.dirichlet(np.ones(g.m), count))
        self.ops_per_round = len(self.calls) * sum(self.sizes.values())
        self.units = self.ops_per_round

    def prepare_round(self) -> None:
        pass

    def steps(self) -> list:
        """The timed steps of one round: one per graph."""
        return [functools.partial(self._graph_step, *self.graphs[name]) for name in self.graphs]

    def _graph_step(self, g, xs, points):
        geo = self.geo
        res, failed = {c: [] for c in self.calls}, 0
        for x in points:
            for call, args in (
                ("classify_point", (g, x)),
                ("boundary_distance", (g, x)),
                ("membership_flow", (g, x)),
                ("ray_exit", (g, xs, x - xs)),
                ("clip_to_region", (g, x)),
            ):
                try:
                    res[call].append(getattr(geo, call)(*args))
                except self.errors.SeqAssignError as exc:
                    res[call].append(exc)
                    failed += 1
        return res, failed

    def digest(self, raw) -> str:
        h = hashlib.sha256()
        for res in raw:
            for c in res["classify_point"]:
                h.update(repr((c.kind.value, c.subset, c.slack)).encode())
            h.update(repr(res["boundary_distance"]).encode())
            for value, kernel in res["membership_flow"]:
                h.update(repr(value).encode() + (b"-" if kernel is None else kernel.q.tobytes()))
            for y, t, sub in res["ray_exit"]:
                h.update(y.tobytes() + repr((t, sub)).encode())
            for y in res["clip_to_region"]:
                h.update(np.asarray(y).tobytes())
        return h.hexdigest()

    def collect(self, raw) -> dict:
        out = {"failed_ops": 0, "graphs": {}}
        for (name, (g, _, points)), res in zip(self.graphs.items(), raw):
            bad = [r for c in self.calls for r in res[c] if isinstance(r, Exception)]
            if bad:
                out["failed_ops"] += len(bad)
                continue
            out["graphs"][name] = {
                "subsets": checks.Subsets(g.k, g.edges),
                "points": points,
                "kind": [c.kind.value for c in res["classify_point"]],
                "boundary_distance": res["boundary_distance"],
                "flow_value": [v for v, _ in res["membership_flow"]],
                "kernel": [None if q is None else q.q for _, q in res["membership_flow"]],
                "ray_exit": [y for y, _, _ in res["ray_exit"]],
                "clip": [np.asarray(y) for y in res["clip_to_region"]],
            }
        return out


WORKLOADS = {w.name: w for w in (DP, MonteCarlo, Steer, Region)}


def run_round(wl) -> tuple[list, int]:
    """Run one round untimed; returns (outputs in step order, failed operations)."""
    wl.prepare_round()
    raw, failed = [], 0
    for step in wl.steps():
        out, n_failed = step()
        raw.append(out)
        failed += n_failed
    return raw, failed
