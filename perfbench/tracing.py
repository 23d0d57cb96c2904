"""Span tracer for the traced benchmark run.

`Tracer.install` wraps seqassign's public functions in spans.  Modules bind
names directly (`from .geometry import membership_flow`), so each function is
replaced in every seqassign module, and the package itself, that binds it.
Each span records its name, start, end and parent span; spans stay in memory
(typed arrays) until `save` writes them out.  Only the traced run imports
this module.

A function that a later version of seqassign no longer has is skipped and
its metrics read 0.
"""

from __future__ import annotations

import functools
import math
import resource
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); several functions may share one span name
FUNCTIONS = [
    ("values", "compute_table", "values.compute_table"),
    ("values", "compositions", "values.compositions"),
    ("values", "rank_configs", "values.rank_configs"),
    ("values", "argmax_config", "values.reads"),
    ("values", "slice_max", "values.reads"),
    ("values", "value_at", "values.reads"),
    ("simulate", "child_rng", "simulate.child_rng"),
    ("simulate", "estimate", "simulate.estimate"),
    ("simulate", "play", "simulate.play"),
    ("simulate", "deviation_tail", "simulate.deviation_tail"),
    ("geometry", "membership_flow", "geometry.membership_flow"),
    ("geometry", "ray_exit", "geometry.ray_exit"),
    ("geometry", "min_slack", "geometry.min_slack"),
    ("geometry", "clip_to_region", "geometry.clip_to_region"),
    ("geometry", "classify_point", "geometry.classify_point"),
    ("geometry", "boundary_distance", "geometry.boundary_distance"),
    ("experiments", "steering_report", "experiments.steering_report"),
    ("experiments", "window_collapse", "experiments.window_collapse"),
    ("experiments", "conjecture_scan", "experiments.conjecture_scan"),
    ("experiments", "phase_diagram", "experiments.phase_diagram"),
    ("cli", "main", "cli.main"),
]
CONSTRUCTORS = [("strategies", "SteerExact"), ("strategies", "Stage1Steer")]

GEOMETRY_CALLS = ("membership_flow", "ray_exit", "min_slack", "clip_to_region")

# per-layer metric -> unit and better direction, in report order
PER_LAYER = {
    "values.compute_table_s": ("s", "lower"),
    "values.states_per_s": ("1/s", "higher"),
    "values.compositions_s": ("s", "lower"),
    "values.rank_configs_s": ("s", "lower"),
    "values.rank_configs_calls": ("count", "lower"),
    "values.reads_s": ("s", "lower"),
    "values.build_rss_over_required": ("ratio", "lower"),
    "simulate.child_rng_s": ("s", "lower"),
    "simulate.child_rng_calls": ("count", "lower"),
    "simulate.estimate_s": ("s", "lower"),
    "simulate.batch_play_s": ("s", "lower"),
    "simulate.play_calls": ("count", "lower"),
    "simulate.play_s": ("s", "lower"),
    "simulate.deviation_tail_s": ("s", "lower"),
    "strategies.choose_calls": ("count", "lower"),
    "strategies.choose_us": ("us", "lower"),
    "strategies.construct_s": ("s", "lower"),
    **{f"geometry.{c}_calls": ("count", "lower") for c in GEOMETRY_CALLS},
    **{f"geometry.{c}_us": ("us", "lower") for c in GEOMETRY_CALLS + ("classify_point", "boundary_distance")},
    "experiments.steering_report_s": ("s", "lower"),
    "experiments.window_collapse_s": ("s", "lower"),
    "experiments.conjecture_scan_s": ("s", "lower"),
    "experiments.phase_diagram_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.work_per_s": ("1/s", "higher"),
    "trace.untraced_work_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")  # states built (compute_table), 1 for table strategies (estimate)
        self.stack: list[int] = []
        self.builds: list[tuple[int, int]] = []  # (RSS growth, required_bytes) per compute_table
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _span(self, span_name: str, fn, tag=None, around=None):
        nid = self.name_ids.setdefault(span_name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.tag.append(tag(args, kwargs) if tag else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            before = around() if around else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if around:
                    self.builds.append((around() - before, self._required(args, kwargs)))

        return wrapper

    def _required(self, args, kwargs) -> int:
        g, n_max = _table_args(args, kwargs)
        values = sys.modules["seqassign.values"]
        req = getattr(values, "required_bytes", None)
        return req(g.m, n_max) if req else 8 * math.comb(n_max + g.m, g.m)

    def _replace(self, orig, wrapper) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "seqassign" or n.startswith("seqassign.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        self.missing = []
        for modname, attr, span_name in FUNCTIONS:
            mod = sys.modules.get(f"seqassign.{modname}")
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            tag = around = None
            if span_name == "values.compute_table":
                tag = _states_built
                around = _maxrss_bytes
            elif span_name == "simulate.estimate":
                table_cls = getattr(sys.modules["seqassign.strategies"], "TableStrategy", ())
                tag = lambda a, k, cls=table_cls: int(isinstance(a[2] if len(a) > 2 else k.get("strategy"), cls))
            self._replace(orig, self._span(span_name, orig, tag, around))
        strategies = sys.modules["seqassign.strategies"]
        for name, cls in vars(strategies).items():
            if isinstance(cls, type) and issubclass(cls, strategies.Strategy) and "choose" in vars(cls):
                self._patch_method(cls, "choose", "strategies.choose")
        for modname, clsname in CONSTRUCTORS:
            cls = getattr(sys.modules[f"seqassign.{modname}"], clsname, None)
            if cls is None:
                self.missing.append(f"{modname}.{clsname}")
                continue
            self._patch_method(cls, "__init__", "strategies.construct")

    def _patch_method(self, cls, attr: str, span_name: str) -> None:
        orig = vars(cls)[attr]
        setattr(cls, attr, self._span(span_name, orig))
        self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
        )

    # --- per-layer metrics ------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics; times (s) and counts are per round, so counts
        repeat exactly whatever the number of rounds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        tag = np.frombuffer(self.tag, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def sel(span_name, top=False):
            nid = self.name_ids.get(span_name, -1)
            mask = name == nid
            return mask & (parent_name != nid) if top else mask

        def total(span_name, values=dur, top=True):
            return float(values[sel(span_name, top)].sum()) / rounds

        def count(span_name, top=False):
            return int(sel(span_name, top).sum()) / rounds

        def per_call_us(span_name, values=dur, top=False):
            n = count(span_name, top)
            return total(span_name, values, top=False) / n * 1e6 if n else 0.0

        build_s = total("values.compute_table")
        built = float(tag[sel("values.compute_table", True)].sum()) / rounds
        out = {
            "values.compute_table_s": build_s,
            "values.states_per_s": built / build_s if build_s else 0.0,
            "values.compositions_s": total("values.compositions"),
            "values.rank_configs_s": total("values.rank_configs"),
            "values.rank_configs_calls": count("values.rank_configs"),
            "values.reads_s": total("values.reads"),
            "values.build_rss_over_required": max((g / r for g, r in self.builds if r), default=0.0),
            "simulate.child_rng_s": total("simulate.child_rng"),
            "simulate.child_rng_calls": count("simulate.child_rng"),
            "simulate.estimate_s": total("simulate.estimate"),
            "simulate.batch_play_s": float(own[sel("simulate.estimate") & (tag == 1)].sum()) / rounds,
            "simulate.play_calls": count("simulate.play"),
            "simulate.play_s": total("simulate.play"),
            "simulate.deviation_tail_s": total("simulate.deviation_tail"),
            "strategies.choose_calls": count("strategies.choose", top=True),
            "strategies.choose_us": per_call_us("strategies.choose", own, top=True),
            "strategies.construct_s": total("strategies.construct"),
        }
        for c in GEOMETRY_CALLS:
            out[f"geometry.{c}_calls"] = count(f"geometry.{c}")
        for c in GEOMETRY_CALLS + ("classify_point", "boundary_distance"):
            out[f"geometry.{c}_us"] = per_call_us(f"geometry.{c}")
        for c in ("steering_report", "window_collapse", "conjecture_scan", "phase_diagram"):
            out[f"experiments.{c}_s"] = total(f"experiments.{c}")
        out["cli.self_s"] = float(own[sel("cli.main")].sum()) / rounds
        return out


def _states_built(args, kwargs) -> int:
    g, n_max = _table_args(args, kwargs)
    return math.comb(n_max + g.m, g.m)


def _table_args(args, kwargs):
    g = args[0] if args else kwargs["g"]
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    return g, n_max
