"""Command-line front end.

Subcommands: region classify|flow, value table|at|argmax, phase, scan,
conjecture, window, steer, simulate.  Exit codes: 0 success, 2 input error,
3 resource budget exceeded, too little disk for --cache, or out of memory.

CSV files carry one fixed, documented header row per subcommand; JSON output
is a single object with "columns" and "rows" (tabular commands) or a report
object (steer, simulate, region, value).  Tables are written column by
column, floats with repr, bools as 1/0 and ints with str, so reruns with
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

import numpy as np

from . import experiments as exp
from .errors import (
    RESOURCE_ERRORS,
    DomainError,
    OutsideSimplex,
    SeqAssignError,
)
from .geometry import (
    RegionClass,
    RegionKind,
    check_simplex,
    check_weights,
    classify_point,
    membership_flow,
    x_star,
)
from .graph import Graph, load_graph
from .simulate import estimate
from .strategies import (
    DEFAULT_Q0,
    OutwardSteer,
    SteerPlan,
    baseline_strategy,
    optimal_strategy,
    steering_strategy,
)
from .values import (
    DEFAULT_BUDGET,
    ValueTable,
    argmax_config,
    check_config,
    downset_table,
    load_table,
    round_to_config,
    stream_bytes,
    stream_table,
    value_at,
    values_at,
)

DEFAULT_SEED = 0
DEFAULT_RUNS = 1000
REPORT = ("json",)  # the --format of a command that writes one JSON report


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _parse_ints(text: str) -> list[int]:
    """Comma list `40,60,80` or range `40:200:10` (inclusive end)."""
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise DomainError(f"bad range {text!r}")
        _require_positive("range step", [step])
        return _nonempty(text, list(range(lo, hi + 1, step)))
    return [int(v) for v in text.split(",")]


def _parse_float_grid(text: str) -> list[float]:
    if ":" in text:
        lo, hi, step = (float(v) for v in text.split(":"))
        _require_positive("range step", [step])
        grid = []
        v = lo
        while v <= hi + 1e-12:
            grid.append(round(v, 12))
            v += step
        return _nonempty(text, grid)
    return [float(v) for v in text.split(",")]


def _nonempty(text: str, values: list) -> list:
    if not values:
        raise DomainError(f"range {text!r} has no values")
    return values


def _load_weights(path: str | None):
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        vals = [float(v) for v in fh.read().split()]
    return np.array(vals)


def _point(g: Graph, spec: str) -> np.ndarray:
    if spec == "xstar":
        return x_star(g)
    return _parse_floats(spec)


def _require_positive(what: str, values) -> None:
    if any(v <= 0 for v in values):
        raise DomainError(f"{what} must be positive")


_CSV_BLOCK = 1 << 14  # table rows formatted and written at a time
# a block of fewer rows is formatted one Python string a cell: below about
# 512 rows of phase's columns that is the faster path (measured)
_SHORT = 512
_JSON_PIECE = 1 << 18  # characters of a JSON table read at a time by --verify
_VERIFY_BATCH = 1 << 10  # sampled rows --verify compares at a time
# phase's output: one block's m and l columns, cell slots and text measured
# about 190 bytes a row, and --verify's JSON piece split into rows or its
# batch no more than a block
_ROW_BYTES = 256


def phase_bytes(n: int) -> int:
    """Peak memory of phase at layer n when it streams: the stream that
    keeps layer n, and one output block of _CSV_BLOCK rows at _ROW_BYTES a
    row, which _table_for takes off the stream's budget.  A load from
    --cache is charged its layer instead."""
    return stream_bytes(3, n, [n]) + _ROW_BYTES * _CSV_BLOCK


def _emit(out: str | None, fmt: str, names, columns, summary=None) -> None:
    """Write a table given column by column, one sequence per name, or as a
    table that makes its columns a block at a time (see _blocks), in blocks
    of _CSV_BLOCK rows.  Each cell is written by its column's rule (see
    _cells); float64 and int64 columns get those bytes from seqassign._fmt
    without a Python string a cell."""
    if fmt == "csv":
        text = _csv_text(names, columns)
    else:
        text = _json_text(names, columns, summary)
    with _opened(out) as fh:
        fh.writelines(text)
    if summary is not None and fmt == "csv":
        sys.stdout.write(json.dumps(summary, sort_keys=True, default=_json_default) + "\n")


def _csv_text(names, columns):
    """The CSV text of a table: its header line, then its rows a block at a
    time, each block formatted only when it is written."""
    yield ",".join(names) + "\n"
    for block in _blocks(columns):
        yield _rows(block, "csv")


def _json_text(names, columns, summary):
    """The bytes json.dumps writes for {"columns": names, "rows": [...],
    "summary": summary} with sorted keys, the rows a block at a time."""
    yield '{"columns": ' + json.dumps(list(names), default=_json_default) + ', "rows": ['
    for i, block in enumerate(_blocks(columns)):
        yield (", " if i else "") + _rows(block, "json")
    yield "]"
    if summary is not None:
        yield ', "summary": ' + json.dumps(summary, sort_keys=True, default=_json_default)
    yield "}\n"


def _blocks(columns):
    """The table's rows, _CSV_BLOCK at a time, as lists of columns: those
    that columns.block(lo, hi) makes, for a table that has it (phase's
    PhaseGrid), else slices of the columns, whose rows end where the
    shortest column does."""
    if hasattr(columns, "block"):
        size, block = len(columns), columns.block
    else:
        columns = [np.asarray(col) for col in columns]
        size = min(map(len, columns), default=0)

        def block(lo, hi):
            return [col[lo:hi] for col in columns]

    for lo in range(0, size, _CSV_BLOCK):
        yield block(lo, min(lo + _CSV_BLOCK, size))


def _rows(block, fmt: str) -> str:
    """The text of a block of rows: CSV lines, or JSON row lists [a, b]
    joined by ", "."""
    sep = "," if fmt == "csv" else ", "
    if len(block[0]) < _SHORT:
        lines = map(sep.join, zip(*(_cells(col, fmt) for col in block)))
        if fmt == "csv":
            return "".join(line + "\n" for line in lines)
        return ", ".join(f"[{line}]" for line in lines)
    from . import _fmt  # loaded by the first large block, not by every command

    end = "\n" if fmt == "csv" else "], ["
    pieces = []
    for col in block:
        pieces += [_slots(col, fmt), sep.encode()]
    pieces[-1] = end.encode()
    text = _fmt.join_rows(pieces, len(block[0])).decode()
    return text if fmt == "csv" else "[" + text[: -len(end)] + "]"


def _slots(col: np.ndarray, fmt: str) -> np.ndarray:
    """The character slots of a column's cells (see seqassign._fmt)."""
    from . import _fmt

    if col.dtype == np.float64:
        slots = _fmt.float_cells(col)
        odd = np.flatnonzero(~np.isfinite(col))
        if odd.size:
            text = _fmt.text_cells(_cells(col[odd], fmt))
            slots[:, odd] = 0
            slots[: len(text), odd] = text
        return slots
    if col.dtype == np.int64:
        return _fmt.int_cells(col)
    return _fmt.text_cells(_cells(col, fmt))


def _cells(col: np.ndarray, fmt: str) -> list[str]:
    """The rules every cell is written by.  CSV: a float with repr, a bool as
    1/0, anything else with str.  JSON: each value as json.dumps writes it
    (NaN, Infinity, true, quoted strings).  numpy scalars become Python
    scalars first."""
    values = col.tolist()
    if fmt == "json":
        return [json.dumps(v, sort_keys=True, default=_json_default) for v in values]
    if col.dtype.kind == "b":
        return ["1" if v else "0" for v in values]
    return list(map(float.__repr__ if col.dtype.kind == "f" else str, values))


@contextlib.contextmanager
def _opened(out: str | None):
    """The file out, opened for writing text, or stdout when out is None."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh


def _json_default(v):
    if isinstance(v, np.integer):
        return int(v)
    raise TypeError(f"cannot serialize {type(v)}")


def _emit_report(out: str | None, report: dict) -> None:
    text = json.dumps(report, sort_keys=True, default=_json_default) + "\n"
    with _opened(out) as fh:
        fh.write(text)


def _table_for(g: Graph, keep, args, beside: int = 0):
    """A table holding the layers in keep: read from --cache when the file
    reaches them under the same law, else streamed to the largest of them,
    and then every layer is written to --cache as it is made.  The path
    taken, load_table or stream_table, checks its own charge against the
    budget less the bytes the command holds beside the table."""
    n, budget = max(keep), DEFAULT_BUDGET - beside
    weights = _load_weights(getattr(args, "weights", None))
    cache = getattr(args, "cache", None)
    if cache:
        want = check_weights(g, weights)
        if os.path.exists(cache):
            stored = load_table(cache, g, keep=())
            if stored.n_max >= n and np.array_equal(stored.weights, want):
                return load_table(cache, g, keep, budget)
    return stream_table(g, n, weights, keep, cache, budget)


def parse_strategy(spec: str, g: Graph, config, args):
    if spec == "optimal":
        # no layer, only the graph, law and total: estimate builds the box
        # under config, the values a game from config reads
        w = check_weights(g, _load_weights(args.weights))
        return optimal_strategy(ValueTable(g, sum(config), w, layers=[]))
    if spec in ("uniform", "greedy"):
        return baseline_strategy(spec)
    kind, *fields = spec.split(":")
    forms = {"steer": "<z>:<n1>", "steer-k": "<z>:<n1>", "outward": "<A>"}
    form = forms.get(kind) if fields else None
    if form is None:
        raise DomainError(f"unknown strategy {spec!r}")
    if args.weights:
        # the steering kernels realize their targets under the uniform law only
        raise DomainError(f"strategy {spec!r} does not support --weights")
    if len(fields) != form.count(":") + 1:
        raise DomainError(f"strategy {spec!r} is not of the form {kind}:{form}")
    if kind == "outward":
        return OutwardSteer(g, amplitude=float(fields[0]))
    q0 = DEFAULT_Q0 if args.q0 is None else args.q0
    plan = SteerPlan(z=_point(g, fields[0]), n1=int(fields[1]), q0=q0)
    return steering_strategy(g, plan, "exact" if kind == "steer" else "k")


def _cmd_region(args) -> int:
    g = load_graph(args.graph)
    x = _point(g, args.point)
    # checked here, so a bad law is an input error and not an outside point
    weights = check_weights(g, _load_weights(args.weights))
    if args.mode == "classify":
        try:
            report = classify_point(g, x, weights).to_json(g.m)
        except OutsideSimplex:
            report = RegionClass(RegionKind.OUTSIDE_SIMPLEX, None, None).to_json(g.m)
    else:
        value, kernel = membership_flow(g, x, weights)
        report = {
            "flow_value": value,
            "in_region": kernel is not None,
            "kernel": None if kernel is None else kernel.q.tolist(),
        }
    _emit_report(args.out, report)
    return 0


def _cmd_value(args) -> int:
    # the one flag each mode does not read
    unused = {"table": "config", "at": "n", "argmax": "config"}[args.mode]
    if getattr(args, unused) is not None:
        raise DomainError(f"value {args.mode} does not use --{unused}")
    g = load_graph(args.graph)
    if args.mode == "table":
        if args.n is None or not args.cache:
            raise DomainError("value table needs --n and --cache")
        table = stream_table(g, args.n, _load_weights(args.weights), path=args.cache)
        _emit_report(args.out, {"n_max": args.n, "cache": args.cache, "graph_hash": table.hash})
        return 0
    if args.mode == "at":
        if args.config is None:
            raise DomainError("value at needs --config")
        config = check_config(g, [int(v) for v in args.config.split(",")]).tolist()
        if args.cache:
            table = _table_for(g, [sum(config)], args)
        else:
            table = downset_table(g, config, _load_weights(args.weights))
        _emit_report(args.out, {"config": config, "p": value_at(table, config)})
        return 0
    if args.n is None:
        raise DomainError("value argmax needs --n")
    table = _table_for(g, [args.n], args)
    cfg, val = argmax_config(table, args.n)
    _emit_report(args.out, {"n": args.n, "config": cfg.tolist(), "p": val})
    return 0


def _verify_rows(path: str, fmt: str, table, col: int, make_config) -> None:
    """Spot re-verification of a written table: re-read the file at `path`
    and compare every 100th row (rows 0, 100, 200, ...) bit-exactly with the
    table.  Column `col` holds the value; `make_config(row)` gives the config
    it belongs to.  Only the sampled rows are split or parsed: a CSV file is
    read line by line, a JSON file a piece at a time (see _json_rows), and
    they are compared _VERIFY_BATCH at a time.  Raises SeqAssignError naming
    the first mismatching row."""
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "csv":
            sampled = itertools.islice(fh, 1, None, 100)
            rows = (line.rstrip("\n").split(",") for line in sampled)
        else:
            rows = (json.loads(f"[{row}]") for row in _every_100th(_json_rows(fh)))
        while batch := list(itertools.islice(rows, _VERIFY_BATCH)):
            emitted = np.array([float(row[col]) for row in batch])
            expected = values_at(table, [make_config(row) for row in batch])
            bad = np.flatnonzero(emitted != expected)
            if bad.size:
                raise SeqAssignError(f"verification mismatch on row {batch[bad[0]]}")


def _every_100th(pieces):
    """Rows 0, 100, 200, ... of rows given as consecutive lists."""
    skip = 0
    for rows in pieces:
        yield from rows[skip::100]
        skip = (skip - len(rows)) % 100


def _json_rows(fh):
    """The text of the rows of a JSON table file, without their brackets,
    as lists of consecutive rows, read _JSON_PIECE characters at a time.
    The rows array runs from `"rows": [[` to the first `]]`, since its rows
    hold numbers only, and they are separated by `], [`."""
    text = ""
    while '"rows": [[' not in text:
        piece = fh.read(_JSON_PIECE)
        if not piece:
            raise SeqAssignError('no "rows": [[ in the JSON table')
        text += piece
    text = text[text.index('"rows": [[') + len('"rows": [[') :]
    while True:
        end = text.find("]]")
        rows = text[: end if end >= 0 else len(text)].split("], [")
        if end >= 0:
            yield rows
            return
        text = rows.pop()  # may be cut short by the piece
        yield rows
        piece = fh.read(_JSON_PIECE)
        if not piece:
            raise SeqAssignError("the JSON rows array does not end")
        text += piece


def _check_verify(args) -> None:
    if args.verify and not args.out:
        raise DomainError("--verify needs --out")


def _cmd_phase(args) -> int:
    _check_verify(args)
    g = load_graph(args.graph)
    _require_positive("n", [args.n])
    exp.check_phase_graph(g)
    table = _table_for(g, [args.n], args, _ROW_BYTES * _CSV_BLOCK)
    grid, summary = exp.phase_diagram(args.n, table)
    _emit(args.out, args.format, exp.PHASE_COLUMNS, grid, summary)
    if args.verify:
        n = args.n
        _verify_rows(
            args.out,
            args.format,
            table,
            2,
            lambda row: (int(row[0]), n - int(row[0]) - int(row[1]), int(row[1])),
        )
    return 0


def _cmd_scan(args) -> int:
    _check_verify(args)
    g = load_graph(args.graph)
    x = check_simplex(g, _point(g, args.point))  # before any layer is built
    n_list = _parse_ints(args.n_list)
    _require_positive("n-list entries", n_list)
    table = _table_for(g, n_list, args)
    rows, summary = exp.transition_scan(x, n_list, table)
    _emit(args.out, args.format, exp.SCAN_COLUMNS, zip(*rows), summary)
    if args.verify:
        _verify_rows(
            args.out, args.format, table, 1, lambda row: round_to_config(int(row[0]), x)
        )
    return 0


def _cmd_conjecture(args) -> int:
    rows, summary = exp.conjecture_scan(args.k, _parse_ints(args.n_list))
    _emit(args.out, args.format, exp.CONJECTURE_COLUMNS, zip(*rows), summary)
    return 0


def _cmd_window(args) -> int:
    g = load_graph(args.graph)
    n_list = _parse_ints(args.n_list)
    a_grid = _parse_float_grid(args.a_grid)
    _require_positive("n-list entries", n_list)
    _require_positive("A-grid entries", a_grid)
    table = _table_for(g, n_list, args)
    rows, summary = exp.window_collapse(n_list, a_grid, table)
    _emit(args.out, args.format, exp.WINDOW_COLUMNS, zip(*rows), summary)
    return 0


def _cmd_steer(args) -> int:
    g = load_graph(args.graph)
    _require_positive("n", [args.n])
    _require_positive("runs", [args.runs])
    z = _point(g, args.target)
    start = (
        np.array([int(v) for v in args.config.split(",")])
        if args.config
        else round_to_config(args.n, x_star(g))
    )
    if start.sum() != args.n:
        raise DomainError(f"--config totals {start.sum()}, not --n {args.n}")
    if args.n1 >= args.n:
        raise DomainError(f"--n1 {args.n1} must be below the start total {args.n}")
    if args.calibrate:
        if args.q0 is not None:
            raise DomainError("--q0 has no effect with --calibrate")
        q0 = exp.calibrate_q0(g, z, args.n1, start, seed=args.seed, kind=args.kind)
    else:
        q0 = DEFAULT_Q0 if args.q0 is None else args.q0
    plan = SteerPlan(z=z, n1=args.n1, q0=q0)
    report = exp.steering_report(
        g, plan, start, args.runs, args.seed, kind=args.kind
    )
    report["q0"] = q0
    _emit_report(args.out, report)
    return 0


def _cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    config = [int(v) for v in args.config.split(",")]
    if args.q0 is not None and not args.strategy.startswith(("steer:", "steer-k:")):
        raise DomainError(f"strategy {args.strategy!r} does not use --q0")
    strategy = parse_strategy(args.strategy, g, config, args)
    weights = _load_weights(args.weights)
    est = estimate(g, config, strategy, args.runs, args.seed, weights)
    _emit_report(args.out, est.to_json(g, config, args.strategy, args.seed))
    return 0


def _add_common(p, weights=False, cache=False, runs=False, formats=("csv", "json")):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])
    if weights:
        p.add_argument("--weights", default=None, help="vertex-weight file (k floats)")
    if cache:
        p.add_argument("--cache", default=None, help="value-table cache path")
    if runs:
        p.add_argument("--runs", type=int, default=DEFAULT_RUNS)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _region_args(p) -> None:
    p.add_argument("mode", choices=["classify", "flow"])
    p.add_argument("--graph", required=True)
    p.add_argument("--point", required=True, help="comma floats or 'xstar'")
    _add_common(p, weights=True, formats=REPORT)
    p.set_defaults(func=_cmd_region)


def _value_args(p) -> None:
    p.add_argument("mode", choices=["table", "at", "argmax"])
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--config", default=None, help="comma ints (for 'at')")
    _add_common(p, weights=True, cache=True, formats=REPORT)
    p.set_defaults(func=_cmd_value)


def _phase_args(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="re-read 1%% of --out's rows")
    _add_common(p, weights=True, cache=True)
    p.set_defaults(func=_cmd_phase)


def _scan_args(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--n-list", required=True, help="comma list or lo:hi:step")
    p.add_argument("--verify", action="store_true", help="re-read 1%% of --out's rows")
    _add_common(p, weights=True, cache=True)
    p.set_defaults(func=_cmd_scan)


def _conjecture_args(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)


def _window_args(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--a-grid", required=True, help="comma list or lo:hi:step")
    _add_common(p, cache=True)
    p.set_defaults(func=_cmd_window)


def _steer_args(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True, help="start total")
    p.add_argument("--n1", type=int, required=True, help="target total")
    p.add_argument("--target", default="xstar")
    p.add_argument("--config", default=None, help="start config (default round(n*xstar))")
    p.add_argument("--kind", choices=["exact", "k"], default="exact")
    p.add_argument("--q0", type=int, default=None)
    p.add_argument("--calibrate", action="store_true")
    _add_common(p, runs=True, formats=REPORT)
    p.set_defaults(func=_cmd_steer)


def _simulate_args(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--q0", type=int, default=None)
    _add_common(p, weights=True, runs=True, formats=REPORT)
    p.set_defaults(func=_cmd_simulate)


# name -> (help line, the function that adds its arguments), in help order
_SUBCOMMANDS = {
    "region": ("region membership of a simplex point", _region_args),
    "value": ("value table operations", _value_args),
    "phase": ("full probability grid for a 3-edge graph", _phase_args),
    "scan": ("decay/convergence scan along a fixed point", _scan_args),
    "conjecture": ("path-graph argmax partial sums", _conjecture_args),
    "window": ("critical-window slice maxima", _window_args),
    "steer": ("steering report", _steer_args),
    "simulate": ("Monte Carlo estimate for a strategy", _simulate_args),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of `argv`: every subcommand is listed, and each gets its
    arguments unless argv's first word names another, whose parser is then
    the only one argparse reads."""
    ap = argparse.ArgumentParser(prog="seqassign")
    sub = ap.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, (text, add_args) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if named in (None, name):
            add_args(p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (SeqAssignError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
