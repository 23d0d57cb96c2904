"""The array formatter (seqassign._fmt) against its oracles: float.__repr__
for float64 cells, str for int64 cells, and a writer that builds every cell
as a Python string (CSV) or the whole payload with one json.dumps (JSON)
for the block writer of seqassign.cli."""

import io
import json
import re

import numpy as np
import pytest

import seqassign.cli as cli
from seqassign import _fmt
from seqassign.errors import SeqAssignError
from seqassign.graph import path_graph
from seqassign.values import rank_config, rank_configs, stream_table, value_at, values_at


def oracle_values(count: int, seed: int = 0) -> np.ndarray:
    """About `count` float64 values, half of them hard cases: random bit
    patterns over every exponent (subnormals included), powers of two and
    their neighbours (where the rounding interval is asymmetric), integers
    near 2^53, values on both sides of repr's 1e16 and 1e-4 switches and of
    every power of ten, short decimals, and both zeros; all with both
    signs."""
    rng = np.random.default_rng(seed)
    half = count // 2
    bits = rng.integers(0, 1 << 63, half, dtype=np.uint64, endpoint=True)
    exponent = rng.integers(0, 2047, half, dtype=np.uint64)  # 0 is subnormal
    bits = (bits & np.uint64((1 << 52) - 1)) | (exponent << np.uint64(52))
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = 10.0 ** np.arange(-323, 309)
    edges = np.concatenate([twos, tens, [1e16, 1e-4, 2.0**53]])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    steps = np.arange(-300, 300)
    near = np.concatenate([
        near,
        1e16 + 2.0 * steps,  # spacing 2 above 2^53
        1e-4 + steps * np.spacing(1e-4),
        float(2**53) + steps,
        rng.integers(1, 10**6, 20000) / 10.0 ** rng.integers(0, 12, 20000),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    ])
    rest = count - half - len(near)
    scaled = rng.random(rest) * 10.0 ** rng.integers(-30, 30, rest)
    values = np.concatenate([bits.view(np.float64), near, scaled])
    values[rng.random(len(values)) < 0.5] *= -1.0
    return values[np.isfinite(values)]


def formatted(x: np.ndarray) -> list[str]:
    return _fmt.join_rows([_fmt.float_cells(x), b"\n"], len(x)).decode().split("\n")[:-1]


def assert_repr(x: np.ndarray) -> None:
    got = formatted(x)
    want = list(map(float.__repr__, x.tolist()))
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want)
    assert not bad, [(float(x[i]), got[i], want[i]) for i in bad[:5]]


def test_float_cells_match_repr_on_a_million_values():
    x = oracle_values(1_000_000)
    assert len(x) >= 1_000_000
    assert_repr(x)


def test_float_cells_match_repr_on_the_benchmark_layer():
    layer = stream_table(path_graph(4), 310, keep=[310]).layer(310)
    assert len(layer) == 48516
    assert_repr(layer)


def test_float_cells_zeros_and_exponent_forms():
    x = np.array([0.0, -0.0, 1e16, 1e15, 1e-4, 1e-5, 123.0, 0.5, 5e-324, -1e100, 1e22])
    assert formatted(x) == [
        "0.0", "-0.0", "1e+16", "1000000000000000.0", "0.0001", "1e-05", "123.0",
        "0.5", "5e-324", "-1e+100", "1e+22",
    ]


@pytest.mark.parametrize(
    "fmt, spelled", [("csv", "nan inf -inf"), ("json", "NaN Infinity -Infinity")]
)
def test_non_finite_cells_follow_the_cell_rules(fmt, spelled):
    x = np.array([np.nan, np.inf, -np.inf, -2.5, 1e308 * 10, -1e-310])
    text = _fmt.join_rows([cli._slots(x, fmt), b"\n"], len(x)).decode().split()
    assert text == spelled.split() + ["-2.5", spelled.split()[1], "-1e-310"]


def test_exponent_tables_shift_within_a_word():
    t = _fmt._power_tables()
    assert ((t["dist"] > 0) & (t["dist"] < 64)).all()
    assert len(t["lo"]) == 2048


def test_int_cells_match_str():
    rng = np.random.default_rng(3)
    edges = [0, 1, -1, 9, 10, -10, 99, 100, np.iinfo(np.int64).max, np.iinfo(np.int64).min]
    powers = [s * 10**k + d for k in range(19) for d in (-1, 0, 1) for s in (1, -1)]
    x = np.concatenate([
        np.array(edges + powers, dtype=np.int64),
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20000, dtype=np.int64),
        rng.integers(-1000, 1000, 20000),
    ])
    text = _fmt.join_rows([_fmt.int_cells(x), b"\n"], len(x)).decode()
    assert text == "".join(f"{v}\n" for v in x.tolist())
    assert len(_fmt.int_cells(np.arange(0, 310))) == 4  # a sign and three digits
    assert _fmt.join_rows([_fmt.int_cells(np.zeros(0, dtype=np.int64))], 0) == b""


def reference_csv(names, columns) -> str:
    """The CSV writer before block formatting: every cell a Python string."""
    cells = [cli._cells(np.asarray(col), "csv") for col in columns]
    return ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def reference_json(names, columns, summary) -> str:
    rows = [list(row) for row in zip(*(np.asarray(col).tolist() for col in columns))]
    payload = {"columns": list(names), "rows": rows}
    if summary is not None:
        payload["summary"] = summary
    return json.dumps(payload, sort_keys=True, default=cli._json_default) + "\n"


def mixed_table(n: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    floats = rng.random(n) * 10.0 ** rng.integers(-8, 20, n)
    floats[rng.random(n) < 0.2] = np.nan
    floats[rng.random(n) < 0.1] = np.inf
    floats[rng.random(n) < 0.1] = -np.inf
    names = ["n", "x", "kind", "y", "empty", "z"]
    columns = [
        rng.integers(-5000, 5000, n),
        floats,
        np.array(["I", "II", "III", 'q"uote'])[rng.integers(0, 4, n)],
        -rng.random(n),
        rng.random(n) < 0.5,
        np.arange(n) / 7.0,
    ]
    return names, columns


@pytest.mark.parametrize("n", [0, 1, 2, 29, 30, 31, 95])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_writer_matches_the_reference(n, fmt, tmp_path, monkeypatch):
    # blocks of 15 rows, of which those of 10 or more take the array path:
    # tables of no row, one row, a block edge and several mixed blocks
    monkeypatch.setattr(cli, "_CSV_BLOCK", 15)
    monkeypatch.setattr(cli, "_SHORT", 10)
    names, columns = mixed_table(n)
    summary = {"b": [1, 2.5], "a": np.int64(3)}
    path = tmp_path / f"t.{fmt}"
    cli._emit(str(path), fmt, names, columns, summary)
    if fmt == "csv":
        assert path.read_text() == reference_csv(names, columns)
    else:
        assert path.read_text() == reference_json(names, columns, summary)
        cli._emit(str(path), fmt, names, columns)
        assert path.read_text() == reference_json(names, columns, None)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_writer_on_full_blocks(fmt, tmp_path):
    # the default block size, crossed twice, with float and int columns
    rng = np.random.default_rng(9)
    n = 2 * cli._CSV_BLOCK + 3
    names = ["m", "l", "p"]
    columns = [np.arange(n), rng.integers(0, 10**6, n), rng.random(n) ** 40]
    path = tmp_path / f"t.{fmt}"
    cli._emit(str(path), fmt, names, columns, {"n": n})
    if fmt == "csv":
        assert path.read_text() == reference_csv(names, columns)
    else:
        assert path.read_text() == reference_json(names, columns, {"n": n})


@pytest.mark.parametrize("piece", [1, 2, 3, 7, 1 << 20])
def test_json_rows_read_in_pieces(piece, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_JSON_PIECE", piece)
    names, columns = ["a", "b"], [np.arange(40), np.arange(40) / 3.0]
    path = tmp_path / "t.json"
    cli._emit(str(path), "json", names, columns, {"k": [[1]]})
    with open(path, encoding="utf-8") as fh:
        rows = [row for piece in cli._json_rows(fh) for row in piece]
    assert rows == [f"{a}, {b!r}" for a, b in zip(range(40), (np.arange(40) / 3.0).tolist())]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "rows": []}', 'no "rows": [[ in the JSON table'),
        ('{"rows": [[1, 2], [3, 4', "the JSON rows array does not end"),
    ],
)
def test_json_rows_refuse_text_with_no_rows_array_or_no_end(text, message, monkeypatch):
    monkeypatch.setattr(cli, "_JSON_PIECE", 4)
    with pytest.raises(SeqAssignError, match=re.escape(message)):
        for _ in cli._json_rows(io.StringIO(text)):
            pass


def test_every_100th_row_across_pieces():
    pieces = [list(range(a, b)) for a, b in [(0, 1), (1, 150), (150, 150), (150, 199), (199, 420)]]
    assert list(cli._every_100th(pieces)) == [0, 100, 200, 300, 400]


def test_values_at_match_value_at():
    g = path_graph(4)
    table = stream_table(g, 20, keep=[7, 20])
    rng = np.random.default_rng(2)
    cfgs = []
    for total in (7, 20, 7, 20, 20):
        cuts = np.sort(rng.integers(0, total + 1, 2))
        cfgs.append([cuts[0], cuts[1] - cuts[0], total - cuts[1]])
    got = values_at(table, cfgs)
    assert got.tolist() == [value_at(table, c) for c in cfgs]
    assert rank_configs(cfgs).tolist() == [rank_config(c) for c in cfgs]
