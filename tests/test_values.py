import errno
import hashlib
import io
import itertools
import math
import os
import shutil
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from seqassign.errors import (
    RESOURCE_ERRORS,
    DiskSpaceExceeded,
    DomainError,
    FormatMismatch,
    GraphHashMismatch,
    IoFailure,
    LayerOutOfRange,
    MemoryBudgetExceeded,
    NegativeEntry,
)
from seqassign.geometry import check_weights, face_values, x_star
import seqassign.values as values_module
from seqassign.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from seqassign.simulate import estimate, policy_bytes
from seqassign.strategies import TableStrategy
from seqassign.values import (
    DEFAULT_BUDGET,
    LOSS,
    ValueTable,
    _chunk_starts,
    _configs,
    _layer_bars,
    _live,
    _next_layer,
    _unranker,
    active_faces,
    argmax_config,
    compute_table,
    downset_bytes,
    downset_table,
    graph_hash,
    layer_size,
    load_bytes,
    load_table,
    optimal_move,
    rank_config,
    required_bytes,
    round_to_config,
    save_table,
    slice_maxima,
    stream_bytes,
    stream_table,
    value_at,
    values_at,
)

from conftest import compositions, exact_value, rss_growth, unrank_config


# --- ranking ------------------------------------------------------------------


@pytest.mark.parametrize("m,total", [(2, 5), (3, 7), (4, 5), (5, 4)])
def test_rank_bijection(m, total):
    cfgs = compositions(total, m)
    assert len(cfgs) == layer_size(total, m)
    for r, cfg in enumerate(cfgs):
        assert rank_config(cfg) == r
        assert unrank_config(r, total, m) == tuple(cfg)


def test_rank_last_coordinate_shift():
    # decrementing the last coordinate preserves the rank across layers
    for cfg in compositions(6, 3):
        if cfg[-1] > 0:
            child = cfg.copy()
            child[-1] -= 1
            assert rank_config(child) == rank_config(cfg)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_compositions_unrank_edges(m):
    # the vectorized unrank at the small totals, including the empty layer
    for total in range(13):
        cfgs = compositions(total, m)
        assert cfgs.shape == (layer_size(total, m), m)
        assert np.all(cfgs.sum(axis=1) == total)
        for r, row in enumerate(cfgs.tolist()):
            assert rank_config(row) == r
            assert unrank_config(r, total, m) == tuple(row)


def test_child_rank_shift_matches_scalar():
    # decrementing edge e maps the configs with n_e > 0, in rank order, onto
    # the ranks 0, 1, 2, ... of the layer below, for every edge.  Edge 0's
    # children are edge 1's one rank later, the last edge's live set is the
    # first layer_size(t-1, m) ranks, and _live masks the edges between
    total = 7
    for m in range(2, 9):
        cfgs = [unrank_config(r, total, m) for r in range(layer_size(total, m))]
        below = layer_size(total - 1, m)

        def child(cfg, e):
            if cfg[e] == 0:
                return None
            dec = list(cfg)
            dec[e] -= 1
            return rank_config(dec)

        for e in range(m):
            children = [c for c in (child(cfg, e) for cfg in cfgs) if c is not None]
            assert children == list(range(below))
        assert [child(cfg, 0) for cfg in cfgs] == [None] + [child(cfg, 1) for cfg in cfgs[:-1]]
        assert [cfg[m - 1] > 0 for cfg in cfgs] == [r < below for r in range(len(cfgs))]
        edges = []
        for e, live in enumerate(_live(total, m), 1):
            edges.append(e)
            assert live.tolist() == [cfg[e] > 0 for cfg in cfgs]
        assert edges == list(range(1, m - 1))


@pytest.mark.parametrize("m", range(2, 10))
def test_masks_and_chunk_offsets_are_prefixes(m, monkeypatch):
    # a rank does not depend on the last edge's count, so every layer's
    # masks are a prefix of a larger layer's, and so are their counts before
    # each multiple of _CHUNK: a stream builds both once, for its top layer.
    # Each mask marks all of the layer below; for m = 2 there is none
    monkeypatch.setattr(values_module, "_CHUNK", 37)
    top = {2: 30, 3: 60, 4: 25, 5: 14, 6: 12, 7: 9, 8: 8, 9: 7}[m]
    live = _live(top, m)
    starts = _chunk_starts(live)
    assert len(live) == len(starts) == m - 2
    for t in range(top + 1):
        n, below = layer_size(t, m), layer_size(t - 1, m)
        masks = _live(t, m)
        assert len(masks) == m - 2
        for mask, offsets, big, big_offsets in zip(masks, _chunk_starts(masks), live, starts):
            assert np.array_equal(mask, big[:n])
            chunks = -(-n // 37)
            assert np.array_equal(offsets[:chunks], big_offsets[:chunks])
            assert offsets[chunks] == np.count_nonzero(mask) == below


@pytest.mark.parametrize("m", range(2, 9))
def test_layer_bars_match_unrank(m):
    # the rows repeated along their lengths give every rank's bars, from the
    # one-config layer t = 0 up; for m = 2 a layer is a single row.  _unranker
    # finds the same configs for any ranks, in any order.  Edge 0's child
    # configs are edge 1's one rank later, the last edge is live on a prefix,
    # and _live masks edges 1..m-2
    for total in range(13):
        n = layer_size(total, m)
        ranks = np.arange(n)[:: 1 + n // 300][::-1]
        expect = np.array([unrank_config(int(r), total, m) for r in ranks]).reshape(-1, m)
        cfgs = _configs(_layer_bars(total, m), total)
        assert np.array_equal(cfgs[ranks], expect)
        unrank = _unranker(total, m)
        assert np.array_equal(unrank(ranks), expect)
        assert np.array_equal(unrank(np.arange(n)), cfgs)
        assert cfgs[0, 0] == 0
        live0 = cfgs[1:, 0] > 0
        assert np.array_equal(live0, cfgs[:-1, 1] > 0)
        dec0, dec1 = cfgs[1:][live0], cfgs[:-1][live0]
        dec0[:, 0] -= 1
        dec1[:, 1] -= 1
        assert np.array_equal(dec0, dec1)
        assert np.array_equal(cfgs[:, m - 1] > 0, np.arange(n) < layer_size(total - 1, m))
        live = _live(total, m)
        assert len(live) == m - 2
        for e, mask in enumerate(live, 1):
            assert np.array_equal(mask, cfgs[:, e] > 0)


def test_round_to_config(p4):
    assert list(round_to_config(60, x_star(p4))) == [23, 15, 22]
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.dirichlet(np.ones(4))
        n = int(rng.integers(1, 500))
        cfg = round_to_config(n, x)
        assert cfg.sum() == n
        assert np.all(cfg >= 0)
        assert np.abs(cfg - n * x).max() < 1.0


# --- table values -------------------------------------------------------------


def test_hand_values(p4, triangle, p4_table):
    assert value_at(p4_table, [0, 0, 0]) == 1.0
    assert value_at(p4_table, [1, 0, 0]) == 0.5
    assert value_at(p4_table, [1, 1, 1]) == 7 / 16
    assert value_at(p4_table, [1, 0, 1]) == 0.5
    tri_table = compute_table(triangle, 4)
    assert value_at(tri_table, [1, 1, 1]) == pytest.approx(2 / 3, abs=1e-15)


def test_values_in_unit_interval(p4_table):
    for layer in p4_table.layers[:50]:
        assert layer.min() >= 0.0
        assert layer.max() <= 1.0
    assert p4_table.layers[0][0] == 1.0


def test_negative_n_max_is_out_of_range(p4):
    with pytest.raises(LayerOutOfRange):
        compute_table(p4, -1)


def test_value_at_errors(p4_table):
    with pytest.raises(LayerOutOfRange):
        value_at(p4_table, [100, 100, 100])
    with pytest.raises(NegativeEntry):
        value_at(p4_table, [1, -1, 2])


def test_no_optimal_move_from_the_empty_config(p4_table):
    with pytest.raises(LayerOutOfRange, match="no move from the empty config"):
        optimal_move(p4_table, [0, 0, 0], 1)


def test_slice_maxima_refuses_a_non_positive_amplitude(p4_table):
    with pytest.raises(ValueError, match="amplitude must be positive"):
        slice_maxima(p4_table, 8, [0.5, 0.0])


def test_oracle_equivalence_small(p4, triangle, oracle):
    table_p4 = compute_table(p4, 4)
    for total in range(5):
        for cfg in compositions(total, 3):
            assert value_at(table_p4, cfg) == pytest.approx(
                oracle(p4, cfg), abs=1e-12
            )
    table_tri = compute_table(triangle, 3)
    for total in range(4):
        for cfg in compositions(total, 3):
            assert value_at(table_tri, cfg) == pytest.approx(
                oracle(triangle, cfg), abs=1e-12
            )


def test_exact_rational_oracle(p4, triangle):
    assert exact_value(p4, (1, 1, 1)) == Fraction(7, 16)
    assert exact_value(p4, (1, 0, 0)) == Fraction(1, 2)
    assert exact_value(triangle, (1, 1, 1)) == Fraction(2, 3)
    table = compute_table(p4, 10)
    for cfg in [(3, 2, 3), (4, 4, 2), (0, 5, 5)]:
        assert value_at(table, cfg) == pytest.approx(
            float(exact_value(p4, cfg)), abs=1e-14
        )


def test_exact_oracle_on_four_edges(c4):
    table = compute_table(c4, 8)
    rng = np.random.default_rng(12)
    for _ in range(25):
        total = int(rng.integers(1, 9))
        cfg = tuple(int(v) for v in rng.multinomial(total, np.full(4, 0.25)))
        assert value_at(table, cfg) == pytest.approx(
            float(exact_value(c4, cfg)), abs=1e-14
        )


def test_weighted_table_matches_fraction_oracle(p4):
    w = [0.5, 0.25, 0.125, 0.125]
    table = compute_table(p4, 5, weights=w)
    wf = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    for cfg in [(1, 0, 0), (1, 1, 1), (2, 1, 2), (0, 2, 3)]:
        assert value_at(table, cfg) == pytest.approx(
            float(exact_value(p4, cfg, weights=wf)), abs=1e-14
        )


# sha256 of layers 0..n in order, as little-endian float64: the digests
# BENCH_4.json records for these tables
LAYER_SHA256 = {
    "P4-200": (path_graph(4), 200, None,
               "d4c84ca2ce9b5cbc18af12deec965c158cc515d970fdc68caf8b34b8d3c641ed"),
    "P4-310": (path_graph(4), 310, None,
               "16b6506e9827dfbda5c5afc63838ccdb0571889791db965f08c4fffb92e88bc2"),
    "K4-30": (complete_graph(4), 30, None,
              "f5362c35c4b9871f520a1450c5e3a6921bb4701fc5aac2df6e07d6cde262dcc4"),
    "K5-9": (complete_graph(5), 9, None,
             "9aaf575726f7b6972fc287ef2ddc1337899425c4437665ceb1ed77f87cd2a0d0"),
    "C5-30": (cycle_graph(5), 30, None,
              "61ef3aa27b078ae98b51c0444143aa198564e03c29149f4f8df9c07d9e3f531c"),
    "S4-20": (star_graph(4), 20, None,
              "acadb68d151e67eac6145ef831ea563bcff3e87791805b784ee437bb377664f7"),
    "P3-80": (path_graph(3), 80, None,
              "874c64e0fe61e80c0fe78c1786efb170b7b61a11a23ddad9a0dd5b38e0052016"),
    "P4-120-weighted": (path_graph(4), 120, [0.1, 0.2, 0.3, 0.4],
                        "3173cb27d48e1194220a4ada71e2cec6830f80b6ad4e02f8c70bdef4a4cad844"),
}


@pytest.mark.parametrize("name", list(LAYER_SHA256))
def test_layer_hashes_pinned(name):
    g, n_max, weights, digest = LAYER_SHA256[name]
    h = hashlib.sha256()
    for layer in compute_table(g, n_max, weights).layers:
        h.update(np.asarray(layer, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name", list(LAYER_SHA256))
def test_streamed_cache_matches_pinned_layers(name, tmp_path):
    # the stream writes every layer as it is made, and keeps only the last
    g, n_max, weights, digest = LAYER_SHA256[name]
    path = tmp_path / "t.tbl"
    table = stream_table(g, n_max, weights, keep=[n_max], path=path)
    data = path.read_bytes()
    assert hashlib.sha256(data[len(data) - required_bytes(g.m, n_max):]).hexdigest() == digest
    save_table(compute_table(g, n_max, weights), tmp_path / "full.tbl")
    assert data == (tmp_path / "full.tbl").read_bytes()
    assert [t for t, layer in enumerate(table.layers) if layer is not None] == [n_max]


def test_martingale_identity_small(p4, p4_table):
    # stored values reproduce the recursion from the previous layer bit-exactly
    w = p4_table.weights
    for total in range(1, 12):
        for cfg in compositions(total, 3):
            prev = p4_table.layers[total - 1]
            acc = 0.0
            for v in range(1, 5):
                best = -1.0
                for e in p4.incidence[v - 1]:
                    if cfg[e] > 0:
                        child = cfg.copy()
                        child[e] -= 1
                        val = prev[rank_config(child)]
                        if val > best:
                            best = val
                acc += w[v - 1] * (0.0 if best < 0.0 else best)
            assert acc == p4_table.layers[total][rank_config(cfg)]


def test_layer_independence(monkeypatch):
    # a layer rebuilt from the one below alone, through the masks of layer
    # n_max sliced to its size and their chunk offsets, as a stream reads
    # them, is the table's bit for bit.  P4 has one masked edge, the star
    # two, C5 three and K4 four; chunks of 37 ranks end mid-row
    cases = [
        (path_graph(4), 200, (5, 60, 137)),
        (complete_graph(4), 16, (1, 3, 9, 15)),
        (cycle_graph(5), 24, (1, 4, 13, 23)),
        (star_graph(4), 24, (1, 4, 13, 23)),
    ]
    for chunk in (values_module._CHUNK, 37):
        monkeypatch.setattr(values_module, "_CHUNK", chunk)
        for g, n_max, layers in cases:
            table = compute_table(g, n_max)
            live = _live(n_max, g.m)
            starts = _chunk_starts(live)
            for t in layers:
                rebuilt = np.empty(layer_size(t, g.m))
                masks = [x[: len(rebuilt)] for x in live]
                _next_layer(g, table.weights, table.layers[t - 1], rebuilt, masks, starts)
                assert np.array_equal(rebuilt, table.layers[t]), (g.edges, chunk, t)


def reference_layers(g, n_max, weights):
    """Independent layered recursion: configs from itertools (bars and
    stars), children ranked by the scalar rank_config, accumulation in
    vertex order as in the table."""
    layers = [np.array([1.0])]
    for t in range(1, n_max + 1):
        prev = layers[-1]
        layer = np.full(math.comb(t + g.m - 1, g.m - 1), np.nan)
        for cut in itertools.combinations(range(t + g.m - 1), g.m - 1):
            cfg = [b - a - 1 for a, b in zip((-1,) + cut, cut + (t + g.m - 1,))]
            acc = 0.0
            for v in range(1, g.k + 1):
                best = -1.0
                for e in g.incidence[v - 1]:
                    if cfg[e] > 0:
                        child = list(cfg)
                        child[e] -= 1
                        best = max(best, prev[rank_config(child)])
                acc += weights[v - 1] * (0.0 if best < 0.0 else best)
            layer[rank_config(cfg)] = acc
        layers.append(layer)
    return layers


@pytest.mark.parametrize(
    "g, n_max, weights",
    [
        (path_graph(4), 60, None),
        (path_graph(3), 80, None),
        (complete_graph(4), 12, None),
        (cycle_graph(5), 16, None),
        (star_graph(4), 20, None),
        (path_graph(4), 30, [0.1, 0.2, 0.3, 0.4]),
    ],
    ids=["P4", "P3", "K4", "C5", "S4", "P4-weighted"],
)
def test_table_matches_reference_recursion(g, n_max, weights):
    table = compute_table(g, n_max, weights)
    ref = reference_layers(g, n_max, table.weights)
    assert len(table.layers) == len(ref)
    for t, (got, want) in enumerate(zip(table.layers, ref)):
        assert np.array_equal(got, want), f"layer {t}"


def test_memory_budget(p4):
    with pytest.raises(MemoryBudgetExceeded) as exc:
        compute_table(p4, 50, memory_budget=1000)
    assert exc.value.required_bytes > 1000


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize(
    "n, keep",
    [(40, ()), (40, (40,)), (40, (10, 25, 40)), (30, range(31))],
    ids=["none", "one", "three", "every"],
)
def test_stream_bytes_bounds_rss_growth(n, keep):
    # K4 to 40 runs layers of up to 1.2M states in 19 chunks, and every
    # layer of K4 to 30 is compute_table's build.  The growth measured
    # 0.81-0.85 of the estimate to 40; the margin is the estimate itself,
    # so a layer-sized working array that the guard does not count fails it
    growth, estimate = rss_growth(
        f"stream_table(g, {n}, keep={keep}); need = stream_bytes(g.m, {n}, {keep})"
    )
    assert 0 < growth <= estimate


STREAM_KEEPS = {"none": (), "top": (-1,), "two": (10, -1), "below-top": (10,), "every": None}


@pytest.mark.parametrize("cached", [False, True], ids=["memory", "cache"])
@pytest.mark.parametrize("keep", list(STREAM_KEEPS.values()), ids=list(STREAM_KEEPS))
@pytest.mark.parametrize(
    "g, n",
    [(path_graph(3), 2000), (path_graph(4), 300), (complete_graph(4), 24)],
    ids=["P3", "P4", "K4"],
)
def test_stream_peak_within_stream_bytes(g, n, keep, cached, tmp_path):
    # tracemalloc sees every numpy buffer and Python object: the stream's
    # peak, with its cache file's writes, stays under its guard, and its kept
    # layers and cache file carry compute_table's and save_table's bytes
    keep = range(n + 1) if keep is None else [n + 1 + t if t < 0 else t for t in keep]
    path = tmp_path / "t.tbl" if cached else None
    stream_table(g, 3, keep=[3], path=tmp_path / "warm.tbl")  # allocations of a first call
    tracemalloc.start()
    try:
        table = stream_table(g, n, keep=keep, path=path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stream_bytes(g.m, n, keep)
    full = compute_table(g, n)
    assert [t for t, layer in enumerate(table.layers) if layer is not None] == sorted(keep)
    for t in keep:
        assert table.layer(t).tobytes() == full.layer(t).tobytes()
    if cached:
        save_table(full, tmp_path / "full.tbl")
        assert path.read_bytes() == (tmp_path / "full.tbl").read_bytes()


def test_stream_holds_two_layer_buffers(p4):
    # the kept top layer is the rolling buffer of its parity: the stream fits
    # a budget below the bytes of the three layer-sized buffers that the kept
    # layer and two rolling buffers of the largest rolled layer took, and
    # its top layer is the one a stream that keeps layer n - 1 apart makes
    n = 600
    three = 8 * (layer_size(n, 3) + 2 * layer_size(n - 1, 3))
    need = stream_bytes(3, n, [n])
    tracemalloc.start()
    try:
        table = stream_table(p4, n, keep=[n], memory_budget=need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need < three
    apart = stream_table(p4, n, keep=[n - 1, n])
    assert table.layer(n).tobytes() == apart.layer(n).tobytes()


@pytest.mark.parametrize(
    "keep, build",
    [
        ([20], lambda g, budget: stream_table(g, 20, keep=[20], memory_budget=budget)),
        (range(21), lambda g, budget: compute_table(g, 20, memory_budget=budget)),
    ],
    ids=["one", "every"],
)
def test_stream_budget_one_byte_short(k4, keep, build):
    need = stream_bytes(k4.m, 20, keep)
    with pytest.raises(MemoryBudgetExceeded) as exc:
        build(k4, need - 1)
    assert exc.value.required_bytes == need
    assert build(k4, need).n_max == 20


def test_kept_layers_are_views_of_one_buffer(k4, tmp_path):
    # one buffer keeps freed working arrays from fragmenting between layers
    path = tmp_path / "t.tbl"
    full = compute_table(k4, 12)
    save_table(full, path)
    for table in (full, load_table(path, k4), stream_table(k4, 12, keep=[3, 7, 12])):
        kept = [layer for layer in table.layers if layer is not None]
        base = kept[0].base
        assert base is not None and all(layer.base is base for layer in kept)
        assert base.nbytes == sum(layer.nbytes for layer in kept)


@pytest.mark.parametrize(
    "g, n_max, weights, chunk",
    [
        (path_graph(4), 40, None, 37),
        (complete_graph(4), 12, None, 37),
        (cycle_graph(5), 14, None, 37),
        (star_graph(4), 16, [0.1, 0.2, 0.3, 0.15, 0.25], 37),
        (path_graph(3), 120, None, 37),
        (path_graph(4), 20, None, 1),
        (path_graph(3), 40, None, 1),
    ],
    ids=["P4", "K4", "C5", "S4-weighted", "P3", "P4-chunk-1", "P3-chunk-1"],
)
def test_chunked_layers_match_one_chunk(g, n_max, weights, chunk, monkeypatch):
    # each masked edge's slice of the layer below must advance, and edge 1's
    # last candidate carry into edge 0's first, across chunk boundaries,
    # which fall mid-row at a chunk of 37 ranks and at every rank at 1.  The
    # two-edge path P3 has no masked edge.  A stream's rolled layers are
    # scaled under the uniform law: the last edge's row is read from the
    # layer below in place where the chunk lies inside it, but for P3 that
    # row is edge 1's, which carries into edge 0, so it is still copied
    whole = compute_table(g, n_max, weights)
    monkeypatch.setattr(values_module, "_CHUNK", chunk)
    chunked = compute_table(g, n_max, weights)
    assert max(map(len, chunked.layers)) > 37
    for t, (a, b) in enumerate(zip(chunked.layers, whole.layers)):
        assert np.array_equal(a, b), f"layer {t}"
    keep = [n_max // 2, n_max - 1, n_max]
    streamed = stream_table(g, n_max, weights, keep=keep)
    for t in keep:
        assert np.array_equal(streamed.layers[t], whole.layers[t]), f"streamed layer {t}"


@pytest.mark.parametrize(
    "g, n_max",
    [
        (path_graph(4), 150),
        (cycle_graph(5), 20),
        (complete_graph(4), 14),
        (star_graph(4), 24),
        (complete_graph(3), 90),
        (path_graph(3), 2000),
    ],
    ids=["P4", "C5", "K4", "S4", "K3", "P3"],
)
def test_equal_law_stream_matches_weighted_table(g, n_max):
    # compute_table keeps every layer, so each takes the per-vertex multiply;
    # a stream scales each rolled layer by w once and only takes maxima and
    # sums after it.  Rounding is monotone, so both give the same bits, also
    # at K3's w = 1/3, which is not dyadic, and on P3's subnormal layers
    full = compute_table(g, n_max)
    for keep in ([n_max], [n_max // 3, n_max // 2, n_max]):
        streamed = stream_table(g, n_max, keep=keep)
        for t in keep:
            assert streamed.layer(t).tobytes() == full.layer(t).tobytes(), (keep, t)
    if g.m == 2:
        top = full.layer(n_max)
        assert ((top > 0.0) & (top < np.finfo(float).tiny)).any()


def test_stream_keeps_only_the_layers_asked_for(p4, p4_table, tmp_path):
    table = stream_table(p4, 120, keep=[30, 120])
    for t in (30, 120):
        assert np.array_equal(table.layer(t), p4_table.layers[t])
    assert argmax_config(table, 120)[1] == argmax_config(p4_table, 120)[1]
    assert value_at(table, [10, 10, 10]) == value_at(p4_table, [10, 10, 10])
    # a read of a layer that was not kept is refused, not a TypeError
    reads = [
        lambda: value_at(table, [10, 10, 11]),
        lambda: argmax_config(table, 60),
        lambda: slice_maxima(table, 60, [1.0]),
        lambda: optimal_move(table, [10, 10, 10], 2),
        lambda: table.layer(121),
        lambda: save_table(table, tmp_path / "t.tbl"),
    ]
    for read in reads:
        with pytest.raises(LayerOutOfRange):
            read()
    assert not (tmp_path / "t.tbl").exists()
    with pytest.raises(LayerOutOfRange):
        stream_table(p4, 20, keep=[21])
    with pytest.raises(LayerOutOfRange):
        stream_table(p4, 20, keep=[-1])


# --- moves and argmax -----------------------------------------------------------


def test_optimal_move_examples(p4, p4_table):
    assert optimal_move(p4_table, [1, 1, 1], 2) == 1  # middle edge: 1/2 beats 3/8
    assert optimal_move(p4_table, [1, 0, 0], 4) == LOSS
    assert optimal_move(p4_table, [2, 0, 0], 1) == 0


def test_optimal_move_tie_lowest_index(p4, p4_table):
    # symmetric state: vertices 2 and 3 see equal-valued children somewhere
    assert optimal_move(p4_table, [1, 2, 1], 3) in (1, 2)
    # construct an exact tie: config (1,0,1), vertex 2 must use edge 0
    assert optimal_move(p4_table, [1, 0, 1], 2) == 0


def test_argmax_trivial(p4_table):
    cfg, val = argmax_config(p4_table, 0)
    assert list(cfg) == [0, 0, 0]
    assert val == 1.0


def test_argmax_matches_scan(p4, p4_table, oracle):
    cfg, val = argmax_config(p4_table, 2)
    best = max(
        (oracle(p4, c), tuple(c)) for c in compositions(2, 3)
    )
    assert val == pytest.approx(best[0], abs=1e-12)


def test_argmax_fig1(p4_table):
    cfg, val = argmax_config(p4_table, 200)
    assert abs(val - 0.2583299) < 5e-7
    assert list(cfg) == [74, 52, 74]


def test_single_unit_layer_values(p4, triangle, p4_table):
    # one remaining unit: exactly the edge's two endpoints can serve it
    assert list(p4_table.layers[1]) == [0.5, 0.5, 0.5]
    tri = compute_table(triangle, 1)
    assert np.allclose(tri.layers[1], 2 / 3)


def test_conjecture_gap_at_large_n():
    from seqassign.experiments import conjecture_scan

    rows, summary = conjecture_scan(4, [200])
    for n, j, s, target, gap, gap_sym in rows:
        assert gap_sym <= 1.0 / math.sqrt(n)


@pytest.mark.parametrize("n_list", [[0], [10, 0], [-5]])
def test_conjecture_rejects_totals_below_one(n_list):
    from seqassign.experiments import conjecture_scan

    # a total of 0 divided the partial sums by zero
    with pytest.raises(DomainError, match="n-list"):
        conjecture_scan(4, n_list)


def test_window_refuses_a_weighted_table(p4):
    from seqassign.experiments import window_collapse

    # the slice faces use the uniform law's d(F)/k
    table = compute_table(p4, 16, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(DomainError, match="uniform vertex law"):
        window_collapse([16], [1.0], table=table)
    rows, _ = window_collapse([16], [1.0], table=compute_table(p4, 16, [0.25] * 4))
    assert len(rows) == 3


def test_scan_classifies_under_the_table_law(p4):
    from seqassign.experiments import transition_scan
    from seqassign.geometry import RegionKind, classify_point

    table = compute_table(p4, 40, [0.1, 0.2, 0.3, 0.4])
    # interior under the table's law, inaccessible under the uniform one
    assert classify_point(p4, [0.2, 0.3, 0.5]).kind is RegionKind.INACCESSIBLE
    for x in ([0.2, 0.3, 0.5], [0.05, 0.5, 0.45]):
        region = classify_point(p4, x, table.weights)
        _, summary = transition_scan(x, [20, 40], table)
        assert summary["class"] == region.kind.value
        assert summary.get("deficit", -region.slack) == -region.slack
    assert summary["class"] == RegionKind.INACCESSIBLE.value


def test_p4_xstar_value_is_the_layer_maximum_at_1000(p4):
    # c_G of P4: from n = 1000 on, the value at round(n x*) is the layer's
    # maximum to the last bit
    table = stream_table(p4, 1000, keep=[1000])
    value = value_at(table, (375, 250, 375))
    assert abs(value - 0.258326989847935) <= 1e-12
    assert value == float(table.layer(1000).max())


def test_phase_decay_outside_rectangle(p4_table):
    # far outside the critical rectangle the win probability is near zero
    assert value_at(p4_table, [30, 110, 60]) < 1e-3   # m/n = 0.15 < 1/4
    assert value_at(p4_table, [130, 40, 30]) < 1e-3   # m/n = 0.65 > 1/2
    assert value_at(p4_table, [40, 20, 140]) < 1e-3   # l/n = 0.70 > 1/2
    assert value_at(p4_table, [74, 52, 74]) > 0.25    # interior stays bounded away


def test_interior_convergence_diffs(p4, p4_table):
    xs = x_star(p4)
    ps = [value_at(p4_table, round_to_config(n, xs)) for n in (25, 50, 100, 200)]
    diffs = [abs(b - a) for a, b in zip(ps, ps[1:])]
    assert diffs[0] > diffs[1] > diffs[2]


# --- slices ---------------------------------------------------------------------


def test_slice_empty(p4_table):
    # slice II demands every face 8 sigma inside; impossible at tiny totals
    assert slice_maxima(p4_table, 4, [8.0])[0][1] is None


def test_slice_subset_of_layer(p4_table):
    full = argmax_config(p4_table, 200)[1]
    hit = slice_maxima(p4_table, 200, [1.0])[0][1]
    assert hit is not None
    assert hit <= full


def test_slice_predicate_recheck(p4, p4_table):
    hit = slice_maxima(p4_table, 100, [2.0])[0][0]
    faces = active_faces(p4)
    lmin = face_values(p4, faces, 100, compositions(100, 3)).min(axis=1)
    assert hit == p4_table.layers[100][lmin <= -2.0 * math.sqrt(100)].max()


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 14])
def test_slice_maxima_by_chunks_match_whole_layer(k4, monkeypatch, chunk):
    # the face minima of the whole layer at once, as an oracle for the
    # chunked maxima; amplitude 4 leaves slice II empty
    table = compute_table(k4, 12)
    monkeypatch.setattr(values_module, "_CHUNK", chunk)
    n, amps = 12, [0.25, 1.0, 4.0]
    lmin = face_values(k4, active_faces(k4), n, compositions(n, k4.m)).min(axis=1)
    vals = table.layers[n]
    expect = []
    for a in amps:
        cut = a * math.sqrt(n)
        kinds = (lmin <= -cut, lmin >= cut, (lmin > -cut) & (lmin < cut))
        expect.append(tuple(float(vals[s].max()) if s.any() else None for s in kinds))
    assert expect[2][1] is None
    assert slice_maxima(table, n, amps) == expect


def test_slices_partition_layer(p4, p4_table):
    n, amp = 60, 1.5
    counts = 0
    for kind in ("I", "II", "III"):
        L = face_values(p4, active_faces(p4), n, compositions(n, 3))
        lmin = L.min(axis=1)
        cut = amp * math.sqrt(n)
        if kind == "I":
            counts += int((lmin <= -cut).sum())
        elif kind == "II":
            counts += int((lmin >= cut).sum())
        else:
            counts += int(((lmin > -cut) & (lmin < cut)).sum())
    assert counts == layer_size(n, 3)


# --- the down-set table ------------------------------------------------------------


def box_configs(top):
    """The configs at or below top in index order (last edge fastest)."""
    return itertools.product(*(range(c + 1) for c in top))


@pytest.mark.parametrize(
    "g, top, weights",
    [
        (path_graph(4), (9, 6, 8), None),
        (cycle_graph(4), (4, 3, 5, 4), None),
        (complete_graph(4), (3, 2, 3, 1, 2, 3), None),
        (star_graph(3), (6, 4, 7), None),
        (path_graph(4), (7, 5, 8), [0.1, 0.2, 0.3, 0.4]),
        # a law that is not dyadic, and degree-3 vertices under unequal weights
        (cycle_graph(5), (3, 2, 3, 2, 3), None),
        (complete_graph(4), (2, 3, 2, 1, 2, 3), [0.1, 0.2, 0.3, 0.4]),
    ],
    ids=["P4", "C4", "K4", "K13", "P4-weighted", "C5", "K4-weighted"],
)
def test_downset_matches_full_table(g, top, weights):
    box = downset_table(g, top, weights)
    full = compute_table(g, sum(top), weights)
    want = np.array([value_at(full, c) for c in box_configs(top)])
    assert np.array_equal(box.values, want)


def test_downset_matches_exact_values(p4, c4):
    for g, top in ((p4, (4, 3, 5)), (c4, (3, 3, 3, 3))):
        box = downset_table(g, top)
        memo = {}
        for cfg in box_configs(top):
            assert value_at(box, cfg) == pytest.approx(
                float(exact_value(g, cfg, _memo=memo)), abs=1e-14
            )


def test_downset_optimal_move_matches_table(k4, p4, c4, k13):
    # K4 under the uniform law has many ties between edges
    cases = [
        (k4, (2, 1, 2, 1, 2, 1), None),
        (p4, (5, 3, 4), None),
        (c4, (3, 2, 3, 2), None),
        (k13, (4, 3, 5), None),
        (p4, (5, 4, 6), [0.1, 0.2, 0.3, 0.4]),
    ]
    for g, top, weights in cases:
        box = downset_table(g, top, weights)
        full = compute_table(g, sum(top), weights)
        for cfg in box_configs(top):
            if not any(cfg):
                continue
            for v in range(1, g.k + 1):
                assert optimal_move(box, cfg, v) == optimal_move(full, cfg, v)


def test_downset_rejects_configs_outside_the_box(p4):
    box = downset_table(p4, (3, 2, 3))
    assert value_at(box, (3, 2, 3)) == box.values[-1]
    with pytest.raises(LayerOutOfRange):
        value_at(box, (0, 3, 0))
    with pytest.raises(LayerOutOfRange):
        optimal_move(box, (4, 0, 0), 1)
    with pytest.raises(NegativeEntry):
        downset_table(p4, (3, -1, 3))
    with pytest.raises(LayerOutOfRange):
        estimate(p4, (3, 2, 3), TableStrategy(compute_table(p4, 7)), 1, 0)


def test_downset_budget_one_byte_short(k4):
    top = (3, 2, 3, 1, 2, 3)
    need = downset_bytes(k4.m, top)
    with pytest.raises(MemoryBudgetExceeded) as exc:
        downset_table(k4, top, memory_budget=need - 1)
    assert exc.value.required_bytes == need
    assert value_at(downset_table(k4, top, memory_budget=need), top) > 0.0


def test_default_budget_keeps_box_indices_in_int32():
    # the optimal walk's policy stores int32 state indices, and batched play
    # gathers at int32 positions state * k + v.  The policy costs 4k bytes a
    # state, so the budget admits fewer than 2**28 / k states: far below
    # 2**31 positions
    for k, m in ((3, 2), (4, 3), (4, 6), (25, 24)):
        assert policy_bytes(k, m, 2**28 // k) > DEFAULT_BUDGET


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_downset_bytes_bounds_rss_growth():
    top = (7, 8, 6, 9, 7, 8)
    growth, estimate = rss_growth(
        f"downset_table(g, {top}); need = downset_bytes(g.m, {top})"
    )
    assert 0 < growth <= estimate


# --- persistence ----------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, p4):
    table = compute_table(p4, 12)
    path = tmp_path / "p4.tbl"
    save_table(table, path)
    loaded = load_table(path, p4)
    assert loaded.n_max == 12
    assert np.array_equal(loaded.weights, table.weights)
    for a, b in zip(loaded.layers, table.layers):
        assert np.array_equal(a, b)


def test_save_load_weighted_roundtrip(tmp_path, p4):
    w = [0.4, 0.3, 0.2, 0.1]
    table = compute_table(p4, 6, weights=w)
    path = tmp_path / "p4w.tbl"
    save_table(table, path)
    loaded = load_table(path, p4)
    assert np.array_equal(loaded.weights, table.weights)
    for a, b in zip(loaded.layers, table.layers):
        assert np.array_equal(a, b)


def test_load_budget_one_byte_short(tmp_path, p4, monkeypatch):
    # the load is charged after the header and before any layer buffer exists
    path = tmp_path / "p4.tbl"
    save_table(compute_table(p4, 20), path)
    keep, need = [5, 20], load_bytes(3, 20, [5, 20])
    made = []
    real = values_module._kept_layers
    monkeypatch.setattr(values_module, "_kept_layers", lambda *a: made.append(a) or real(*a))
    with pytest.raises(MemoryBudgetExceeded) as exc:
        load_table(path, p4, keep, memory_budget=need - 1)
    assert exc.value.required_bytes == need
    assert made == []
    loaded = load_table(path, p4, keep, memory_budget=need)
    assert len(made) == 1
    assert loaded.layer(20).tobytes() == compute_table(p4, 20).layer(20).tobytes()


def test_a_table_that_lists_no_layer(p4):
    # the graph, law and total of a game: every layer is out of range
    table = ValueTable(p4, 10, check_weights(p4, None), layers=[])
    for t in (0, 10):
        with pytest.raises(LayerOutOfRange, match="was not kept"):
            table.layer(t)


@pytest.mark.parametrize("keep", [(0,), (12,), (3, 7, 12), ()], ids=["first", "last", "three", "none"])
def test_partial_load_equals_full_load(tmp_path, keep):
    g = complete_graph(4)
    path = tmp_path / "k4.tbl"
    save_table(compute_table(g, 12, [0.1, 0.2, 0.3, 0.4]), path)
    full = load_table(path, g)
    part = load_table(path, g, keep)
    assert part.n_max == 12
    assert np.array_equal(part.weights, full.weights)
    for t in range(13):
        if t in keep:
            assert part.layer(t).tobytes() == full.layer(t).tobytes()
        else:
            with pytest.raises(LayerOutOfRange):
                part.layer(t)
    with pytest.raises(LayerOutOfRange):
        load_table(path, g, [13])


def _cut_layers(table, exc):
    """The table's layers up to layer 3, then the exception `exc`."""
    yield from (table.layer(t) for t in range(4))
    raise exc


def test_write_cut_by_the_layers_removes_the_file(tmp_path, p4):
    table, path = compute_table(p4, 6), tmp_path / "t.tbl"
    layers = _cut_layers(table, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        values_module._write_table(path, p4, 6, table.weights, layers)
    assert not path.exists()


class _FullDisk(io.FileIO):
    """A file whose writes fail once its header is written."""

    def write(self, data):
        if self.tell() >= 4:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


def test_write_failure_is_io_failure_and_leaves_no_file(tmp_path, p4, monkeypatch):
    monkeypatch.setattr(values_module, "open", _FullDisk, raising=False)
    path = tmp_path / "t.tbl"
    with pytest.raises(IoFailure, match="No space left"):
        save_table(compute_table(p4, 6), path)
    assert not path.exists()


def test_write_to_a_directory_is_io_failure(tmp_path, p4):
    with pytest.raises(IoFailure):
        save_table(compute_table(p4, 6), tmp_path)
    assert tmp_path.is_dir()


def test_values_at_checks_its_rows(p4):
    table = compute_table(p4, 6)
    assert values_at(table, [[1, 2, 3], [0, 0, 0]]).tolist() == [
        value_at(table, [1, 2, 3]), value_at(table, [0, 0, 0])
    ]
    with pytest.raises(DomainError, match="expected 3 entries a row"):
        values_at(table, [[1, 2, 3, 0]])
    with pytest.raises(DomainError, match="expected 3 entries a row"):
        values_at(table, [1, 2, 3])
    with pytest.raises(NegativeEntry, match=r"config \[1, -1, 2\] has a negative entry"):
        values_at(table, [[1, 2, 3], [1, -1, 2]])
    with pytest.raises(LayerOutOfRange, match="total 7 exceeds n_max 6"):
        values_at(table, [[1, 2, 3], [3, 2, 2]])


def test_load_wrong_graph(tmp_path, p4, c4):
    table = compute_table(p4, 5)
    path = tmp_path / "p4.tbl"
    save_table(table, path)
    with pytest.raises(GraphHashMismatch):
        load_table(path, c4)


def test_load_truncated(tmp_path, p4):
    table = compute_table(p4, 5)
    path = tmp_path / "p4.tbl"
    save_table(table, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(FormatMismatch):
        load_table(path, p4)


def test_load_bad_magic(tmp_path, p4):
    path = tmp_path / "junk.tbl"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(FormatMismatch):
        load_table(path, p4)


def test_load_unsupported_version(tmp_path, p4):
    path = tmp_path / "p4.tbl"
    save_table(compute_table(p4, 5), path)
    data = bytearray(path.read_bytes())
    data[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatMismatch, match="unsupported format version 2"):
        load_table(path, p4)


@pytest.mark.parametrize("name", [None, "missing.tbl"], ids=["directory", "missing"])
def test_load_from_a_path_that_is_no_file_is_io_failure(tmp_path, p4, name):
    with pytest.raises(IoFailure):
        load_table(tmp_path if name is None else tmp_path / name, p4)


def test_cache_writers_refuse_a_short_disk(tmp_path, p4, monkeypatch):
    # the file's bytes are checked against the free space before it is
    # opened; disk_usage is faked, so no disk is filled
    need = values_module._HEAD + 8 * 4 + required_bytes(3, 30)
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(values_module.shutil, "disk_usage", lambda path: usage._replace(free=need - 1))
    path = tmp_path / "p4.tbl"
    writes = [
        lambda: stream_table(p4, 30, keep=[30], path=path),
        lambda: save_table(compute_table(p4, 30), path),
    ]
    for write in writes:
        with pytest.raises(DiskSpaceExceeded) as exc:
            write()
        assert (exc.value.required_bytes, exc.value.free_bytes) == (need, need - 1)
        assert not path.exists()
    assert DiskSpaceExceeded in RESOURCE_ERRORS


@pytest.mark.parametrize("keep", [[], [300], [150, 299, 300]], ids=["header", "top", "three"])
def test_load_peak_within_load_bytes(keep, tmp_path, p4):
    path = tmp_path / "p4.tbl"
    stream_table(p4, 300, path=path)
    load_table(path, p4, keep=[3])  # allocations of a first call
    tracemalloc.start()
    try:
        table = load_table(path, p4, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= load_bytes(3, 300, keep)
    assert [t for t, layer in enumerate(table.layers) if layer is not None] == keep


def test_load_refuses_a_file_that_shrinks_while_read(tmp_path, p4, monkeypatch):
    path = tmp_path / "p4.tbl"
    save_table(compute_table(p4, 5), path)

    class Shrinking(io.FileIO):
        # unbuffered: another writer cuts 8 bytes off the end before each read
        def readinto(self, buffer):
            os.truncate(path, path.stat().st_size - 8)
            return super().readinto(buffer)

    monkeypatch.setattr(values_module, "open", Shrinking, raising=False)
    with pytest.raises(FormatMismatch, match="file shrank while it was read"):
        load_table(path, p4)


def test_graph_hash_distinguishes(p4, c4, triangle):
    hashes = {graph_hash(g) for g in (p4, c4, triangle)}
    assert len(hashes) == 3
    relabeled = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert graph_hash(relabeled) == graph_hash(p4)
