import pytest

from seqassign.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    InvalidVertex,
    LoopEdge,
    SubsetCapExceeded,
    TooFewEdges,
)
from seqassign.graph import (
    build_graph,
    cycle_graph,
    format_graph_text,
    full_degree_count,
    parse_graph_text,
    proper_subsets,
    subset_size,
)


def test_build_path_graph():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert g.m == 3
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert g.incidence == ((0,), (0, 1), (1, 2), (2,))


def test_build_triangle_degrees():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert [g.degree(v) for v in (1, 2, 3)] == [2, 2, 2]


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(1, 2), (3, 4)])


def test_build_rejects_isolated_vertex():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(1, 2), (2, 3)])


@pytest.mark.parametrize(
    "k,pairs,err",
    [
        (3, [(1, 2), (1, 2)], DuplicateEdge),
        (3, [(1, 2), (2, 1)], DuplicateEdge),
        (3, [(1, 1), (2, 3)], LoopEdge),
        (3, [(1, 2)], TooFewEdges),
        (3, [(1, 2), (2, 5)], InvalidVertex),
    ],
)
def test_build_rejects_bad_input(k, pairs, err):
    with pytest.raises(err):
        build_graph(k, pairs)


def test_full_degree_count_examples(p4):
    assert full_degree_count(p4, 0b001) == 1  # only vertex 1 is saturated
    assert full_degree_count(p4, 0b010) == 0
    assert full_degree_count(p4, p4.full_mask()) == p4.k


def test_degree_sum_identity(k4):
    for F in proper_subsets(k4):
        total = sum(bin(k4.vertex_mask(v) & F).count("1") for v in range(1, k4.k + 1))
        assert total == 2 * subset_size(F)


def test_full_degree_monotone(k4):
    subsets = list(proper_subsets(k4))
    for F in subsets:
        for e in range(k4.m):
            bigger = F | (1 << e)
            assert full_degree_count(k4, F) <= full_degree_count(k4, bigger)
    assert full_degree_count(k4, 0) == 0
    assert full_degree_count(k4, k4.full_mask()) == k4.k


def test_proper_subsets_counts(p4, triangle):
    assert len(list(proper_subsets(p4))) == 6
    g2 = build_graph(3, [(1, 2), (2, 3)])
    assert len(list(proper_subsets(g2))) == 2


def test_proper_subsets_cap():
    big = cycle_graph(25)
    with pytest.raises(SubsetCapExceeded):
        proper_subsets(big)


def test_text_format_roundtrip(p4):
    text = format_graph_text(p4)
    assert parse_graph_text(text).edges == p4.edges


def test_text_format_comments():
    g = parse_graph_text("# path\nvertices 4\n1 2\n\n2 3\n# middle\n3 4\n")
    assert g.edges == ((1, 2), (2, 3), (3, 4))


@pytest.mark.parametrize(
    "text",
    ["", "nodes 4\n1 2\n2 3", "vertices x\n1 2\n2 3", "vertices 4\n1 2 3\n2 3"],
)
def test_text_format_rejects(text):
    with pytest.raises(InvalidVertex):
        parse_graph_text(text)


def test_text_format_propagates_graph_errors():
    with pytest.raises(DisconnectedGraph):
        parse_graph_text("vertices 4\n1 2\n3 4\n")
