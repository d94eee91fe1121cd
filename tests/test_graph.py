from __future__ import annotations

import enum
import random

import pytest

from conftest import out_lists, random_digraph
from d2k import DirectedGraph, EdgeListFormatError, from_edge_list


def test_loop_and_duplicate_removal():
    stats: dict = {}
    g = from_edge_list([(0, 1), (1, 0), (1, 1), (0, 1)], stats)
    assert g.n == 2
    assert g.m == 2
    assert g.edge_set() == {(0, 1), (1, 0)}
    assert stats == {"pairs": 4, "self_loops": 1, "duplicates": 1}
    # a duplicate far from its first copy goes, a reversed pair stays; the
    # kept heads are in first-appearance order
    g = from_edge_list([(5, 7), (5, 9), (7, 5), (9, 7), (5, 2), (7, 9),
                        (5, 7)], stats)
    assert g.orig_ids == [5, 7, 9, 2]
    assert out_lists(g) == [[1, 2, 3], [0, 2], [1], []]
    assert stats == {"pairs": 7, "self_loops": 0, "duplicates": 1}


def test_empty_input():
    g = from_edge_list([])
    assert g.n == 0
    assert g.m == 0


def test_sparse_ids_remap_in_first_appearance_order():
    g = from_edge_list([(10, 3), (3, 99), (10, 99)])
    assert g.n == 3
    assert g.orig_ids == [10, 3, 99]
    assert g.edge_set() == {(0, 1), (1, 2), (0, 2)}


def test_malformed_pairs_report_position():
    with pytest.raises(EdgeListFormatError) as exc:
        from_edge_list([(0, 1), (2,)])
    assert exc.value.position == 1
    with pytest.raises(EdgeListFormatError):
        from_edge_list([(0, "x")])
    with pytest.raises(EdgeListFormatError):
        from_edge_list([(True, 1)])
    # str() of an IntEnum member is its name on Python 3.10, which
    # write_edge_list would write in place of an id.
    Id = enum.IntEnum("Id", "A B")
    with pytest.raises(EdgeListFormatError) as exc:
        from_edge_list([(0, 1), (Id.A, 1)])
    assert exc.value.position == 1
    with pytest.raises(EdgeListFormatError) as exc:
        from_edge_list([(0, 1), (1, 2), (-1, 0)])
    assert exc.value.position == 2


def _original_edges(g: DirectedGraph) -> set[tuple[int, int]]:
    return {(g.original_id(u), g.original_id(v)) for u, v in g.edges()}


def test_ingestion_idempotence():
    # Re-ingesting the emitted edge list reproduces the same graph over the
    # original labels (dense numbering is an internal artifact of order).
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 25)
        raw = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
        g = from_edge_list(raw)
        again = from_edge_list(sorted(_original_edges(g)))
        assert again.n == g.n
        assert again.m == g.m
        assert _original_edges(again) == _original_edges(g)
        assert sorted(again.orig_ids or []) == sorted(g.orig_ids or [])


def test_degree_conservation():
    rng = random.Random(6)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(1, 40), 0.2)
        assert sum(d_in for d_in, _ in g.degree_pairs()) == g.m
        assert sum(d_out for _, d_out in g.degree_pairs()) == g.m


def test_constructor_rejects_nonsimple():
    with pytest.raises(ValueError):
        DirectedGraph(2, [[0], []])          # self-loop
    with pytest.raises(ValueError):
        DirectedGraph(2, [[1, 1], []])       # parallel edge
    with pytest.raises(ValueError, match="parallel edge 0->1"):
        DirectedGraph(3, [[1, 2, 1], [], []])
    with pytest.raises(ValueError, match="self-loop at node 1"):
        DirectedGraph(3, [[], [2, 1], []])


def test_constructor_rejects_heads_that_are_not_node_ids():
    # -1 would index the last in-list and build a parallel edge 0->2
    with pytest.raises(ValueError, match="head -1 of node 0 is not a node id"):
        DirectedGraph(3, [[-1, 2], [], []])
    with pytest.raises(ValueError, match=r"head 3 of node 1 .* in 0\.\.2"):
        DirectedGraph(3, [[], [0, 3], []])
    for bad in (-7, -6, -4, -3, 4, 6, 7):
        with pytest.raises(ValueError, match=f"head {bad} of node 2 "):
            DirectedGraph(3, [[1], [0], [0, bad]])
    with pytest.raises(ValueError, match=r"head 1 of node 0 .* in 0\.\.0"):
        DirectedGraph.from_edges(1, [(0, 1)])


def test_constructor_names_the_one_fault_of_a_random_graph():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 12)
        out = out_lists(random_digraph(rng, n, 0.3))
        u = rng.randrange(n)
        kind = rng.choice(["self-loop", "parallel", "range"])
        if kind == "parallel" and not out[u]:
            kind = "self-loop"
        lo = 0                  # the fault goes at lo or later in out[u]
        if kind == "self-loop":
            bad, match = u, f"self-loop at node {u}$"
        elif kind == "parallel":
            lo = rng.randrange(len(out[u])) + 1
            bad = out[u][lo - 1]
            match = f"parallel edge {u}->{bad}$"
        else:
            bad = rng.choice([-1, -n, n, n + 5])
            match = rf"head {bad} of node {u} is not a node id in 0\.\.{n - 1}$"
        out[u].insert(rng.randint(lo, len(out[u])), bad)
        with pytest.raises(ValueError, match=match):
            DirectedGraph(n, out)


def test_float_ids_are_rejected_not_truncated():
    with pytest.raises((TypeError, ValueError)):
        DirectedGraph(2, [[1.0], []])
    with pytest.raises((TypeError, ValueError)):
        DirectedGraph(3, [[1.7], [], []])
    with pytest.raises((TypeError, ValueError)):
        DirectedGraph.from_edges(2, [(0, 1.5)])
    with pytest.raises((TypeError, ValueError)):
        DirectedGraph.from_edges(2, [(1.0, 0)])


def test_from_edges_rejects_tails_that_are_not_node_ids():
    # -1 would index the last out-list and build the edge 2->0
    n = 3
    for bad in (-1, -7, n, n + 3):
        match = rf"tail {bad} of edge \({bad}, 0\) .* in 0\.\.2"
        with pytest.raises(ValueError, match=match):
            DirectedGraph.from_edges(n, [(1, 2), (bad, 0)])


def test_constructor_rejects_an_adjacency_of_the_wrong_length():
    with pytest.raises(ValueError,
                       match="adjacency length does not match node count"):
        DirectedGraph(2, [[1]])
