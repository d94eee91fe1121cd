from __future__ import annotations

import random

import pytest

from conftest import out_lists, random_digraph
from d2k import (DirectedGraph, SwapError, SwapGraph, TargetStructureError,
                 enumerate_jdam_swaps, extract_d2k, extract_dds,
                 from_edge_list)


def engine(g: DirectedGraph) -> SwapGraph:
    return SwapGraph(g.n, sorted(g.edges()))


def index(sg: SwapGraph, u: int, v: int) -> int:
    return sg.out[u][v]


def test_same_cell_double_swap_preserves_jdam():
    # sources 0,1 share the out-degree-1 cell; crossing their edges is a
    # jdam-preserving move
    g = DirectedGraph.from_edges(4, [(0, 2), (1, 3)])
    sg = engine(g)
    assert sg.cross(index(sg, 0, 2), index(sg, 1, 3))
    res = sg.graph()
    assert res.edge_set() == {(0, 3), (1, 2)}
    assert extract_d2k(res) == extract_d2k(g)


def test_swap_creating_parallel_edge_is_rejected():
    g = DirectedGraph.from_edges(4, [(0, 2), (1, 3), (0, 3)])
    sg = engine(g)
    assert not sg.cross(index(sg, 0, 2), index(sg, 1, 3))  # (0,3) exists
    assert sg.graph() == g


def test_swap_creating_self_loop_is_rejected():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    sg = engine(g)
    assert not sg.cross(index(sg, 0, 1), index(sg, 1, 2))  # adds (1,1)
    assert sg.graph() == g


def test_c6_reverse_on_three_cycle():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    sg = engine(g)
    assert sg.rotate(index(sg, 0, 1), index(sg, 1, 2), index(sg, 2, 0))
    res = sg.graph()
    assert res.edge_set() == {(1, 0), (2, 1), (0, 2)}
    assert extract_dds(res) == extract_dds(g)
    # each index keeps its tail
    assert sg.src == [0, 1, 2] and sg.dst == [2, 0, 1]


def test_rotation_moves_heads_one_place_round():
    g = DirectedGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    sg = engine(g)
    assert sg.rotate(0, 1, 2)
    assert sg.graph().edge_set() == {(0, 3), (2, 5), (4, 1)}
    assert sg.out == [{3: 0}, {}, {5: 1}, {}, {1: 2}, {}]


def test_degree_double_swap_preserves_degrees():
    rng = random.Random(13)
    g = random_digraph(rng, 20, 0.2)
    edges = sorted(g.edge_set())
    for _ in range(50):
        e1, e2 = rng.sample(edges, 2)
        if e1[0] == e2[0] or e1[1] == e2[1]:
            continue
        sg = engine(g)
        if sg.cross(index(sg, *e1), index(sg, *e2)):
            assert sg.graph().degree_pairs() == g.degree_pairs()


def test_degenerate_proposals_rejected():
    # two edges with a shared source do not cross or rotate, nor do three
    # edges with a shared head or a repeated index
    g = from_edge_list([(0, 1), (0, 2), (1, 0), (2, 0), (3, 1)])
    sg = engine(g)
    assert not sg.cross(index(sg, 0, 1), index(sg, 0, 2))
    assert not sg.cross(index(sg, 0, 1), index(sg, 0, 1))
    for edges in ([(0, 1), (0, 2), (3, 1)], [(1, 0), (2, 0), (3, 1)],
                  [(0, 1), (2, 0), (0, 1)]):
        assert not sg.rotate(*(index(sg, u, v) for u, v in edges))
    assert sg.graph() == g


def test_four_cycle_reversal_not_one_swap_away():
    cycle = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])
    reversed_cycle = from_edge_list([(1, 0), (2, 1), (3, 2), (0, 3)])
    assert extract_d2k(cycle) == extract_d2k(reversed_cycle)
    neighbors = enumerate_jdam_swaps(cycle)
    assert neighbors                      # mutual-dyad states are reachable
    assert all(nbr.edge_set() != reversed_cycle.edge_set()
               for nbr in neighbors)
    back = enumerate_jdam_swaps(reversed_cycle)
    assert all(nbr.edge_set() != cycle.edge_set() for nbr in back)


def test_three_cycle_reversal_not_one_swap_away():
    cycle = from_edge_list([(0, 1), (1, 2), (2, 0)])
    neighbors = enumerate_jdam_swaps(cycle)
    assert neighbors == []                # every crossing hits a non-chord


def test_enumerated_neighbors_preserve_extracted_targets():
    rng = random.Random(14)
    for _ in range(10):
        g = random_digraph(rng, rng.randint(4, 12), 0.3)
        t = extract_d2k(g)
        for nbr in enumerate_jdam_swaps(g):
            assert extract_d2k(nbr) == t


def test_crossing_onto_a_non_chord_is_rejected():
    # on a 3-cycle, crossing (0,1) with (1,2) would add the self-loop (1,1),
    # the edge on node 1's non-chord; in the reverse order it adds (2,2)
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    sg = engine(g)
    assert not sg.cross(index(sg, 0, 1), index(sg, 1, 2))
    assert not sg.cross(index(sg, 1, 2), index(sg, 0, 1))
    assert sg.graph() == g


def test_engine_holds_the_graph_it_was_built_from():
    rng = random.Random(15)
    for n in (0, 1, 2, 7, 20):
        g = random_digraph(rng, n, 0.3)
        assert engine(g).graph() == g
        assert SwapGraph(g.n, list(g.edges())).graph() == g


def test_engine_rejects_edges_that_are_not_a_simple_digraph():
    for edges in ([(0, 0)], [(0, 1), (0, 1)], [(0, 3)], [(-1, 0)]):
        with pytest.raises(SwapError):
            SwapGraph(3, edges)


def test_crossing_twice_restores_edges_and_positions():
    rng = random.Random(16)
    g = random_digraph(rng, 10, 0.3)
    sg = engine(g)
    out = [dict(heads) for heads in sg.out]
    crossed = 0
    for i in range(g.m):
        for j in range(g.m):
            if sg.cross(i, j):
                crossed += 1
                assert sg.graph() != g
                assert sg.cross(i, j)
            assert sg.graph() == g
            assert sg.out == out
    assert crossed


def test_reversal_undone_by_its_inverse():
    # two 3-cycles share the edge (0, 1); w picks which one turns around
    g = from_edge_list([(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
    for w in (2, 3):
        sg = engine(g)
        out = [dict(heads) for heads in sg.out]
        i, j, k = index(sg, 0, 1), index(sg, 1, w), index(sg, w, 0)
        assert sg.rotate(i, j, k)
        assert (1, 0) in sg.graph().edge_set()
        assert extract_dds(sg.graph()) == extract_dds(g)
        assert sg.rotate(i, k, j)
        assert sg.graph() == g
        assert sg.out == out


def test_reversal_onto_an_existing_arc_is_rejected():
    # reversing 0->1->2->0 would add (1, 0), which already exists
    g = from_edge_list([(0, 1), (1, 2), (2, 0), (1, 0), (3, 2)])
    sg = engine(g)
    assert not sg.rotate(index(sg, 0, 1), index(sg, 1, 2), index(sg, 2, 0))
    # (0,1),(3,2),(1,0) -> (0,2),(3,0),(1,1): a self-loop
    assert not sg.rotate(index(sg, 0, 1), index(sg, 3, 2), index(sg, 1, 0))
    assert sg.graph() == g


def test_random_cycle_on_an_empty_graph_is_no_move():
    assert not SwapGraph(3, []).reverse_random_cycle(random.Random(18))


def test_random_moves_keep_degrees_and_simplicity():
    rng = random.Random(17)
    crossed = reversed_ = 0
    for _ in range(10):
        n = rng.randint(3, 15)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.6))
        if g.m < 2:
            continue
        sg = engine(g)
        for _ in range(500):
            if rng.random() < 0.3:
                reversed_ += sg.reverse_random_cycle(rng)
            else:
                crossed += sg.cross(rng.randrange(g.m), rng.randrange(g.m))
        # graph() builds a DirectedGraph, which raises on a self-loop or a
        # parallel edge
        out = sg.graph()
        assert out.degree_pairs() == g.degree_pairs()
        assert sg.src == [u for u, _ in sorted(g.edges())]  # tails stay
        assert sum(map(len, sg.out)) == g.m
        assert all(sg.out[u][v] == i
                   for i, (u, v) in enumerate(zip(sg.src, sg.dst)))
        assert [set(nbrs) for nbrs in out_lists(out)] == \
            [set(heads) for heads in sg.out]
    assert crossed and reversed_


def test_enumerating_under_an_unknown_mode_raises_the_target_error():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(TargetStructureError, match="unknown mode 'd2x'"):
        enumerate_jdam_swaps(g, "d2x")
