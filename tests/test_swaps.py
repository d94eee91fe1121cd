from __future__ import annotations

import random

import pytest

from conftest import random_digraph
from d2k import (DirectedGraph, SwapError, apply_swap, c6_reverse_proposal,
                 double_swap_proposal, enumerate_jdam_swaps, extract_d2k,
                 extract_dds, from_edge_list)


def test_same_cell_double_swap_preserves_jdam():
    # sources 0,1 share the out-degree-1 cell; crossing their edges is a
    # jdam-preserving move
    g = DirectedGraph.from_edges(4, [(0, 2), (1, 3)])
    p = double_swap_proposal((0, 2), (1, 3), kind="jdam_double")
    res = apply_swap(g, p)
    assert res is not None
    assert res.edge_set() == {(0, 3), (1, 2)}
    assert extract_d2k(res) == extract_d2k(g)


def test_swap_creating_parallel_edge_is_rejected():
    g = DirectedGraph.from_edges(4, [(0, 2), (1, 3), (0, 3)])
    p = double_swap_proposal((0, 2), (1, 3), kind="degree_double")
    assert apply_swap(g, p) is None        # (0,3) already exists


def test_swap_creating_self_loop_is_rejected():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    p = double_swap_proposal((0, 1), (1, 2), kind="degree_double")
    assert apply_swap(g, p) is None        # adds (1,1)


def test_c6_reverse_on_three_cycle():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    p = c6_reverse_proposal(0, 1, 2)
    res = apply_swap(g, p)
    assert res is not None
    assert res.edge_set() == {(1, 0), (2, 1), (0, 2)}
    assert extract_dds(res) == extract_dds(g)


def test_degree_double_swap_preserves_degrees():
    rng = random.Random(13)
    g = random_digraph(rng, 20, 0.2)
    edges = sorted(g.edge_set())
    for _ in range(50):
        e1, e2 = rng.sample(edges, 2)
        if e1[0] == e2[0] or e1[1] == e2[1]:
            continue
        res = apply_swap(g, double_swap_proposal(e1, e2))
        if res is not None:
            assert res.degree_pairs() == g.degree_pairs()


def test_nonexistent_removed_edge_raises():
    g = from_edge_list([(0, 1), (1, 2)])
    with pytest.raises(SwapError):
        apply_swap(g, double_swap_proposal((0, 1), (2, 0)))


def test_degenerate_proposals_rejected():
    with pytest.raises(SwapError):
        double_swap_proposal((0, 1), (0, 2))   # shared source
    with pytest.raises(SwapError):
        c6_reverse_proposal(0, 0, 1)


def test_malformed_jdam_swap_raises():
    g = from_edge_list([(0, 1), (0, 2), (1, 2)])   # sources differ in out-degree
    with pytest.raises(SwapError):
        apply_swap(g, double_swap_proposal((0, 1), (1, 2), kind="jdam_double"))


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
    # the edge on node 1's non-chord
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    p = double_swap_proposal((0, 1), (1, 2), kind="jdam_double")
    assert apply_swap(g, p) is None
