from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (avg_neighbor_degree_loop, betweenness_bruteforce,
                      betweenness_stack_walk, core_numbers_bruteforce,
                      core_numbers_peel, dsp_bruteforce, expansion_bruteforce,
                      out_lists, random_digraph, scc_bruteforce,
                      triad_census_bruteforce)
from d2k import (D2KError, DirectedGraph, MetricsConfig, UmanTargets,
                 avg_neighbor_degree, dsp, dyad_census, expansion,
                 extract_uman, from_edge_list, metrics, structural_suite,
                 triad_census)
from d2k.metrics import (HISTOGRAM, TRIAD_NAMES, Counts, Means, Values,
                         betweenness_values, core_number_histogram,
                         core_numbers, scc_size_histogram,
                         shortest_path_histogram, top_eigenvalues)


def three_cycle():
    return from_edge_list([(0, 1), (1, 2), (2, 0)])


def reciprocal_triangle():
    return from_edge_list([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])


def complete_digraph(n):
    return DirectedGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(n) if u != v])


def edge_case_graphs():
    """No node, one node, five isolated nodes, one mutual pair, an out-star
    and an in-star hub with five leaves each."""
    return [DirectedGraph.from_edges(0, []), DirectedGraph.from_edges(1, []),
            DirectedGraph.from_edges(5, []), from_edge_list([(0, 1), (1, 0)]),
            from_edge_list([(0, v) for v in range(1, 6)]),
            from_edge_list([(v, 0) for v in range(1, 6)])]


def shuffled_digraph(rng, n, p):
    """A random digraph whose adjacency lists are in random order."""
    adj = [[v for v in range(n) if v != u and rng.random() < p]
           for u in range(n)]
    for nbrs in adj:
        rng.shuffle(nbrs)
    return DirectedGraph(n, adj)


def hub_star():
    """A hub with 4 out-leaves, 4 in-leaves and 4 mutual leaves, and a few
    arcs between leaves: 66 wedges at the hub, some of them closed."""
    edges = [(0, v) for v in range(1, 5)] + [(v, 0) for v in range(5, 9)]
    edges += [e for v in range(9, 13) for e in ((0, v), (v, 0))]
    return from_edge_list(edges + [(1, 5), (9, 10), (10, 9), (2, 11),
                                   (12, 6)])


def hub_digraph(rng, n, hubs):
    """Hubs joined to most nodes by an out-arc, an in-arc or a mutual pair,
    over random arcs that are mutual half the time; adjacency lists in
    random order.  A hub's row reaches most nodes in one level, so one
    frontier node has many tails, and most wedges read mutual dyads."""
    adj = [set() for _ in range(n)]
    for h in range(hubs):
        for v in range(hubs, n):
            if rng.random() < 0.8:
                kind = rng.randrange(3)
                if kind != 1:
                    adj[h].add(v)
                if kind != 0:
                    adj[v].add(h)
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        adj[u].add(v)
        if rng.random() < 0.5:
            adj[v].add(u)
    adj = [list(nbrs) for nbrs in adj]
    for nbrs in adj:
        rng.shuffle(nbrs)
    return DirectedGraph(n, adj)


def layered(layers, width):
    """Layers of `width` nodes, every arc between consecutive layers:
    width**(layers - 2) shortest paths from the first layer to the last."""
    return from_edge_list([(k * width + i, (k + 1) * width + j)
                           for k in range(layers - 1)
                           for i in range(width) for j in range(width)])


def kernel_graphs(seed):
    """Shuffled random digraphs, the edge cases, one arc on two nodes, the
    complete digraph, the hub star and hub-heavy digraphs."""
    rng = random.Random(seed)
    graphs = [shuffled_digraph(rng, rng.randint(8, 20), rng.uniform(0.05, 0.6))
              for _ in range(6)]
    return graphs + edge_case_graphs() + [
        from_edge_list([(0, 1)]), complete_digraph(5), hub_star(),
        hub_digraph(rng, 16, 1), hub_digraph(rng, 24, 3)]


# -- censuses ----------------------------------------------------------------

def test_triad_census_three_cycle():
    census = triad_census(three_cycle())
    assert census["030C"] == 1
    assert sum(census.values()) == 1
    assert all(v == 0 for k, v in census.items() if k != "030C")


def test_triad_census_reciprocal_triangle():
    census = triad_census(reciprocal_triangle())
    assert census["300"] == 1
    assert sum(census.values()) == 1


def test_censuses_sum_identities():
    rng = random.Random(17)
    for _ in range(10):
        g = random_digraph(rng, rng.randint(3, 25), rng.uniform(0.1, 0.5))
        n = g.n
        assert sum(triad_census(g).values()) == n * (n - 1) * (n - 2) // 6
        assert sum(dyad_census(g).values()) == n * (n - 1) // 2


def test_dyad_census_matches_pair_classification():
    # each unordered pair classified from the edge set; both orientations
    # are drawn independently, so every graph has reciprocated pairs
    rng = random.Random(19)
    for _ in range(10):
        g = random_digraph(rng, rng.randint(10, 25), rng.uniform(0.3, 0.7))
        e = g.edge_set()
        states = ("null", "asymmetric", "mutual")    # by arcs in the pair
        want = dict.fromkeys(states, 0)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                want[states[((u, v) in e) + ((v, u) in e)]] += 1
        assert want["mutual"] > 0
        assert dyad_census(g) == want
        assert extract_uman(g) == UmanTargets(g.n, want["mutual"],
                                              want["asymmetric"], want["null"])


def test_triad_census_matches_bruteforce():
    rng = random.Random(18)
    for _ in range(8):
        g = random_digraph(rng, 20, rng.uniform(0.05, 0.4))
        assert triad_census(g) == triad_census_bruteforce(g)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 30])
def test_triad_census_in_wedge_chunks_matches_bruteforce(monkeypatch, chunk):
    # one wedge per chunk, three per chunk (a chunk ends inside a hub's
    # row), and every wedge in one chunk
    monkeypatch.setattr(metrics, "_WEDGE_CHUNK", chunk)
    for g in kernel_graphs(32):
        assert triad_census(g) == triad_census_bruteforce(g)


def test_symmetrized_matrix_holds_each_dyads_arc_bits():
    # the one matrix the triad census and the core numbers read: entry
    # (u, v) is 1 * [u -> v] + 2 * [v -> u], on the symmetric pattern of the
    # connected pairs, each row sorted
    rng = random.Random(36)
    hubs = [hub_digraph(rng, n, k) for n, k in ((16, 1), (40, 3), (90, 4))]
    for g in edge_case_graphs() + hubs:
        arcs = set(g.edges())
        s = metrics._symmetrized(g)
        assert s.shape == (g.n, g.n)
        entries = {}
        for u in range(g.n):
            row = s.indices[s.indptr[u]:s.indptr[u + 1]].tolist()
            assert row == sorted(set(row))
            entries.update(((u, v), x) for v, x in
                           zip(row, s.data[s.indptr[u]:s.indptr[u + 1]]))
        assert entries == {(u, v): ((u, v) in arcs) + 2 * ((v, u) in arcs)
                           for a, b in arcs for u, v in ((a, b), (b, a))}


# -- shared partners ---------------------------------------------------------

def test_dsp_two_path_example():
    hist = dsp(from_edge_list([(0, 1), (1, 2)]), "independent_two_paths")
    assert hist == {1: 1, 0: 5}          # only (0,2) has a shared partner


def test_dsp_outgoing_is_symmetric():
    g = DirectedGraph.from_edges(3, [(0, 2), (1, 2)])
    hist = dsp(g, "outgoing")
    assert hist == {1: 2, 0: 4}          # (0,1) and (1,0) both count 1


def test_dsp_matches_bruteforce():
    rng = random.Random(19)
    graphs = [random_digraph(rng, 20, rng.uniform(0.05, 0.4))
              for _ in range(6)]
    for g in graphs + edge_case_graphs():
        for variant in ("independent_two_paths", "outgoing", "incoming"):
            assert dsp(g, variant) == dsp_bruteforce(g, variant)


def test_dsp_unknown_variant():
    with pytest.raises(ValueError):
        dsp(three_cycle(), "sideways")


# -- expansion ---------------------------------------------------------------

def test_expansion_star():
    g = from_edge_list([(0, 1), (0, 2), (0, 3)])
    assert expansion(g, "out") == [0.0]


def test_expansion_path():
    g = from_edge_list([(0, 1), (1, 2)])
    assert expansion(g, "out") == [1.0, 0.0]
    assert expansion(g, "in") == [0.0, 1.0]


def test_expansion_matches_bruteforce():
    rng = random.Random(20)
    for _ in range(6):
        g = random_digraph(rng, 50, rng.uniform(0.02, 0.2))
        for direction in ("out", "in"):
            assert expansion(g, direction) == \
                expansion_bruteforce(g, direction)


def test_expansion_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction 'both'"):
        expansion(three_cycle(), "both")


# -- average neighbor degree -------------------------------------------------

def test_avg_neighbor_degree_three_cycle():
    assert avg_neighbor_degree(three_cycle(), "out", "in") == {1: Fraction(1)}


def test_avg_neighbor_degree_star():
    g = from_edge_list([(0, 1), (0, 2)])
    assert avg_neighbor_degree(g, "out", "in") == {2: Fraction(1)}


def test_avg_neighbor_degree_mixed():
    g = from_edge_list([(0, 1), (2, 1), (1, 3)])
    # in-side grouping: node 1 has in-degree 2, its sources have out-degree 1
    assert avg_neighbor_degree(g, "in", "out")[2] == Fraction(1)
    # out-side grouping with out-degree 1 sources: targets' in-degrees 2,2,1
    assert avg_neighbor_degree(g, "out", "in") == {1: Fraction(5, 3)}


@pytest.mark.parametrize("sides", [("out", "both"), ("up", "in")])
def test_avg_neighbor_degree_unknown_side(sides):
    with pytest.raises(ValueError, match="sides must be 'in' or 'out'"):
        avg_neighbor_degree(three_cycle(), *sides)


def test_avg_neighbor_degree_matches_edge_walk_in_key_order():
    # Means.encode writes the keys in dict order, so the order is output
    graphs = kernel_graphs(41) + [from_edge_list([(5, 1), (1, 5), (1, 2),
                                                  (3, 2), (2, 4), (4, 1)])]
    for g in graphs:
        for node_side in ("in", "out"):
            for neighbor_side in ("in", "out"):
                got = avg_neighbor_degree(g, node_side, neighbor_side)
                want = avg_neighbor_degree_loop(g, node_side, neighbor_side)
                assert list(got.items()) == list(want.items())
                assert all(type(k) is int and type(v) is Fraction
                           for k, v in got.items())


# -- structural suite --------------------------------------------------------

def test_scc_three_cycle():
    assert scc_size_histogram(three_cycle()) == {3: 1}


def test_scc_matches_bruteforce():
    rng = random.Random(21)
    graphs = [random_digraph(rng, 18, rng.uniform(0.05, 0.3))
              for _ in range(8)]
    for g in graphs + edge_case_graphs():
        assert scc_size_histogram(g) == scc_bruteforce(g)


def test_kcore_complete_graph():
    assert core_number_histogram(complete_digraph(4)) == {3: 4}


def test_kcore_matches_bruteforce():
    # the path peels one node from each end per round
    rng = random.Random(22)
    graphs = [random_digraph(rng, 25, rng.uniform(0.05, 0.3))
              for _ in range(8)]
    path = from_edge_list([(v, v + 1) if v % 3 else (v + 1, v)
                           for v in range(40)])
    for g in graphs + kernel_graphs(35) + [path]:
        want = core_numbers_bruteforce(g)
        assert core_numbers(g) == core_numbers_peel(g) == want
        hist: dict[int, int] = {}
        for c in want:
            hist[c] = hist.get(c, 0) + 1
        assert core_number_histogram(g) == hist
    assert core_numbers(path) == [1] * 41


def test_paths_three_cycle():
    hist, meta = shortest_path_histogram(three_cycle())
    assert hist == {1: 3, 2: 3}
    assert meta["sampled"] is False


def test_paths_sampling_flagged():
    rng = random.Random(23)
    g = random_digraph(rng, 30, 0.1)
    hist, meta = shortest_path_histogram(g, sample_sources=5, exact_nodes=10,
                                         seed=4)
    assert meta["sampled"] is True
    assert meta["sources"] == 5


def _paths_bruteforce(g) -> dict[int, int]:
    # Floyd-Warshall distances, independent of the BFS implementation
    inf = float("inf")
    n = g.n
    d = [[inf] * n for _ in range(n)]
    for v in range(n):
        d[v][v] = 0
    for u, v in g.edges():
        d[u][v] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    hist: dict[int, int] = {}
    for i in range(n):
        for j in range(n):
            if i != j and d[i][j] < inf:
                hist[int(d[i][j])] = hist.get(int(d[i][j]), 0) + 1
    return hist


def test_paths_match_bruteforce():
    rng = random.Random(27)
    graphs = [random_digraph(rng, 30, rng.uniform(0.03, 0.3))
              for _ in range(6)]
    for g in graphs + edge_case_graphs():
        hist, meta = shortest_path_histogram(g)
        assert meta["sampled"] is False
        assert hist == _paths_bruteforce(g)


def _bfs_histogram(g, sources) -> dict[int, int]:
    out = out_lists(g)
    hist: dict[int, int] = {}
    for s in sources:
        d, seen, frontier = 0, {s}, [s]
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in out[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if nxt:
                hist[d] = hist.get(d, 0) + len(nxt)
            frontier = nxt
    return hist


@pytest.mark.parametrize("block", [1, 100, 1 << 18])
def test_paths_in_source_blocks_match_bfs(monkeypatch, block):
    # on 30 nodes: one source per block, three per block (the 7-source
    # sample ends in a shorter block), and every source in one block
    monkeypatch.setattr(metrics, "_BETWEENNESS_BLOCK", block)
    rng = random.Random(28)
    for _ in range(4):
        g = random_digraph(rng, 30, rng.uniform(0.03, 0.2))
        hist, _ = shortest_path_histogram(g)
        assert hist == _bfs_histogram(g, range(g.n))
        hist, meta = shortest_path_histogram(g, sample_sources=7,
                                             exact_nodes=10, seed=5)
        assert meta["sampled"] and meta["sources"] == 7
        sample = random.Random(5).sample(range(g.n), 7)
        assert hist == _bfs_histogram(g, sample)


def test_paths_at_the_default_block_match_bfs():
    # hub-heavy digraphs with more nodes than fit one block of sources, so
    # the default block holds a part of them and the last block is short,
    # from every node and from a 250-source sample
    rng = random.Random(35)
    for n in (300, 700):
        g = hub_digraph(rng, n, 4)
        step = metrics._BETWEENNESS_BLOCK // n
        assert 1 < step < 250 and n % step and 250 % step
        hist, meta = shortest_path_histogram(g, exact_nodes=n)
        assert not meta["sampled"]
        assert hist == _bfs_histogram(g, range(n))
        hist, meta = shortest_path_histogram(g, sample_sources=250,
                                             exact_nodes=n - 1, seed=n)
        assert meta["sampled"] and meta["sources"] == 250
        assert hist == _bfs_histogram(g, random.Random(n).sample(range(n),
                                                                 250))


@pytest.mark.parametrize("exact_nodes", [1, 10])
def test_paths_need_a_source(exact_nodes):
    # sampled (exact_nodes = 1) or exact, a count below 1 is refused as
    # MetricsConfig refuses sample_sources = 0
    g = from_edge_list([(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="at least 1, got 0"):
        shortest_path_histogram(g, sample_sources=0, exact_nodes=exact_nodes)


def test_betweenness_directed_path():
    g = from_edge_list([(0, 1), (1, 2), (2, 3)])
    values, meta = betweenness_values(g)
    assert meta["exact"]
    norm = 3 * 2
    assert values == pytest.approx([0.0, 2 / norm, 2 / norm, 0.0])
    brute = betweenness_bruteforce(g)
    assert values == pytest.approx(brute, rel=1e-12)


def test_betweenness_matches_bruteforce():
    rng = random.Random(24)
    for _ in range(6):
        g = random_digraph(rng, 25, rng.uniform(0.05, 0.3))
        values, _ = betweenness_values(g)
        brute = betweenness_bruteforce(g)
        for a, b in zip(values, brute):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("per_block", [1, 3, None])
def test_betweenness_in_source_blocks_matches_stack_walk(monkeypatch,
                                                         per_block):
    # one source per block, three per block, and every source in one
    # block; the layered graphs have path counts up to 2**23 and 4**10
    for g in kernel_graphs(33) + [layered(25, 2), layered(12, 4)]:
        monkeypatch.setattr(metrics, "_BETWEENNESS_BLOCK",
                            (per_block or 1 << 20) * max(g.n, 1))
        values, meta = betweenness_values(g)
        assert meta["exact"]
        assert values == betweenness_stack_walk(g, range(g.n), 1.0)
        for a, b in zip(values, betweenness_bruteforce(g)):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        if g.n > 6:
            values, meta = betweenness_values(g, exact_nodes=6, pivots=5,
                                              seed=g.n)
            sample = random.Random(g.n).sample(range(g.n), 5)
            assert not meta["exact"] and meta["sources"] == 5
            assert values == betweenness_stack_walk(g, sample, g.n / 5)


def test_betweenness_at_the_default_block_matches_stack_walk():
    # hub-heavy digraphs with more nodes than fit one block of sources, so
    # the default block holds a part of them and the last block is short
    rng = random.Random(34)
    for n in (300, 700):
        g = hub_digraph(rng, n, 4)
        step = metrics._BETWEENNESS_BLOCK // n
        assert 1 < step < n and n % step
        values, meta = betweenness_values(g, exact_nodes=n)
        assert meta["exact"]
        assert values == betweenness_stack_walk(g, range(n), 1.0)


@pytest.mark.parametrize("exact_nodes", [1, 10])
def test_betweenness_needs_a_pivot(exact_nodes):
    g = from_edge_list([(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="at least 1, got 0"):
        betweenness_values(g, exact_nodes=exact_nodes, pivots=0)


def test_betweenness_path_count_overflow_is_a_typed_error():
    # 4**518 shortest paths from a first-layer node to a last-layer node
    with pytest.raises(D2KError, match="float64 range"):
        betweenness_values(layered(520, 4))


def test_eigenvalues_complete_digraph():
    values, meta = top_eigenvalues(complete_digraph(4), k=4)
    assert meta["method"] == "dense"
    assert values[0] == pytest.approx(3.0)
    assert values[1:] == pytest.approx([1.0, 1.0, 1.0])


def test_eigenvalues_arpack_agrees_with_dense():
    rng = random.Random(25)
    g = random_digraph(rng, 60, 0.1)
    dense, _ = top_eigenvalues(g, k=3, dense_nodes=1000)
    sparse, meta = top_eigenvalues(g, k=3, dense_nodes=10)
    assert meta["method"] == "arpack"
    assert sparse == pytest.approx(dense, rel=1e-8, abs=1e-8)


def test_negative_k_raised_before_the_empty_answer():
    for g in (from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)]),
              DirectedGraph.from_edges(0, [])):
        with pytest.raises(ValueError, match="k must not be negative"):
            top_eigenvalues(g, k=-1)


def test_eigenvalues_of_no_nodes_or_k_0_are_empty():
    for g, k in ((DirectedGraph.from_edges(0, []), 20), (three_cycle(), 0)):
        assert top_eigenvalues(g, k=k) == ([], {"method": "none", "k": 0})


def _dense_magnitudes(g, k: int) -> list[float]:
    """Top k eigenvalue magnitudes of g's full adjacency matrix, by LAPACK."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = 1.0
    return sorted((float(abs(x)) for x in np.linalg.eigvals(a)),
                  reverse=True)[:k]


def _sparse_digraph(seed: int, n: int, mean_degree: float = 2.1):
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < round(mean_degree * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return DirectedGraph.from_edges(n, sorted(edges))


# ARPACK's default basis (ncv = 2k + 1) gave a top 20 off by 1.3e-3 to
# 4.5e-3 relative on each of these graphs when run on the whole matrix, and
# on the three with n = 1500 also when run on the strong components alone.
@pytest.mark.parametrize("n, seed", [(1000, 1), (1000, 2), (1500, 10),
                                     (1500, 15), (1500, 26)])
def test_arpack_top_k_matches_dense_on_sparse_digraphs(n, seed):
    g = _sparse_digraph(seed, n)
    values, meta = top_eigenvalues(g, k=20, dense_nodes=100)
    assert (meta["method"], meta["solved_k"], meta["ncv"]) == ("arpack", 30, 90)
    assert values == pytest.approx(_dense_magnitudes(g, 20), rel=1e-9, abs=0)


def _blocks_digraph(rng: random.Random, sizes, isolated: int):
    """Strongly connected blocks (a cycle plus random chords), the first two
    joined by forward arcs only, the rest apart, then `isolated` one-node
    components with forward arcs into the first block; node ids shuffled."""
    edges, blocks, start = set(), [], 0
    for size in sizes:
        block = list(range(start, start + size))
        edges |= {(block[i], block[(i + 1) % size]) for i in range(size)}
        edges |= {(u, v) for u in block for v in block
                  if u != v and rng.random() < 0.15}
        blocks.append(block)
        start += size
    edges |= {(u, v) for u in blocks[0] for v in blocks[1]
              if rng.random() < 0.1}
    edges |= {(v, rng.choice(blocks[0])) for v in range(start, start + isolated)}
    ids = list(range(start + isolated))
    rng.shuffle(ids)
    return DirectedGraph.from_edges(len(ids),
                                    [(ids[u], ids[v]) for u, v in edges])


def test_spectrum_is_the_union_of_the_strong_components():
    rng = random.Random(29)
    for _ in range(4):
        sizes = [rng.randint(15, 40), rng.randint(10, 30), rng.randint(2, 25),
                 rng.randint(2, 6)]
        g = _blocks_digraph(rng, sizes, rng.randint(0, 12))
        dense = _dense_magnitudes(g, 8)
        for dense_nodes, method in ((1000, "dense"), (10, "arpack")):
            values, meta = top_eigenvalues(g, 8, dense_nodes)
            assert (meta["method"], meta["nodes"]) == (method, sum(sizes))
            assert meta["power"] == (3 if method == "arpack" else None)
            assert values == pytest.approx(dense, rel=1e-9, abs=1e-9)


def test_arpack_basis_floor_falls_back_to_dense():
    # eigs needs k + 1 < ncv <= m, ncv = min(3 * solved, m - 1), solved = k + 10
    for m, method in ((16, "dense"), (17, "dense"), (18, "dense"),
                      (19, "arpack")):
        g = from_edge_list([(v, (v + 1) % m) for v in range(m)]
                           + [(v, (v + 5) % m) for v in range(0, m, 3)]
                           + [(m + v, 0) for v in range(5)])
        values, meta = top_eigenvalues(g, k=6, dense_nodes=10)
        assert (meta["method"], meta["nodes"]) == (method, m)
        assert len(values) == 6
        assert values == pytest.approx(_dense_magnitudes(g, 6), abs=1e-9)


def test_eigenvalues_pad_the_components_with_zeros():
    g = DirectedGraph.from_edges(13, [(0, 1), (1, 2), (2, 0), (3, 4)])
    values, meta = top_eigenvalues(g, k=6, dense_nodes=5)
    assert values[:3] == pytest.approx([1.0] * 3) and values[3:] == [0.0] * 3
    assert (meta["method"], meta["nodes"]) == ("dense", 3)


def test_eigenvalues_repeat_on_nearly_empty_spectra():
    rng = random.Random(30)
    for _ in range(60):
        n, m = rng.randint(15, 25), rng.randint(3, 6)
        edges: set[tuple[int, int]] = set()
        while len(edges) < m:
            u, v = rng.sample(range(n), 2)
            edges.add((u, v))
        g = DirectedGraph.from_edges(n, sorted(edges))
        first, _ = top_eigenvalues(g, 6, dense_nodes=10)
        assert top_eigenvalues(g, 6, dense_nodes=10)[0] == first
        assert first == pytest.approx(_dense_magnitudes(g, 6),
                                      rel=0, abs=1e-12)
        dag = DirectedGraph.from_edges(n, sorted({(min(e), max(e))
                                                  for e in edges}))
        values, meta = top_eigenvalues(dag, 6, dense_nodes=10)
        assert values == [0.0] * 6 and meta["nodes"] == 0


def _strong(rng: random.Random, size: int, p: float):
    """A strong component: a cycle through every node plus random arcs."""
    return size, {(v, (v + 1) % size) for v in range(size)} | {
        (u, v) for u in range(size) for v in range(size)
        if u != v and rng.random() < p}


def _layered(rng: random.Random, period: int, width: int, p: float):
    """A strong component of the given period: node v is in layer
    v % period, and the cycle v -> v + 1 and the random arcs all go from a
    layer to the next, so the spectrum is invariant under rotation by
    2 pi / period."""
    size = period * width
    return size, {(v, (v + 1) % size) for v in range(size)} | {
        (u, j * period + (u + 1) % period) for u in range(size)
        for j in range(width) if rng.random() < p}


def _times_cycle(size: int, edges, c: int):
    """The tensor product with the directed c-cycle: its spectrum is the
    digraph's times every c-th root of 1."""
    return size * c, {(u * c + i, v * c + (i + 1) % c)
                      for u, v in edges for i in range(c)}


def _side_by_side(rng: random.Random, parts, tails: int = 5):
    """The parts as disjoint components, and `tails` one-node components
    with an arc into the first part."""
    edges: set[tuple[int, int]] = set()
    n = 0
    for size, part in parts:
        edges |= {(u + n, v + n) for u, v in part}
        n += size
    edges |= {(n + t, rng.randrange(parts[0][0])) for t in range(tails)}
    return DirectedGraph.from_edges(n + tails, sorted(edges))


ROTATION_CASES = ("period2", "period3", "period6", "rotations", "mixed",
                  "cycle33", "cycle45", "cycle60")


def _rotation_case(name: str) -> DirectedGraph:
    """Spectra whose cubes coincide: one strong component of period 2, 3
    or 6; a digraph H beside H x C3 and H x C6, whose spectra are H's and
    its rotations; components of period 3, 6 and 1 together; a directed
    cycle of length 3j."""
    rng = random.Random(name)
    if name.startswith("cycle"):
        size = int(name[5:])
        return _side_by_side(rng, [(size, {(v, (v + 1) % size)
                                           for v in range(size)})])
    if name.startswith("period"):
        period = int(name[6:])
        return _side_by_side(rng, [_layered(rng, period, 60 // period, 0.15)])
    if name == "rotations":
        h = _strong(rng, 20, 0.12)
        return _side_by_side(rng, [h, _times_cycle(*h, 3),
                                   _times_cycle(*h, 6)])
    return _side_by_side(rng, [_layered(rng, 3, 12, 0.15),
                               _layered(rng, 6, 6, 0.2), _strong(rng, 30, 0.1)])


@pytest.mark.parametrize("k", [8, 20])
@pytest.mark.parametrize("name", ROTATION_CASES)
def test_arpack_on_the_cube_recovers_rotated_spectra(name, k):
    g = _rotation_case(name)
    values, meta = top_eigenvalues(g, k, dense_nodes=10)
    assert (meta["method"], meta["power"]) == ("arpack", 3)
    assert values == pytest.approx(_dense_magnitudes(g, k), rel=1e-9, abs=0)


def _one_ritz_pair_per_value(monkeypatch) -> list[int]:
    """Make eigs return only the first of each set of Ritz values that the
    recovery takes as one, as a Krylov solve that found no copies would;
    the returned list collects how many it dropped per call."""
    import scipy.sparse.linalg
    eigs, dropped = scipy.sparse.linalg.eigs, []

    def first_copies(*args, **kwargs):
        mu, x = eigs(*args, **kwargs)
        keep = [i for i in range(len(mu)) if not any(
            abs(mu[i] - mu[j]) <= metrics._COINCIDE * abs(mu[i])
            for j in range(i))]
        dropped.append(len(mu) - len(keep))
        return mu[keep], x[:, keep]
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", first_copies)
    return dropped


# every eigenvalue of these is simple, so one Ritz vector per cube holds them
@pytest.mark.parametrize("name", ["period3", "period6", "mixed", "cycle60"])
def test_recovery_needs_one_ritz_vector_per_cube(monkeypatch, name):
    g = _rotation_case(name)
    dense = _dense_magnitudes(g, 20)
    dropped = _one_ritz_pair_per_value(monkeypatch)
    values, meta = top_eigenvalues(g, 20, dense_nodes=10)
    assert meta["power"] == 3 and dropped[0] > 0
    assert values == pytest.approx(dense, rel=1e-9, abs=0)


def test_recovery_splits_a_vector_that_mixes_rotated_eigenvectors():
    from scipy.sparse import csr_matrix
    size, edges = _layered(random.Random(44), 3, 10, 0.2)
    a = np.zeros((size, size))
    for u, v in edges:
        a[u, v] = 1.0
    vals, vecs = np.linalg.eig(a)
    rho = vals[np.argmax(vals.real)].real                  # the Perron root
    omega = complex(-0.5, math.sqrt(3) / 2)
    own, rotated = (np.argmin(abs(vals - rho * w)) for w in (1, omega))
    mu = np.array([rho ** 3 + 0j])
    mixed = vecs[:, own] + vecs[:, rotated]
    got = metrics._roots_of_cube(csr_matrix(a), mu,
                                 (mixed / np.linalg.norm(mixed))[:, None])
    assert sorted(got, key=lambda z: z.imag) == \
        pytest.approx([rho, rho * omega], rel=1e-12)
    got = metrics._roots_of_cube(csr_matrix(a), mu, vecs[:, [rotated]])
    assert got == pytest.approx([rho * omega], rel=1e-12)


def test_recovery_takes_close_copies_of_a_cube_as_one():
    # two Ritz values of one cube that are not bitwise equal, within
    # _COINCIDE of each other: their vectors are projected together, so
    # each eigenvalue comes out once, and a repeated vector adds nothing
    from scipy.sparse import csr_matrix
    size, edges = _layered(random.Random(44), 3, 10, 0.2)
    a = np.zeros((size, size))
    for u, v in edges:
        a[u, v] = 1.0
    vals, vecs = np.linalg.eig(a)
    rho = vals[np.argmax(vals.real)].real
    omega = complex(-0.5, math.sqrt(3) / 2)
    own, rotated = (np.argmin(abs(vals - rho * w)) for w in (1, omega))
    mu = rho ** 3 * np.array([1, 1 + metrics._COINCIDE / 3]) + 0j
    assert mu[0] != mu[1]
    mixed = vecs[:, own] + vecs[:, rotated]
    for x, want in (([vecs[:, own], vecs[:, own]], [rho]),
                    ([mixed, vecs[:, own]], [rho, rho * omega])):
        got = metrics._roots_of_cube(csr_matrix(a), mu, np.array(x).T)
        assert sorted(got, key=lambda z: z.imag) == \
            pytest.approx(want, rel=1e-12)


def test_recovery_of_a_conjugate_pair():
    # a real matrix's complex eigenvalue lam: the member of (lam**3,
    # conj(lam**3)) with Im > 0 gives lam and conj(lam), once each; the
    # member with Im < 0 alone gives nothing
    from scipy.sparse import csr_matrix
    size, edges = _strong(random.Random(45), 20, 0.12)
    a = np.zeros((size, size))
    for u, v in edges:
        a[u, v] = 1.0
    vals, vecs = np.linalg.eig(a)
    i = max(np.flatnonzero(vals.imag > 1e-6), key=lambda j: abs(vals[j]))
    lam, v = vals[i], vecs[:, i]
    mu = np.array([lam ** 3, np.conj(lam ** 3)])
    x = np.array([v, v.conj()]).T
    got = metrics._roots_of_cube(csr_matrix(a), mu, x)
    assert sorted(got, key=lambda z: z.imag) == \
        pytest.approx([lam.conjugate(), lam], rel=1e-12)
    lower = int(np.argmin(mu.imag))
    assert metrics._roots_of_cube(csr_matrix(a), mu[[lower]],
                                  x[:, [lower]]) == []


def test_recovery_splits_a_real_vector_that_mixes_three_rotations():
    from scipy.sparse import csr_matrix
    size, edges = _layered(random.Random(44), 3, 10, 0.2)
    a = np.zeros((size, size))
    for u, v in edges:
        a[u, v] = 1.0
    vals, vecs = np.linalg.eig(a)
    rho = vals[np.argmax(vals.real)].real                  # the Perron root
    omega = complex(-0.5, math.sqrt(3) / 2)
    mixed = sum(vecs[:, np.argmin(abs(vals - rho * w))]
                for w in (1, omega, omega.conjugate()))
    assert not mixed.imag.any()
    got = metrics._roots_of_cube(csr_matrix(a), np.array([rho ** 3 + 0j]),
                                 (mixed / np.linalg.norm(mixed))[:, None])
    assert sorted(got, key=lambda z: z.imag) == pytest.approx(
        [rho * omega.conjugate(), rho, rho * omega], rel=1e-12)


def test_eigenvalue_solve_that_does_not_converge_is_a_typed_error(monkeypatch):
    import scipy.sparse.linalg

    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalled)
    g = random_digraph(random.Random(25), 60, 0.1)
    with pytest.raises(D2KError, match="did not converge"):
        top_eigenvalues(g, k=3, dense_nodes=10)


def test_too_few_recovered_eigenvalues_is_a_typed_error(monkeypatch):
    g = random_digraph(random.Random(25), 60, 0.1)
    monkeypatch.setattr(metrics, "_roots_of_cube", lambda b, mu, x: [1.0] * 2)
    with pytest.raises(D2KError, match="power = 3.*2 eigenvalues recovered"):
        top_eigenvalues(g, k=3, dense_nodes=10)


def test_structural_suite_selection_and_determinism():
    rng = random.Random(26)
    g = random_digraph(rng, 30, 0.15)
    config = MetricsConfig(metrics=("degrees", "triad_census", "scc"), seed=3)
    r1 = structural_suite(g, config)
    r2 = structural_suite(g, config)
    assert r1.values["triad_census"] == r2.values["triad_census"]
    assert r1.values["degrees"]["in"] == r2.values["degrees"]["in"]
    assert r1.values.get("betweenness") is None          # not selected
    assert r1.values["scc"] == r2.values["scc"]


def test_structural_suite_full_run_records_assumptions():
    g = three_cycle()
    r = structural_suite(g, MetricsConfig())
    assert r.values["kcore"] == {2: 3}
    assert "kcore" in r.notes and "expansion" in r.notes
    assert r.values["dyad_census"] == {"mutual": 0, "asymmetric": 3, "null": 0}
    assert r.values["eigenvalues"][0] == pytest.approx(1.0)


def test_unknown_metric_name_rejected():
    # rejected when the config is made, not when it is first used
    for kwargs in ({"metrics": ("degrees", "nope")},
                   {"metrics": ("all", "bogus")},
                   {"sample_sources": 0},
                   {"eigen_k": -2}):
        with pytest.raises(ValueError):
            MetricsConfig(**kwargs)


@pytest.mark.parametrize("metrics, message", [
    ("triad_census", "metrics must be a list or tuple of metric names, got "
                     "'triad_census'"),
    (("degrees", 5, None), "unknown metric name(s): 5, None")])
def test_metrics_config_names_a_bad_metrics_field(metrics, message):
    # a string is not split into letters, and a non-string name is named,
    # not left to fail in str.join
    with pytest.raises(ValueError) as info:
        MetricsConfig(metrics=metrics)
    assert str(info.value) == message


@pytest.mark.parametrize("field, value", [
    ("seed", True), ("seed", 1.5), ("sample_sources", True),
    ("path_exact_nodes", 10.0), ("betweenness_exact_nodes", "5"),
    ("eigen_k", 2.5), ("eigen_dense_nodes", None)])
def test_metrics_config_integers_are_ints(field, value):
    # a bool or a float would reach a slice or path_meta, not an error
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        MetricsConfig(**{field: value})


def test_metrics_config_is_immutable():
    # a config is validated once, so no field may change afterwards
    c = MetricsConfig()
    with pytest.raises(AttributeError):
        c.sample_sources = 0
    assert c.sample_sources == 100


# -- exact distances, against the Fraction-per-step reference ---------------

def _ref_normalized(hist: dict) -> dict:
    total = sum(hist.values())
    if total == 0:
        return {}
    return {k: Fraction(v) / total for k, v in hist.items()}


def _ref_mean_hist(hists: list[dict]) -> dict:
    acc: dict = {}
    for h in hists:
        for k, p in _ref_normalized(h).items():
            acc[k] = acc.get(k, Fraction(0)) + p
    return {k: v / len(hists) for k, v in acc.items()}


def _ref_cdf_sup_distance(p1: dict, p2: dict, key_order=None) -> float:
    keys = key_order if key_order is not None else sorted(set(p1) | set(p2))
    acc1 = acc2 = worst = Fraction(0)
    for k in keys:
        acc1 += p1.get(k, 0)
        acc2 += p2.get(k, 0)
        worst = max(worst, abs(acc1 - acc2))
    return float(worst)


def _ref_map_sup_distance(m1: dict, m2: dict) -> float:
    keys = set(m1) | set(m2)
    return float(max((abs(m1.get(k, 0) - m2.get(k, 0)) for k in keys),
                     default=0))


def _ref_joint_distribution(counts: dict) -> dict:
    # the joint matrix stores each cell pair once; its entries sum to m
    if not counts:
        return {}
    return {k: Fraction(v, 2 * sum(counts.values())) for k, v in counts.items()}


def _ref_ks_distance(a: list, b: list) -> float:
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    sa, sb = sorted(a), sorted(b)
    worst = Fraction(0)
    i = j = 0
    for x in sorted(set(sa) | set(sb)):
        while i < len(sa) and sa[i] <= x:
            i += 1
        while j < len(sb) and sb[j] <= x:
            j += 1
        worst = max(worst, abs(Fraction(i, len(sa)) - Fraction(j, len(sb))))
    return float(worst)


def _random_hist(rng, keys) -> dict:
    return {k: rng.choice((0, 1, 2, 5, 7, 40))
            for k in rng.sample(keys, rng.randint(0, len(keys)))}


def test_count_distances_match_fraction_reference():
    rng = random.Random(28)
    named = Counts(str, TRIAD_NAMES)
    joint = Counts(str, joint=True)
    for _ in range(400):
        keys = list(range(rng.randint(1, 16)))
        orig = _random_hist(rng, keys)
        insts = [_random_hist(rng, keys) for _ in range(rng.randint(1, 5))]
        assert HISTOGRAM.ensemble(orig, insts) == _ref_cdf_sup_distance(
            _ref_normalized(orig), _ref_mean_hist(insts))
        assert HISTOGRAM.distance(orig, insts[0]) == _ref_cdf_sup_distance(
            _ref_normalized(orig), _ref_normalized(insts[0]))

        def named_of(h):
            return {TRIAD_NAMES[k]: c for k, c in h.items()}
        assert named.ensemble(named_of(orig), [named_of(h) for h in insts]) \
            == _ref_cdf_sup_distance(_ref_normalized(named_of(orig)),
                                     _ref_mean_hist([named_of(h) for h in insts]),
                                     TRIAD_NAMES)

        def joint_of(h):
            return {f"in:{k}|out:{k}": c for k, c in h.items() if c}
        mean: dict = {}
        for h in insts:
            for k, p in _ref_joint_distribution(joint_of(h)).items():
                mean[k] = mean.get(k, Fraction(0)) + p
        mean = {k: v / len(insts) for k, v in mean.items()}
        assert joint.ensemble(joint_of(orig), [joint_of(h) for h in insts]) \
            == _ref_map_sup_distance(_ref_joint_distribution(joint_of(orig)),
                                     mean)

        assert HISTOGRAM.ensemble(orig, [orig] * len(insts)) == 0.0
    assert HISTOGRAM.distance({}, {}) == 0.0
    assert HISTOGRAM.distance({}, {3: 2}) == 1.0


def test_value_distances_match_fraction_reference():
    # random samples, then repeated values, values shared by the two sides,
    # empty instances and empty sides
    rng = random.Random(29)
    pool = (0.0, 0.25, 1 / 3, 0.5, 2.0, 7.5)
    cases = [([rng.choice(pool) for _ in range(rng.randint(0, 12))],
              [[rng.choice(pool) for _ in range(rng.randint(0, 12))]
               for _ in range(rng.randint(1, 4))]) for _ in range(400)]
    cases += [([], [[], []]), ([], [[0.5], []]), ([0.5, 0.5], [[], []]),
              ([1.0] * 4, [[1.0] * 3, [1.0]]),
              ([0.0, 0.5, 0.5, 2.0], [[0.5, 0.5, 0.5], [2.0, 0.0]]),
              ([2.0, 0.25], [[0.25], [0.25, 2.0, 2.0], []]),
              (list(range(9)), [[4.0, 4.0, 9.0], [0.0]])]
    for orig, insts in cases:
        pooled = [x for values in insts for x in values]
        assert Values().ensemble(orig, insts) == _ref_ks_distance(orig, pooled)
        assert Values().distance(orig, insts[0]) == \
            _ref_ks_distance(orig, insts[0])
        assert Values().ensemble(orig, [orig[::-1]] * 3) == 0.0
    assert Values().distance([], []) == 0.0
    assert Values().distance([], [1.0]) == Values().distance([1.0], []) == 1.0


def test_mean_map_distance_of_one_instance_is_float_difference():
    rng = random.Random(30)
    for _ in range(200):
        a = {k: rng.uniform(0, 50) for k in rng.sample(range(10), 5)}
        b = {k: rng.uniform(0, 50) for k in rng.sample(range(10), 5)}
        assert Means().distance(a, b) == _ref_map_sup_distance(a, b)
