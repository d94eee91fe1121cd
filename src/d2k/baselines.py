"""Reference generators: fixed-size random digraphs, dyad-census graphs,
and directed degree-sequence realizations.

All three are deterministic per seed, always emit simple digraphs, and hit
their target quantity exactly (edge count, dyad census, degree sequence).
A negative seed raises ValueError.
"""
from __future__ import annotations

import heapq
import random

from .errors import NotGraphicalError
from .graph import DirectedGraph
from .swaps import SwapGraph
from .targets import DdsTargets, SizeTargets, UmanTargets, check_seed

# Most nodes a d0k or uman graph is built with.  Their targets do not list
# the nodes, yet the graph holds every one, and building it peaks at about
# 90 bytes per node (the row lists of `DirectedGraph.from_edges`), so this
# bound keeps a target's n from asking for more than about 1.5 GiB.
# Extraction reads an existing graph and is not bounded.
NODE_LIMIT = 1 << 24


def _bound_nodes(n: int) -> None:
    """Raise ValueError, before anything is allocated, when n > NODE_LIMIT."""
    if n > NODE_LIMIT:
        raise ValueError(f"n = {n} is above the {NODE_LIMIT} nodes a d0k "
                         f"or uman graph is built with")


def gen_d0k(t: SizeTargets, seed: int = 1) -> DirectedGraph:
    """Uniform simple digraph with exactly t.m edges on t.n nodes, drawn
    by _sample_pairs.  Raises ValueError when t.n > NODE_LIMIT."""
    _bound_nodes(t.n)
    return DirectedGraph.from_edges(
        t.n, _sample_pairs(t.n, t.m, random.Random(check_seed(seed))))


def _sample_pairs(n: int, count: int, rng: random.Random,
                  ordered: bool = True) -> list[tuple[int, int]]:
    """count distinct pairs of distinct nodes, uniformly, in ascending order;
    an unordered pair is kept as (min, max).

    Rejection-samples the pairs, each draw two rng.randrange(n), or the
    pairs left out when count is more than half of all pairs, which keeps
    the expected time near-linear at any density.
    """
    total = n * (n - 1) if ordered else n * (n - 1) // 2
    dense = count > total // 2
    draws = total - count if dense else count
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < draws:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((u, v) if ordered or u < v else (v, u))
    if not dense:
        return sorted(chosen)
    return [(u, v) for u in range(n) for v in range(0 if ordered else u, n)
            if u != v and (u, v) not in chosen]


def gen_uman(t: UmanTargets, seed: int = 1) -> DirectedGraph:
    """Uniform digraph with the exact dyad census (mutual, asymmetric, null).

    Samples mutual+asymmetric distinct unordered pairs, then assigns states
    by a random partition of the shuffled sample; asymmetric dyads get a
    uniformly random orientation.  Raises ValueError when t.n > NODE_LIMIT.
    """
    _bound_nodes(t.n)
    rng = random.Random(check_seed(seed))
    sample = _sample_pairs(t.n, t.mutual + t.asymmetric, rng, ordered=False)
    rng.shuffle(sample)
    edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(sample):
        if i < t.mutual:
            edges.append((u, v))
            edges.append((v, u))
        elif rng.random() < 0.5:
            edges.append((u, v))
        else:
            edges.append((v, u))
    return DirectedGraph.from_edges(t.n, edges)


def gen_d1k(t: DdsTargets, seed: int = 1,
            randomize_swaps: int | None = None) -> DirectedGraph:
    """Simple digraph with exactly the per-node (in, out) degrees of t.

    A greedy pass certifies graphicality by constructing one realization;
    a randomization pass then makes randomize_swaps attempts (default
    10*m; one below 0 or not an int raises ValueError) on a SwapGraph.
    Each attempt draws rng.random(): below 0.1 it tries
    SwapGraph.reverse_random_cycle, otherwise it crosses two edges drawn
    uniformly by inlined getrandbits rejection, the draws of randrange(m).
    """
    check_seed(seed)
    if randomize_swaps is not None and (type(randomize_swaps) is not int
                                        or randomize_swaps < 0):
        raise ValueError(
            f"swap attempts must be an int >= 0, got {randomize_swaps!r}")
    edges = _greedy_directed_realization(t, seed)
    rng = random.Random(seed ^ 0x5EED)
    m = len(edges)
    attempts = 10 * m if randomize_swaps is None else randomize_swaps
    sg = SwapGraph(t.n, edges)
    rand, getrandbits = rng.random, rng.getrandbits
    cross, reverse_random_cycle = sg.cross, sg.reverse_random_cycle
    k = m.bit_length()
    for _ in range(attempts if m >= 2 else 0):
        if rand() < 0.1:
            reverse_random_cycle(rng)
            continue
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        cross(i, j)
    return sg.graph()


def _greedy_directed_realization(t: DdsTargets, seed: int) -> list[tuple[int, int]]:
    """Kleitman-Wang style greedy: satisfy nodes in order of out-degree,
    wiring each to the lexicographically largest (in-remainder,
    out-remainder) targets.

    The lexicographic order is what certifies graphicality; a random
    tie-break on the in-remainder alone can strand a graphical sequence.
    Seeded randomness only permutes nodes whose full remainder pair ties.
    """
    n = t.n
    dds = t.dds
    if sum(d for d, _ in dds) != sum(d for _, d in dds):
        raise NotGraphicalError("in-degree and out-degree totals differ")
    for v, (d_in, d_out) in enumerate(dds):
        if d_in > n - 1 or d_out > n - 1:
            raise NotGraphicalError(
                f"node {v} has degree pair {dds[v]} on {n} nodes")

    rng = random.Random(seed)
    rank = list(range(n))
    rng.shuffle(rank)

    in_rem = [d_in for d_in, _ in dds]
    out_rem = [d_out for _, d_out in dds]
    # Max-heap over (in-remainder, out-remainder, tie rank); entries go
    # stale when either remainder of a node changes and are skipped on pop.
    heap = [(-in_rem[v], -out_rem[v], rank[v], v) for v in range(n)]
    heapq.heapify(heap)

    order = sorted(range(n), key=lambda v: (-out_rem[v], rank[v]))
    edges: list[tuple[int, int]] = []
    for source in order:
        need = out_rem[source]
        if need == 0:
            continue
        # Zeroed first, so the source's own entries are stale on pop.
        out_rem[source] = 0
        taken: list[int] = []
        while need and heap:
            entry = heapq.heappop(heap)
            neg_in, neg_out, _, v = entry
            if -neg_in != in_rem[v] or -neg_out != out_rem[v]:
                continue  # stale
            if in_rem[v] == 0:
                heapq.heappush(heap, entry)
                break
            # Decrement immediately so any duplicate entry for v goes stale;
            # the refreshed entry is pushed only after the step, keeping the
            # chosen targets distinct.
            in_rem[v] -= 1
            taken.append(v)
            need -= 1
        if need:
            raise NotGraphicalError(
                "degree sequence is not realizable as a simple digraph")
        for v in taken:
            edges.append((source, v))
            heapq.heappush(heap, (-in_rem[v], -out_rem[v], rank[v], v))
        # source's out-remainder changed; refresh its heap entry lazily
        heapq.heappush(heap, (-in_rem[source], 0, rank[source], source))
    return edges
