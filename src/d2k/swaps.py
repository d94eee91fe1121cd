"""One mutable swap engine, and swap-neighborhood enumeration.

SwapGraph applies each move in place in O(1), and only when the result
stays simple.  Every move permutes heads among edges that keep their
tails, so it keeps every degree: cross, the double swap (a,b),(c,d) ->
(a,d),(c,b), keeps the joint degree/side matrix too when the sources share
an out-cell or the targets an in-cell (a jdam_double swap); rotate, the
3-arc rotation (a,b),(c,d),(e,f) -> (a,d),(c,f),(e,b), also turns a
directed 3-cycle around, which double swaps cannot do.

At n = 4 the moves that keep the matrix leave the realizations of 94 d2k
and 286 d2km targets in more than one class with double swaps alone, 24
and 168 with 3-cycle reversals added, and none with every 3-arc rotation
(pinned in tests/test_realization_law.py).
"""
from __future__ import annotations

import random
from collections.abc import Sequence

from .errors import SwapError
from .graph import DirectedGraph
from .targets import MODE_DEGREE, cell_table


class SwapGraph:
    """A simple digraph on nodes 0..n-1 as mutable arrays.

    Edge i is (src[i], dst[i]) and keeps its index and its tail when a move
    rewires it, so moves write only dst; out[u] maps each out-neighbour v
    of u to the index of edge (u, v), and is the only index of u's
    out-edges.  reverse_random_cycle lists closers in the maps' insertion
    order, which the moves made so far set, so each move keeps the order
    of its deletes and inserts.
    """

    __slots__ = ("n", "src", "dst", "out")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.n = n
        self.src = [u for u, _ in edges]
        self.dst = [v for _, v in edges]
        self.out: list[dict[int, int]] = [{} for _ in range(n)]
        # an edge out of range leaves the maps empty, a parallel edge makes
        # them one entry short
        if all(0 <= u < n and 0 <= v < n and u != v for u, v in edges):
            for i, (u, v) in enumerate(edges):
                self.out[u][v] = i
        if sum(map(len, self.out)) != len(edges):
            raise SwapError(f"edges do not form a simple digraph on {n} nodes")

    def graph(self) -> DirectedGraph:
        """The current edge set as a DirectedGraph, edges in sorted order."""
        return DirectedGraph(self.n, [sorted(heads) for heads in self.out])

    def cross(self, i: int, j: int) -> bool:
        """Rewire edges i = (a,b) and j = (c,d) into (a,d) and (c,b).

        Returns False and changes nothing when the edges share an endpoint
        or the result would have a self-loop or a parallel edge.  Crossing
        the same two indices again undoes the move.
        """
        src, dst = self.src, self.dst
        a, b, c, d = src[i], dst[i], src[j], dst[j]
        if a == d or c == b or a == c or b == d:
            return False
        out_a, out_c = self.out[a], self.out[c]
        if d in out_a or b in out_c:
            return False
        dst[i], dst[j] = d, b
        del out_a[b], out_c[d]
        out_a[d], out_c[b] = i, j
        return True

    def rotate(self, i: int, j: int, k: int) -> bool:
        """Move the heads of edges i = (a,b), j = (c,d), k = (e,f) one place
        round, into (a,d), (c,f) and (e,b).

        Returns False and changes nothing unless the tails are distinct, the
        heads are distinct and the result is simple.  Rotating i, k, j
        undoes the move.
        """
        src, dst, out = self.src, self.dst, self.out
        a, b, c, d, e, f = src[i], dst[i], src[j], dst[j], src[k], dst[k]
        if a == d or c == f or e == b:
            return False
        # a shared tail or head makes a new arc one that exists now (a == c:
        # (a, d) is edge j; b == d: (a, d) is edge i), so these tests
        # reject it too
        out_a, out_c, out_e = out[a], out[c], out[e]
        if d in out_a or f in out_c or b in out_e:
            return False
        dst[i], dst[j], dst[k] = d, f, b
        del out_a[b], out_c[d], out_e[f]
        out_a[d], out_c[f], out_e[b] = i, j, k
        return True

    def reverse_random_cycle(self, rng: random.Random) -> bool:
        """Reverse one random directed 3-cycle, if 5 probes find one.

        Each probe draws an edge (a, b), then a closer w of b->w->a from
        the closers in out[b]'s insertion order, both uniformly by inlined
        getrandbits rejection (the draws of randrange(m) and
        choice(closers)), and rotates the cycle's three edges.
        """
        src, dst, out = self.src, self.dst, self.out
        m = len(src)
        if m == 0:
            return False
        k = m.bit_length()
        getrandbits = rng.getrandbits
        for _ in range(5):
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            a, out_b = src[i], out[dst[i]]
            closers = [w for w in out_b if a in out[w]]
            if not closers:
                continue
            count = len(closers)
            kc = count.bit_length()
            r = getrandbits(kc)
            while r >= count:
                r = getrandbits(kc)
            w = closers[r]
            if self.rotate(i, out_b[w], out[w][a]):
                return True
        return False


def enumerate_jdam_swaps(g: DirectedGraph,
                         mode: str = MODE_DEGREE) -> list[DirectedGraph]:
    """All graphs one accepted jdam-preserving double swap away from g.

    Walks the edge pairs i < j of g's sorted edges whose sources share an
    out-cell or whose targets share an in-cell.  Deduplicated by edge set;
    g itself never appears (an accepted swap always changes the edge set).
    """
    sg = SwapGraph(g.n, sorted(g.edges()))
    src, dst = sg.src, sg.dst
    _, in_of, out_of = cell_table(g.degree_pairs(), mode)
    in_cell, out_cell = in_of.tolist(), out_of.tolist()
    neighbors: list[DirectedGraph] = []
    seen: set[frozenset[tuple[int, int]]] = set()
    for i in range(len(src)):
        for j in range(i + 1, len(src)):
            if out_cell[src[i]] != out_cell[src[j]] \
                    and in_cell[dst[i]] != in_cell[dst[j]]:
                continue
            if not sg.cross(i, j):
                continue
            res = sg.graph()
            sg.cross(i, j)
            key = res.edge_set()
            if key not in seen:
                seen.add(key)
                neighbors.append(res)
    return neighbors
