"""Simple directed graphs.

A directed graph over dense integer ids 0..n-1 is stored once as out- and
in-adjacency lists; its edge set is built on demand.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .errors import EdgeListFormatError


class DirectedGraph:
    """Immutable-by-convention simple digraph.

    Build instances through :func:`from_edge_list` or
    :meth:`DirectedGraph.from_edges`; the constructor trusts its input and
    only asserts that every head is a node id and that the graph is simple.
    Graphs compare by node count and edge set and are not hashable.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj", "orig_ids")

    def __init__(self, n: int, out_adj: list[list[int]],
                 orig_ids: list[int] | None = None):
        if len(out_adj) != n:
            raise ValueError("adjacency length does not match node count")
        # a negative head would index in_adj from its end; one >= n raises
        # IndexError there
        if min(chain.from_iterable(out_adj), default=0) < 0:
            _raise_not_a_node(n, out_adj)
        in_adj: list[list[int]] = [[] for _ in range(n)]
        m = 0
        for u, nbrs in enumerate(out_adj):
            heads = set(nbrs)
            if u in heads or len(heads) != len(nbrs):
                _raise_not_simple(u, nbrs)
            try:
                for v in nbrs:
                    in_adj[v].append(u)
            except IndexError:
                _raise_not_a_node(n, out_adj)
            m += len(nbrs)
        self.n = n
        self.m = m
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.orig_ids = orig_ids

    @classmethod
    def from_edges(cls, n: int,
                   edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        out_adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            # a negative tail would index out_adj from its end
            if not 0 <= u < n:
                raise ValueError(
                    f"tail {u} of edge ({u}, {v}) is not a node id in "
                    f"0..{n - 1}")
            out_adj[u].append(v)
        return cls(n, out_adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.out_adj):
            for v in nbrs:
                yield u, v

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def degree_pairs(self) -> list[tuple[int, int]]:
        """Per-node (in-degree, out-degree) pairs in node order."""
        return [(len(self.in_adj[v]), len(self.out_adj[v]))
                for v in range(self.n)]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The (u, v) edges as a new frozenset, built on each call."""
        return frozenset(self.edges())

    def original_id(self, v: int) -> int:
        return v if self.orig_ids is None else self.orig_ids[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.n == other.n and self.edge_set() == other.edge_set()

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, m={self.m})"


def _raise_not_a_node(n: int, out_adj: list[list[int]]) -> None:
    """Raise for the first head outside 0..n-1, in node order."""
    u, v = next((u, v) for u, nbrs in enumerate(out_adj) for v in nbrs
                if not 0 <= v < n)
    raise ValueError(f"head {v} of node {u} is not a node id in 0..{n - 1}")


def _raise_not_simple(u: int, nbrs: list[int]) -> None:
    """Raise for the first self-loop or repeated head in u's list."""
    seen: set[int] = set()
    for v in nbrs:
        if v == u:
            raise ValueError(f"self-loop at node {u}")
        if v in seen:
            raise ValueError(f"parallel edge {u}->{v}")
        seen.add(v)


def from_edge_list(pairs: Sequence[tuple[int, int]] | Iterable,
                   stats: dict | None = None) -> DirectedGraph:
    """Build a simple digraph from raw (source, target) id pairs.

    Ids may be arbitrary non-negative ints (a bool or another int subclass
    is malformed); they are remapped to dense 0..n-1 in first-appearance
    order (the original ids are kept on the graph).  Self-loop pairs are
    dropped before ids are registered, and duplicate ordered pairs collapse
    to one edge.  When stats is given, it receives the counts of input
    pairs, dropped self-loops and dropped duplicates under "pairs",
    "self_loops" and "duplicates".

    Raises EdgeListFormatError for a malformed pair, reporting its position.
    """
    remap: dict[int, int] = {}
    out_adj: list[list[int]] = []
    loops = 0

    def dense(orig: int) -> int:
        idx = remap.get(orig)
        if idx is None:
            idx = len(remap)
            remap[orig] = idx
            out_adj.append([])
        return idx

    for pos, pair in enumerate(pairs):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise EdgeListFormatError(
                f"pair at position {pos} is not a (source, target) pair: {pair!r}",
                position=pos) from None
        if type(u) is not int or type(v) is not int:
            raise EdgeListFormatError(
                f"pair at position {pos} has non-integer ids: {pair!r}",
                position=pos)
        if u < 0 or v < 0:
            raise EdgeListFormatError(
                f"pair at position {pos} has negative ids: {pair!r}",
                position=pos)
        if u == v:
            loops += 1
            continue
        du, dv = dense(u), dense(v)
        out_adj[du].append(dv)

    dups = 0
    for u, nbrs in enumerate(out_adj):
        heads = list(dict.fromkeys(nbrs))     # first copies, in order
        dups += len(nbrs) - len(heads)
        out_adj[u] = heads
    if stats is not None:
        stats.update({"pairs": loops + dups + sum(map(len, out_adj)),
                      "self_loops": loops, "duplicates": dups})
    orig_ids = list(remap)
    return DirectedGraph(len(out_adj), out_adj, orig_ids or None)

