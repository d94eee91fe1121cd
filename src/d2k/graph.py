"""Simple directed graphs.

A directed graph over dense integer ids 0..n-1 is stored with both out- and
in-adjacency plus a constant-time edge-membership set.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import EdgeListFormatError

MUTUAL = "mutual"
ASYMMETRIC = "asymmetric"
NULL = "null"


class DirectedGraph:
    """Immutable-by-convention simple digraph.

    Build instances through :func:`from_edge_list` or
    :meth:`DirectedGraph.from_edges`; the constructor trusts its input and
    only asserts simplicity.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj", "orig_ids", "_edge_set")

    def __init__(self, n: int, out_adj: list[list[int]],
                 orig_ids: list[int] | None = None):
        if len(out_adj) != n:
            raise ValueError("adjacency length does not match node count")
        in_adj: list[list[int]] = [[] for _ in range(n)]
        edge_set: set[tuple[int, int]] = set()
        m = 0
        for u, nbrs in enumerate(out_adj):
            for v in nbrs:
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                if (u, v) in edge_set:
                    raise ValueError(f"parallel edge {u}->{v}")
                edge_set.add((u, v))
                in_adj[v].append(u)
                m += 1
        self.n = n
        self.m = m
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.orig_ids = orig_ids
        self._edge_set = edge_set

    @classmethod
    def from_edges(cls, n: int,
                   edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        out_adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            out_adj[u].append(v)
        return cls(n, out_adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_set

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
        return frozenset(self._edge_set)

    def original_id(self, v: int) -> int:
        return v if self.orig_ids is None else self.orig_ids[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.n == other.n and self._edge_set == other._edge_set

    def __hash__(self):  # pragma: no cover - graphs are not meant as keys
        return hash((self.n, frozenset(self._edge_set)))

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, m={self.m})"


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
    edge_seen: set[tuple[int, int]] = set()
    loops = dups = 0

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
        if (du, dv) in edge_seen:
            dups += 1
            continue
        edge_seen.add((du, dv))
        out_adj[du].append(dv)

    if stats is not None:
        stats.update({"pairs": loops + dups + len(edge_seen),
                      "self_loops": loops, "duplicates": dups})
    orig_ids = list(remap)
    return DirectedGraph(len(out_adj), out_adj, orig_ids or None)


def dyad_state(g: DirectedGraph, u: int, v: int) -> str:
    """Classify the unordered pair {u, v} as mutual, asymmetric or null."""
    if u == v:
        raise ValueError("dyad state is undefined for a single node")
    uv = g.has_edge(u, v)
    vu = g.has_edge(v, u)
    if uv and vu:
        return MUTUAL
    if uv or vu:
        return ASYMMETRIC
    return NULL
