"""Simple directed graphs.

A directed graph over dense integer ids 0..n-1 is stored as out- and
in-adjacency lists, and its out-arcs once more as read-only CSR arrays
(built on first use for a graph made from lists); its edge set is built on
demand.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np

from .errors import EdgeListFormatError

ID_LIMIT = 1 << 63             # node ids of an edge list are below this


class DirectedGraph:
    """Immutable-by-convention simple digraph.

    Build instances through :func:`from_edge_list`, :func:`from_id_arrays`
    or :meth:`DirectedGraph.from_edges`; the constructor trusts its input
    and only asserts that every head is a node id and that the graph is
    simple.
    Graphs compare by node count and edge set and are not hashable.
    """

    # _csr caches csr(); _adjacency caches the sorted sparse matrix that
    # metrics builds from it, once per graph
    __slots__ = ("n", "m", "out_adj", "in_adj", "orig_ids", "_csr",
                 "_adjacency")

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
        self._csr = None
        self._adjacency = None

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, heads: np.ndarray,
                  orig_ids: list[int] | None) -> "DirectedGraph":
        """The graph of int64 CSR arrays that hold no self-loop, no repeated
        head and only heads in 0..n-1; the lists are sliced from them."""
        n = len(indptr) - 1
        tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=in_ptr[1:])
        g = cls.__new__(cls)
        g.n = n
        g.m = len(heads)
        # one int object per node, shared by every list entry naming it
        node = np.arange(n).astype(object)
        g.out_adj = _slices(node[heads].tolist(), indptr.tolist())
        # CSR order is tail order, so each in-list lists its tails in
        # ascending order, as __init__ builds it
        g.in_adj = _slices(node[tails[_stable_order(heads)]].tolist(),
                           in_ptr.tolist())
        g.orig_ids = orig_ids
        g._adjacency = None
        g._set_csr(indptr, heads)
        return g

    def _set_csr(self, indptr: np.ndarray, heads: np.ndarray) -> None:
        indptr.flags.writeable = False
        heads.flags.writeable = False
        self._csr = (indptr, heads)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, heads) of the out-arcs, int64 and read-only, each row in
        the order of its adjacency list; built once per graph."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(nbrs) for nbrs in self.out_adj], out=indptr[1:])
            self._set_csr(indptr, np.fromiter(
                chain.from_iterable(self.out_adj), dtype=np.int64,
                count=self.m))
        return self._csr

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


def _slices(flat: list, indptr: list[int]) -> list[list]:
    """flat cut into the rows indptr delimits."""
    return [flat[a:b] for a, b in zip(indptr, indptr[1:])]


def _first_copies(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group): the position of the first copy of each distinct
    value, distinct values in ascending order, and the index into first of
    each element's value."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    group = np.empty(len(values), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(values) \
        else order
    return first, group


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The positions of keys, non-negative ints below 2**63 / len(keys),
    sorted by key, ties in position order: one sort of key * len +
    position, which numpy does faster than a stable argsort."""
    size = len(keys)
    return np.sort(keys * size + np.arange(size)) % max(size, 1)


def from_id_arrays(src: np.ndarray, dst: np.ndarray,
                   stats: dict | None = None) -> DirectedGraph:
    """The simple digraph of the id pairs (src[i], dst[i]), two int64
    arrays of non-negative ids, cleaned as :func:`from_edge_list` cleans.

    Self-loops go before any id is registered; ids are remapped to 0..n-1
    in order of first appearance, the source of a pair before its target;
    the first copy of a repeated pair stays, and a stable sort by source
    keeps each node's heads in input order.
    """
    pairs = len(src)
    # the ids in order of appearance, self-loops left out
    ids = np.column_stack((src, dst))[src != dst].ravel()
    first, group = _first_copies(ids)
    n = len(first)
    by_first = np.argsort(first)
    orig_ids = ids[first[by_first]].tolist() or None
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(n)
    dense = rank[group]
    del first, group, by_first, rank
    tails, heads = dense[0::2], dense[1::2]
    kept = np.sort(_first_copies(tails * n + heads)[0])
    tails, heads = tails[kept], heads[kept]
    if stats is not None:
        stats.update({"pairs": pairs, "self_loops": pairs - len(ids) // 2,
                      "duplicates": len(ids) // 2 - len(kept)})
    del ids, dense, kept
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return DirectedGraph._from_csr(indptr, heads[_stable_order(tails)],
                                   orig_ids)


def from_edge_list(pairs: Sequence[tuple[int, int]] | Iterable,
                   stats: dict | None = None) -> DirectedGraph:
    """Build a simple digraph from raw (source, target) id pairs.

    Ids are non-negative ints below 2**63 (a bool or another int subclass
    is malformed); they are remapped to dense 0..n-1 in first-appearance
    order (the original ids are kept on the graph).  Self-loop pairs are
    dropped before ids are registered, and duplicate ordered pairs collapse
    to one edge.  When stats is given, it receives the counts of input
    pairs, dropped self-loops and dropped duplicates under "pairs",
    "self_loops" and "duplicates".

    Raises EdgeListFormatError for a malformed pair, reporting its position.
    """
    ids: list[int] = []
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
        if u >= ID_LIMIT or v >= ID_LIMIT:
            raise EdgeListFormatError(
                f"pair at position {pos} has ids of 2**63 or more: {pair!r}",
                position=pos)
        ids += (u, v)
    ids_arr = np.array(ids, dtype=np.int64)
    return from_id_arrays(ids_arr[0::2], ids_arr[1::2], stats)
