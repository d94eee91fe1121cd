"""Simple directed graphs.

A directed graph over dense integer ids 0..n-1 holds each of its out-arcs
once, in read-only int64 CSR arrays; its edge set is built on demand.
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
    or :meth:`DirectedGraph.from_edges`.  The constructor takes
    out-adjacency lists and checks that every head is an int node id and
    that the graph is simple.
    Graphs compare by node count and edge set and are not hashable.
    """

    # _adjacency caches the sorted sparse matrix that metrics builds from
    # the CSR arrays, once per graph
    __slots__ = ("n", "m", "orig_ids", "_csr", "_adjacency")

    def __init__(self, n: int, out_adj: Sequence[Sequence[int]],
                 orig_ids: list[int] | None = None):
        if len(out_adj) != n:
            raise ValueError("adjacency length does not match node count")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(nbrs) for nbrs in out_adj], out=indptr[1:])
        flat = list(chain.from_iterable(out_adj))
        heads = np.array(flat) if flat else indptr[:0].copy()
        # a float, a huge int or another object makes a non-int array,
        # which is not cast: that would truncate 1.7 to 1
        if heads.dtype.kind != "i" or heads.ndim != 1 \
                or not ((heads >= 0) & (heads < n)).all():
            _check_heads(n, indptr, flat)
        heads = heads.astype(np.int64, copy=False)
        tails = _tails(indptr)
        keys = np.sort(tails * n + heads)
        if (tails == heads).any() or (keys[1:] == keys[:-1]).any():
            _raise_not_simple(indptr, heads)
        self._init(indptr, heads, orig_ids)

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, heads: np.ndarray,
                  orig_ids: list[int] | None) -> "DirectedGraph":
        """The graph of int64 CSR arrays that hold no self-loop, no repeated
        head and only heads in 0..n-1."""
        g = cls.__new__(cls)
        g._init(indptr, heads, orig_ids)
        return g

    def _init(self, indptr: np.ndarray, heads: np.ndarray,
              orig_ids: list[int] | None) -> None:
        indptr.flags.writeable = False
        heads.flags.writeable = False
        self.n = len(indptr) - 1
        self.m = len(heads)
        self.orig_ids = orig_ids
        self._csr = (indptr, heads)
        self._adjacency = None

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, heads) of the out-arcs, int64 and read-only: the heads
        of node u are heads[indptr[u]:indptr[u + 1]], in the order they
        were given."""
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
        indptr, heads = self._csr
        return zip(_tails(indptr).tolist(), heads.tolist())

    def degree_pairs(self) -> list[tuple[int, int]]:
        """Per-node (in-degree, out-degree) pairs in node order."""
        indptr, heads = self._csr
        return list(zip(np.bincount(heads, minlength=self.n).tolist(),
                        np.diff(indptr).tolist()))

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


def _tails(indptr: np.ndarray) -> np.ndarray:
    """The tail of each arc of a CSR row pointer."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                     np.diff(indptr))


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of keys occur in the sorted array sorted_keys."""
    at = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


def _row(indptr: np.ndarray, p: int) -> int:
    """The node whose row holds arc position p."""
    return int(np.searchsorted(indptr, p, side="right")) - 1


def _check_heads(n: int, indptr: np.ndarray, flat: list) -> None:
    """Raise for the first head, in node order, that is not an int or not
    in 0..n-1 (an array of another int type passes)."""
    for p, v in enumerate(flat):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"head {v!r} of node {_row(indptr, p)} is not "
                            f"an int")
        if not 0 <= v < n:
            raise ValueError(f"head {v} of node {_row(indptr, p)} is not a "
                             f"node id in 0..{n - 1}")


def _raise_not_simple(indptr: np.ndarray, heads: np.ndarray) -> None:
    """Raise for the first self-loop or repeated head, in node order and
    then in list order."""
    bounds = indptr.tolist()
    for u, (a, b) in enumerate(zip(bounds, bounds[1:])):
        seen: set[int] = set()
        for v in heads[a:b].tolist():
            if v == u:
                raise ValueError(f"self-loop at node {u}")
            if v in seen:
                raise ValueError(f"parallel edge {u}->{v}")
            seen.add(v)


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
