"""Edge-swap moves over realizations and swap-neighborhood enumeration.

Three move kinds:

* jdam_double: crossing rewire of two edges that share a cell on one side,
  so every cell-pair count of the joint degree/side matrix is preserved;
* degree_double: crossing rewire of two arbitrary directed edges, which
  preserves every in- and out-degree (but not the joint matrix);
* c6_reverse: reversal of a directed 3-cycle, the extra move needed on top
  of double swaps for degree-preserving connectivity.

A swap is accepted only when the result stays simple.  On the bipartite
split, where every node has an out-side and an in-side copy, a self-loop is
an edge on the non-chord joining the two copies of one node.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SwapError
from .graph import DirectedGraph
from .targets import MODE_DEGREE, node_cells

Edge = tuple[int, int]


@dataclass(frozen=True)
class SwapProposal:
    kind: str                      # jdam_double | degree_double | c6_reverse
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]


def double_swap_proposal(e1: Edge, e2: Edge,
                         kind: str = "degree_double") -> SwapProposal:
    """Crossing rewire of two edges: (a,b),(c,d) -> (a,d),(c,b)."""
    (a, b), (c, d) = e1, e2
    if a == c or b == d:
        raise SwapError(f"degenerate double swap of {e1} and {e2}")
    if kind not in ("degree_double", "jdam_double"):
        raise SwapError(f"not a double-swap kind: {kind}")
    return SwapProposal(kind, (e1, e2), ((a, d), (c, b)))


def c6_reverse_proposal(a: int, b: int, c: int) -> SwapProposal:
    """Reversal of the directed 3-cycle a->b->c->a."""
    if len({a, b, c}) != 3:
        raise SwapError("3-cycle nodes must be distinct")
    return SwapProposal("c6_reverse",
                        ((a, b), (b, c), (c, a)),
                        ((b, a), (c, b), (a, c)))


def apply_swap(g: DirectedGraph, p: SwapProposal,
               mode: str = MODE_DEGREE) -> DirectedGraph | None:
    """Apply p to g, returning the updated graph or None when rejected.

    Rejection means the result would not be simple: an added edge already
    exists or is a self-loop.  For a swap of existing edges, a self-loop is
    exactly an edge on a non-chord.  Nonexistent removed edges or a
    proposal that does not preserve its kind's invariant raise SwapError.
    """
    edge_set = set(g.edges())
    if len(set(p.removed)) != len(p.removed):
        raise SwapError("removed edges are not distinct")
    for e in p.removed:
        if e not in edge_set:
            raise SwapError(f"removed edge {e} does not exist")
    _validate_kind(g, p, mode)

    result = edge_set - set(p.removed)
    for u, v in p.added:
        if u == v or (u, v) in result:
            return None               # self-loop or parallel edge
        result.add((u, v))
    return DirectedGraph.from_edges(g.n, sorted(result))


def _validate_kind(g: DirectedGraph, p: SwapProposal, mode: str) -> None:
    if p.kind == "degree_double" or p.kind == "jdam_double":
        if len(p.removed) != 2 or len(p.added) != 2:
            raise SwapError("double swap must move exactly two edges")
        (a, b), (c, d) = p.removed
        if p.added not in (((a, d), (c, b)), ((c, b), (a, d))):
            raise SwapError("double swap must cross the removed endpoints")
        if p.kind == "jdam_double":
            in_cell, out_cell = node_cells(g.degree_pairs(), mode)
            if out_cell[a] != out_cell[c] and in_cell[b] != in_cell[d]:
                raise SwapError(
                    "jdam double swap requires a shared cell on one side")
    elif p.kind == "c6_reverse":
        if len(p.removed) != 3:
            raise SwapError("3-cycle reversal must move exactly three edges")
        (a, b), (b2, c), (c2, a2) = p.removed
        if b != b2 or c != c2 or a != a2:
            raise SwapError("removed edges do not form a directed 3-cycle")
        if p.added != ((b, a), (c, b), (a, c)):
            raise SwapError("added edges must be the reversed cycle")
    else:
        raise SwapError(f"unknown swap kind {p.kind!r}")


def enumerate_jdam_swaps(g: DirectedGraph,
                         mode: str = MODE_DEGREE) -> list[DirectedGraph]:
    """All graphs one accepted jdam-preserving double swap away from g.

    Deduplicated by edge set; g itself never appears (a non-degenerate
    accepted swap always changes the edge set).
    """
    edges = sorted(g.edges())
    in_cell, out_cell = node_cells(g.degree_pairs(), mode)
    neighbors: list[DirectedGraph] = []
    seen: set[frozenset[Edge]] = set()
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a == c or b == d:
                continue
            if out_cell[a] != out_cell[c] and in_cell[b] != in_cell[d]:
                continue
            p = double_swap_proposal((a, b), (c, d), kind="jdam_double")
            res = apply_swap(g, p, mode=mode)
            if res is None:
                continue
            key = res.edge_set()
            if key not in seen:
                seen.add(key)
                neighbors.append(res)
    return neighbors
