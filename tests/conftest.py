"""Shared helpers: random graph makers, exhaustive enumerations, and the
brute-force oracles the fast metric implementations, the edge-list reader
and target extraction are checked against.

The oracles deliberately take the dumb route (triple loops, distance
matrices, structural classification) so they stay independent of the
implementations under test.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

from d2k import CellKey, D2KTargets, DirectedGraph, EdgeListFormatError


def random_digraph(rng: random.Random, n: int, p: float) -> DirectedGraph:
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return DirectedGraph.from_edges(n, edges)


def out_lists(g: DirectedGraph) -> list[list[int]]:
    """g's out-neighbour lists, cut from its CSR arrays."""
    indptr, heads = g.csr()
    bounds = indptr.tolist()
    return [heads[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def all_digraphs(n: int):
    """Every simple digraph on n labeled nodes (2^(n(n-1)) of them)."""
    pairs = ordered_pairs(n)
    for bits in range(1 << len(pairs)):
        yield DirectedGraph.from_edges(
            n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def dataset_dir() -> Path:
    return Path(os.environ.get("D2K_DATASETS", "datasets"))


def dataset_files() -> list[Path]:
    d = dataset_dir()
    if not d.is_dir():
        return []
    return sorted(p for p in d.iterdir() if p.suffix == ".txt")


# ---------------------------------------------------------------------------
# oracle: triad classification by structure (not by code table)

def classify_triad(edges: frozenset, a: int, b: int, c: int) -> str:
    nodes = (a, b, c)
    arcs = {(u, v) for u in nodes for v in nodes
            if u != v and (u, v) in edges}
    mutual_pairs = []
    asym_arcs = []
    for u, v in ((a, b), (a, c), (b, c)):
        uv, vu = (u, v) in arcs, (v, u) in arcs
        if uv and vu:
            mutual_pairs.append((u, v))
        elif uv:
            asym_arcs.append((u, v))
        elif vu:
            asym_arcs.append((v, u))
    m, s = len(mutual_pairs), len(asym_arcs)
    if m == 3:
        return "300"
    if m == 2 and s == 1:
        return "210"
    if m == 2:
        return "201"
    if m == 1 and s == 2:
        third = next(v for v in nodes
                     if v not in mutual_pairs[0])
        into = sum(1 for u, v in asym_arcs if u == third)
        if into == 2:
            return "120D"
        if into == 0:
            return "120U"
        return "120C"
    if m == 1 and s == 1:
        third = next(v for v in nodes if v not in mutual_pairs[0])
        return "111D" if asym_arcs[0][0] == third else "111U"
    if m == 1:
        return "102"
    if s == 3:
        sources = {u for u, _ in asym_arcs}
        return "030C" if len(sources) == 3 else "030T"
    if s == 2:
        (u1, v1), (u2, v2) = asym_arcs
        if u1 == u2:
            return "021D"
        if v1 == v2:
            return "021U"
        return "021C"
    if s == 1:
        return "012"
    return "003"


def triad_census_bruteforce(g: DirectedGraph) -> dict[str, int]:
    from d2k.metrics import TRIAD_NAMES
    census = dict.fromkeys(TRIAD_NAMES, 0)
    edges = g.edge_set()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            for c in range(b + 1, g.n):
                census[classify_triad(edges, a, b, c)] += 1
    return census


# ---------------------------------------------------------------------------
# oracle: shared partners by triple loop

def dsp_bruteforce(g: DirectedGraph, variant: str) -> dict[int, int]:
    n = g.n
    e = g.edge_set()
    hist: dict[int, int] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            count = 0
            for w in range(n):
                if w in (i, j):
                    continue
                if variant == "independent_two_paths":
                    ok = (i, w) in e and (w, j) in e
                elif variant == "outgoing":
                    ok = (i, w) in e and (j, w) in e
                else:
                    ok = (w, i) in e and (w, j) in e
                count += 1 if ok else 0
            hist[count] = hist.get(count, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# oracle: expansion by explicit two-step walk

def expansion_bruteforce(g: DirectedGraph, direction: str) -> list[float]:
    e = g.edge_set()
    ratios = []
    for v in range(g.n):
        if direction == "out":
            first = {w for w in range(g.n) if (v, w) in e}
            second = {x for w in first for x in range(g.n) if (w, x) in e}
        else:
            first = {w for w in range(g.n) if (w, v) in e}
            second = {x for w in first for x in range(g.n) if (x, w) in e}
        if not first:
            continue
        second -= first
        second.discard(v)
        ratios.append(len(second) / len(first))
    return ratios


# ---------------------------------------------------------------------------
# oracle: average neighbor degree by a walk over the edges

def avg_neighbor_degree_loop(g: DirectedGraph, node_side: str,
                             neighbor_side: str) -> dict[int, Fraction]:
    """Per key, in order of first appearance in g.edges(), the exact mean
    of the neighbour's degree over the edges with that key."""
    sums: dict[int, int] = {}
    cnts: dict[int, int] = {}
    in_deg, out_deg = zip(*g.degree_pairs()) if g.n else ((), ())
    for u, v in g.edges():
        if node_side == "out":
            key, nb = out_deg[u], v
        else:
            key, nb = in_deg[v], u
        val = out_deg[nb] if neighbor_side == "out" else in_deg[nb]
        sums[key] = sums.get(key, 0) + val
        cnts[key] = cnts.get(key, 0) + 1
    return {k: Fraction(sums[k], cnts[k]) for k in sums}


# ---------------------------------------------------------------------------
# oracle: edge lists read line by line, targets counted edge by edge

def read_edge_list_lines(path, stats: dict | None = None) -> DirectedGraph:
    """The per-line reader: text mode (any line end), str.split and int(),
    then the graph built pair by pair as from_pairs_loop builds it."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != 2:
                raise EdgeListFormatError(
                    f"line {lineno}: expected 'source target', got {text!r}",
                    position=lineno)
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: non-integer ids in {text!r}",
                    position=lineno) from None
            if u < 0 or v < 0:
                raise EdgeListFormatError(
                    f"line {lineno}: negative ids in {text!r}",
                    position=lineno)
            pairs.append((u, v))
    return from_pairs_loop(pairs, stats)


def from_pairs_loop(pairs, stats: dict | None = None) -> DirectedGraph:
    """Valid id pairs cleaned one at a time: self-loops dropped before an
    id is registered, ids numbered on first sight, first copies kept."""
    remap: dict[int, int] = {}
    out_adj: list[list[int]] = []
    loops = 0
    for u, v in pairs:
        if u == v:
            loops += 1
            continue
        for orig in (u, v):
            if orig not in remap:
                remap[orig] = len(remap)
                out_adj.append([])
        out_adj[remap[u]].append(remap[v])
    dups = 0
    for u, nbrs in enumerate(out_adj):
        heads = list(dict.fromkeys(nbrs))
        dups += len(nbrs) - len(heads)
        out_adj[u] = heads
    if stats is not None:
        stats.update({"pairs": loops + dups + sum(map(len, out_adj)),
                      "self_loops": loops, "duplicates": dups})
    return DirectedGraph(len(out_adj), out_adj, list(remap) or None)


def cells_by_rule(d_in: int, d_out: int, mode: str):
    """(in-cell, out-cell) of a node, stated apart from `cell_table`: in
    d2k the in-cell is ("in", d_in) and the out-cell ("out", d_out), in
    d2km both carry the label (d_in, d_out), and a side of degree 0 has no
    cell (None)."""
    in_label, out_label = (d_in, d_out) if mode == "d2k" \
        else ((d_in, d_out), (d_in, d_out))
    return (CellKey("in", in_label) if d_in else None,
            CellKey("out", out_label) if d_out else None)


def extract_d2k_loop(g: DirectedGraph, mode: str) -> D2KTargets:
    """dds from the adjacency lists, the jdam counted in a dict edge by
    edge in g.edges() order."""
    dds = g.degree_pairs()
    cells = [cells_by_rule(d_in, d_out, mode) for d_in, d_out in dds]
    jdam: dict = {}
    for u, v in g.edges():
        key = (cells[u][1], cells[v][0])
        jdam[key] = jdam.get(key, 0) + 1
    return D2KTargets(mode, dds, jdam)


def cell_counts_loop(dds, mode: str) -> tuple[dict, dict]:
    """(cell_sizes, f) of a target, node by node in node order, f keyed by
    (in-cell, out-cell)."""
    sizes: dict = {}
    f: dict = {}
    for a, b in (cells_by_rule(d_in, d_out, mode) for d_in, d_out in dds):
        for cell in (a, b):
            if cell is not None:
                sizes[cell] = sizes.get(cell, 0) + 1
        if a is not None and b is not None:
            f[(a, b)] = f.get((a, b), 0) + 1
    return sizes, f


# ---------------------------------------------------------------------------
# oracle: betweenness from distance and path-count matrices

def _bfs_all(g: DirectedGraph, s: int) -> tuple[list[int], list[int]]:
    out = out_lists(g)
    dist = [-1] * g.n
    sigma = [0] * g.n
    dist[s] = 0
    sigma[s] = 1
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in out[v]:
                if dist[w] == -1:
                    dist[w] = d
                    nxt.append(w)
                if dist[w] == d:
                    sigma[w] += sigma[v]
        frontier = nxt
    return dist, sigma


def betweenness_bruteforce(g: DirectedGraph) -> list[float]:
    """Normalized betweenness, as betweenness_values computes it."""
    n = g.n
    dist = []
    sigma = []
    for s in range(n):
        d, sg = _bfs_all(g, s)
        dist.append(d)
        sigma.append(sg)
    bc = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t or sigma[s][t] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s][v] >= 0 and dist[v][t] >= 0 and \
                        dist[s][v] + dist[v][t] == dist[s][t]:
                    bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
    if n > 2:
        norm = (n - 1) * (n - 2)
        bc = [x / norm for x in bc]
    return bc


def betweenness_stack_walk(g: DirectedGraph, sources, scale: float) \
        -> list[float]:
    """Normalized betweenness from sources, each dependency summed in
    Brandes's stack order with exact integer path counts: the order, and
    below 2**53 the arithmetic, that betweenness_values must reproduce."""
    n = g.n
    out = out_lists(g)
    bc = [0.0] * n
    for s in sources:
        sigma, dist = [0] * n, [-1] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma[s], dist[s] = 1, 0
        stack, frontier = [], [s]
        while frontier:
            stack.extend(frontier)
            nxt = []
            for v in frontier:
                for w in out[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
                    if dist[w] == dist[v] + 1:
                        sigma[w] += sigma[v]
                        preds[w].append(v)
            frontier = nxt
        delta = [0.0] * n
        for w in reversed(stack):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w] * scale
    if n > 2:
        bc = [x / ((n - 1) * (n - 2)) for x in bc]
    return bc


# ---------------------------------------------------------------------------
# oracle: components by reachability closure, cores by peeling and by
# definition

def scc_bruteforce(g: DirectedGraph) -> dict[int, int]:
    n = g.n
    reach = [set(_reachable(g, v)) for v in range(n)]
    assigned = [False] * n
    hist: dict[int, int] = {}
    for v in range(n):
        if assigned[v]:
            continue
        comp = [w for w in range(n)
                if w in reach[v] and v in reach[w]]
        for w in comp:
            assigned[w] = True
        hist[len(comp)] = hist.get(len(comp), 0) + 1
    return hist


def _reachable(g: DirectedGraph, s: int):
    out = out_lists(g)
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def core_numbers_peel(g: DirectedGraph) -> list[int]:
    """Core numbers by Batagelj and Zaversnik's O(m) peel, one node at a
    time: vert lists the nodes by current core, pos is each node's place
    in it and bins[d] the start of core d there."""
    n = g.n
    nbrs = [set() for _ in range(n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    core = [len(s) for s in nbrs]
    vert = sorted(range(n), key=core.__getitem__)
    pos = [0] * n
    for i, v in enumerate(vert):
        pos[v] = i
    bins = [0] * (max(core, default=0) + 2)
    for d in core:
        bins[d + 1] += 1
    for d in range(1, len(bins)):
        bins[d] += bins[d - 1]
    for i in range(n):
        v = vert[i]
        for u in nbrs[v]:
            if core[u] > core[v]:
                du, pu = core[u], pos[u]
                pw = bins[du]
                w = vert[pw]
                if u != w:
                    pos[u], pos[w] = pw, pu
                    vert[pu], vert[pw] = w, u
                bins[du] += 1
                core[u] -= 1
    return core


def core_numbers_bruteforce(g: DirectedGraph) -> list[int]:
    n = g.n
    und = [set() for _ in range(n)]
    for u, v in g.edges():
        und[u].add(v)
        und[v].add(u)
    core = [0] * n
    k = 0
    alive = set(range(n))
    deg = {v: len(und[v]) for v in alive}
    while alive:
        k += 1
        while True:
            doomed = [v for v in alive if deg[v] < k]
            if not doomed:
                break
            for v in doomed:
                core[v] = k - 1     # survived the (k-1)-core, not the k-core
                alive.discard(v)
                for u in und[v]:
                    if u in alive:
                        deg[u] -= 1
    return core


# ---------------------------------------------------------------------------
# oracle: the d1k greedy by sorting, without a heap

def greedy_realization_sorted(dds, seed: int) -> list[tuple[int, int]] | None:
    """The edges of the Kleitman-Wang greedy of `baselines.gen_d1k`, in the
    order it adds them, or None where it runs out of targets.

    It draws the same seeded rank shuffle and takes the sources in the same
    order (out-degree descending, then rank).  Each source takes the first
    `need` of the other nodes with in-remainder > 0, sorted by
    (-in-remainder, -out-remainder, rank).
    """
    n = len(dds)
    rank = list(range(n))
    random.Random(seed).shuffle(rank)
    in_rem = [d_in for d_in, _ in dds]
    out_rem = [d_out for _, d_out in dds]
    edges = []
    for source in sorted(range(n), key=lambda v: (-out_rem[v], rank[v])):
        need = out_rem[source]
        targets = sorted((v for v in range(n)
                          if v != source and in_rem[v] > 0),
                         key=lambda v: (-in_rem[v], -out_rem[v], rank[v]))
        if len(targets) < need:
            return None
        for v in targets[:need]:
            in_rem[v] -= 1
            edges.append((source, v))
        out_rem[source] = 0
    return edges
