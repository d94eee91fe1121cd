"""Edge-by-edge construction of a bipartite realization of a D2K target.

The builder works on the bipartite split: node v of the eventual digraph
appears as out-side stub holder v and in-side stub holder n+v.  Every
iteration adds exactly one edge for some cell pair whose joint-matrix count
has not reached its target.  Candidate pairs live in per-cell-pair pools
that contain only pairs which are neither edges nor non-chords, so a pick
is always addable in principle; when a picked endpoint has no free stub,
one JDAM-preserving neighbor switch (or a substitute endpoint from the same
cell) makes progress.  On a realizable target the loop can never get stuck:
the case analysis guarantees a valid edge every iteration, and the one
impossible configuration (both substitutes forming a non-chord) is guarded
by a runtime check that stays enabled in optimized runs.

Each cell pair is filled by one flat loop (`_fill`) over int lists indexed
by node id and by pair id; the random draws inline the `getrandbits`
rejection behind `random.Random.randrange`, so a seed gives the same graph
as a plain `randrange` would.

Cost per edge: O(1) pool and stub bookkeeping plus at most two neighbor
switches, each scanning one adjacency list, so the whole run is
O(m * d_max).
"""
from __future__ import annotations

import random

from .errors import ConstructionInvariantError, NotRealizableError, TargetStructureError
from .graph import DirectedGraph
from .realizability import check
from .targets import D2KTargets, node_cells


class ConstructionState:
    """Mutable state of one construction run.

    Out-side stub holder of node v is bipartite id v, in-side is n + v.
    The cell pairs with a joint-matrix entry are numbered 0..P-1 in (out
    cell, in cell) order; `pair_id` maps ko * C + ki (C cells) to that
    number, and `target`, `current` and the candidate pools are lists
    indexed by it, so memory grows with P and not with C * C.  A pool is a
    list of pair codes (out-id * span + in-id) and a dict from code to list
    position, for O(1) add, discard and random pick.
    Confined to a single thread; independent runs are independent objects.
    """

    def __init__(self, t: D2KTargets, seed: int = 1):
        self.t = t
        self.n = t.n
        self.rng = random.Random(seed)
        n = t.n
        self.span = 2 * n            # pair code = out_id * span + in_id

        in_cells, out_cells = node_cells(t.dds, t.mode)

        # Dense cell indexing over both sides.
        cell_list = sorted(t.cell_sizes)
        self.cells = cell_list
        cell_index = {c: i for i, c in enumerate(cell_list)}

        self.cell_of = [-1] * (2 * n)       # bipartite id -> cell index
        self.free = [0] * (2 * n)           # unconnected stubs
        self.ncp = [-1] * (2 * n)           # non-chord partner or -1
        self.members: list[list[int]] = [[] for _ in cell_list]

        for v, (d_in, d_out) in enumerate(t.dds):
            if d_out > 0:
                ci = cell_index[out_cells[v]]
                self.cell_of[v] = ci
                self.free[v] = d_out
                self.members[ci].append(v)
            if d_in > 0:
                ci = cell_index[in_cells[v]]
                self.cell_of[n + v] = ci
                self.free[n + v] = d_in
                self.members[ci].append(n + v)
            if d_in > 0 and d_out > 0:
                self.ncp[v] = n + v
                self.ncp[n + v] = v

        # Shuffled member order decorrelates the pool scan from node ids.
        for mem in self.members:
            self.rng.shuffle(mem)

        self.adj: list[dict[int, None]] = [{} for _ in range(2 * n)]

        # Free-stub rosters, one lazy stack per cell.
        self.rosters: list[list[int]] = [list(mem) for mem in self.members]
        self.in_roster = [False] * (2 * n)
        for roster in self.rosters:
            for x in roster:
                self.in_roster[x] = True

        target: dict[int, int] = {}         # ko * C + ki -> count
        for a, b, count in t.jdam_entries():
            if a.side == b.side:
                raise TargetStructureError(
                    f"same-side jdam entry ({a},{b}) cannot be constructed")
            out_cell, in_cell = (a, b) if a.side == "out" else (b, a)
            target[cell_index[out_cell] * len(cell_list)
                   + cell_index[in_cell]] = count
        self.pair_keys = sorted(target)
        self.pair_id = {key: pid for pid, key in enumerate(self.pair_keys)}
        self.target = [target[key] for key in self.pair_keys]
        self.current = [0] * len(self.pair_keys)
        self.pool_items: list[list[int]] = []
        self.pool_pos: list[dict[int, int]] = []
        for pid in range(len(self.pair_keys)):
            self._init_pool(pid)

        self.edges_added = 0
        self.switch_count = 0

    def _init_pool(self, pid: int) -> None:
        """Seed the pool of pair pid with its first target[pid] addable
        pairs of the cell product.

        Only non-chords can be skipped, so at most count + f pairs are
        scanned; condition II guarantees the product is large enough.
        """
        ko, ki = divmod(self.pair_keys[pid], len(self.cells))
        span = self.span
        ncp = self.ncp
        items: list[int] = []
        need = self.target[pid]
        mem_in = self.members[ki]
        for u in self.members[ko]:
            if need == 0:
                break
            base = u * span
            blocked = ncp[u]
            for w in mem_in:
                if w == blocked:
                    continue
                items.append(base + w)
                need -= 1
                if need == 0:
                    break
        if need > 0:
            raise ConstructionInvariantError(
                f"cell product exhausted while seeding pool for pair {(ko, ki)}")
        self.pool_items.append(items)
        self.pool_pos.append({code: i for i, code in enumerate(items)})

    def _peek_free(self, ci: int) -> int:
        """Head of the free-stub roster of cell ci (lazy cleanup)."""
        roster = self.rosters[ci]
        free = self.free
        while roster:
            x = roster[-1]
            if free[x] > 0:
                return x
            roster.pop()
            self.in_roster[x] = False
        raise ConstructionInvariantError(
            f"no free stubs left in cell {self.cells[ci]}")

    # -- the two moves of the algorithm -------------------------------------

    def neighbor_switch(self, x: int, x_sub: int) -> int | None:
        """Move one neighbor of saturated x to same-cell x_sub.

        Picks a random neighbor t of x that is not already adjacent to
        x_sub and whose pairing with x_sub is not a non-chord; rewires the
        edge (x,t) to (x_sub,t).  Returns t, or None when no neighbor
        qualifies (then x_sub mirrors x's neighborhood except for its
        non-chord partner, which is the case-4 substitute situation).
        """
        cell_of, free, adj = self.cell_of, self.free, self.adj
        if cell_of[x] != cell_of[x_sub]:
            raise ValueError("switch endpoints must share a cell")
        if free[x] != 0:
            raise ValueError("switch source must have no free stubs")
        if free[x_sub] < 1:
            raise ValueError("switch substitute must have a free stub")
        x_adj, sub_adj = adj[x], adj[x_sub]
        blocked = self.ncp[x_sub]
        feasible = [t for t in x_adj if t not in sub_adj and t != blocked]
        k = len(feasible)
        if not k:
            return None
        getrandbits = self.rng.getrandbits
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        t = feasible[r]
        # Remove (x,t), add (x_sub,t).  Both lie in one cell pair, so its
        # count is unchanged; t gives a stub back and takes it again.
        t_adj = adj[t]
        del x_adj[t]
        del t_adj[x]
        sub_adj[t] = None
        t_adj[x_sub] = None
        free[x] += 1
        free[x_sub] -= 1
        span = self.span
        if x < self.n:
            key = cell_of[x] * len(self.cells) + cell_of[t]
            gone, taken = x * span + t, x_sub * span + t
        else:
            key = cell_of[t] * len(self.cells) + cell_of[x]
            gone, taken = t * span + x, t * span + x_sub
        pid = self.pair_id[key]
        items, pos = self.pool_items[pid], self.pool_pos[pid]
        if gone not in pos:             # no longer an edge, never a non-chord
            pos[gone] = len(items)
            items.append(gone)
        i = pos.pop(taken, None)
        if i is not None:
            last = items.pop()
            if i < len(items):
                items[i] = last
                pos[last] = i
        in_roster = self.in_roster
        if not in_roster[x]:
            in_roster[x] = True
            self.rosters[cell_of[x]].append(x)
        if not in_roster[t]:
            in_roster[t] = True
            self.rosters[cell_of[t]].append(t)
        self.switch_count += 1
        return t

    def add_next_edge(self, pair: tuple[int, int],
                      pick: tuple[int, int] | None = None) -> tuple[int, int]:
        """One iteration of the main loop for the given cell-index pair.

        Adds exactly one edge between the two cells and returns it; the
        endpoints may differ from the picked pair when a saturated node's
        switch is infeasible and a same-cell substitute takes its place.
        `pick` overrides the random pool pick (used by tests to script
        specific case shapes).
        """
        ko, ki = pair
        pid = self.pair_id.get(ko * len(self.cells) + ki)
        if pid is None or self.current[pid] >= self.target[pid]:
            raise ValueError("cell pair already at its target count")
        if pick is not None and (self.cell_of[pick[0]] != ko
                                 or self.cell_of[pick[1]] != ki):
            raise ValueError("pick does not belong to the cell pair")
        return self._fill(pid, 1, pick)

    def _fill(self, pid: int, count: int,
              pick: tuple[int, int] | None = None) -> tuple[int, int]:
        """Add `count` edges to cell pair pid; return the last one added.

        Each edge starts from a random pool pair (or from `pick`).  A
        saturated endpoint first hands one neighbor to a same-cell node
        with a free stub (a neighbor switch); when no neighbor can move,
        that node takes its place (case 4).
        """
        ko, ki = divmod(self.pair_keys[pid], len(self.cells))
        items, pos = self.pool_items[pid], self.pool_pos[pid]
        adj, free, ncp, span = self.adj, self.free, self.ncp, self.span
        getrandbits = self.rng.getrandbits
        switch, peek_free = self.neighbor_switch, self._peek_free
        for _ in range(count):
            if pick is None:
                k = len(items)
                if not k:
                    raise ConstructionInvariantError(
                        f"candidate pool of pair {(ko, ki)} is empty")
                bits = k.bit_length()
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                uo, vi = divmod(items[r], span)
            else:
                uo, vi = pick
            u_adj = adj[uo]
            if vi in u_adj or ncp[uo] == vi:
                raise ConstructionInvariantError(
                    f"candidate pool returned an invalid pair ({uo},{vi})")
            if free[uo] == 0:
                u_sub = peek_free(ko)
                if switch(uo, u_sub) is None:
                    uo = u_sub
                    u_adj = adj[uo]
            if free[vi] == 0:
                v_sub = peek_free(ki)
                if switch(vi, v_sub) is None:
                    vi = v_sub

            # The impossible configuration of the constructive proof (both
            # substitutes forming a non-chord, "case 5b"); kept as a hard check.
            if ncp[uo] == vi:
                raise ConstructionInvariantError(
                    "substituted endpoints form a non-chord (case 5b)")
            if vi in u_adj:
                raise ConstructionInvariantError(
                    "substituted endpoints are already adjacent")
            u_adj[vi] = None
            adj[vi][uo] = None
            free[uo] -= 1
            free[vi] -= 1
            if free[uo] < 0 or free[vi] < 0:
                raise ConstructionInvariantError("stub count went negative")
            i = pos.pop(uo * span + vi, None)
            if i is not None:
                last = items.pop()
                if i < len(items):
                    items[i] = last
                    pos[last] = i
        self.current[pid] += count
        self.edges_added += count
        return uo, vi

    # -- full run ------------------------------------------------------------

    def run(self) -> list[list[int]]:
        """Drive every cell pair to its target count; return the digraph's
        out-adjacency lists (node ids 0..n-1)."""
        pairs = list(range(len(self.target)))
        self.rng.shuffle(pairs)
        for pid in pairs:
            count = self.target[pid] - self.current[pid]
            if count > 0:
                self._fill(pid, count)
        n = self.n
        out_adj = [[w - n for w in self.adj[v]] for v in range(n)]
        built = sum(map(len, out_adj))
        if built != self.t.m:
            raise ConstructionInvariantError(
                f"built {built} edges, target has {self.t.m}")
        if any(self.free):
            raise ConstructionInvariantError("free stubs remain after the run")
        return out_adj


def generate(t: D2KTargets, seed: int = 1) -> DirectedGraph:
    """Construct a simple digraph whose extracted targets equal t exactly.

    Deterministic for a given (t, seed).  Raises NotRealizableError when t
    fails the graphicality conditions.
    """
    report = check(t)
    if not report.realizable:
        raise NotRealizableError(report)
    # The DirectedGraph constructor re-audits simplicity with array scans:
    # a violated non-chord surfaces as a self-loop there.
    return DirectedGraph(t.n, ConstructionState(t, seed).run())
