"""Edge-by-edge construction of a bipartite realization of a D2K target.

The builder works on the bipartite split: node v of the eventual digraph
appears as out-side stub holder v and in-side stub holder n+v.  The cell
pairs with a joint-matrix entry are filled one after another, and every
iteration adds exactly one edge to the pair being filled.

Each edge first comes from free-stub draws, a configuration model inside
the cell pair: one endpoint is drawn uniformly from the nodes of the out
cell that have a free stub, one from those of the in cell, and the pair is
added unless it is a non-chord (v, n+v) or already an edge.  While a pair
is first filled, the draws are tested for repeats in bulk: one draw for
each of its edges, then one pass over their codes (a set for a small
pair, a numpy sort for a large one), where every repeat gives its stubs
back.  What is still missing then is drawn one edge at a time against
per-node neighbor maps; every run ends by reading its output from them.
After DRAW_RETRIES rejected draws an edge falls back to the constructive
proof's path.  The fill of the pair builds a candidate pool at its first
stall and drops it when the pair is complete; the pool holds only pairs
that are neither edges nor non-chords, so a pick is always addable in
principle.  When a picked endpoint has no free stub, one JDAM-preserving
neighbor switch (or a substitute endpoint from the same cell) makes
progress; a switch only rewires an edge and its stubs, and the fill keeps
its pool in step when the moved edge is one of its pair's.  On a
realizable target the fallback can never get stuck: the case analysis
guarantees a valid edge every iteration, and the one impossible
configuration (both substitutes forming a non-chord) is guarded by a
runtime check that stays enabled in optimized runs.

The free-stub draws inline the `getrandbits` rejection behind
`random.Random.randrange`, so a seed gives the same graph as a plain
`randrange` would; the rarer pool and switch picks call `randrange`.

Cost per edge: at most DRAW_RETRIES pairs of O(1) draws, and on the
fallback O(1) pool and stub bookkeeping plus at most two neighbor
switches, each scanning one adjacency list.  A node left without free
stubs leaves its roster once per time it fills, a pool is built at most
once per pair with O(target + cell size) work, and the neighbor maps once
with O(m) work, so the whole run is O(m * d_max), plus one numpy sort per
large pair for the bulk repeat test.
"""
from __future__ import annotations

import random
from array import array
from bisect import bisect_left

import numpy as np

from .errors import ConstructionInvariantError, NotRealizableError, TargetStructureError
from .graph import DirectedGraph, _first_copies, _stable_order
from .realizability import check
from .targets import D2KTargets, check_seed, node_cells

# Rejected draw pairs (edge or non-chord) before an edge takes the pool path.
DRAW_RETRIES = 8
# Largest pair whose draws `_repeats` tests with a set instead of a sort.
SMALL_PAIR = 4096


def _repeats(codes: list[int], start: int) -> list[int]:
    """The positions of codes[start:] whose value occurs earlier in it.

    A small pair is tested with a set; in a large one, every code but the
    first copies that one numpy sort finds (`_first_copies`) is a repeat.
    Alone on one pair's draws, the set takes 1 us at 16 codes where the
    sort's fixed cost is 40 us, the two are within a third of each other
    from 4,096 to 65,536 codes, and at 1M codes the set's random access
    takes 3.4 times the sort's time.  End to end, the sort alone makes the
    n = 4 law test's builds about 45% slower, and the set alone a 1M-edge
    build about 9% slower (BENCH_construct_draws.json, `repeat_test`)."""
    if len(codes) - start <= SMALL_PAIR:
        seen: set[int] = set()
        later = []
        for i in range(start, len(codes)):
            if codes[i] in seen:
                later.append(i)
            else:
                seen.add(codes[i])
        return later
    later = np.ones(len(codes) - start, dtype=bool)
    later[_first_copies(np.array(codes[start:], dtype=np.int64))[0]] = False
    return (np.flatnonzero(later) + start).tolist()


Pool = tuple[list[int], dict[int, int]]     # pair codes, code -> position


def _put(pool: Pool, code: int) -> None:
    """Add code, not yet in it, to a candidate pool."""
    pool[1][code] = len(pool[0])
    pool[0].append(code)


def _take(pool: Pool, code: int) -> None:
    """Remove code from a candidate pool if it holds it; the last entry
    moves into its place."""
    items, pos = pool
    i = pos.pop(code, None)
    if i is not None:
        last = items.pop()
        if i < len(items):
            items[i] = last
            pos[last] = i


class ConstructionState:
    """Mutable state of one construction run.

    Out-side stub holder of node v is bipartite id v, in-side is n + v, so
    x and y are non-chord partners exactly when they differ by n.  The cell
    pairs with a joint-matrix entry are numbered 0..P-1 in (out cell, in
    cell) order: the key ko * C + ki (C cells) of pair p is `pair_keys[p]`,
    a sorted list, and `target` and `current` are lists indexed by p, so
    memory grows with P and not with C * C; `current` counts every edge as
    it is added, and `edges_added` is its sum.  The candidate pool of the
    pair being filled belongs to its fill: a list of pair codes
    (out-id * span + in-id) and a dict from code to list position, for
    O(1) add, discard and random pick.
    The roster of a cell lists its nodes that may hold a free stub; a node
    without one leaves it when a draw or a peek meets it.  Until an edge
    needs a membership test of its own (a repeat among the bulk draws, the
    pool path, a switch or a scripted pick), the edges are only a flat
    list of pair codes, `codes`, and `adj` is None.  Then `adj` becomes one
    map of neighbors per bipartite id, built from the codes in node order,
    and is kept from then on; the run's output is read from it.  So the
    draw loop touches no per-node map, whose random access at a million
    edges costs more than the draws.
    Confined to a single thread; independent runs are independent objects.
    """

    def __init__(self, t: D2KTargets, seed: int = 1):
        self.t = t
        self.n = t.n
        self.rng = random.Random(check_seed(seed))
        n = t.n
        self.span = 2 * n            # pair code = out_id * span + in_id

        in_cells, out_cells = node_cells(t.dds, t.mode)

        # Dense cell indexing over both sides.
        cell_list = sorted(t.cell_sizes)
        self.cells = cell_list
        cell_index = {c: i for i, c in enumerate(cell_list)}

        self.cell_of = [-1] * (2 * n)       # bipartite id -> cell index
        self.free = array("i", [0]) * (2 * n)   # unconnected stubs
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

        # Shuffled member order decorrelates the pool scan from node ids.
        for mem in self.members:
            self.rng.shuffle(mem)

        self.codes: list[int] = []
        self.adj: list[dict[int, None]] | None = None

        # Free-stub rosters, one per cell, cleaned lazily.  They and `free`
        # are 4-byte int arrays, which the draws read at random: at a
        # million edges they still fit a core's cache.
        self.rosters = [array("i", mem) for mem in self.members]
        self.in_roster = [x >= 0 for x in self.cell_of]

        target: dict[int, int] = {}         # ko * C + ki -> count
        for (a, b), count in t.jdam.items():    # a in-cell, b out-cell
            if a.side == b.side:
                raise TargetStructureError(
                    f"same-side jdam entry ({a},{b}) cannot be constructed")
            target[cell_index[b] * len(cell_list) + cell_index[a]] = count
        self.pair_keys = sorted(target)
        self.target = [target[key] for key in self.pair_keys]
        self.current = [0] * len(self.pair_keys)

        self.switch_count = 0
        self.fallback_count = 0

    @property
    def edges_added(self) -> int:
        """Edges added so far, over every cell pair."""
        return sum(self.current)

    def _index(self) -> list[dict[int, None]]:
        """The per-id neighbor maps, built from `codes` on first use."""
        if self.adj is None:
            span = self.span
            adj: list[dict[int, None]] = [{} for _ in range(span)]
            codes = np.sort(np.array(self.codes, dtype=np.int64))
            outs, ins = codes // span, codes % span
            for u, w in zip(outs.tolist(), ins.tolist()):
                adj[u][w] = None
            order = _stable_order(ins)
            for w, u in zip(ins[order].tolist(), outs[order].tolist()):
                adj[w][u] = None
            self.adj, self.codes = adj, []
        return self.adj

    def _init_pool(self, pid: int) -> Pool:
        """A candidate pool for pair pid: its first target - current
        addable pairs of the cell product, in roster member order.

        Only edges of the pair and non-chords can be skipped, so at most
        target + f pairs are scanned; condition II guarantees the product
        is large enough.
        """
        ko, ki = divmod(self.pair_keys[pid], len(self.cells))
        span, n, adj = self.span, self.n, self._index()
        items: list[int] = []
        need = self.target[pid] - self.current[pid]
        mem_in = self.members[ki]
        for u in self.members[ko]:
            if need == 0:
                break
            base = u * span
            blocked = u + n
            u_adj = adj[u]
            for w in mem_in:
                if w == blocked or w in u_adj:
                    continue
                items.append(base + w)
                need -= 1
                if need == 0:
                    break
        if need > 0:
            raise ConstructionInvariantError(
                f"cell product exhausted while seeding pool for pair {(ko, ki)}")
        return items, {code: i for i, code in enumerate(items)}

    def _peek_free(self, ci: int) -> int:
        """Last node of the free-stub roster of cell ci (lazy cleanup)."""
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

    def _give_back(self, x: int) -> None:
        """Return one free stub to x, and x to its cell's roster if it has
        left it."""
        self.free[x] += 1
        if not self.in_roster[x]:
            self.in_roster[x] = True
            self.rosters[self.cell_of[x]].append(x)

    # -- the two moves of the algorithm -------------------------------------

    def neighbor_switch(self, x: int, x_sub: int) -> int | None:
        """Move one neighbor of saturated x to same-cell x_sub.

        Picks a random neighbor t of x that is not already adjacent to
        x_sub and whose pairing with x_sub is not a non-chord; rewires the
        edge (x,t) to (x_sub,t).  Returns t, or None when no neighbor
        qualifies (then x_sub mirrors x's neighborhood except for its
        non-chord partner, which is the case-4 substitute situation).
        """
        cell_of, free, adj, n = self.cell_of, self.free, self._index(), self.n
        if cell_of[x] != cell_of[x_sub]:
            raise ValueError("switch endpoints must share a cell")
        if free[x] != 0:
            raise ValueError("switch source must have no free stubs")
        if free[x_sub] < 1:
            raise ValueError("switch substitute must have a free stub")
        x_adj, sub_adj = adj[x], adj[x_sub]
        blocked = x_sub + n if x_sub < n else x_sub - n
        feasible = [t for t in x_adj if t not in sub_adj and t != blocked]
        if not feasible:
            return None
        t = feasible[self.rng.randrange(len(feasible))]
        # Remove (x,t), add (x_sub,t).  Both lie in one cell pair, so its
        # count is unchanged; t gives a stub back and takes it again.
        t_adj = adj[t]
        del x_adj[t]
        del t_adj[x]
        sub_adj[t] = None
        t_adj[x_sub] = None
        free[x_sub] -= 1
        self._give_back(x)
        self._give_back(t)
        free[t] -= 1
        self.switch_count += 1
        return t

    def add_next_edge(self, pair: tuple[int, int],
                      pick: tuple[int, int] | None = None) -> tuple[int, int]:
        """One iteration of the main loop for the given cell-index pair.

        Adds exactly one edge between the two cells and returns it; the
        endpoints may differ from the picked pair when a saturated node's
        switch is infeasible and a same-cell substitute takes its place.
        `pick` replaces the draws and the pool pick with a given pair (used
        by tests to script specific case shapes).  A single step always
        works on the per-node maps, so it tests each draw as it goes.
        """
        ko, ki = pair
        key = ko * len(self.cells) + ki
        pid = bisect_left(self.pair_keys, key)
        if pid == len(self.pair_keys) or self.pair_keys[pid] != key:
            raise ValueError(f"cell pair {pair} has no jdam entry")
        if self.current[pid] >= self.target[pid]:
            raise ValueError("cell pair already at its target count")
        if pick is not None and (self.cell_of[pick[0]] != ko
                                 or self.cell_of[pick[1]] != ki):
            raise ValueError("pick does not belong to the cell pair")
        self._index()
        return self._fill(pid, 1, pick)

    def _fill(self, pid: int, count: int,
              pick: tuple[int, int] | None = None) -> tuple[int, int]:
        """Add `count` edges to cell pair pid; return the last one added.

        Each edge starts from free-stub draws.  While no per-node map
        exists (so every pair filled so far is complete and this one is
        empty), the draws reject only non-chords, and `_repeats` finds the
        repeats among them afterwards: every copy after the first gives
        its stubs back and is drawn again below.  There, with the maps, a
        draw is also rejected when it is an edge.
        When DRAW_RETRIES draws in a row are rejected, the edge starts from
        a random pair of the fill's candidate pool instead, built at that
        first stall and dropped when the fill ends (or from `pick`, which
        skips the draws).  A saturated endpoint of that pair first hands one
        neighbor to a same-cell node with a free stub (a neighbor switch);
        when no neighbor can move, that node takes its place (case 4).
        """
        ko, ki = divmod(self.pair_keys[pid], len(self.cells))
        free, in_roster, current = self.free, self.in_roster, self.current
        n, span = self.n, self.span
        out_roster, in_list = self.rosters[ko], self.rosters[ki]
        getrandbits = self.rng.getrandbits

        def draw(roster: array, ci: int) -> int:
            """A uniform node of the roster with a free stub; the nodes
            without one that the draw meets leave the roster."""
            while True:
                k = len(roster)
                if not k:
                    raise ConstructionInvariantError(
                        f"no free stubs left in cell {self.cells[ci]}")
                bits = k.bit_length()
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                x = roster[r]
                if free[x] > 0:
                    return x
                last = roster.pop()
                if r < k - 1:
                    roster[r] = last
                in_roster[x] = False

        if self.adj is None:
            codes = self.codes
            start = len(codes)
            for _ in range(count):
                for _ in range(DRAW_RETRIES):
                    uo = draw(out_roster, ko)
                    vi = draw(in_list, ki)
                    if vi - uo != n:
                        break
                else:
                    break
                free[uo] -= 1
                free[vi] -= 1
                codes.append(uo * span + vi)
            later = _repeats(codes, start)
            for i in later:
                for x in divmod(codes[i], span):
                    self._give_back(x)
            for i in reversed(later):
                last = codes.pop()
                if i < len(codes):
                    codes[i] = last
            done = len(codes) - start
            current[pid] += done
            count -= done
            if not count:
                return divmod(codes[-1], span)

        adj = self._index()
        pool = None
        for _ in range(count):
            if pick is None:
                for _ in range(DRAW_RETRIES):
                    uo = draw(out_roster, ko)
                    vi = draw(in_list, ki)
                    if vi - uo != n and vi not in adj[uo]:
                        break
                else:
                    if pool is None:
                        pool = self._init_pool(pid)
                    self.fallback_count += 1
                    items = pool[0]
                    if not items:
                        raise ConstructionInvariantError(
                            f"candidate pool of pair {(ko, ki)} is empty")
                    code = items[self.rng.randrange(len(items))]
                    uo, vi = self._repair(pid, pool, *divmod(code, span))
            else:
                uo, vi = self._repair(pid, pool, *pick)
            u_adj = adj[uo]
            if vi in u_adj:
                raise ConstructionInvariantError(
                    "substituted endpoints are already adjacent")
            u_adj[vi] = None
            adj[vi][uo] = None
            free[uo] -= 1
            free[vi] -= 1
            if free[uo] < 0 or free[vi] < 0:
                raise ConstructionInvariantError("stub count went negative")
            current[pid] += 1
            if pool is not None:
                _take(pool, uo * span + vi)
        return uo, vi

    def _repair(self, pid: int, pool: Pool | None,
                uo: int, vi: int) -> tuple[int, int]:
        """The endpoints that take the addable pair (uo, vi): a saturated
        endpoint is freed by a neighbor switch, or replaced by its
        same-cell substitute when no neighbor can move.  A switch that
        moves an edge of pair pid keeps the fill's pool, if any, in step:
        the old pair becomes a candidate and the new one stops being one."""
        adj, free, n, span = self._index(), self.free, self.n, self.span
        if vi in adj[uo] or vi - uo == n:
            raise ConstructionInvariantError(
                f"candidate pool returned an invalid pair ({uo},{vi})")
        ko, ki = divmod(self.pair_keys[pid], len(self.cells))
        if free[uo] == 0:
            u_sub = self._peek_free(ko)
            t = self.neighbor_switch(uo, u_sub)
            if t is None:
                uo = u_sub
            elif pool is not None and self.cell_of[t] == ki:
                _put(pool, uo * span + t)
                _take(pool, u_sub * span + t)
        if free[vi] == 0:
            v_sub = self._peek_free(ki)
            t = self.neighbor_switch(vi, v_sub)
            if t is None:
                vi = v_sub
            elif pool is not None and self.cell_of[t] == ko:
                _put(pool, t * span + vi)
                _take(pool, t * span + v_sub)
        # The impossible configuration of the constructive proof (both
        # substitutes forming a non-chord, "case 5b"); kept as a hard check.
        if vi - uo == n:
            raise ConstructionInvariantError(
                "substituted endpoints form a non-chord (case 5b)")
        return uo, vi

    # -- full run ------------------------------------------------------------

    def run(self) -> list[list[int]]:
        """Drive every cell pair to its target count; return the digraph's
        out-adjacency lists (node ids 0..n-1), read from the neighbor maps."""
        pairs = list(range(len(self.target)))
        self.rng.shuffle(pairs)
        for pid in pairs:
            count = self.target[pid] - self.current[pid]
            if count > 0:
                self._fill(pid, count)
        n, adj = self.n, self._index()
        out_adj = [[w - n for w in adj[v]] for v in range(n)]
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
