"""Perturbed-target generators: for cross-validating the realizability
check against exhaustive enumeration on tiny node counts, and against the
constructor beyond them."""
from __future__ import annotations

import random

from conftest import all_digraphs, random_digraph
from d2k import D2KTargets, extract_d2k
from d2k.targets import cell_table


def canonical_target_key(t: D2KTargets):
    return (t.mode, t.n, tuple(sorted(t.dds)), tuple(t.jdam.items()))


def perturbed_targets(rng: random.Random, rounds: int, n: int = 3,
                      base_graphs=None, mode: str = "d2k"):
    """Yield structurally well-formed targets, a mix of realizable and not.

    Starts from the mode's targets extracted from random digraphs on n
    nodes (or from base_graphs) and applies 0..3 random +-1 edits to jdam
    entries; half the edits are rebalanced against another entry of the
    same row so some perturbations keep marginals intact.
    """
    if base_graphs is None:
        base_graphs = list(all_digraphs(n))
    for _ in range(rounds):
        g = base_graphs[rng.randrange(len(base_graphs))]
        t = extract_d2k(g, mode)
        entries = dict(t.jdam)
        for _edit in range(rng.randint(0, 3)):
            if not entries:
                break
            keys = sorted(entries)
            a, b = keys[rng.randrange(len(keys))]
            delta = rng.choice((-1, 1))
            entries[(a, b)] = max(0, entries[(a, b)] + delta)
            if rng.random() < 0.5 and len(keys) > 1:
                # compensate on another entry sharing the row of a
                partners = [k for k in keys if k[0] == a and k != (a, b)]
                if partners:
                    pa, pb = partners[rng.randrange(len(partners))]
                    entries[(pa, pb)] = max(0, entries[(pa, pb)] - delta)
            entries = {k: v for k, v in entries.items() if v > 0}
        yield D2KTargets(t.mode, t.dds, entries)


def row_preserving_targets(rng: random.Random, rounds: int,
                           nodes: tuple[int, int] = (3, 30),
                           density: tuple[float, float] = (0.05, 0.5),
                           modes: tuple[str, ...] = ("d2k", "d2km")):
    """Yield targets that differ from every extracted one they start from.

    Each starts from the target of a random digraph, in one of modes, on
    nodes[0]..nodes[1] nodes with an arc probability drawn from density,
    and applies 1..3 moves, each on two out-cells o1, o2 and two in-cells
    i1, i2: +d on (o1,i1) and (o2,i2), -d on (o1,i2) and (o2,i1), drawn
    again (up to 50 draws in all) while a count would go negative.  A move
    keeps every row sum, so condition III holds and condition II decides.
    The jdam is passed in one orientation.
    """
    for _ in range(rounds):
        g = random_digraph(rng, rng.randint(*nodes), rng.uniform(*density))
        t = extract_d2k(g, rng.choice(modes))
        outs = [c for c in t.cells() if c.side == "out"]
        ins = [c for c in t.cells() if c.side == "in"]
        if len(outs) < 2 or len(ins) < 2:
            continue
        jdam = {(o, i): t.jdam.get((i, o), 0) for o in outs for i in ins}
        moves = rng.randint(1, 3)
        for _draw in range(50):
            o1, o2 = rng.sample(outs, 2)
            i1, i2 = rng.sample(ins, 2)
            d = rng.randint(1, 3)
            if jdam[(o1, i2)] >= d and jdam[(o2, i1)] >= d:
                jdam[(o1, i1)] += d
                jdam[(o2, i2)] += d
                jdam[(o1, i2)] -= d
                jdam[(o2, i1)] -= d
                moves -= 1
                if not moves:
                    break
        moved = D2KTargets(t.mode, t.dds, jdam)
        if moved != t:
            yield moved


def dds_level_targets(rng: random.Random, rounds: int):
    """Yield targets built from a random dds, not extracted from a graph.

    Each has n = 1..60 nodes in either mode.  Out-degrees are drawn up to a
    cap of 1, 2, 3, 5 or n-1 (at most n-1), and the same total is spread
    over in-degrees capped at n-1.  The jdam pairs the out-cell stubs with
    the shuffled in-cell stubs, so condition III holds and condition II
    decides.
    """
    for _ in range(rounds):
        n = rng.randint(1, 60)
        cap = min(rng.choice((1, 2, 3, 5, n - 1)), n - 1)
        outs = [rng.randint(0, cap) for _ in range(n)]
        ins = [0] * n
        slots = [v for v in range(n) for _ in range(n - 1)]
        for v in rng.sample(slots, sum(outs)):
            ins[v] += 1
        dds = list(zip(ins, outs))
        mode = rng.choice(("d2k", "d2km"))
        cells, in_of, out_of = cell_table(dds, mode)
        out_stubs = [cells[out_of[v]] for v in range(n)
                     for _ in range(outs[v])]
        in_stubs = [cells[in_of[v]] for v in range(n) for _ in range(ins[v])]
        rng.shuffle(in_stubs)
        jdam: dict = {}
        for pair in zip(out_stubs, in_stubs):
            jdam[pair] = jdam.get(pair, 0) + 1
        yield D2KTargets(mode, dds, jdam)
