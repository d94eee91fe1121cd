"""The output law of the d2k/d2km constructor at n = 4, exactly.

Every simple digraph on 4 labeled nodes (2^12 of them) is grouped by its
labeled target: the (in, out) degree pair of each node and the joint
matrix of the mode.  For every target with at least two realizations, the
constructor runs from a fixed budget of seeds of its own, so the targets'
histograms are independent samples.  Every realization must be reached
(coverage).  The bias of a target is the total-variation distance of its
seed histogram from uniform, less the distance that independent uniform
draws would show on average at this budget (the sampling noise), so an
unbiased constructor scores about zero whatever its seed -> graph
mapping.  Its median and maximum over the targets are pinned as upper
bounds: a constructor change may lower them, and then the pins move down
with it.

The same grouping pins which moves join every realization of a target:
double swaps leave 94 d2k and 286 d2km targets in more than one class,
3-cycle reversals added 24 and 168, and 3-arc rotations none.
"""
from __future__ import annotations

import itertools
import math
import random
import statistics

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from d2k import MODE_DEGREE, MODE_PAIR, DirectedGraph, SwapGraph, extract_d2k
from d2k.construct import ConstructionState

N = 4
PAIRS = [(u, v) for u in range(N) for v in range(N) if u != v]
SEEDS = 100

# mode -> (targets with >= 2 realizations, median bias, max bias) at SEEDS
# seeds, biases to four places
PINNED = {MODE_DEGREE: (782, 0.0002, 0.1502),
          MODE_PAIR: (614, -0.0093, 0.1202)}


def realization_groups(mode: str) -> list[np.ndarray]:
    """The bitmasks (bit i is arc PAIRS[i]) of the digraphs of each labeled
    target with at least two realizations, in bitmask order."""
    masks = np.arange(1 << len(PAIRS))
    adj = np.zeros((len(masks), N, N), dtype=np.int64)
    for i, (u, v) in enumerate(PAIRS):
        adj[:, u, v] = masks >> i & 1
    d_out, d_in = adj.sum(axis=2), adj.sum(axis=1)
    # cell labels of each node's out side and in side (degrees are 0..3)
    if mode == MODE_DEGREE:
        width, out_label, in_label = N, d_out, d_in
    else:
        width = N * N
        out_label = in_label = d_in * N + d_out
    cell_pair = out_label[:, :, None] * width + in_label[:, None, :]
    offset = np.arange(len(masks))[:, None, None] * width * width
    jdam = np.bincount((offset + cell_pair).ravel(), weights=adj.ravel(),
                       minlength=len(masks) * width * width)
    keys = np.column_stack((d_in, d_out,
                            jdam.reshape(len(masks), -1).astype(np.int64)))
    _, group, sizes = np.unique(keys, axis=0, return_inverse=True,
                                return_counts=True)
    group = group.ravel()
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(sizes)[:-1]
    return [members for members in np.split(masks[order], bounds)
            if len(members) >= 2]


def built_mask(out_adj: list[list[int]]) -> int:
    return sum(1 << PAIRS.index((u, v))
               for u, heads in enumerate(out_adj) for v in heads)


def noise_tv(k: int, draws: int) -> float:
    """Expected TV from uniform of `draws` independent uniform draws over k
    outcomes: k/2 times E|X/draws - 1/k| for X ~ Binomial(draws, 1/k)."""
    p = 1 / k
    return k / 2 * sum(math.comb(draws, x) * p ** x * (1 - p) ** (draws - x)
                       * abs(x / draws - p) for x in range(draws + 1))


def test_noise_tv_matches_closed_forms():
    assert noise_tv(2, 1) == 0.5
    # two draws over two outcomes: TV 0.5 when they agree (probability 1/2)
    assert noise_tv(2, 2) == 0.25
    assert noise_tv(3, 1) == pytest.approx(2 / 3)


@pytest.mark.parametrize("mode", [MODE_DEGREE, MODE_PAIR])
def test_every_realization_reached_with_pinned_bias(mode):
    groups = realization_groups(mode)
    noise = {k: noise_tv(k, SEEDS) for k in set(map(len, groups))}
    biases = []
    for g_index, members in enumerate(groups):
        first = int(members[0])
        g = DirectedGraph.from_edges(
            N, [e for i, e in enumerate(PAIRS) if first >> i & 1])
        t = extract_d2k(g, mode)
        index = {int(mask): i for i, mask in enumerate(members)}
        hits = np.zeros(len(members))
        for seed in range(g_index * SEEDS, (g_index + 1) * SEEDS):
            hits[index[built_mask(ConstructionState(t, seed).run())]] += 1
        assert hits.all(), f"target of {g.edge_set()} not covered: {hits}"
        tv = 0.5 * np.abs(hits / SEEDS - 1 / len(members)).sum()
        biases.append(tv - noise[len(members)])
    median, worst = statistics.median(biases), max(biases)
    print(f"\n  [{mode} n=4 law] {len(biases)} targets, {SEEDS} seeds each: "
          f"bias (TV less noise) median {median:.4f}, max {worst:.4f}")
    count, pinned_median, pinned_max = PINNED[mode]
    assert len(biases) == count
    assert round(median, 4) <= pinned_median
    assert round(worst, 4) <= pinned_max


# -- the moves that join a target's realizations -----------------------------

ADDED = (1 << len(PAIRS)) - 1   # the added arcs' bits of a move key


def arc_bits(arcs) -> int:
    return sum(1 << PAIRS.index(arc) for arc in arcs)


def move_key(removed, added) -> int | None:
    """A move as its removed arcs' bits above its added arcs' bits; None
    when an added arc is a self-loop."""
    if any(u == v for u, v in added):
        return None
    return arc_bits(removed) << len(PAIRS) | arc_bits(added)


def rotation_key(ab, cd, ef) -> int | None:
    """(a,b),(c,d),(e,f) -> (a,d),(c,f),(e,b) with distinct tails and
    distinct heads, or None."""
    (a, b), (c, d), (e, f) = ab, cd, ef
    if len({a, c, e}) < 3 or len({b, d, f}) < 3:
        return None
    return move_key((ab, cd, ef), ((a, d), (c, f), (e, b)))


DOUBLE_SWAPS = {move_key((ab, cd), ((ab[0], cd[1]), (cd[0], ab[1])))
                for ab, cd in itertools.permutations(PAIRS, 2)
                if ab[0] != cd[0] and ab[1] != cd[1]} - {None}
ROTATIONS = {rotation_key(*arcs)
             for arcs in itertools.permutations(PAIRS, 3)} - {None}
# a rotation of a 3-cycle a->b->d->a reverses it
REVERSALS = {rotation_key(ab, cd, ef)
             for ab, cd, ef in itertools.permutations(PAIRS, 3)
             if cd[0] == ab[1] and ef == (cd[1], ab[0])}


def split_targets(groups: list[np.ndarray], moves: set[int]) -> int:
    """How many targets the moves leave in more than one class."""
    keys = np.array(sorted(moves))
    split = 0
    for members in groups:
        x, y = np.meshgrid(members, members, indexing="ij")
        linked = np.isin((x & ~y) << len(PAIRS) | (y & ~x), keys)
        split += connected_components(csr_matrix(linked),
                                      directed=False)[0] > 1
    return split


@pytest.mark.parametrize("mode, swaps, with_reversals",
                         [(MODE_DEGREE, 94, 24), (MODE_PAIR, 286, 168)])
def test_rotations_join_every_realization(mode, swaps, with_reversals):
    groups = realization_groups(mode)
    assert split_targets(groups, DOUBLE_SWAPS) == swaps
    assert split_targets(groups, DOUBLE_SWAPS | REVERSALS) == with_reversals
    assert split_targets(groups, DOUBLE_SWAPS | ROTATIONS) == 0


def test_swap_graph_rotate_is_the_bitmask_rotation():
    # every ordered index triple of 200 digraphs: rotate accepts exactly
    # the rotations the mask allows, lands on their edge set, and the
    # other rotation of the same indices undoes it
    rotated = 0
    for x in random.Random(4).sample(range(1 << len(PAIRS)), 200):
        edges = [e for i, e in enumerate(PAIRS) if x >> i & 1]
        sg = SwapGraph(N, edges)
        out = [dict(heads) for heads in sg.out]
        for i, j, k in itertools.product(range(len(edges)), repeat=3):
            key = rotation_key(edges[i], edges[j], edges[k])
            allowed = key is not None and not x & key & ADDED
            assert sg.rotate(i, j, k) == allowed
            if allowed:
                rotated += 1
                assert arc_bits(zip(sg.src, sg.dst)) == \
                    x ^ key >> len(PAIRS) ^ key & ADDED
                assert sg.rotate(i, k, j)
            assert arc_bits(zip(sg.src, sg.dst)) == x
            assert sg.out == out
    assert rotated
