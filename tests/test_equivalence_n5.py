"""The central equivalence at n = 5, exhaustively.

All 2^20 simple digraphs on 5 labeled nodes are grouped by target (mode,
dds as a multiset, jdam) in numpy: a target is the sorted (in, out)
degree pairs of its nodes and the sorted codes (out-cell label, in-cell
label) of its arcs, packed into a few int64 columns.  Every target so
found must build exactly; a perturbed target must pass `check` exactly
when it is one of them, build exactly when it passes, and raise
NotRealizableError when it does not.
"""
from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from d2k import (MODE_DEGREE, MODE_PAIR, DirectedGraph, NotRealizableError,
                 check, extract_d2k, generate)
from d2k.construct import ConstructionState
from perturb import perturbed_targets

N = 5
PAIRS = [(u, v) for u in range(N) for v in range(N) if u != v]
# mode -> distinct targets of the 2^20 digraphs
TARGETS = {MODE_DEGREE: 4546, MODE_PAIR: 8446}


def width(mode: str) -> int:
    """The number of cell labels: a degree 0..4, or a pair d_in * N + d_out."""
    return N if mode == MODE_DEGREE else N * N


def target_rows(masks: np.ndarray, mode: str) -> np.ndarray:
    """One row per digraph (bit i of its mask is arc PAIRS[i]): its nodes'
    sorted codes d_in * N + d_out, then its arcs' sorted codes out-label *
    width + in-label, padded with width**2 up to len(PAIRS) arcs."""
    arcs = np.empty((len(masks), len(PAIRS)), dtype=bool)
    d_in = np.zeros((len(masks), N), dtype=np.int16)
    d_out = np.zeros_like(d_in)
    for i, (u, v) in enumerate(PAIRS):
        arcs[:, i] = masks >> i & 1
        d_out[:, u] += arcs[:, i]
        d_in[:, v] += arcs[:, i]
    pair = d_in * N + d_out
    out_label, in_label = (d_out, d_in) if mode == MODE_DEGREE \
        else (pair, pair)
    w = width(mode)
    codes = np.full(arcs.shape, w * w, dtype=np.int16)
    for i, (u, v) in enumerate(PAIRS):
        has = arcs[:, i]
        codes[has, i] = out_label[has, u] * w + in_label[has, v]
    return np.hstack((np.sort(pair, axis=1), np.sort(codes, axis=1)))


def target_row(t) -> tuple[int, ...] | None:
    """The row of target t as `target_rows` codes it; None when no
    digraph on N nodes can have it (more than len(PAIRS) arcs)."""
    w = width(t.mode)
    label = (lambda c: c.label) if t.mode == MODE_DEGREE \
        else (lambda c: c.label[0] * N + c.label[1])
    codes = sorted(label(b) * w + label(a)           # a in-cell, b out-cell
                   for (a, b), count in t.jdam.items() for _ in range(count))
    if len(codes) > len(PAIRS):
        return None
    return (*sorted(d_in * N + d_out for d_in, d_out in t.dds), *codes,
            *[w * w] * (len(PAIRS) - len(codes)))


@functools.cache
def groups(mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(masks, rows): the first digraph of each target, in mask order, and
    its target row."""
    masks = np.arange(1 << len(PAIRS))
    rows = target_rows(masks, mode)
    # pack the row's codes, each below 2**bits, into 63-bit int64 columns
    bits = (width(mode) ** 2).bit_length()
    per = 63 // bits
    packed = [(rows[:, k:k + per].astype(np.int64)
               << bits * np.arange(min(per, rows.shape[1] - k))).sum(axis=1)
              for k in range(0, rows.shape[1], per)]
    order = np.lexsort(packed[::-1])
    ordered = np.column_stack(packed)[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.sort(order[new])
    return masks[first], rows[first]


def graph_of(mask: int) -> DirectedGraph:
    return DirectedGraph.from_edges(
        N, [e for i, e in enumerate(PAIRS) if mask >> i & 1])


@pytest.mark.parametrize("mode", [MODE_DEGREE, MODE_PAIR])
def test_every_target_builds_exactly(mode):
    masks, rows = groups(mode)
    assert len(masks) == TARGETS[mode]
    built = []
    for seed, mask in enumerate(masks.tolist()):
        t = extract_d2k(graph_of(mask), mode)
        assert target_row(t) == tuple(rows[seed].tolist()), mask
        out = ConstructionState(t, seed).run()
        built.append(sum(1 << PAIRS.index((u, v))
                         for u, heads in enumerate(out) for v in heads))
    # each build has its target's row: the same dds multiset and jdam
    assert (target_rows(np.array(built), mode) == rows).all()


@pytest.mark.parametrize("mode", [MODE_DEGREE, MODE_PAIR])
def test_perturbed_targets_pass_check_exactly_when_realized(mode):
    masks, rows = groups(mode)
    known = set(map(tuple, rows.tolist()))
    rng = random.Random(f"n5 {mode}")
    base = [graph_of(mask) for mask in rng.sample(range(1 << len(PAIRS)), 300)]
    seen = {True: 0, False: 0}
    for t in perturbed_targets(rng, 400, base_graphs=base, mode=mode):
        realizable = check(t).realizable
        assert realizable == (target_row(t) in known), t
        seen[realizable] += 1
        if realizable:
            assert extract_d2k(generate(t, 1), mode) == t
        else:
            with pytest.raises(NotRealizableError):
                generate(t, 1)
    assert min(seen.values()) >= 50, seen
