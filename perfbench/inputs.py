"""Seeded synthetic edge lists for the benchmark workloads.

Everything here depends only on numpy and the seed; the program under test
never sees the seed, only the edge-list files written from it.  The files
are raw samples: they may hold self-loops and duplicate pairs, which
`d2k extract` cleans as it would on a measured graph.
"""
from __future__ import annotations

import numpy as np


def permutation_union(n: int, k: int, seed: int) -> np.ndarray:
    """Pairs (i, sigma_j(i)) for k independent random permutations sigma_j.

    A near-regular digraph: every node has k out- and k in-stubs, minus the
    fixed points (self-loops) and coincident images (duplicates) that
    cleaning drops, so a few nodes fall to degree k-1.
    """
    rng = np.random.default_rng(seed)
    src = np.tile(np.arange(n, dtype=np.int64), k)
    dst = np.concatenate([rng.permutation(n) for _ in range(k)])
    return np.stack([src, dst], axis=1)


def chung_lu(n: int, pairs: int, exponent: float, seed: int) -> np.ndarray:
    """`pairs` ordered pairs drawn from a directed Chung-Lu model.

    Node i has weight (i+1)^(-1/(exponent-1)) on each side; the out- and
    in-weights are assigned by two independent random permutations, so hub
    sources and hub targets are different nodes.  Endpoints are drawn
    independently in proportion to the weights.
    """
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    w /= w.sum()
    w_out = w[rng.permutation(n)]
    w_in = w[rng.permutation(n)]
    src = rng.choice(n, size=pairs, p=w_out)
    dst = rng.choice(n, size=pairs, p=w_in)
    return np.stack([src, dst], axis=1).astype(np.int64)


def write_pairs(pairs: np.ndarray, path) -> None:
    """Write pairs as a SNAP-style edge list (one tab-separated pair a line)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# synthetic edge list: {len(pairs)} pairs\n")
        fh.write("".join(f"{u}\t{v}\n" for u, v in pairs.tolist()))
