"""Correctness gate: every output must re-measure exactly to its target.

The checks read the files the CLI wrote and recompute the target quantity
with numpy, independently of the program's own extraction code:

* d0k: node and edge counts;
* uman: the dyad census;
* d1k: the per-node (in, out) degree multiset;
* d2k / d2km: the degree multiset and every joint-matrix entry, i.e. the
  same equality as `extract_d2k(out, mode) == target`;
* compare: all twelve metrics present, every distance finite.

Generated files must also be simple digraphs on ids 0..n-1.  A target
written by `extract` is checked the same way against the cleaned input.
Each check returns None on success or a one-line reason.
"""
from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

METRIC_NAMES = ("degrees", "neighbor_degrees", "degree_correlation",
                "dyad_census", "triad_census", "paths", "scc", "kcore",
                "betweenness", "eigenvalues", "dsp", "expansion")


def read_pairs(path) -> np.ndarray:
    """The (source, target) pairs of an edge-list file, shape (m, 2)."""
    pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    return pairs.reshape(-1, 2)


def clean_pairs(raw: np.ndarray) -> np.ndarray:
    """Raw pairs without self-loops and duplicates, relabelled to 0..n-1."""
    pairs = np.unique(raw[raw[:, 0] != raw[:, 1]], axis=0)
    _, dense = np.unique(pairs, return_inverse=True)
    return dense.reshape(pairs.shape)


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _simple(pairs: np.ndarray, n: int) -> str | None:
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        return f"node id outside 0..{n - 1}"
    if np.any(pairs[:, 0] == pairs[:, 1]):
        return "self-loop"
    codes = pairs[:, 0] * n + pairs[:, 1]
    if len(np.unique(codes)) != len(codes):
        return "parallel edge"
    return None


def cell_label(cell: dict):
    label = cell["label"]
    return tuple(label) if isinstance(label, list) else label


def check_pairs(pairs: np.ndarray, target: dict) -> str | None:
    """Gate a simple digraph on ids 0..n-1 against a target JSON object."""
    model, n = target["model"], target["n"]
    bad = _simple(pairs, n)
    if bad:
        return bad
    if model == "d0k":
        return None if len(pairs) == target["m"] else "edge count differs"
    if model == "uman":
        codes = set((pairs[:, 0] * n + pairs[:, 1]).tolist())
        mutual = sum(v * n + u in codes for u, v in pairs.tolist()) // 2
        asym = len(pairs) - 2 * mutual
        got = {"mutual": mutual, "asymmetric": asym,
               "null": n * (n - 1) // 2 - mutual - asym}
        return None if got == target["dyads"] else f"dyad census {got}"
    d_out = np.bincount(pairs[:, 0], minlength=n)
    d_in = np.bincount(pairs[:, 1], minlength=n)
    if sorted(zip(d_in.tolist(), d_out.tolist())) != \
            sorted(tuple(p) for p in target["dds"]):
        return "degree sequence differs"
    if model == "d1k":
        return None
    src, dst = pairs[:, 0], pairs[:, 1]
    if model == "d2k":
        keys = zip(d_out[src].tolist(), d_in[dst].tolist())
    else:
        keys = zip(zip(d_in[src].tolist(), d_out[src].tolist()),
                   zip(d_in[dst].tolist(), d_out[dst].tolist()))
    want = {}
    for row in target["jdam"]:
        a, b = row["a"], row["b"]
        out_cell, in_cell = (a, b) if a["side"] == "out" else (b, a)
        want[(cell_label(out_cell), cell_label(in_cell))] = row["count"]
    return None if Counter(keys) == want else "joint degree matrix differs"


def check_graph(out_path, target_path) -> str | None:
    """Gate one generated edge list against the target file it came from."""
    return check_pairs(read_pairs(out_path), load_json(target_path))


def check_compare(report_path, instances: int,
                  names=METRIC_NAMES) -> str | None:
    """Gate one compare report: the named metrics present, values finite."""
    report = load_json(report_path)
    if report.get("instances") != instances:
        return f"report covers {report.get('instances')} instances"
    rows = report.get("metrics", {})
    missing = [name for name in names if name not in rows]
    if missing:
        return f"missing metrics {missing}"
    for name, row in rows.items():
        for key in ("ensemble_distance", "instance_distance_mean",
                    "instance_distance_std"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"{name}.{key} = {value!r}"
    return None
