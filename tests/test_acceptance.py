"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Dataset-conditional checks look for edge lists under ./datasets (override
with D2K_DATASETS) and skip, not fail, when absent.
"""
from __future__ import annotations

import functools
import random
import statistics
import time

import pytest

from conftest import (all_digraphs, betweenness_bruteforce, dataset_files,
                      dsp_bruteforce, expansion_bruteforce, random_digraph,
                      triad_census_bruteforce)
from d2k import (CellKey, D2KTargets, avg_neighbor_degree, check, dsp,
                 expansion, extract_d2k, extract_dds, extract_size,
                 extract_uman, from_edge_list, gen_d0k, gen_d1k, generate,
                 read_edge_list, triad_census)
from d2k.construct import ConstructionState
from d2k.metrics import betweenness_values
from d2k.swaps import enumerate_jdam_swaps
from perturb import canonical_target_key, perturbed_targets


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\nACCEPTANCE {label}: SKIPPED")
                raise
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")
        return wrapper
    return deco


def _assert_simple(g):
    seen = set()
    for u, v in g.edges():
        assert u != v
        assert (u, v) not in seen
        seen.add((u, v))
    assert len(seen) == g.m


def _exactness_one(g, modes=("d2k", "d2km"), seeds=range(5)):
    for mode in modes:
        t = extract_d2k(g, mode)
        assert check(t).realizable
        for seed in seeds:
            out = generate(t, seed)
            _assert_simple(out)
            assert extract_d2k(out, mode) == t


@criterion("exactness")
def test_exactness_on_random_graphs_and_datasets():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(10, 200)
        density = rng.uniform(0.01, 0.3)
        _exactness_one(random_digraph(rng, n, density))
    for path in dataset_files():
        _exactness_one(read_edge_list(path))


@criterion("small-scale oracle")
def test_small_scale_oracle():
    # every extracted target on 3 and 4 nodes is graphical and constructible
    for n in (3, 4):
        for g in all_digraphs(n):
            for mode in ("d2k", "d2km"):
                t = extract_d2k(g, mode)
                assert check(t).realizable
                out = generate(t, seed=1)
                assert extract_d2k(out, mode) == t

    # perturbed targets: check() agrees with exhaustive enumeration on n=3
    existing = {canonical_target_key(extract_d2k(g)) for g in all_digraphs(3)}
    rng = random.Random(102)
    outcomes = {True: 0, False: 0}
    for t in perturbed_targets(rng, rounds=400):
        realizable = check(t).realizable
        assert realizable == (canonical_target_key(t) in existing)
        outcomes[realizable] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


@criterion("d2km neighbor-degree exactness")
def test_d2km_preserves_average_neighbor_degrees_exactly():
    rng = random.Random(103)
    combos = (("out", "in"), ("out", "out"), ("in", "in"), ("in", "out"))
    for _ in range(20):
        g = random_digraph(rng, rng.randint(10, 80), rng.uniform(0.05, 0.3))
        t = extract_d2k(g, "d2km")
        reference = {c: avg_neighbor_degree(g, *c) for c in combos}
        for seed in range(3):
            out = generate(t, seed)
            for c in combos:
                assert avg_neighbor_degree(out, *c) == reference[c]


@criterion("4-cycle swap counterexample")
def test_four_cycle_orientations_not_connected_by_one_swap():
    cycle = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])
    reverse = from_edge_list([(1, 0), (2, 1), (3, 2), (0, 3)])
    assert extract_d2k(cycle) == extract_d2k(reverse)
    fwd = {nbr.edge_set() for nbr in enumerate_jdam_swaps(cycle)}
    bwd = {nbr.edge_set() for nbr in enumerate_jdam_swaps(reverse)}
    assert reverse.edge_set() not in fwd
    assert cycle.edge_set() not in bwd


@criterion("census correctness")
def test_census_metrics_match_bruteforce_oracles():
    three_cycle = from_edge_list([(0, 1), (1, 2), (2, 0)])
    assert triad_census(three_cycle)["030C"] == 1
    reciprocal = from_edge_list([(0, 1), (1, 0), (1, 2), (2, 1),
                                 (0, 2), (2, 0)])
    assert triad_census(reciprocal)["300"] == 1

    rng = random.Random(104)
    for _ in range(20):
        g = random_digraph(rng, 30, rng.uniform(0.05, 0.3))
        assert triad_census(g) == triad_census_bruteforce(g)
        for variant in ("independent_two_paths", "outgoing", "incoming"):
            assert dsp(g, variant) == dsp_bruteforce(g, variant)
        for direction in ("out", "in"):
            assert expansion(g, direction) == \
                expansion_bruteforce(g, direction)
        fast, meta = betweenness_values(g)
        assert meta["exact"]
        brute = betweenness_bruteforce(g)
        for a, b in zip(fast, brute):
            if a == b:
                continue
            assert abs(a - b) / max(abs(a), abs(b)) <= 1e-9


def _regular_targets(n: int, d: int) -> D2KTargets:
    a, b = CellKey("in", d), CellKey("out", d)
    return D2KTargets("d2k", [(d, d)] * n, {(a, b): n * d})


@criterion("complexity")
def test_generation_scales_linearly_in_edges():
    # m = 500,000 and m = 1,000,000 at the same d_max = 10.  The sizes run
    # seed by seed, alternating which goes first, so a slow phase of a
    # shared host lands on both sizes rather than on one.
    sizes = (50_000, 100_000)
    by_size = {n: _regular_targets(n, 10) for n in sizes}
    times: dict[int, list[float]] = {n: [] for n in sizes}
    for seed in range(5):
        for n in sizes if seed % 2 == 0 else sizes[::-1]:
            state = ConstructionState(by_size[n], seed)
            start = time.perf_counter()
            state.run()
            times[n].append(time.perf_counter() - start)
    base, doubled = (statistics.median(times[n]) for n in sizes)
    assert base < 60.0
    ratio = doubled / base
    print(f"\n  [complexity] median 500k-edge build {base:.2f}s, "
          f"1M-edge build {doubled:.2f}s, ratio {ratio:.2f}")
    assert ratio <= 2.5
    # spot-check exactness at scale
    t = _regular_targets(50_000, 10)
    assert extract_d2k(generate(t, seed=0)) == t


@criterion("mutual-edge ordering (dataset-conditional)")
def test_twitter_mutual_edge_ordering():
    twitter = [p for p in dataset_files() if "twitter" in p.name.lower()]
    if not twitter:
        pytest.skip("Twitter dataset not supplied")
    g = read_edge_list(twitter[0])
    published_means = {"d2km": 123_040.4, "d2k": 3_628.7,
                       "d1k": 2_155.95, "d0k": 233.05}
    means = {}
    for model in ("d2km", "d2k", "d1k", "d0k"):
        totals = []
        for seed in range(20):
            if model in ("d2k", "d2km"):
                out = generate(extract_d2k(g, model), seed)
            elif model == "d1k":
                out = gen_d1k(extract_dds(g), seed)
            else:
                out = gen_d0k(extract_size(g), seed)
            totals.append(extract_uman(out).mutual)
        means[model] = sum(totals) / len(totals)
    assert means["d2km"] > means["d2k"] > means["d1k"] > means["d0k"]
    for model, expected in published_means.items():
        assert expected / 3 <= means[model] <= expected * 3


# -- dataset-conditional spot checks of published counts ----------------------

KNOWN_DATASETS = {
    "gnutella": (6_301, 20_777),
    "wiki": (7_115, 103_689),
    "caida": (26_475, 57_582),
    "twitter": (81_306, 1_768_135),
}


def test_dataset_sizes_after_cleaning():
    files = dataset_files()
    if not files:
        pytest.skip("no datasets supplied")
    matched = False
    for path in files:
        for key, (n, m) in KNOWN_DATASETS.items():
            if key in path.name.lower():
                g = read_edge_list(path)
                assert (g.n, g.m) == (n, m), path.name
                if key == "gnutella":
                    assert extract_uman(g).mutual == 0
                matched = True
    if not matched:
        pytest.skip("no recognized dataset names")
