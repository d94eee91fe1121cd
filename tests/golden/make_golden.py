"""Write the golden metrics, compare and CSV files next to this script.

    PYTHONPATH=src python3 tests/golden/make_golden.py

One fixed 40-node digraph is measured with the sampling thresholds set
below n, so the sampled-paths, sampled-betweenness and ARPACK branches all
leave their metadata in the files.  Two instances (a d2k realization and a
d0k graph) give the compare file nonzero distances on most metrics, and a
second report of the original with only two metrics selected pins the
`null` encoding of unselected metrics.

d1k_sha256.json holds the sha256 of the `write_edge_list` output of
`gen_d1k` for each case of `d1k_cases()`: a hub-heavy target on which
3-cycle reversals are accepted, the forced 3-cycle, `randomize_swaps=0`,
a small odd number of attempts, and a dense n = 20, p = 0.3 target on
which most 3-cycle probes find several closers, so the order they are
listed in reaches the output.

baselines_sha256.json holds the sha256 of the `write_edge_list` output of
`gen_d0k` and `gen_uman` for each case of `baselines_cases()`, two seeds
each: a sparse and a dense size target and a sparse and a dense
dyad-census target (each dense one samples the pairs left out).

construct_sha256.json holds, for each case of `construct_cases()`, the
sha256 of the `write_edge_list` output of `generate`, with the run's
`switch_count`, `edges_added`, `fallback_count` (edges whose draws
stalled and that came from the pool path) as `fallbacks`, and the number
of case-4 substitutions (neighbor switches that found no feasible
neighbor): a small regular d2k target, a heavy-tailed d2km target with 288
cells, a dense n = 200, p = 0.9 target, and small or sparse random targets
at seeds where draws alone suffice (two of them without building the
neighbor maps before the output is read), where the pool path switches
and where substitutions fire.

swaps_sha256.json holds, for each case of `swap_cases()` and each of the
`d2k` and `d2km` modes, the number of states one accepted jdam-preserving
double swap away (`enumerate_jdam_swaps`) and the sha256 of their ordered
list of sorted edge lists: the directed 3-cycle (no such state), the
directed 4-cycle and 40 small random digraphs.

kernels.json holds the betweenness values (from a pivot sample) and the
triad census of `shuffled_graph()`, a 300-node digraph read from a shuffled
edge list.  Its adjacency lists are in file order, not sorted, and file
order sets the breadth-first discovery order, hence the order in which a
node's dependencies on its three or more successors are summed: a kernel
that walks sorted adjacency lists changes the last bits of some values.

test_golden.py loads the checked-in metrics files rather than measuring
again, so it does not depend on the machine's LAPACK or ARPACK.  Rerun
this script only when the file formats are meant to change.
"""
from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

from d2k import (ConstructionState, D2KTargets, DdsTargets, DirectedGraph,
                 MODE_DEGREE, MODE_PAIR, MetricsConfig, SizeTargets,
                 UmanTargets, enumerate_jdam_swaps, extract_d2k, extract_dds,
                 extract_size, from_edge_list, gen_d0k, gen_d1k, gen_uman,
                 generate, structural_suite)
from d2k.files import (build_compare_report, load_metrics_report,
                       save_json, save_metrics_report, write_edge_list,
                       write_metric_csvs)
from d2k.metrics import betweenness_values, triad_census

HERE = Path(__file__).resolve().parent
SMALL = dict(seed=3, sample_sources=12, path_exact_nodes=20,
             betweenness_exact_nodes=20, eigen_k=6, eigen_dense_nodes=20)


def original_graph():
    rng = random.Random(7)
    edges = {(v, (v + 1) % 36) for v in range(36)}        # nodes 36..39 hang off
    edges |= {(36, 0), (37, 36), (38, 37), (0, 39)}
    edges |= {((v + 1) % 36, v) for v in range(0, 36, 4)}     # mutual pairs
    edges |= {(rng.randrange(40), rng.randrange(40)) for _ in range(70)}
    return from_edge_list(sorted((u, v) for u, v in edges if u != v))


def hub_graph(n: int, m: int) -> DirectedGraph:
    """At most m edges drawn with power-law out-hubs at the low ids and
    in-hubs at the high ids; nodes left without an edge are dropped."""
    rng = random.Random(5)
    w = [(v + 1) ** -0.9 for v in range(n)]
    outs = rng.choices(range(n), weights=w, k=m)
    ins = rng.choices(range(n), weights=w[::-1], k=m)
    rng.shuffle(ins)
    return from_edge_list(sorted({(u, v) for u, v in zip(outs, ins) if u != v}))


def hub_targets() -> DdsTargets:
    """Degree sequence of a 299-node hub digraph (1,204 edges)."""
    return extract_dds(hub_graph(300, 1500))


def d1k_cases() -> dict[str, tuple[DdsTargets, int, int | None]]:
    """Case name -> (target, seed, randomize_swaps) for d1k_sha256.json."""
    hub = hub_targets()
    cycle = DdsTargets(3, [(1, 1)] * 3)
    cases = {"hub_s2": (hub, 2, None), "hub_s2_swaps0": (hub, 2, 0),
             "hub_s4_swaps37": (hub, 4, 37)}
    cases.update({f"cycle3_s{seed}": (cycle, seed, None) for seed in range(4)})
    cases["dense20_s1"] = (extract_dds(random_digraph(1, 20, 0.3)), 1, None)
    return cases


def d1k_sha256(t: DdsTargets, seed: int, randomize_swaps: int | None) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d1k.txt"
        write_edge_list(gen_d1k(t, seed, randomize_swaps), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def baselines_cases() -> dict[str, tuple[SizeTargets | UmanTargets, int]]:
    """Case name -> (target, seed) for baselines_sha256.json."""
    targets = {"d0k_sparse": SizeTargets(50, 200),
               "d0k_dense": SizeTargets(12, 100),
               "uman_sparse": UmanTargets(50, 30, 100, 1095),
               "uman_dense": UmanTargets(20, 60, 80, 50)}
    return {f"{name}_s{seed}": (t, seed) for name, t in targets.items()
            for seed in (1, 2)}


def baselines_sha256(t: SizeTargets | UmanTargets, seed: int) -> str:
    generator = gen_d0k if isinstance(t, SizeTargets) else gen_uman
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baseline.txt"
        write_edge_list(generator(t, seed), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def random_digraph(seed: int, n: int, p: float) -> DirectedGraph:
    rng = random.Random(seed)
    return DirectedGraph.from_edges(n, [
        (u, v) for u in range(n) for v in range(n)
        if u != v and rng.random() < p])


def construct_cases() -> dict[str, tuple[D2KTargets, int]]:
    """Case name -> (target, construction seed) for construct_sha256.json.

    The `random*` digraphs and seeds were picked by a search over small or
    sparse random digraphs.  `regular_s1`, `random10_s0`,
    `random10_d2km_s3` and `random103_s3` are built by draws alone, and the
    last two without a repeat among the bulk draws, so their runs never
    build the neighbor maps until the output is read (`random103_s3` has
    242 edges, and 79 of its nodes hold two or more heads);
    `random6_s3`, `random7_s3`, `random8_s0` and `random12_s0` each fall
    back to the pool and make one case-4 substitution; the others fall
    back and switch without one.
    """
    rng = random.Random(11)
    perms = [list(range(60)) for _ in range(3)]
    for perm in perms:
        rng.shuffle(perm)
    regular = from_edge_list(sorted(
        {(v, perm[v]) for perm in perms for v in range(60) if perm[v] != v}))
    cases = {"regular_s1": (extract_d2k(regular), 1),
             "hub_d2km_s1": (extract_d2k(hub_graph(1000, 5000), "d2km"), 1),
             "dense_s1": (extract_d2k(random_digraph(1, 200, 0.9)), 1)}
    for name, (seed, n, p, mode, build_seed) in {
            "random27_s1": (101, 27, 0.17, "d2k", 1),
            "random10_s0": (103, 10, 0.2, "d2k", 0),
            "random10_d2km_s3": (103, 10, 0.2, "d2km", 3),
            "random25_s3": (116, 25, 0.1, "d2k", 3),
            "random13_s2": (125, 13, 0.48, "d2k", 2),
            "random6_s3": (396, 6, 0.44, "d2k", 3),
            "random7_s3": (203, 7, 0.32, "d2k", 3),
            "random8_s0": (339, 8, 0.72, "d2k", 0),
            "random12_s0": (204, 12, 0.73, "d2k", 0),
            "random103_s3": (145, 103, 0.022, "d2k", 3)}.items():
        cases[name] = (extract_d2k(random_digraph(seed, n, p), mode),
                       build_seed)
    return cases


def construct_digest(t: D2KTargets, seed: int) -> dict:
    """sha256 of the generated edge list and the counts of the same run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d2k.txt"
        write_edge_list(generate(t, seed), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    state = ConstructionState(t, seed)
    switch = state.neighbor_switch
    substitutions = 0

    def counting_switch(x: int, x_sub: int):
        nonlocal substitutions
        moved = switch(x, x_sub)
        substitutions += moved is None
        return moved
    state.neighbor_switch = counting_switch
    state.run()
    return {"sha256": digest, "switch_count": state.switch_count,
            "edges_added": state.edges_added, "substitutions": substitutions,
            "fallbacks": state.fallback_count}


def swap_cases() -> dict[str, tuple[DirectedGraph, str]]:
    """Case name -> (digraph, mode) for swaps_sha256.json."""
    rng = random.Random(17)
    graphs = {"cycle3": from_edge_list([(0, 1), (1, 2), (2, 0)]),
              "cycle4": from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])}
    for i in range(40):
        n = rng.randint(3, 12)
        graphs[f"random{i}_n{n}"] = random_digraph(
            rng.randrange(1 << 30), n, rng.uniform(0.1, 0.5))
    return {f"{name}_{mode}": (g, mode) for name, g in graphs.items()
            for mode in (MODE_DEGREE, MODE_PAIR)}


def swap_digest(g: DirectedGraph, mode: str) -> dict:
    """Size and sha256 of the ordered one-swap neighborhood of g."""
    neighbors = [sorted(nbr.edge_set())
                 for nbr in enumerate_jdam_swaps(g, mode)]
    text = json.dumps(neighbors)
    return {"neighbors": len(neighbors),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def shuffled_graph() -> DirectedGraph:
    """About 1,500 random arcs on 300 nodes, one in four of them
    reciprocated so that all 16 triad classes occur, read in a shuffled
    order."""
    rng = random.Random(29)
    arcs = {(rng.randrange(300), rng.randrange(300)) for _ in range(1200)}
    edges = sorted(arcs | {(v, u) for u, v in arcs if rng.random() < 0.25})
    rng.shuffle(edges)
    return from_edge_list(edges)


def kernel_digest() -> dict:
    """Betweenness from 60 of the pivots, and the triad census, of
    `shuffled_graph()`, for kernels.json."""
    g = shuffled_graph()
    values, meta = betweenness_values(g, exact_nodes=100, pivots=60, seed=5)
    return {"shuffled300": {"betweenness": values, "betweenness_meta": meta,
                            "triad_census": triad_census(g)}}


def main() -> None:
    g = original_graph()
    graphs = {"original": g, "instance_d2k": generate(extract_d2k(g), seed=1),
              "instance_d0k": gen_d0k(extract_size(g), seed=1)}
    for name, h in graphs.items():
        save_metrics_report(structural_suite(h, MetricsConfig(**SMALL)),
                            HERE / f"{name}.json")
    subset = MetricsConfig(metrics=("degrees", "paths"), **SMALL)
    save_metrics_report(structural_suite(g, subset), HERE / "subset.json")

    original, *instances = (load_metrics_report(HERE / f"{name}.json")
                            for name in graphs)
    save_json(build_compare_report(original, instances), HERE / "compare.json")
    csv_dir = HERE / "csv"
    written = write_metric_csvs(original, csv_dir)
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in written}
    for p in written:
        Path(p).unlink()
    csv_dir.rmdir()
    save_json(digests, HERE / "original_csv_sha256.json")
    d1k = {name: d1k_sha256(*case) for name, case in d1k_cases().items()}
    save_json(d1k, HERE / "d1k_sha256.json")
    pinned = {name: baselines_sha256(*case)
              for name, case in baselines_cases().items()}
    save_json(pinned, HERE / "baselines_sha256.json")
    built = {name: construct_digest(*case)
             for name, case in construct_cases().items()}
    save_json(built, HERE / "construct_sha256.json")
    swaps = {name: swap_digest(*case) for name, case in swap_cases().items()}
    save_json(swaps, HERE / "swaps_sha256.json")
    save_json(kernel_digest(), HERE / "kernels.json")


if __name__ == "__main__":
    main()
