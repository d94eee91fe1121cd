"""Write the golden metrics, compare and CSV files next to this script.

    PYTHONPATH=src python3 tests/golden/make_golden.py

One fixed 40-node digraph is measured with the sampling thresholds set
below n, so the sampled-paths, sampled-betweenness and ARPACK branches all
leave their metadata in the files.  Two instances (a d2k realization and a
d0k graph) give the compare file nonzero distances on most metrics, and a
second report of the original with only two metrics selected pins the
`null` encoding of unselected metrics.

test_golden.py loads the checked-in metrics files rather than measuring
again, so it does not depend on the machine's LAPACK or ARPACK.  Rerun
this script only when the file formats are meant to change.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from d2k import (MetricsConfig, extract_d2k, extract_size, from_edge_list,
                 gen_d0k, generate, structural_suite)
from d2k.files import (build_compare_report, load_metrics_report,
                       save_compare_report, save_metrics_report,
                       write_metric_csvs)

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
    save_compare_report(build_compare_report(original, instances),
                        HERE / "compare.json")
    csv_dir = HERE / "csv"
    written = write_metric_csvs(original, csv_dir)
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in written}
    for p in written:
        Path(p).unlink()
    csv_dir.rmdir()
    (HERE / "original_csv_sha256.json").write_text(
        json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
