"""Byte-identity of the v:1 metrics, compare and CSV formats, of the
`gen_d1k` edge lists per target, seed and swap budget, of the `gen_d0k` and
`gen_uman` edge lists on both sampling paths, of the d2k/d2km
constructor's edge lists and counts per target and seed, and of the ordered
one-swap neighborhoods that `enumerate_jdam_swaps` lists, and of the
betweenness values and triad census of a digraph whose adjacency lists are
in shuffled file order.

The files under golden/ were written by golden/make_golden.py; the format
tests read the metrics files back instead of measuring again, so they hold
on any LAPACK/ARPACK build.  One test measures the original graph again and
checks every metric but the spectrum, whose last bits depend on that build,
so a metric kernel that drifts fails here.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from d2k import MetricsConfig, structural_suite
from d2k.files import (build_compare_report, load_metrics_report,
                       report_to_json_dict, save_json, save_metrics_report,
                       write_metric_csvs)
from d2k.metrics import METRIC_NAMES
from golden.make_golden import (SMALL, baselines_cases, baselines_sha256,
                                construct_cases, construct_digest, d1k_cases,
                                d1k_sha256, kernel_digest, original_graph,
                                swap_cases, swap_digest)

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = ("original", "instance_d2k", "instance_d0k", "subset")


@pytest.mark.parametrize("name", REPORTS)
def test_metrics_file_load_save_is_byte_identical(tmp_path, name):
    report = load_metrics_report(GOLDEN / f"{name}.json")
    save_metrics_report(report, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == \
        (GOLDEN / f"{name}.json").read_bytes()


def test_remeasured_metrics_match_golden():
    names = tuple(name for name in METRIC_NAMES if name != "eigenvalues")
    report = structural_suite(original_graph(),
                              MetricsConfig(metrics=names, **SMALL))
    measured = json.loads(json.dumps(report_to_json_dict(report)["metrics"]))
    stored = json.loads((GOLDEN / "original.json").read_text(
        encoding="utf-8"))["metrics"]
    spectrum = ("eigenvalues", "eigen_meta")
    assert {k: v for k, v in measured.items() if k not in spectrum} == \
        {k: v for k, v in stored.items() if k not in spectrum}


def test_compare_file_is_byte_identical(tmp_path):
    original, *instances = (load_metrics_report(GOLDEN / f"{name}.json")
                            for name in REPORTS[:3])
    save_json(build_compare_report(original, instances),
              tmp_path / "compare.json")
    assert (tmp_path / "compare.json").read_bytes() == \
        (GOLDEN / "compare.json").read_bytes()


def test_csv_files_are_byte_identical(tmp_path):
    written = write_metric_csvs(load_metrics_report(GOLDEN / "original.json"),
                                tmp_path / "csv")
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in written}
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == \
        sorted(digests)
    assert digests == json.loads(
        (GOLDEN / "original_csv_sha256.json").read_text(encoding="utf-8"))


def test_d1k_edge_lists_are_byte_identical():
    digests = {name: d1k_sha256(*case) for name, case in d1k_cases().items()}
    assert digests == json.loads(
        (GOLDEN / "d1k_sha256.json").read_text(encoding="utf-8"))


def test_d0k_and_uman_edge_lists_are_byte_identical():
    digests = {name: baselines_sha256(*case)
               for name, case in baselines_cases().items()}
    assert digests == json.loads(
        (GOLDEN / "baselines_sha256.json").read_text(encoding="utf-8"))


def test_construct_edge_lists_are_byte_identical():
    digests = {name: construct_digest(*case)
               for name, case in construct_cases().items()}
    assert digests == json.loads(
        (GOLDEN / "construct_sha256.json").read_text(encoding="utf-8"))


def test_swap_neighborhoods_are_byte_identical():
    digests = {name: swap_digest(*case) for name, case in swap_cases().items()}
    assert digests == json.loads(
        (GOLDEN / "swaps_sha256.json").read_text(encoding="utf-8"))


def test_kernels_on_shuffled_adjacency_match_golden():
    measured = json.loads(json.dumps(kernel_digest()))
    assert measured == json.loads(
        (GOLDEN / "kernels.json").read_text(encoding="utf-8"))
