"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench

Every workload runs untraced and traced; each metric declared in
BENCHMARK.json must be emitted with its unit, every op must pass the gate,
and the guard values must repeat exactly across two traced runs of one
seed.  The numpy gate is also checked against the program's own
extraction, and the benchmark must refuse to run without the sources.
"""
from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GUARDS = ("construct.switches_per_edge", "baselines.d1k_edges_moved_share",
          "quality.")


def bench(workload: str, trace: int, seed: int = 3, cwd=ROOT, size="toy"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", size], cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(workload: str, trace: int, seed: int = 3,
           size: str = "toy") -> tuple[dict, dict]:
    proc = bench(workload, trace, seed, size=size)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


def assert_declared(res: dict, declared: list[dict]) -> None:
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res, detail = result(workload, 0)
    assert_declared(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())
    prov = detail["provenance"]
    assert prov["workload_seed"] == 3 and prov["nproc"] >= 1
    assert len(detail["sha256"]["input.txt"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_guards_repeat(workload):
    first, detail = result(workload, 1)
    second, _ = result(workload, 1)
    assert_declared(first, SPEC["per_layer"])
    assert detail["missing_trace_points"] == []
    guards = {k: v["value"] for k, v in first["metrics"].items()
              if k.startswith(GUARDS)}
    assert guards == {k: second["metrics"][k]["value"] for k in guards}
    m = {k: v["value"] for k, v in first["metrics"].items()}
    if workload == "regular-d2k":
        assert m["files.load_targets_calls"] == 2
        assert m["realizability.check_calls"] == 2
        assert m["construct.switches_per_edge"] > 0
        assert m["quality.max_shared_out"] >= 1
    if workload in ("d1k-swaps", "census-compare"):
        assert 0 < m["baselines.d1k_edges_moved_share"] <= 1
    if workload == "census-compare":
        assert m["metrics.triad_census_s"] > 0
        assert m["files.build_compare_report_s"] > 0


def test_construct_run_is_largest_child_of_generate():
    # At toy size every child takes milliseconds and their order is noise;
    # at bench size construct.run is most of the op.
    _, detail = result("regular-d2k", 1, size="bench")
    ops = list(detail["op_children"].values())
    medians = {name: statistics.median(c.get(name, 0.0) for c in ops)
               for name in set().union(*ops)}
    assert max(medians, key=medians.get) == "construct.run"


def test_gate_agrees_with_extract_d2k(tmp_path):
    from d2k import DirectedGraph, extract_d2k, files, generate
    rng = random.Random(5)
    for mode in ("d2k", "d2km"):
        edges = {(v, (v + 1) % 40) for v in range(40)}    # no isolated node
        edges |= {(rng.randrange(40), rng.randrange(40)) for _ in range(200)}
        g = DirectedGraph.from_edges(40, sorted(e for e in edges if e[0] != e[1]))
        t = extract_d2k(g, mode)
        files.save_targets(t, tmp_path / "t.json")
        out = generate(t, seed=2)
        files.write_edge_list(out, tmp_path / "out.txt")
        assert extract_d2k(files.read_edge_list(tmp_path / "out.txt"), mode) == t
        assert gate.check_graph(tmp_path / "out.txt", tmp_path / "t.json") is None
        pairs = gate.read_pairs(tmp_path / "out.txt")
        target = gate.load_json(tmp_path / "t.json")
        assert gate.check_pairs(pairs[:-1], target) == "degree sequence differs"
        doubled = np.concatenate([pairs, pairs[:1]])
        assert gate.check_pairs(doubled, target) == "parallel edge"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
