from __future__ import annotations

import json
import random

import pytest

from conftest import random_digraph
from d2k import (CellKey, D2KTargets, TargetStructureError, check, extract_d2k,
                 from_edge_list, load_metrics_report, load_targets,
                 read_edge_list, write_edge_list)
from d2k.cli import main


def write_graph(tmp_path, name="g.txt", n=18, p=0.25, seed=40):
    g = random_digraph(random.Random(seed), n, p)
    path = tmp_path / name
    write_edge_list(g, path)
    return path, g


def test_extract_check_generate_pipeline(tmp_path, capsys):
    graph_path, g = write_graph(tmp_path)
    target_path = tmp_path / "target.json"
    assert main(["extract", str(graph_path), "--model", "d2k",
                 "-o", str(target_path)]) == 0
    assert "extracted d2k target" in capsys.readouterr().out

    assert main(["check", str(target_path)]) == 0

    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "--seed", "3", "--count", "3",
                 "-o", str(out_dir)]) == 0
    files = sorted(out_dir.iterdir())
    assert [f.name for f in files] == ["d2k_s3.txt", "d2k_s4.txt", "d2k_s5.txt"]
    t = load_targets(target_path)
    for f in files:
        assert extract_d2k(read_edge_list(f)) == t


def test_generate_is_deterministic(tmp_path):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2km", "-o", str(target_path)])
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["generate", str(target_path), "--seed", "7", "-o", str(d1)]) == 0
    assert main(["generate", str(target_path), "--seed", "7", "-o", str(d2)]) == 0
    assert (d1 / "d2km_s7.txt").read_bytes() == (d2 / "d2km_s7.txt").read_bytes()


def test_check_exit_2_on_broken_target(tmp_path, capsys):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    obj = json.loads(target_path.read_text())
    obj["jdam"][0]["count"] += 1           # breaks condition III
    target_path.write_text(json.dumps(obj))
    report_path = tmp_path / "violations.json"
    assert main(["check", str(target_path), "--json", str(report_path)]) == 2
    assert "not realizable" in capsys.readouterr().out
    data = json.loads(report_path.read_text())
    assert data["realizable"] is False
    assert data["violations"]
    assert report_path.read_text(encoding="utf-8") == \
        json.dumps(data, sort_keys=True, indent=1) + "\n"


def test_generate_exit_2_on_unrealizable(tmp_path, capsys):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    obj = json.loads(target_path.read_text())
    obj["jdam"][0]["count"] += 1
    target_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["generate", str(target_path), "-o", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    violations = check(load_targets(target_path)).violations
    assert out == "" and violations
    assert err.startswith("target is not realizable:\n")
    for v in violations:
        assert f"  [{v.condition}] {v.message}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_generate_exit_2_on_non_graphical_d1k_target(tmp_path, capsys):
    target_path = tmp_path / "d1k.json"
    target_path.write_text(json.dumps(
        {"v": 1, "model": "d1k", "n": 3, "dds": [[0, 0], [0, 2], [2, 0]]}),
        encoding="utf-8")
    assert main(["generate", str(target_path),
                 "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("target is not graphical: ")
    assert err.count("\n") == 1


def test_exit_1_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 zero\n")
    assert main(["extract", str(bad), "--model", "d2k",
                 "-o", str(tmp_path / "t.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.json")]) == 1


def test_deeply_nested_target_file_exit_1(tmp_path, capsys):
    # json.loads raises RecursionError on deep nesting, not JSONDecodeError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["check", str(deep)],
                 ["generate", str(deep), "-o", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "error: not valid JSON: nested too deeply\n"


def test_negative_id_error_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# c\n\n1 2\n-1 3\n")
    assert main(["extract", str(bad), "--model", "d2k",
                 "-o", str(tmp_path / "t.json")]) == 1
    assert capsys.readouterr().err == \
        "error: line 4: negative ids in '-1 3'\n"


def test_baseline_models_via_cli(tmp_path):
    graph_path, g = write_graph(tmp_path)
    for model in ("d0k", "uman", "d1k"):
        target_path = tmp_path / f"{model}.json"
        assert main(["extract", str(graph_path), "--model", model,
                     "-o", str(target_path)]) == 0
        out_dir = tmp_path / f"gen_{model}"
        assert main(["generate", str(target_path), "--seed", "2",
                     "-o", str(out_dir)]) == 0
        gen = read_edge_list(out_dir / f"{model}_s2.txt")
        assert gen.n == g.n
        assert gen.m == g.m                # all three models fix n and m


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["d0k", "uman"])
def test_generate_huge_node_count_exit_1(tmp_path, capsys, monkeypatch,
                                         model):
    # n = 2^31 with m = 10: the target loads, and generation refuses it
    # before any per-node structure is allocated
    import d2k.baselines

    def no_graph(*args):
        raise AssertionError("a graph was built")
    monkeypatch.setattr(d2k.baselines.DirectedGraph, "from_edges", no_graph)
    n = 1 << 31
    body = ({"m": 10} if model == "d0k" else
            {"dyads": {"mutual": 0, "asymmetric": 10,
                       "null": n * (n - 1) // 2 - 10}})
    target_path = tmp_path / "t.json"
    target_path.write_text(json.dumps({"v": 1, "model": model, "n": n,
                                       **body}), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "-o", str(out_dir)]) == 1
    assert_one_error_line(capsys)
    assert not any(out_dir.iterdir())


def test_negative_swap_rounds_exit_1(tmp_path, capsys):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "d1k.json"
    main(["extract", str(graph_path), "--model", "d1k", "-o", str(target_path)])
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "--swap-rounds", "-5",
                 "-o", str(out_dir)]) == 1
    assert_one_error_line(capsys)
    assert not list(out_dir.glob("*.txt"))


@pytest.mark.parametrize("model", ["d2k", "d0k"])
def test_swap_rounds_rejected_for_non_d1k(tmp_path, capsys, model):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / f"{model}.json"
    main(["extract", str(graph_path), "--model", model, "-o", str(target_path)])
    capsys.readouterr()
    out_dir = tmp_path / "out"
    for rounds in ("-5", "3"):
        assert main(["generate", str(target_path), "--swap-rounds", rounds,
                     "-o", str(out_dir)]) == 1
        assert_one_error_line(capsys)
        assert not out_dir.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_generate_count_below_one_exit_1(tmp_path, capsys, count):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "--count", count,
                 "-o", str(out_dir)]) == 1
    assert_one_error_line(capsys)
    assert not out_dir.exists()


def test_check_rejects_non_d2k_target(tmp_path, capsys):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "uman.json"
    main(["extract", str(graph_path), "--model", "uman", "-o", str(target_path)])
    capsys.readouterr()
    assert main(["check", str(target_path)]) == 1
    assert capsys.readouterr().err == \
        "error: check applies to d2k/d2km targets\n"


def test_generate_rejects_float_jdam_count(tmp_path, capsys):
    # a count of 3.7 used to be truncated to 3, which is this 3-cycle's
    target = {"v": 1, "model": "d2k", "n": 3, "dds": [[1, 1]] * 3,
              "jdam": [{"a": {"side": "out", "label": 1},
                        "b": {"side": "in", "label": 1}, "count": 3.7}]}
    target_path = tmp_path / "t.json"
    target_path.write_text(json.dumps(target), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "-o", str(out_dir)]) == 1
    assert_one_error_line(capsys)
    assert not out_dir.exists()


def write_three_cycle_target(tmp_path, rows):
    target = {"v": 1, "model": "d2k", "n": 3, "dds": [[1, 1]] * 3,
              "jdam": [{"a": {"side": a, "label": 1},
                        "b": {"side": b, "label": 1}, "count": count}
                       for a, b, count in rows]}
    target_path = tmp_path / "t.json"
    target_path.write_text(json.dumps(target), encoding="utf-8")
    return target_path


@pytest.mark.parametrize("second", [("out", "in", 2), ("in", "out", 2)])
def test_conflicting_duplicate_jdam_rows_exit_1(tmp_path, capsys, second):
    target_path = write_three_cycle_target(tmp_path, [("out", "in", 3), second])
    assert main(["check", str(target_path)]) == 1
    assert_one_error_line(capsys)


def test_equal_duplicate_jdam_rows_load(tmp_path):
    target_path = write_three_cycle_target(
        tmp_path, [("out", "in", 3), ("out", "in", 3), ("in", "out", 3)])
    cycle = from_edge_list([(0, 1), (1, 2), (2, 0)])
    assert load_targets(target_path) == extract_d2k(cycle)


OUT1, IN1 = CellKey("out", 1), CellKey("in", 1)


@pytest.mark.parametrize("counts", [(3, 0), (0, 3), (3, 2), (3, 3)],
                         ids=lambda c: f"{c[0]}-{c[1]}")
@pytest.mark.parametrize("form, orientation", [
    (form, orientation) for form in ("load_targets", "main_check", "rows")
    for orientation in ("same", "reversed")] + [("mapping", "reversed")])
def test_one_count_per_cell_pair(tmp_path, capsys, form, orientation, counts):
    # however a target lists the pair (out 1, in 1) twice, two different
    # counts (zero among them) are refused, and equal ones are one count
    # (a mapping cannot hold one key twice, so it only reverses the pair)
    first, second = counts
    a, b = (OUT1, IN1) if orientation == "same" else (IN1, OUT1)
    cycle = extract_d2k(from_edge_list([(0, 1), (1, 2), (2, 0)]))
    if form in ("load_targets", "main_check"):
        path = write_three_cycle_target(
            tmp_path, [("out", "in", first), (a.side, b.side, second)])
        if form == "main_check":
            code = main(["check", str(path)])
            if first == second:
                assert code == 0
                assert capsys.readouterr().out == "realizable\n"
            else:
                assert code == 1
                assert_one_error_line(capsys)
            return
        build = lambda: load_targets(path)
    elif form == "mapping":
        build = lambda: D2KTargets("d2k", [(1, 1)] * 3,
                                   {(OUT1, IN1): first, (a, b): second})
    else:
        build = lambda: D2KTargets("d2k", [(1, 1)] * 3,
                                   [((OUT1, IN1), first), ((a, b), second)])
    if first == second:
        assert build() == cycle
    else:
        with pytest.raises(TargetStructureError, match="two counts"):
            build()


def test_check_rejects_pair_labels_on_a_d2k_target(tmp_path, capsys):
    target = {"v": 1, "model": "d2k", "n": 3, "dds": [[1, 1]] * 3,
              "jdam": [{"a": {"side": "out", "label": [1, 1]},
                        "b": {"side": "in", "label": [1, 1]}, "count": 3}]}
    target_path = tmp_path / "t.json"
    target_path.write_text(json.dumps(target), encoding="utf-8")
    assert main(["check", str(target_path)]) == 1
    assert capsys.readouterr().err == \
        "error: cell label (1, 1) does not fit mode 'd2k'\n"


def test_measure_and_compare(tmp_path, capsys):
    graph_path, g = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    out_dir = tmp_path / "ens"
    main(["generate", str(target_path), "--seed", "1", "--count", "3",
          "-o", str(out_dir)])

    metrics_path = tmp_path / "metrics.json"
    assert main(["measure", str(graph_path), "--metrics",
                 "degrees,triad_census", "-o", str(metrics_path),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    data = json.loads(metrics_path.read_text())
    assert data["kind"] == "metrics"
    assert data["metrics"]["triads"] is not None
    assert (tmp_path / "csv" / "degree_in.csv").exists()

    compare_path = tmp_path / "compare.json"
    gen_files = [str(p) for p in sorted(out_dir.iterdir())]
    assert main(["compare", str(graph_path), *gen_files,
                 "--metrics", "degrees,degree_correlation,dyad_census",
                 "-o", str(compare_path)]) == 0
    report = json.loads(compare_path.read_text())
    assert report["instances"] == 3
    # exactness: degree and degree-correlation distances are exactly zero
    assert report["metrics"]["degrees"]["ensemble_distance"] == 0.0
    assert report["metrics"]["degree_correlation"]["ensemble_distance"] == 0.0


def test_measure_and_compare_eigen_k_0(tmp_path):
    graph_path, _ = write_graph(tmp_path)
    metrics_path = tmp_path / "metrics.json"
    assert main(["measure", str(graph_path), "--metrics", "eigenvalues",
                 "--eigen-k", "0", "-o", str(metrics_path)]) == 0
    report = load_metrics_report(metrics_path)
    assert report.values == {"eigenvalues": []}
    assert report.meta["eigenvalues"]["method"] == "none"
    compare_path = tmp_path / "compare.json"
    assert main(["compare", str(graph_path), str(graph_path), "--metrics",
                 "eigenvalues", "--eigen-k", "0", "-o", str(compare_path)]) == 0
    row = json.loads(compare_path.read_text())["metrics"]["eigenvalues"]
    assert row == {"ensemble_distance": 0.0, "instance_distance_mean": 0.0,
                   "instance_distance_std": 0.0}


def test_unknown_metric_name_exit_1(tmp_path):
    graph_path, _ = write_graph(tmp_path)
    assert main(["measure", str(graph_path), "--metrics", "bogus",
                 "-o", str(tmp_path / "m.json")]) == 1


def test_zero_sample_sources_exit_1_without_traceback(tmp_path, capsys):
    # a 501-node ring: above the 500-node exact betweenness threshold, where
    # the pivot count divides the scale
    graph_path = tmp_path / "ring.txt"
    graph_path.write_text("".join(f"{v} {(v + 1) % 501}\n" for v in range(501)),
                          encoding="utf-8")
    assert main(["measure", str(graph_path), "--metrics", "betweenness",
                 "--sample-sources", "0", "-o", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_negative_seed_exit_1_without_traceback(tmp_path, capsys):
    # an 18-node graph (dense spectrum) and a 2001-node ring (above the
    # 2000-node dense eigenvalue threshold, where the seed starts ARPACK)
    small, _ = write_graph(tmp_path)
    ring = tmp_path / "ring.txt"
    ring.write_text("".join(f"{v} {(v + 1) % 2001}\n" for v in range(2001)),
                    encoding="utf-8")
    for graph_path in (small, ring):
        out = tmp_path / "m.json"
        assert main(["measure", str(graph_path), "--seed", "-1",
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: seed must not be negative, got -1\n"
        assert not out.exists()


def test_eigenvalue_solve_that_does_not_converge_exit_1(tmp_path, capsys,
                                                        monkeypatch):
    import scipy.sparse.linalg

    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalled)
    # a 2001-node ring: above the 2000-node dense eigenvalue threshold
    graph_path = tmp_path / "ring.txt"
    graph_path.write_text("".join(f"{v} {(v + 1) % 2001}\n"
                                  for v in range(2001)), encoding="utf-8")
    for command in ("measure", "compare"):
        inputs = [str(graph_path)] * (1 if command == "measure" else 2)
        assert main([command, *inputs, "--metrics", "eigenvalues",
                     "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalue solve did not converge")
        assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_betweenness_path_count_overflow_exit_1(tmp_path, capsys):
    # 520 layers of 4 nodes, every arc between consecutive layers: 4**518
    # shortest paths from a first-layer node to a last-layer node, beyond
    # the float64 range
    graph_path = tmp_path / "layered.txt"
    graph_path.write_text("".join(f"{k * 4 + i} {(k + 1) * 4 + j}\n"
                                  for k in range(519) for i in range(4)
                                  for j in range(4)), encoding="utf-8")
    assert main(["measure", str(graph_path), "--metrics", "betweenness",
                 "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: betweenness: a shortest-path count")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("model", ["d0k", "uman", "d1k", "d2k", "d2km"])
def test_parallel_generation_via_env(tmp_path, monkeypatch, model):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", model,
          "-o", str(target_path)])
    serial_dir, parallel_dir = tmp_path / "s", tmp_path / "p"
    assert main(["generate", str(target_path), "--seed", "5", "--count", "4",
                 "-o", str(serial_dir)]) == 0
    monkeypatch.setenv("D2K_THREADS", "2")
    assert main(["generate", str(target_path), "--seed", "5", "--count", "4",
                 "-o", str(parallel_dir)]) == 0
    names = [f.name for f in sorted(serial_dir.iterdir())]
    assert names == [f"{model}_s{s}.txt" for s in range(5, 9)]
    assert names == [f.name for f in sorted(parallel_dir.iterdir())]
    for name in names:
        assert (serial_dir / name).read_bytes() \
            == (parallel_dir / name).read_bytes()


def test_worker_pool_is_capped_at_the_job_count(tmp_path, monkeypatch):
    # A stand-in pool records its size and maps in this process, so the
    # test starts no worker whatever D2K_THREADS asks for.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("d2k.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("D2K_THREADS", "64")
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "--count", "2",
                 "-o", str(out_dir)]) == 0
    assert sizes == [2]
    instances = [str(p) for p in sorted(out_dir.iterdir())] + [str(graph_path)]
    assert main(["compare", str(graph_path), *instances, "--metrics",
                 "degrees", "-o", str(tmp_path / "c.json")]) == 0
    assert sizes == [2, 3]


def test_pooled_compare_writes_the_serial_bytes(tmp_path, monkeypatch):
    # 18 nodes: every metric is exact and the spectrum dense, so the bytes
    # do not depend on which process measured an instance
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    out_dir = tmp_path / "ens"
    assert main(["generate", str(target_path), "--count", "3",
                 "-o", str(out_dir)]) == 0
    instances = [str(p) for p in sorted(out_dir.iterdir())]
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    assert main(["compare", str(graph_path), *instances,
                 "-o", str(serial)]) == 0
    monkeypatch.setenv("D2K_THREADS", "2")
    assert main(["compare", str(graph_path), *instances,
                 "-o", str(pooled)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5"])
def test_bad_thread_count_exit_1(tmp_path, capsys, monkeypatch, threads):
    graph_path, _ = write_graph(tmp_path)
    target_path = tmp_path / "t.json"
    main(["extract", str(graph_path), "--model", "d2k", "-o", str(target_path)])
    capsys.readouterr()
    monkeypatch.setenv("D2K_THREADS", threads)
    out_dir = tmp_path / "out"
    assert main(["generate", str(target_path), "--count", "2",
                 "-o", str(out_dir)]) == 1
    assert_one_error_line(capsys)
    assert not out_dir.exists()
