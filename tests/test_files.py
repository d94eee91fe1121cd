from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from conftest import random_digraph
from d2k import (EdgeListFormatError, MetricsConfig, TargetStructureError,
                 extract_d2k, extract_dds, extract_size, extract_uman,
                 load_targets, read_edge_list, save_targets, write_edge_list)
from d2k.cli import main
from d2k.files import (build_compare_report, load_metrics_report,
                       report_to_json_dict, save_metrics_report,
                       write_metric_csvs)
from d2k.metrics import structural_suite


def test_edge_list_round_trip(tmp_path):
    rng = random.Random(30)
    g = random_digraph(rng, 25, 0.2)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    again = read_edge_list(path)
    assert again.m == g.m
    assert {(again.original_id(u), again.original_id(v))
            for u, v in again.edges()} == set(g.edges())


def test_edge_list_comments_and_cleaning(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("# a comment\n0 1\n1 1\n0 1\n1\t0\n", encoding="utf-8")
    stats: dict = {}
    g = read_edge_list(path, stats)
    assert g.edge_set() == {(0, 1), (1, 0)}
    assert stats == {"pairs": 4, "self_loops": 1, "duplicates": 1}


def test_edge_list_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnot numbers\n", encoding="utf-8")
    with pytest.raises(EdgeListFormatError) as exc:
        read_edge_list(path)
    assert exc.value.position == 2
    path.write_text("0 1 2\n", encoding="utf-8")
    with pytest.raises(EdgeListFormatError) as exc:
        read_edge_list(path)
    assert exc.value.position == 1


def test_edge_list_negative_id_reports_its_line(tmp_path):
    # the fourth line holds the second pair; the line is what a reader sees
    path = tmp_path / "bad.txt"
    path.write_text("# c\n\n1 2\n-1 3\n", encoding="utf-8")
    with pytest.raises(EdgeListFormatError,
                       match="^line 4: negative ids in '-1 3'$") as exc:
        read_edge_list(path)
    assert exc.value.position == 4


def test_target_round_trips_all_models(tmp_path):
    rng = random.Random(31)
    g = random_digraph(rng, 20, 0.2)
    cases = [extract_size(g), extract_uman(g), extract_dds(g),
             extract_d2k(g, "d2k"), extract_d2k(g, "d2km")]
    for i, t in enumerate(cases):
        path = tmp_path / f"t{i}.json"
        save_targets(t, path)
        assert load_targets(path) == t


def test_target_files_are_deterministic(tmp_path):
    rng = random.Random(32)
    g = random_digraph(rng, 15, 0.3)
    t = extract_d2k(g)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_targets(t, p1)
    save_targets(t, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_malformed_target_files(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(TargetStructureError):
        load_targets(path)
    path.write_text(json.dumps({"v": 99, "model": "d0k", "n": 1, "m": 0}),
                    encoding="utf-8")
    with pytest.raises(TargetStructureError):
        load_targets(path)
    path.write_text(json.dumps({"v": 1, "model": "uman", "n": 3,
                                "dyads": {"mutual": 1, "asymmetric": 1,
                                          "null": 7}}), encoding="utf-8")
    with pytest.raises(TargetStructureError):
        load_targets(path)
    path.write_text(json.dumps({"v": 1, "model": "d2k", "n": 1,
                                "dds": [[1, 1]],
                                "jdam": [{"a": {"side": "in", "label": 0},
                                          "b": {"side": "out", "label": 1},
                                          "count": 1}]}), encoding="utf-8")
    with pytest.raises(TargetStructureError):
        load_targets(path)
    # counts and labels are JSON integers, never strings, floats or bools,
    # and n is not negative
    for good in _three_cycle_targets().values():
        path.write_text(json.dumps(good), encoding="utf-8")
        assert load_targets(path).n == 3
    # through the CLI, each bad file exits 1 with one error line
    for bad in _malformed_variants():
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(TargetStructureError):
            load_targets(path)
        capsys.readouterr()
        assert main(["generate", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _three_cycle_targets() -> dict[str, dict]:
    cell = {"d2k": ({"side": "out", "label": 1}, {"side": "in", "label": 1}),
            "d2km": ({"side": "out", "label": [1, 1]},
                     {"side": "in", "label": [1, 1]})}
    targets = {model: {"v": 1, "model": model, "n": 3, "dds": [[1, 1]] * 3,
                       "jdam": [{"a": a, "b": b, "count": 3}]}
               for model, (a, b) in cell.items()}
    targets["d1k"] = {"v": 1, "model": "d1k", "n": 3, "dds": [[1, 1]] * 3}
    targets["uman"] = {"v": 1, "model": "uman", "n": 3,
                       "dyads": {"mutual": 0, "asymmetric": 3, "null": 0}}
    targets["d0k"] = {"v": 1, "model": "d0k", "n": 3, "m": 3}
    return targets


def _malformed_variants() -> list[dict]:
    good = _three_cycle_targets()
    bad = []

    def variant(model, edit):
        t = json.loads(json.dumps(good[model]))
        edit(t)
        bad.append(t)

    for model in good:
        for n in ("3", 3.0, True, -1):
            variant(model, lambda t: t.update(n=n))
        for v in (1.0, True):
            variant(model, lambda t: t.update(v=v))
    for model in ("d2k", "d2km", "d1k"):
        variant(model, lambda t: t.update(dds=[[1, 1], [1, 1], [True, 1]]))
        variant(model, lambda t: t.update(dds=[[1, "1"], [1, 1], [1, 1]]))
    for model in ("d2k", "d2km"):
        variant(model, lambda t: t["jdam"][0].update(count=3.7))
        variant(model, lambda t: t["jdam"][0].update(count=True))
    variant("d2k", lambda t: t["jdam"][0]["a"].update(label=1.9))
    variant("d2k", lambda t: t["jdam"][0]["b"].update(label=True))
    variant("d2km", lambda t: t["jdam"][0]["a"].update(label=[1, 1.0]))
    variant("d2km", lambda t: t["jdam"][0]["a"].update(label=[1, 1, 1]))
    variant("d2km", lambda t: t["jdam"][0]["b"].update(label=[1]))
    variant("d2k", lambda t: t["jdam"][0]["a"].update(side="sideways"))
    # a label's shape fits the mode: an int in d2k, a pair in d2km
    variant("d2k", lambda t: t["jdam"][0].update(good["d2km"]["jdam"][0]))
    variant("d2km", lambda t: t["jdam"][0].update(good["d2k"]["jdam"][0]))
    variant("uman", lambda t: t["dyads"].update(asymmetric=3.0))
    variant("uman", lambda t: t["dyads"].update(mutual=False))
    variant("d0k", lambda t: t.update(m=3.5))
    variant("d0k", lambda t: t.update(m="3"))
    # a missing field, a wrong shape or an unknown model
    for model, key in [("d2k", "dds"), ("d2km", "jdam"), ("uman", "dyads"),
                       ("d0k", "m"), ("d1k", "dds")]:
        variant(model, lambda t: t.pop(key))
    variant("d2k", lambda t: t["jdam"][0].pop("count"))
    for model in ("d2k", "d1k"):
        variant(model, lambda t: t.update(dds=[[1, 1], [1, 1], [1, 1, 1]]))
    for row in ([1, 1, 3], 3, "row"):
        variant("d2k", lambda t: t.update(jdam=[row]))
    variant("d2k", lambda t: t.update(model="d3k"))
    variant("d2k", lambda t: t.pop("model"))
    return bad


def test_metrics_report_round_trip(tmp_path):
    rng = random.Random(33)
    g = random_digraph(rng, 20, 0.2)
    report = structural_suite(g, MetricsConfig(seed=5))
    path = tmp_path / "metrics.json"
    save_metrics_report(report, path)
    loaded = load_metrics_report(path)
    assert report_to_json_dict(loaded) == report_to_json_dict(report)


def test_metrics_file_schema_version_is_the_int_1(tmp_path):
    rng = random.Random(33)
    report = structural_suite(random_digraph(rng, 10, 0.2),
                              MetricsConfig(metrics=("degrees",)))
    path = tmp_path / "metrics.json"
    save_metrics_report(report, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    for v in (True, 1.0, "1", 2, None):
        path.write_text(json.dumps({**obj, "v": v}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a metrics file"):
            load_metrics_report(path)


@pytest.mark.parametrize("fault", [
    lambda obj: obj["config"].update(bogus=1),
    lambda obj: obj.pop("config"),
    lambda obj: obj.update(config=[]),
    lambda obj: obj["config"].update(metrics="all"),
    lambda obj: obj["config"].update(seed=1.5),
    lambda obj: obj.update(metrics=[]),
    lambda obj: obj.pop("metrics"),
    lambda obj: obj.update(n="10"),
    lambda obj: obj.update(m=4.5),
    lambda obj: obj.update(notes=[1])],
    ids=["unknown_config_key", "no_config", "config_list", "metrics_string",
         "float_seed", "metrics_list", "no_metrics", "string_n", "float_m",
         "notes_list"])
def test_malformed_metrics_file_raises_one_value_error(tmp_path, fault):
    rng = random.Random(33)
    report = structural_suite(random_digraph(rng, 10, 0.2),
                              MetricsConfig(metrics=("degrees",)))
    path = tmp_path / "metrics.json"
    save_metrics_report(report, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    fault(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed metrics file"):
        load_metrics_report(path)


GOLDEN_SUBSET = Path(__file__).resolve().parent / "golden" / "subset.json"


@pytest.mark.parametrize("fault, named", [
    (lambda obj: obj["metrics"].pop("path_hist"), "metric paths"),
    (lambda obj: obj["metrics"].update(path_hist=None), "metric paths"),
    (lambda obj: obj["metrics"].pop("degree_hist_out"), "metric degrees"),
    # files written when the spectrum had a choice of operator name it
    (lambda obj: obj["config"].update(eigen_operator="directed"),
     "eigen_operator")],
    ids=["no_selected_value", "null_selected_value", "no_selected_member",
         "eigen_operator"])
def test_metrics_file_fault_is_named(tmp_path, fault, named):
    # a selected metric without a value would reach the compare report as a
    # bare KeyError
    obj = json.loads(GOLDEN_SUBSET.read_text(encoding="utf-8"))
    fault(obj)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^malformed metrics file: .*{named}"):
        load_metrics_report(path)


def test_deeply_nested_metrics_file_raises_a_value_error(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ValueError, match="not valid JSON: nested too deeply"):
        load_metrics_report(path)


def test_metrics_file_string_metrics_is_named(tmp_path):
    # the loader leaves the metrics field to MetricsConfig, which names it
    report = structural_suite(random_digraph(random.Random(33), 10, 0.2),
                              MetricsConfig(metrics=("degrees",)))
    path = tmp_path / "metrics.json"
    save_metrics_report(report, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["config"]["metrics"] = "degrees"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed metrics file: metrics "
                                         "must be a list or tuple of metric "
                                         "names, got 'degrees'"):
        load_metrics_report(path)


def test_compare_graph_with_itself_is_all_zero():
    # odd ensemble sizes catch float contamination in the exact averaging
    rng = random.Random(34)
    g = random_digraph(rng, 20, 0.2)
    r = structural_suite(g, MetricsConfig(seed=2))
    for count in (2, 3):
        out = build_compare_report(r, [r] * count)
        assert out["instances"] == count
        for name, row in out["metrics"].items():
            assert row["ensemble_distance"] == 0.0, name
            assert row["instance_distance_mean"] == 0.0, name
            assert row["instance_distance_std"] == 0.0, name


def test_compare_detects_differences():
    rng = random.Random(35)
    g1 = random_digraph(rng, 20, 0.1)
    g2 = random_digraph(rng, 20, 0.35)
    r1 = structural_suite(g1, MetricsConfig(seed=2))
    r2 = structural_suite(g2, MetricsConfig(seed=2))
    out = build_compare_report(r1, [r2])
    assert out["metrics"]["degrees"]["ensemble_distance"] > 0


def test_compare_needs_an_instance():
    g = random_digraph(random.Random(36), 5, 0.5)
    r = structural_suite(g, MetricsConfig(metrics=("degrees",)))
    with pytest.raises(ValueError, match="at least one generated instance"):
        build_compare_report(r, [])


def test_metric_csvs(tmp_path):
    rng = random.Random(36)
    g = random_digraph(rng, 15, 0.2)
    report = structural_suite(g, MetricsConfig())
    paths = write_metric_csvs(report, tmp_path / "csv")
    assert any(p.endswith("degree_in.csv") for p in paths)
    assert any(p.endswith("dsp_outgoing.csv") for p in paths)
    first = (tmp_path / "csv" / "degree_in.csv").read_text().splitlines()
    assert first[0] == "key,count"
