"""File formats: SNAP-style edge lists, target files, metrics files, and
ensemble compare reports.

Target and metrics files are JSON (UTF-8, schema version field "v": 1,
canonical key ordering) so artifacts are diffable and deterministic for
identical inputs.
"""
from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path

from .errors import EdgeListFormatError, TargetStructureError
from .graph import DirectedGraph, from_edge_list
from .metrics import METRICS, CensusReport, MetricsConfig
from .targets import (CellKey, D2KTargets, DdsTargets, SizeTargets,
                      UmanTargets, MODE_DEGREE, MODE_PAIR, cell_from_json,
                      cell_to_json, json_int)

SCHEMA_VERSION = 1
_JSON_SLICE = 1 << 13          # JSON tokens joined per write by save_json


# ---------------------------------------------------------------------------
# edge lists

def read_edge_list(path, stats: dict | None = None) -> DirectedGraph:
    """Read a SNAP-style edge list ('#' comments, whitespace-separated ids),
    cleaning self-loops and duplicate edges."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != 2:
                raise EdgeListFormatError(
                    f"line {lineno}: expected 'source target', got {text!r}",
                    position=lineno)
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: non-integer ids in {text!r}",
                    position=lineno) from None
            if u < 0 or v < 0:
                raise EdgeListFormatError(
                    f"line {lineno}: negative ids in {text!r}",
                    position=lineno)
            pairs.append((u, v))
    return from_edge_list(pairs, stats)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write g in the same format, under its original ids where retained."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# directed edge list: {g.n} nodes, {g.m} edges\n")
        for u, v in g.edges():
            fh.write(f"{g.original_id(u)}\t{g.original_id(v)}\n")


# ---------------------------------------------------------------------------
# target files

def targets_to_json_dict(t) -> dict:
    if isinstance(t, D2KTargets):
        body = {"dds": [list(p) for p in t.dds],
                "jdam": [{"a": cell_to_json(a), "b": cell_to_json(b),
                          "count": count} for a, b, count in t.jdam_entries()]}
    elif isinstance(t, DdsTargets):
        body = {"dds": [list(p) for p in t.dds]}
    elif isinstance(t, UmanTargets):
        body = {"dyads": {"mutual": t.mutual, "asymmetric": t.asymmetric,
                          "null": t.null}}
    elif isinstance(t, SizeTargets):
        body = {"m": t.m}
    else:
        raise TypeError(f"not a target object: {t!r}")
    return {"v": SCHEMA_VERSION, "model": t.model, "n": t.n, **body}


def _is_schema_version(obj) -> bool:
    """obj is a JSON object whose "v" is the int 1; true and 1.0 are not."""
    return isinstance(obj, dict) and type(obj.get("v")) is int \
        and obj["v"] == SCHEMA_VERSION


def targets_from_json_dict(obj: dict):
    if not _is_schema_version(obj):
        raise TargetStructureError("missing or unsupported schema version")
    model = obj.get("model")
    try:
        if model in (MODE_DEGREE, MODE_PAIR):
            n = json_int(obj["n"], "n")
            jdam: dict[tuple[CellKey, CellKey], int] = {}
            for row in obj["jdam"]:
                a = cell_from_json(row["a"])
                b = cell_from_json(row["b"])
                # Strict before comparing: 3 and 3.0 would compare equal.
                count = json_int(row["count"], "jdam count")
                known = jdam.setdefault((a, b), count)
                if known != count:
                    raise TargetStructureError(
                        f"conflicting jdam entries for ({a},{b})")
            t = D2KTargets(model, obj["dds"], jdam)
            if t.n != n:
                raise TargetStructureError("n does not match dds length")
            return t
        if model == "d1k":
            return DdsTargets(obj["n"], obj["dds"])
        if model == "uman":
            d = obj["dyads"]
            return UmanTargets(obj["n"], d["mutual"], d["asymmetric"],
                               d["null"])
        if model == "d0k":
            return SizeTargets(obj["n"], obj["m"])
    except TargetStructureError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise TargetStructureError(f"malformed target file: {exc}") from None
    raise TargetStructureError(f"unknown model {model!r}")


def save_json(obj, path) -> None:
    """Write obj as canonical JSON: sorted keys, indent 1, a final newline,
    UTF-8.  The text goes out _JSON_SLICE tokens at a time: json.dumps with
    an indent joins a list of every token, about ten times the file's
    size, and json.dump writes the tokens one by one, which is slower."""
    tokens = json.JSONEncoder(sort_keys=True, indent=1).iterencode(obj)
    with open(path, "w", encoding="utf-8") as fh:
        while text := "".join(islice(tokens, _JSON_SLICE)):
            fh.write(text)
        fh.write("\n")


def save_targets(t, path) -> None:
    save_json(targets_to_json_dict(t), path)


def load_targets(path):
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TargetStructureError(f"not valid JSON: {exc}") from None
    return targets_from_json_dict(obj)


# ---------------------------------------------------------------------------
# metrics files

def report_to_json_dict(r: CensusReport) -> dict:
    entries: dict = {}
    for row in METRICS:
        entries.update(row.to_json(r.values.get(row.name), r.meta.get(row.name)))
    return {
        "v": SCHEMA_VERSION,
        "kind": "metrics",
        "n": r.n,
        "m": r.m,
        "config": r.config.to_json_dict(),
        "notes": r.notes,
        "metrics": entries,
    }


def report_from_json_dict(obj: dict) -> CensusReport:
    if not _is_schema_version(obj) or obj.get("kind") != "metrics":
        raise ValueError("not a metrics file")
    config = MetricsConfig(**{**obj["config"],
                              "metrics": tuple(obj["config"]["metrics"])})
    report = CensusReport(n=obj["n"], m=obj["m"], config=config,
                          notes=obj.get("notes", {}))
    for row in METRICS:
        value, meta = row.from_json(obj["metrics"])
        if value is not None:
            report.values[row.name] = value
        if meta is not None:
            report.meta[row.name] = meta
    return report


def save_metrics_report(r: CensusReport, path) -> None:
    save_json(report_to_json_dict(r), path)


def load_metrics_report(path) -> CensusReport:
    return report_from_json_dict(
        json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# compare reports

def build_compare_report(original: CensusReport,
                         instances: list[CensusReport]) -> dict:
    """Per-metric distances between an original and an ensemble.

    For each metric computed in every report: the distance between the
    original and the ensemble-averaged metric, plus the mean and standard
    deviation of the per-instance distances.
    """
    if not instances:
        raise ValueError("need at least one generated instance")
    shared = set(original.config.selected()).intersection(
        *(r.config.selected() for r in instances))
    results = {}
    for row in METRICS:
        if row.name not in shared:
            continue
        orig = original.values[row.name]
        values = [r.values[row.name] for r in instances]
        per = [row.kind.distance(orig, v) for v in values]
        mean = sum(per) / len(per)
        var = sum((x - mean) ** 2 for x in per) / len(per)
        results[row.name] = {
            "ensemble_distance": row.kind.ensemble(orig, values),
            "instance_distance_mean": mean,
            "instance_distance_std": math.sqrt(var),
        }
    return {
        "v": SCHEMA_VERSION,
        "kind": "compare",
        "instances": len(instances),
        "metrics": results,
    }


# ---------------------------------------------------------------------------
# per-metric CSV export (for plotting)

def write_metric_csvs(r: CensusReport, directory) -> list[str]:
    """Write one CSV per computed distribution metric; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for row in METRICS:
        if row.name not in r.values or row.csv is None:
            continue
        for stem, text in row.kind.csv_files(row.csv, r.values[row.name]):
            path = directory / f"{stem}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(str(path))
    return written
