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

import numpy as np

from .errors import EdgeListFormatError, TargetStructureError
from .graph import ID_LIMIT, DirectedGraph, from_id_arrays
from .metrics import METRICS, CensusReport, MetricsConfig
from .targets import (D2KTargets, DdsTargets, SizeTargets, UmanTargets,
                      MODE_DEGREE, MODE_PAIR, cell_from_json, cell_to_json,
                      json_int)

SCHEMA_VERSION = 1
_JSON_SLICE = 1 << 13          # JSON tokens joined per write by save_json


# ---------------------------------------------------------------------------
# edge lists

_BLANKS = b" \t\n\v\f\r"    # what bytes.split() splits on
_INK = np.ones(256, dtype=bool)            # bytes that are not blank
_INK[list(_BLANKS)] = False
_ID_BYTE = ~_INK                           # bytes an id line may hold
_ID_BYTE[ord("0"):ord("9") + 1] = True
_SHORT_ID = 18                 # digits that always fit below graph.ID_LIMIT


def read_edge_list(path, stats: dict | None = None) -> DirectedGraph:
    """Read a SNAP-style edge list, cleaning self-loops and duplicate edges.

    A line is blank, a comment (its first non-blank byte is '#') or two
    ASCII decimal ids below 2**63 separated by blanks (space, tab, \\v, \\f);
    CRLF and a lone CR end a line as LF does.  The whole file is checked
    by array scans before numpy parses the ids; a failed check raises
    EdgeListFormatError naming the first offending line.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    ids = _edge_ids(data)
    return from_id_arrays(ids[0::2], ids[1::2], stats)


def _edge_ids(data: bytes) -> np.ndarray:
    """The ids of an edge list whose lines end in LF, in file order."""
    a = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(a == ord("\n"))    # line i ends at breaks[i]
    ink = _INK[a]
    starts = np.flatnonzero(ink & ~np.r_[False, ink[:-1]])   # of fields
    ends = np.flatnonzero(ink & ~np.r_[ink[1:], False])
    del ink
    line = np.searchsorted(breaks, starts)
    lead = np.diff(line, prepend=-1) != 0      # first field of its line
    comment = np.zeros(len(breaks) + 1, dtype=bool)
    comment[line[lead & (a[starts] == ord("#"))]] = True
    keep = ~comment[line]
    starts, ends, line = starts[keep], ends[keep], line[keep]

    bad_lines = np.searchsorted(breaks, np.flatnonzero(~_ID_BYTE[a]))
    fields = np.bincount(line, minlength=len(comment))
    offending = [bad_lines[~comment[bad_lines]][:1],
                 np.flatnonzero((fields != 0) & (fields != 2))[:1]]
    for i in np.flatnonzero(ends - starts >= _SHORT_ID).tolist():
        digits = data[starts[i]:ends[i] + 1]
        if digits.isdigit() and int(digits) >= ID_LIMIT:
            offending.append(line[i:i + 1])
            break
    first = min((int(x[0]) for x in offending if len(x)), default=None)
    if first is not None:
        raise _line_error(first + 1, data.split(b"\n")[first])
    if not len(starts):
        return np.zeros(0, dtype=np.int64)
    if comment.any():
        # blank the comment lines, their line breaks kept
        edge = np.zeros(len(a) + 1, dtype=np.int8)
        edge[np.r_[0, breaks + 1][comment]] = 1
        edge[np.r_[breaks, len(a)][comment]] = -1
        covered = np.cumsum(edge[:-1], dtype=np.int8).astype(bool)
        data = np.where(covered, ord(" "), a).astype(np.uint8).tobytes()
    return np.fromstring(data, dtype=np.int64, sep=" ")


def _line_error(lineno: int, raw: bytes) -> EdgeListFormatError:
    """The error for line lineno, raw, which is not blank, a comment or
    two ids below 2**63."""
    text = raw.decode("utf-8", "replace").strip()
    fields = raw.split()
    if len(fields) != 2:
        what = "expected 'source target', got"
    elif not all(f.isdigit() for f in fields):
        signed = all(f.removeprefix(b"-").isdigit() for f in fields)
        what = "negative ids in" if signed else "non-integer ids in"
    else:
        what = "ids of 2**63 or more in"
    return EdgeListFormatError(f"line {lineno}: {what} {text!r}",
                               position=lineno)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write g in the same format, under its original ids where retained."""
    names = list(map(str, range(g.n) if g.orig_ids is None else g.orig_ids))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# directed edge list: {g.n} nodes, {g.m} edges\n")
        indptr, heads = g.csr()
        bounds = indptr.tolist()
        heads = list(map(names.__getitem__, heads.tolist()))
        for u, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:
                tail = names[u] + "\t"
                fh.write(tail + ("\n" + tail).join(heads[a:b]) + "\n")


# ---------------------------------------------------------------------------
# target files

def targets_to_json_dict(t) -> dict:
    if isinstance(t, D2KTargets):
        body = {"dds": [list(p) for p in t.dds],
                "jdam": [{"a": cell_to_json(a), "b": cell_to_json(b),
                          "count": count} for (a, b), count in t.jdam.items()]}
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
            rows = [((cell_from_json(row["a"]), cell_from_json(row["b"])),
                     row["count"]) for row in obj["jdam"]]
            t = D2KTargets(model, obj["dds"], rows)
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


def _load_json(path, error: type[ValueError]):
    """The JSON value in the file at path.  Text that is not JSON, or that
    nests deeper than the parser can recurse, raises error("not valid JSON:
    ...")."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise error("not valid JSON: nested too deeply") from None


def load_targets(path):
    return targets_from_json_dict(_load_json(path, TargetStructureError))


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
    """The report a metrics file holds.  A file that is not one raises
    ValueError("not a metrics file"), and one whose n, m, config, metrics
    or notes is missing or malformed, or that lacks the value of a metric
    its config selects, ValueError("malformed metrics file: ...")."""
    if not _is_schema_version(obj) or obj.get("kind") != "metrics":
        raise ValueError("not a metrics file")
    try:
        config, entries = obj["config"], obj["metrics"]
        notes = obj.get("notes", {})
        if not all(isinstance(x, dict) for x in (config, entries, notes)):
            raise TypeError("config, metrics or notes is not a JSON object")
        report = CensusReport(
            n=json_int(obj["n"], "n"), m=json_int(obj["m"], "m"), notes=notes,
            config=MetricsConfig(**config))
        selected = report.config.selected()
        for row in METRICS:
            value, meta = row.from_json(entries)
            if value is not None:
                report.values[row.name] = value
            elif row.name in selected:
                raise ValueError(f"selected metric {row.name} has no value")
            if meta is not None:
                report.meta[row.name] = meta
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed metrics file: {exc}") from None
    return report


def save_metrics_report(r: CensusReport, path) -> None:
    save_json(report_to_json_dict(r), path)


def load_metrics_report(path) -> CensusReport:
    return report_from_json_dict(_load_json(path, ValueError))


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
