"""Seeded mutation fuzzing of the file readers, through the command line.

Each case starts from the JSON of one of the five target kinds, extracted
from one small digraph, and applies one to three random mutations: a value
replaced by a hostile one, a key or list element deleted, a list element
duplicated, or a jdam row repeated in the other orientation with another
count.  `check` and `generate --count 2` then run on it in-process.  Exit
1 must come with exactly one `error:` line, no exception may escape
`main`, and a target that generates must be met exactly: the in-memory
graph of each seed re-extracts to the loaded target (the written files
drop isolated nodes, so the comparison is made in memory).  Edge-list
bytes are mutated the same way through `extract`.
"""
from __future__ import annotations

import copy
import json
import random

import pytest

from d2k import (D2KTargets, DdsTargets, SizeTargets, UmanTargets,
                 extract_d2k, extract_dds, extract_size, extract_uman,
                 from_edge_list, gen_d0k, gen_d1k, gen_uman, generate,
                 load_targets, write_edge_list)
from d2k.cli import _extract_target, main
from d2k.files import targets_to_json_dict
from d2k.targets import MODELS

CASES_PER_MODEL = 100
EDGE_LIST_CASES = 100
HOSTILE = [0, -1, 2 ** 31, 2 ** 63, 1.0, 2.5, True, "1", None, [], {}]
EDGES = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 1), (2, 5), (5, 6),
         (6, 2), (0, 6), (7, 0)]

# the generator and the extractor of each target type
REALIZE = {
    D2KTargets: (generate, lambda g, t: extract_d2k(g, t.mode)),
    DdsTargets: (gen_d1k, lambda g, t: extract_dds(g)),
    UmanTargets: (gen_uman, lambda g, t: extract_uman(g)),
    SizeTargets: (gen_d0k, lambda g, t: extract_size(g)),
}


def _slots(obj):
    """Every (container, key) below obj, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def mutate(obj, rng: random.Random) -> str:
    """Apply one random mutation to obj in place; describe it."""
    kind = rng.randrange(4)
    rows = obj.get("jdam") if isinstance(obj, dict) else None
    if kind == 3 and isinstance(rows, list) and rows \
            and all(isinstance(r, dict) for r in rows):
        row = rng.choice(rows)
        count = row.get("count")
        other = count + rng.randint(1, 3) if type(count) is int \
            else rng.randint(0, 3)
        rows.append({"a": row.get("b"), "b": row.get("a"), "count": other})
        return f"reversed row {row!r} with count {other}"
    slots = [(c, key) for c, key in _slots(obj)
             if kind != 2 or isinstance(c, list)]
    if not slots:
        return "nothing to mutate"
    container, key = rng.choice(slots)
    if kind == 1:
        del container[key]
        return f"deleted {key!r}"
    if kind == 2:
        container.insert(key, copy.deepcopy(container[key]))
        return f"duplicated element {key}"
    value = rng.choice(HOSTILE)
    container[key] = copy.deepcopy(value)
    return f"set {key!r} to {value!r}"


def run_main(capsys, argv) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@pytest.fixture
def base_targets():
    g = from_edge_list(EDGES)
    return {model: targets_to_json_dict(_extract_target(g, model))
            for model in MODELS}


@pytest.mark.parametrize("model", MODELS)
def test_mutated_target_files(tmp_path, capsys, monkeypatch, base_targets,
                              model):
    monkeypatch.delenv("D2K_THREADS", raising=False)
    rng = random.Random(100 + MODELS.index(model))
    path, out = tmp_path / "t.json", tmp_path / "out"
    for case in range(CASES_PER_MODEL):
        obj = copy.deepcopy(base_targets[model])
        done = [mutate(obj, rng) for _ in range(rng.randint(1, 3))]
        path.write_text(json.dumps(obj), encoding="utf-8")
        where = (model, case, done)
        run_main(capsys, ["check", str(path)])
        code = run_main(capsys, ["generate", str(path), "--count", "2",
                                 "-o", str(out)])
        if code != 0:
            continue
        t = load_targets(path)
        gen, measure = REALIZE[type(t)]
        for seed in (1, 2):
            assert measure(gen(t, seed), t) == t, where


def test_mutated_edge_lists(tmp_path, capsys):
    rng = random.Random(99)
    clean = tmp_path / "clean.txt"
    write_edge_list(from_edge_list(EDGES), clean)
    data = clean.read_bytes()
    path = tmp_path / "g.txt"
    faults = [b"\r", b"\0", "é".encode(), b"1" * 20, b" 7"]
    for case in range(EDGE_LIST_CASES):
        fault = rng.choice(faults)
        lines = data.split(b"\n")
        i = rng.randrange(1, len(lines) - 1)        # an edge line
        if fault == b" 7":
            lines[i] += fault                       # a third field
        elif fault.isdigit():
            fields = lines[i].split()
            fields[rng.randrange(2)] = fault        # a 20-digit id
            lines[i] = b" ".join(fields)
        else:
            at = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:at] + fault + lines[i][at:]
        path.write_bytes(b"\n".join(lines))
        code = run_main(capsys, ["extract", str(path), "--model",
                                 rng.choice(MODELS), "-o",
                                 str(tmp_path / "t.json")])
        assert code in (0, 1), (case, fault)
