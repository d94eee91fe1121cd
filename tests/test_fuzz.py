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

Mutations that keep a d2k or d2km file valid are fuzzed apart from these:
each must load to a target equal to the unmutated one, with the same jdam
in the same order, and build and re-extract exactly.  So are valid files
that may not be realizable: row-preserving perturbations of extracted
targets, some of a few hundred nodes, which either build exactly or exit
2 with a violation report.
"""
from __future__ import annotations

import copy
import json
import random
from collections import Counter

import pytest

from d2k import (D2KTargets, DdsTargets, DirectedGraph, SizeTargets,
                 UmanTargets, extract_d2k, extract_dds, extract_size,
                 extract_uman, from_edge_list, gen_d0k, gen_d1k, gen_uman,
                 generate, load_targets, write_edge_list)
from d2k.cli import _extract_target, main
from d2k.construct import ConstructionState
from d2k.files import save_targets, targets_to_json_dict
from d2k.targets import MODELS
from perturb import row_preserving_targets

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


def _repeat_reversed(obj, rng):
    row = rng.choice(obj["jdam"])
    obj["jdam"].insert(rng.randrange(len(obj["jdam"]) + 1),
                       {"a": row["b"], "b": row["a"], "count": row["count"]})


def _swap_ends(obj, rng):
    obj["jdam"] = [{"a": row["b"], "b": row["a"], "count": row["count"]}
                   for row in obj["jdam"]]


# each keeps the file valid and its target the same
VALID_MUTATIONS = {
    "repeat_a_row_reversed": _repeat_reversed,
    "swap_every_row_ends": _swap_ends,
    "shuffle_rows": lambda obj, rng: rng.shuffle(obj["jdam"]),
    "permute_dds": lambda obj, rng: rng.shuffle(obj["dds"]),
}


@pytest.mark.parametrize("name", VALID_MUTATIONS)
@pytest.mark.parametrize("mode", ["d2k", "d2km"])
def test_valid_mutations_keep_the_target(tmp_path, capsys, name, mode):
    rng = random.Random(f"{name} {mode}")
    graphs = [from_edge_list(EDGES)] + [
        from_edge_list([(rng.randrange(30), rng.randrange(30))
                        for _ in range(rng.randint(20, 120))])
        for _ in range(9)]
    path, again = tmp_path / "t.json", tmp_path / "again.json"
    for case, g in enumerate(graphs):
        want = extract_d2k(g, mode)
        obj = targets_to_json_dict(want)
        for _ in range(rng.randint(1, 3)):
            VALID_MUTATIONS[name](obj, rng)
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run_main(capsys, ["check", str(path)]) == 0, case
        t = load_targets(path)
        assert t == want, case
        assert list(t.jdam.items()) == list(want.jdam.items()), case
        assert (t.f, t.cell_sizes) == (want.f, want.cell_sizes), case
        if name != "permute_dds":
            # the file written again is the unmutated one, byte for byte
            save_targets(t, path)
            save_targets(want, again)
            assert path.read_bytes() == again.read_bytes(), case
        for seed in (1, 2):
            assert extract_d2k(generate(t, seed), mode) == t, (case, seed)


def test_row_preserving_files_build_or_report(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.delenv("D2K_THREADS", raising=False)
    rng = random.Random(101)
    cases = [*row_preserving_targets(rng, 40)]
    for mode in ("d2k", "d2km"):
        cases += row_preserving_targets(rng, 3, nodes=(150, 300),
                                        density=(0.02, 0.06), modes=(mode,))
    path, out = tmp_path / "t.json", tmp_path / "out"
    codes, moves = Counter(), Counter()
    for case, t in enumerate(cases):
        save_targets(t, path)
        checked = main(["check", str(path)])
        report = capsys.readouterr().out
        code = run_main(capsys, ["generate", str(path), "--count", "2",
                                 "-o", str(out)])
        assert checked == code, case
        codes[code] += 1
        if code == 2:
            assert report.startswith("not realizable (") and "\n  [" in report
            continue
        assert code == 0 and report == "realizable\n", (case, report)
        t = load_targets(path)
        for seed in (1, 2):
            state = ConstructionState(t, seed)
            g = DirectedGraph(t.n, state.run())
            assert extract_d2k(g, t.mode) == t, (case, seed)
            moves.update(switches=state.switch_count,
                         fallbacks=state.fallback_count)
    print(f"\n  row-preserving files: {len(cases)} cases, exit codes "
          f"{dict(codes)}, {dict(moves)} over the builds")
    assert codes[0] >= 10 and codes[2] >= 10
    assert moves["switches"] and moves["fallbacks"]


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
