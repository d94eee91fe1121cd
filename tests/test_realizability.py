from __future__ import annotations

import random

import pytest

from conftest import all_digraphs
from d2k import (CellKey, D2KTargets, NotRealizableError, check, extract_d2k,
                 from_edge_list, generate)
from perturb import (canonical_target_key, dds_level_targets,
                     perturbed_targets, row_preserving_targets)


def test_three_cycle_realizable():
    t = extract_d2k(from_edge_list([(0, 1), (1, 2), (2, 0)]))
    report = check(t)
    assert report.realizable
    assert report.to_text() == "realizable"


def test_single_node_self_loop_target_fails_condition_ii():
    a, b = CellKey("in", 1), CellKey("out", 1)
    t = D2KTargets("d2k", [(1, 1)], {(a, b): 1})
    report = check(t)
    assert not report.realizable
    assert [v.condition for v in report.violations] == ["II"]
    # 1 edge + 1 non-chord > 1x1 product: the only candidate is a self-loop
    assert "non-chords" in report.violations[0].message


def test_non_integer_row_sum_fails_condition_iii():
    t = D2KTargets(
        "d2k", [(2, 0), (2, 1), (0, 1)],
        {(CellKey("in", 2), CellKey("out", 1)): 3})
    report = check(t)
    assert not report.realizable
    conditions = {v.condition for v in report.violations}
    assert conditions == {"III"}
    in_cell_violation = [v for v in report.violations
                         if v.cells == (CellKey("in", 2),)]
    assert in_cell_violation and "not divisible" in in_cell_violation[0].message
    # every violation is listed, not just the first: the out cell also fails
    assert len(report.violations) == 2


def test_same_side_count_fails_condition_i():
    t = D2KTargets(
        "d2k", [(1, 1), (1, 1)],
        {(CellKey("in", 1), CellKey("in", 1)): 2})
    report = check(t)
    assert any(v.condition == "I" for v in report.violations)


def test_structural_malformation_raises_instead_of_reporting():
    # a built target cannot be corrupted: the assignment itself raises,
    # and check still decides the target as it was built
    a, b = CellKey("in", 1), CellKey("out", 1)
    t = D2KTargets("d2k", [(1, 1)] * 3, {(a, b): 3})
    with pytest.raises(AttributeError):
        t.jdam = {(a, b): 3, (b, a): 2}   # hand-corrupted asymmetry
    assert check(t).realizable


def test_report_json_shape():
    t = D2KTargets(
        "d2k", [(2, 0), (2, 1), (0, 1)],
        {(CellKey("in", 2), CellKey("out", 1)): 3})
    d = check(t).to_json_dict()
    assert d["realizable"] is False
    assert all({"condition", "cells", "message"} <= set(v) for v in d["violations"])


def test_every_extracted_target_is_realizable_n4_sample():
    # the full 4096-graph sweep runs in the acceptance suite; spot-check here
    rng = random.Random(9)
    pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
    for _ in range(200):
        bits = rng.randrange(1 << 12)
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        g = from_edge_list(edges) if edges else None
        if g is None:
            continue
        for mode in ("d2k", "d2km"):
            assert check(extract_d2k(g, mode)).realizable


def test_perturbed_targets_match_enumeration_oracle_n3():
    existing = {canonical_target_key(extract_d2k(g))
                for g in all_digraphs(3)}
    rng = random.Random(21)
    realizable_seen = unrealizable_seen = 0
    for t in perturbed_targets(rng, rounds=120):
        is_realizable = check(t).realizable
        has_realization = canonical_target_key(t) in existing
        assert is_realizable == has_realization
        if is_realizable:
            realizable_seen += 1
        else:
            unrealizable_seen += 1
    assert realizable_seen > 5
    assert unrealizable_seen > 5


def test_perturbed_targets_match_enumeration_oracle_n4():
    # soundness and completeness one size up: failing check really means
    # no simple digraph on 4 nodes realizes the target, and vice versa
    graphs = list(all_digraphs(4))
    existing = {canonical_target_key(extract_d2k(g)) for g in graphs}
    rng = random.Random(22)
    for t in perturbed_targets(rng, rounds=80, n=4, base_graphs=graphs):
        assert check(t).realizable == (canonical_target_key(t) in existing)


def test_row_preserving_targets_match_construction_n3_to_30():
    # beyond exhaustive enumeration the constructor is the oracle: a target
    # check accepts must build exactly, one it rejects must raise
    # NotRealizableError, and nothing may raise ConstructionInvariantError
    rng = random.Random(23)
    realizable_seen = unrealizable_seen = 0
    for t in row_preserving_targets(rng, rounds=300):
        if check(t).realizable:
            realizable_seen += 1
            for seed in (1, 2):
                assert extract_d2k(generate(t, seed), t.mode) == t
        else:
            unrealizable_seen += 1
            with pytest.raises(NotRealizableError):
                generate(t, 1)
    assert realizable_seen > 50
    assert unrealizable_seen > 50


def test_dds_level_targets_match_construction_n1_to_60():
    # targets drawn from a random dds, not extracted from any graph, with
    # condition II deciding: the same oracle as for row-preserving targets
    rng = random.Random(24)
    realizable_seen = unrealizable_seen = 0
    for t in dds_level_targets(rng, rounds=400):
        if check(t).realizable:
            realizable_seen += 1
            for seed in (1, 2):
                assert extract_d2k(generate(t, seed), t.mode) == t
        else:
            unrealizable_seen += 1
            with pytest.raises(NotRealizableError):
                generate(t, 1)
    assert realizable_seen > 50
    assert unrealizable_seen > 50
