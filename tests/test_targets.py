from __future__ import annotations

import copy
import pickle
import random

import pytest

from conftest import all_digraphs, cells_by_rule, random_digraph
from d2k import (CellKey, D2KTargets, DdsTargets, SizeTargets,
                 TargetStructureError, UmanTargets, check, extract_d2k,
                 extract_dds, extract_size, extract_uman, from_edge_list,
                 generate)
from d2k.targets import node_cells


def three_cycle():
    return from_edge_list([(0, 1), (1, 2), (2, 0)])


def test_three_cycle_d2k():
    t = extract_d2k(three_cycle())
    assert t.dds == ((1, 1),) * 3
    a, b = CellKey("in", 1), CellKey("out", 1)
    # one entry per cell pair, under its sorted key: the in-cell first
    assert t.jdam == {(a, b): 3}
    assert t.f == {(a, b): 3}
    assert t.cell_sizes == {a: 3, b: 3}
    assert t.m == 3


def test_one_orientation_constructor_derives_cell_data():
    # the constructor alone makes a complete target: f and the cell sizes
    # come from dds, the jdam given as (out, in) is kept under (in, out)
    out1, in1 = CellKey("out", 1), CellKey("in", 1)
    t = D2KTargets("d2k", [(1, 1)] * 3, {(out1, in1): 3})
    assert t == extract_d2k(three_cycle())
    assert check(t).realizable
    assert extract_d2k(generate(t, seed=1)) == t


def test_toy_graph_drops_zero_degree_cells():
    # out-degrees all one, in-degrees {0,1,1,2}: the zero in-degree side
    # contributes no cell, leaving three cells overall.
    g = from_edge_list([(0, 3), (1, 3), (3, 2), (2, 1)])
    assert sorted(g.degree_pairs()) == [(0, 1), (1, 1), (1, 1), (2, 1)]
    t = extract_d2k(g)
    assert len(t.cells()) == 3
    assert set(t.cells()) == {CellKey("in", 1), CellKey("in", 2),
                              CellKey("out", 1)}


def test_uman_extraction():
    g = from_edge_list([(0, 1), (1, 0), (1, 2)])
    t = extract_uman(g)
    assert (t.mutual, t.asymmetric, t.null) == (1, 1, 1)
    assert t.total() == 3


def test_empty_graph_targets():
    g = from_edge_list([])
    g4 = type(g).from_edges(4, [])
    t = extract_uman(g4)
    assert (t.mutual, t.asymmetric, t.null) == (0, 0, 6)
    s = extract_size(g4)
    assert (s.n, s.m) == (4, 0)


def test_dds_extraction():
    g = from_edge_list([(0, 1), (0, 2), (2, 1)])
    assert extract_dds(g).dds == ((0, 2), (2, 0), (1, 1))


def _coarse(cell: CellKey) -> CellKey:
    d_in, d_out = cell.label
    return CellKey(cell.side, d_in if cell.side == "in" else d_out)


def test_d2km_refines_d2k():
    rng = random.Random(3)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 40), rng.uniform(0.05, 0.4))
        fine = extract_d2k(g, "d2km")
        coarse = extract_d2k(g, "d2k")
        rebuilt: dict = {}
        for (a, b), count in fine.jdam.items():
            key = (_coarse(a), _coarse(b))
            rebuilt[key] = rebuilt.get(key, 0) + count
        assert rebuilt == coarse.jdam


def test_jdam_total_and_f_total():
    rng = random.Random(4)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 40), rng.uniform(0.05, 0.4))
        for mode in ("d2k", "d2km"):
            t = extract_d2k(g, mode)
            # each edge and each non-chord counted once, in-cell first
            assert sum(t.jdam.values()) == t.m == g.m
            assert all(a.side == "in" != b.side for a, b in t.jdam)
            both = sum(1 for d_in, d_out in g.degree_pairs()
                       if d_in > 0 and d_out > 0)
            assert sum(t.f.values()) == both
            assert all(a.side == "in" != b.side for a, b in t.f)


def test_marginal_consistency():
    rng = random.Random(5)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 40), rng.uniform(0.05, 0.4))
        for mode in ("d2k", "d2km"):
            t = extract_d2k(g, mode)
            rows: dict = {}
            for (a, b), count in t.jdam.items():
                rows[a] = rows.get(a, 0) + count
                rows[b] = rows.get(b, 0) + count
            for cell, size in t.cell_sizes.items():
                assert rows.get(cell, 0) == cell.degree() * size


def _spelled_out(c: CellKey) -> tuple:
    return (c.side, c.label if isinstance(c.label, tuple) else (c.label,))


def test_jdam_entries_canonical_order():
    rng = random.Random(6)
    g = random_digraph(rng, 30, 0.2)
    for mode in ("d2k", "d2km"):
        keys = list(extract_d2k(g, mode).jdam)
        assert keys == sorted(keys)
        assert all(a <= b for a, b in keys)
        # one label type per mode, so the natural order is this one
        assert keys == sorted(keys, key=lambda k: (_spelled_out(k[0]),
                                                   _spelled_out(k[1])))


def test_built_targets_are_immutable():
    t = extract_d2k(three_cycle())
    for name in ("mode", "dds", "jdam", "n", "f", "cell_sizes"):
        with pytest.raises(AttributeError):
            setattr(t, name, getattr(t, name))
    pair = next(iter(t.jdam))
    for mapping, key in ((t.jdam, pair), (t.f, pair),
                         (t.cell_sizes, pair[0]), (t.dds, 0)):
        with pytest.raises(TypeError):
            mapping[key] = 1


def test_reassigned_dds_cannot_leave_cell_data_stale():
    # a dds changed after construction used to pass check with stale f and
    # cell sizes, and generate then raised ConstructionInvariantError
    t = extract_d2k(three_cycle())
    with pytest.raises(AttributeError):
        t.dds = [(1, 1), (1, 1), (1, 0)]
    with pytest.raises(TypeError):
        t.dds[2] = (1, 0)
    assert check(t).realizable
    assert extract_d2k(generate(t, seed=1)) == t


def test_targets_survive_pickle_and_deepcopy():
    g = random_digraph(random.Random(7), 20, 0.2)
    for t in (extract_d2k(g), extract_d2k(g, "d2km"), extract_dds(g)):
        for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert type(clone) is type(t)
            assert clone == t
            assert clone.dds == t.dds
            if isinstance(t, D2KTargets):
                assert (clone.f, clone.cell_sizes) == (t.f, t.cell_sizes)


def test_target_equality_is_multiset_on_dds():
    t1 = extract_d2k(from_edge_list([(0, 1), (1, 2)]))
    t2 = extract_d2k(from_edge_list([(2, 0), (0, 1)]))
    assert t1 == t2
    assert t1 != extract_d2k(from_edge_list([(0, 1), (0, 2)]))


def test_mode_mismatch_breaks_equality():
    g = three_cycle()
    assert extract_d2k(g, "d2k") != extract_d2k(g, "d2km")


def test_constructor_validates():
    with pytest.raises(TargetStructureError):
        D2KTargets("d2k", [(1, -1)], {})
    a, b = CellKey("in", 1), CellKey("out", 1)
    with pytest.raises(TargetStructureError):
        D2KTargets("d2k", [(1, 1)], {(a, b): -2})
    with pytest.raises(TargetStructureError):
        D2KTargets(
            "d2k", [(1, 1)], {(CellKey("in", 0), b): 1})
    # every count and degree must be an int, and every label fit the mode
    for count in (3.0, True):
        with pytest.raises(TargetStructureError):
            D2KTargets("d2k", [(1, 1)] * 3, {(b, a): count})
    for degree in (1.9, "1"):
        with pytest.raises(TargetStructureError):
            D2KTargets("d2k", [(degree, 1)] + [(1, 1)] * 2, {(b, a): 3})
    pair_a, pair_b = CellKey("in", (1, 1)), CellKey("out", (1, 1))
    with pytest.raises(TargetStructureError):
        D2KTargets("d2k", [(1, 1)], {(pair_b, pair_a): 1})
    with pytest.raises(TargetStructureError):
        D2KTargets("d2km", [(1, 1)], {(b, a): 1})
    # a side is in or out, and a label an int (d2k) or a pair of ints (d2km)
    for mode, bad, good in [
            ("d2k", CellKey("out", "1"), CellKey("in", 1)),
            ("d2k", CellKey("out", True), CellKey("in", 1)),
            ("d2k", CellKey("sideways", 1), CellKey("in", 1)),
            ("d2km", CellKey("out", (1,)), CellKey("in", (1, 1)))]:
        with pytest.raises(TargetStructureError):
            D2KTargets(mode, [(1, 1)] * 3, {(bad, good): 3})


@pytest.mark.parametrize("jdam", [
    {}, {(CellKey("out", 1), CellKey("in", 1)): 3},
    {(CellKey("out", (1, 1)), CellKey("in", (1, 1))): 3}],
    ids=["empty", "int_labels", "pair_labels"])
def test_unknown_mode_raises_first(jdam):
    with pytest.raises(TargetStructureError, match="unknown mode 'd2x'"):
        D2KTargets("d2x", [(1, 1)] * 3, jdam)


def test_extracting_under_an_unknown_mode_raises_the_target_error():
    with pytest.raises(TargetStructureError, match="unknown mode 'd2x'"):
        extract_d2k(three_cycle(), "d2x")


def test_node_cells_follows_the_stated_rule():
    # seeded random dds, zero sides and all-zero nodes included, against
    # the rule as the oracles state it
    rng = random.Random(31)
    zeros = 0
    for _ in range(200):
        dds = [tuple(rng.choice((0, rng.randint(1, 9))) for _side in (0, 1))
               for _ in range(rng.randint(0, 12))]
        zeros += sum(0 in pair for pair in dds)
        for mode in ("d2k", "d2km"):
            want = [cells_by_rule(d_in, d_out, mode) for d_in, d_out in dds]
            assert list(zip(*node_cells(dds, mode))) == want, (dds, mode)
    assert zeros > 100
    with pytest.raises(TargetStructureError, match="unknown mode 'd2x'"):
        node_cells([], "d2x")


def test_edge_count_counts_an_off_diagonal_pair_twice():
    # the stub total counts an off-diagonal pair twice and a diagonal one
    # once, whichever orientation it was given in
    o1, o2 = CellKey("out", 1), CellKey("out", 2)
    for jdam in ({(o2, o1): 3}, {(o1, o2): 3}, {(o1, o2): 3, (o2, o1): 3}):
        assert D2KTargets("d2k", [(0, 1), (0, 2)], jdam).m == 3
    assert D2KTargets("d2k", [(0, 1)] * 2, {(o1, o1): 4}).m == 2


def test_edge_count_of_an_odd_stub_total_raises():
    b = CellKey("out", 1)
    t = D2KTargets("d2k", [(1, 1)] * 3, {(b, b): 3})
    with pytest.raises(TargetStructureError, match="odd stub count"):
        t.m


@pytest.mark.parametrize("cls, args", [
    (SizeTargets, (-1, 0)), (SizeTargets, (3, 7)), (SizeTargets, (3, -1)),
    (UmanTargets, (-1, 0, 0, 1)), (UmanTargets, (3, 1, 1, 4)),
    (UmanTargets, (3, -1, 2, 2)), (SizeTargets, (3, 2.0)),
    (UmanTargets, (3, 1.0, 0, 2)), (DdsTargets, (3.0, [(1, 1)] * 3))])
def test_size_and_dyad_targets_validate(cls, args):
    # n = -1 with m = 0, or with one null dyad (C(-1, 2) = 1), passes every
    # range check but the explicit n >= 0; a float equal to a valid int
    # passes every range check but the integer rule
    with pytest.raises(TargetStructureError):
        cls(*args)


def test_extraction_always_graphical_n3():
    for g in all_digraphs(3):
        for mode in ("d2k", "d2km"):
            assert check(extract_d2k(g, mode)).realizable
