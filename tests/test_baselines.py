from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import greedy_realization_sorted, random_digraph
import d2k.baselines
from d2k import (DdsTargets, NotGraphicalError, SizeTargets, UmanTargets,
                 extract_dds, extract_size, extract_uman, gen_d0k, gen_d1k,
                 gen_uman)


# -- fixed edge count --------------------------------------------------------

def test_d0k_complete_digraph():
    g = gen_d0k(SizeTargets(3, 6), seed=4)
    assert g.m == 6
    assert g.edge_set() == {(u, v) for u in range(3) for v in range(3) if u != v}


def test_d0k_empty():
    g = gen_d0k(SizeTargets(10, 0), seed=4)
    assert g.n == 10 and g.m == 0


def test_d0k_rejects_oversized():
    with pytest.raises(ValueError):
        gen_d0k(SizeTargets(3, 7), seed=1)


def test_node_bound_applies_to_generation_not_extraction(monkeypatch):
    # a 5-node graph stands in for one above the bound, so nothing large
    # is allocated; extraction of a measured graph takes any n
    monkeypatch.setattr(d2k.baselines, "NODE_LIMIT", 4)
    g = random_digraph(random.Random(3), 5, 0.4)
    size, dyads = extract_size(g), extract_uman(g)
    assert (size.n, dyads.n) == (5, 5)
    for gen, t in ((gen_d0k, size), (gen_uman, dyads)):
        with pytest.raises(ValueError, match="above the 4 nodes"):
            gen(t, seed=1)
    assert gen_d0k(SizeTargets(4, 3), seed=1).n == 4
    assert gen_uman(UmanTargets(4, 1, 1, 4), seed=1).n == 4


def test_d0k_dense_complement_path():
    g = gen_d0k(SizeTargets(5, 18), seed=2)   # 18 > 20/2 triggers complement
    assert g.m == 18
    assert all(u != v for u, v in g.edges())


def test_d0k_determinism():
    a = gen_d0k(SizeTargets(30, 120), seed=7)
    b = gen_d0k(SizeTargets(30, 120), seed=7)
    assert a == b


def test_d0k_pair_inclusion_frequency():
    # analytic inclusion probability m / (n(n-1)) = 5/12
    hits = Counter()
    runs = 10_000
    for seed in range(runs):
        for e in gen_d0k(SizeTargets(4, 5), seed=seed).edges():
            hits[e] += 1
    expected = 5 / 12
    for u in range(4):
        for v in range(4):
            if u != v:
                assert abs(hits[(u, v)] / runs - expected) <= 0.02


# -- fixed dyad census -------------------------------------------------------

def test_uman_all_mutual_is_complete():
    g = gen_uman(UmanTargets(3, 3, 0, 0), seed=1)
    assert g.m == 6


def test_uman_all_asymmetric_is_tournament():
    g = gen_uman(UmanTargets(3, 0, 3, 0), seed=1)
    assert g.m == 3
    t = extract_uman(g)
    assert (t.mutual, t.asymmetric, t.null) == (0, 3, 0)


def test_uman_round_trip_random():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 20)
        total = n * (n - 1) // 2
        mutual = rng.randint(0, total)
        asym = rng.randint(0, total - mutual)
        t = UmanTargets(n, mutual, asym, total - mutual - asym)
        g = gen_uman(t, seed=rng.randrange(10_000))
        assert extract_uman(g) == t


def test_uman_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        gen_uman(UmanTargets(3, 1, 1, 4), seed=1)


def test_uman_determinism():
    t = UmanTargets(12, 10, 20, 36)
    assert gen_uman(t, seed=3) == gen_uman(t, seed=3)


def test_uman_dyad_state_frequency_on_a_dense_census():
    # 22 of the 28 pairs are connected, so the pairs left out are drawn;
    # each pair is mutual, asymmetric or null with probability 10/28,
    # 12/28 and 6/28, and an asymmetric one points either way with 1/2
    runs = 2_000
    states, forward = Counter(), Counter()
    for seed in range(runs):
        arcs = set(gen_uman(UmanTargets(8, 10, 12, 6), seed=seed).edges())
        for u in range(8):
            for v in range(u + 1, 8):
                state = ((u, v) in arcs) + ((v, u) in arcs)
                states[u, v, state] += 1
                forward[u, v] += state == 1 and (u, v) in arcs
    for u in range(8):
        for v in range(u + 1, 8):
            for state, count in ((2, 10), (1, 12), (0, 6)):
                assert abs(states[u, v, state] / runs - count / 28) <= 0.05
            assert abs(forward[u, v] / states[u, v, 1] - 0.5) <= 0.08


# -- fixed degree sequence ---------------------------------------------------

def test_d1k_three_cycle_is_forced_up_to_orientation():
    t = DdsTargets(3, [(1, 1)] * 3)
    flipped = set()
    for seed in range(20):
        g = gen_d1k(t, seed=seed)
        assert g.degree_pairs() == [(1, 1)] * 3
        assert extract_uman(g).mutual == 0  # a 3-cycle has no mutual dyads
        flipped.add(g != gen_d1k(t, seed=seed, randomize_swaps=0))
    # Double swaps cannot change a 3-cycle, so only the reversal move turns
    # a seed's greedy realization into the other orientation.  (The greedy
    # tie-break alone already gives both orientations across seeds.)
    assert flipped == {False, True}


def test_d1k_star_is_forced():
    g = gen_d1k(DdsTargets(3, [(0, 2), (1, 0), (1, 0)]), seed=5)
    assert g.edge_set() == {(0, 1), (0, 2)}


def test_d1k_rejects_self_loop_only_sequence():
    with pytest.raises(NotGraphicalError):
        gen_d1k(DdsTargets(1, [(2, 2)]), seed=1)


def test_d1k_rejects_unbalanced_sums():
    with pytest.raises(NotGraphicalError):
        gen_d1k(DdsTargets(2, [(1, 0), (0, 0)]), seed=1)


def test_d1k_rejects_negative_swap_attempts():
    # and a budget that is not an int: True would run one attempt, 2.5 and
    # "3" would fail inside the loop with a TypeError
    for budget in (-5, True, 2.5, "3"):
        with pytest.raises(ValueError, match="swap attempts"):
            gen_d1k(DdsTargets(3, [(1, 1)] * 3), seed=1,
                    randomize_swaps=budget)


def test_d1k_tie_break_regression():
    # With in-degree ties broken at random (ignoring out-remainders), the
    # greedy can fill the out-stubs of the first source into dead-end
    # targets and strand this graphical sequence.
    t = DdsTargets(4, [(1, 2), (1, 0), (1, 0), (1, 2)])
    for seed in range(40):
        g = gen_d1k(t, seed=seed, randomize_swaps=0)
        assert g.degree_pairs() == list(t.dds)


def test_d1k_exact_degrees_on_random_graphs():
    rng = random.Random(10)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 50), rng.uniform(0.05, 0.3))
        t = extract_dds(g)
        out = gen_d1k(t, seed=rng.randrange(1000))
        assert out.degree_pairs() == list(t.dds)  # per node, not just multiset
        assert all(u != v for u, v in out.edges())


def test_d1k_swap_phase_preserves_degrees_and_randomizes():
    rng = random.Random(11)
    g = random_digraph(rng, 30, 0.2)
    t = extract_dds(g)
    frozen = gen_d1k(t, seed=3, randomize_swaps=0)
    shuffled = gen_d1k(t, seed=3)
    assert frozen.degree_pairs() == shuffled.degree_pairs() == list(t.dds)
    assert frozen != shuffled     # 10*m attempts virtually always move edges


def test_d1k_greedy_matches_the_sorting_oracle():
    # small sequences with equal totals and degrees up to n: many nodes tie,
    # some first sources hold the top target key, and some sequences are
    # not graphical
    greedy = d2k.baselines._greedy_directed_realization
    rng = random.Random(31)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(1, 8)
        outs = [rng.randint(0, n - 1) for _ in range(n)]
        if rng.random() < 0.1:
            outs[rng.randrange(n)] = n
        ins = [0] * n
        for _ in range(sum(outs)):
            ins[rng.randrange(n)] += 1
        dds = list(zip(ins, outs))
        seed = rng.randrange(1000)
        t = DdsTargets(n, dds)
        want = greedy_realization_sorted(dds, seed)
        if want is None:
            with pytest.raises(NotGraphicalError):
                greedy(t, seed)
        else:
            assert greedy(t, seed) == want
        rank = list(range(n))
        random.Random(seed).shuffle(rank)
        first = min(range(n), key=lambda v: (-outs[v], rank[v]))
        top = min(range(n), key=lambda v: (-ins[v], -outs[v], rank[v]))
        seen["graphical" if want is not None else "not graphical"] += 1
        seen["ties"] += len(set(dds)) < n
        seen["source holds the top key"] += first == top and min(dds[top]) > 0
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("build", [
    lambda seed: gen_d0k(SizeTargets(4, 5), seed),
    lambda seed: gen_uman(UmanTargets(4, 1, 2, 3), seed),
    lambda seed: gen_d1k(DdsTargets(3, [(1, 1)] * 3), seed),
], ids=["d0k", "uman", "d1k"])
def test_negative_seed_raises(build):
    # Random(-s) draws as Random(s) would, so -s would repeat seed s
    assert build(0) == build(0)
    with pytest.raises(ValueError,
                       match="^seed must not be negative, got -2$"):
        build(-2)


def test_d1k_determinism():
    t = DdsTargets(10, [(1, 1)] * 10)
    assert gen_d1k(t, seed=6) == gen_d1k(t, seed=6)
