"""Array ingress against the per-line and per-edge oracles of conftest.

`read_edge_list` scans the file's bytes with numpy and parses the ids in
one call; `extract_d2k` and `extract_dds` count from the graph's CSR
arrays.  Each is checked here against the loop it replaced, on seeded
random inputs, and the inputs the byte scan rejects that `int()` took
are pinned.
"""
from __future__ import annotations

import random

import pytest

from conftest import (cell_counts_loop, extract_d2k_loop, from_pairs_loop,
                      out_lists, random_digraph, read_edge_list_lines)
from d2k import (DirectedGraph, EdgeListFormatError, MODE_DEGREE, MODE_PAIR,
                 extract_d2k, extract_dds, from_edge_list, read_edge_list,
                 save_targets)
from d2k.cli import main
from d2k.construct import generate
from d2k.metrics import MetricsConfig, _adjacency, structural_suite

BLANKS = (" ", "\t", "\v", "\f")
LINE_ENDS = ("\n", "\r\n", "\r")
BAD_LINES = {
    "expected 'source target'": ("7", "1 2 3", "4 5 # note", "\v9 9 9"),
    "non-integer ids": ("1 x", "a b", "1.5 2", "-x 3", "1 #2", "0x1 2"),
    "negative ids": ("-1 3", "4 -2", "-7 -7"),
}


def _blanks(rng: random.Random, least: int) -> str:
    return "".join(rng.choice(BLANKS) for _ in range(rng.randint(least, 3)))


def _id(rng: random.Random, span: int) -> str:
    if rng.random() < 0.03:
        x = rng.choice([2 ** 63 - 1, rng.randrange(2 ** 62, 2 ** 63)])
    else:
        x = rng.randrange(span)
    return "0" * rng.choice([0, 0, 0, 1, 3]) + str(x)


def raw_edge_list(rng: random.Random, bad: bool) -> str:
    """A raw edge list: ids (leading zeros, self-loops, repeats, a few near
    2**63), comment lines (some indented), blank lines, blanks of every
    kind, mixed line ends, sometimes no final line end; with bad, one or
    two malformed lines."""
    span = rng.randint(1, 12)
    lines = []
    for _ in range(rng.randint(0, 40)):
        r = rng.random()
        if r < 0.1:
            lines.append(_blanks(rng, 0) + "# c " + _blanks(rng, 0) + "1 2 3")
        elif r < 0.2:
            lines.append(_blanks(rng, 0))
        else:
            lines.append(_blanks(rng, 0) + _id(rng, span) + _blanks(rng, 1)
                         + _id(rng, span) + _blanks(rng, 0))
    if bad:
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(sorted(BAD_LINES))
            lines.insert(rng.randint(0, len(lines)),
                         _blanks(rng, 0) + rng.choice(BAD_LINES[kind]))
    text = "".join(line + rng.choice(LINE_ENDS) for line in lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text


def _outcome(read, path):
    stats: dict = {}
    try:
        g = read(path, stats)
    except EdgeListFormatError as exc:
        return "error", exc.position, str(exc)
    return g.n, _csr_lists(g), g.orig_ids, stats


def _csr_lists(g) -> list[list[int]]:
    return [a.tolist() for a in g.csr()]


def test_reader_matches_the_per_line_oracle(tmp_path):
    rng = random.Random(19)
    path = tmp_path / "raw.txt"
    errors: set[str] = set()
    for case in range(240):
        raw = raw_edge_list(rng, bad=case % 3 == 0)
        path.write_bytes(raw.encode("utf-8"))
        want = _outcome(read_edge_list_lines, path)
        assert _outcome(read_edge_list, path) == want, repr(raw)
        if want[0] == "error":
            errors.add(want[2].split(": ", 1)[1].split(" in ")[0]
                       .split(", got")[0])
    assert errors == set(BAD_LINES)


def test_reader_keeps_file_order_and_the_first_copy(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_bytes(b"# head\r\n5 7\r\n  5\t9\r7 5\n\n9 7\v\n5 2\n7 9\n5 7\n4 4")
    stats: dict = {}
    g = read_edge_list(path, stats)
    assert g.orig_ids == [5, 7, 9, 2]
    assert g.degree_pairs() == [(1, 3), (2, 2), (2, 1), (1, 0)]
    assert stats == {"pairs": 8, "self_loops": 1, "duplicates": 1}
    indptr, heads = g.csr()
    assert indptr.tolist() == [0, 3, 5, 6, 6]
    assert heads.tolist() == [1, 2, 3, 0, 2, 1]
    assert not heads.flags.writeable


@pytest.mark.parametrize("line, what", [
    ("1 +3", "non-integer ids"),
    ("1_000 2", "non-integer ids"),
    ("\u0661 2", "non-integer ids"),          # ARABIC-INDIC DIGIT ONE
    ("1\u00a02", "expected 'source target', got"),    # no-break space
    ("-0 1", "negative ids"),
    (f"{2 ** 63} 1", "ids of 2**63 or more"),
    (f"4 {10 ** 30}", "ids of 2**63 or more"),
])
def test_inputs_int_took_are_rejected_by_line(tmp_path, capsys, line, what):
    path = tmp_path / "raw.txt"
    path.write_text(f"# ids\n0 1\n\n{line}\n2 3\n", encoding="utf-8")
    with pytest.raises(EdgeListFormatError) as exc:
        read_edge_list(path)
    assert exc.value.position == 4
    assert str(exc.value).startswith(f"line 4: {what}")
    capsys.readouterr()
    out = str(tmp_path / "t.json")
    assert main(["extract", str(path), "--model", "d2k", "-o", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_largest_ids_and_leading_zeros_are_read(tmp_path):
    top = 2 ** 63 - 1
    path = tmp_path / "raw.txt"
    path.write_text(f"{top} 0007\n000{top} 0\n", encoding="utf-8")
    g = read_edge_list(path)
    assert g.orig_ids == [top, 7, 0]
    assert out_lists(g) == [[1, 2], [], []]


@pytest.mark.parametrize("text", ["", "# only\n  # comments\r\n\t#\n",
                                  "\n \r\n"])
def test_files_without_edges_give_the_empty_graph(tmp_path, text):
    path = tmp_path / "raw.txt"
    path.write_text(text, encoding="utf-8")
    stats: dict = {}
    g = read_edge_list(path, stats)
    assert (g.n, g.m, g.orig_ids) == (0, 0, None)
    assert stats == {"pairs": 0, "self_loops": 0, "duplicates": 0}
    out = str(tmp_path / "t.json")
    assert main(["extract", str(path), "--model", "d2k", "-o", out]) == 0


def test_from_edge_list_matches_the_pair_loop():
    rng = random.Random(20)
    for _ in range(100):
        span = rng.randint(1, 30)
        pairs = [(rng.randrange(span), rng.randrange(span))
                 for _ in range(rng.randint(0, 60))]
        got, want = {}, {}
        g, h = from_edge_list(pairs, got), from_pairs_loop(pairs, want)
        assert (g.n, _csr_lists(g), g.orig_ids, got) == \
            (h.n, _csr_lists(h), h.orig_ids, want)
    with pytest.raises(EdgeListFormatError,
                       match=r"position 1 has ids of 2\*\*63 or more") as exc:
        from_edge_list([(0, 1), (2 ** 63, 1)])
    assert exc.value.position == 1


def _extraction_graphs():
    rng = random.Random(21)
    yield DirectedGraph(0, [])
    yield DirectedGraph(4, [[], [], [], []])                 # m = 0
    yield DirectedGraph.from_edges(6, [(0, 1), (1, 0), (1, 2), (5, 1)])
    for _ in range(30):
        yield random_digraph(rng, rng.randint(1, 30), rng.random() * 0.4)
    for seed in (1, 2):
        pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(150)]
        yield from_edge_list(pairs)
        t = extract_d2k(from_edge_list(pairs), MODE_PAIR)
        yield generate(t, seed)                       # the constructor's output


def test_extraction_matches_the_per_edge_oracle(tmp_path):
    for i, g in enumerate(_extraction_graphs()):
        for mode in (MODE_DEGREE, MODE_PAIR):
            t, want = extract_d2k(g, mode), extract_d2k_loop(g, mode)
            assert t == want
            assert list(t.jdam.items()) == list(want.jdam.items())
            sizes, f = cell_counts_loop(t.dds, mode)
            assert list(t.cell_sizes.items()) == list(sizes.items())
            assert list(t.f.items()) == list(f.items())
            save_targets(t, tmp_path / "new.json")
            save_targets(want, tmp_path / "old.json")
            assert (tmp_path / "new.json").read_bytes() == \
                (tmp_path / "old.json").read_bytes(), (i, mode)
        assert extract_dds(g).dds == tuple(g.degree_pairs())


def test_metrics_share_one_csr_and_one_sorted_matrix():
    g = DirectedGraph(3, [[2, 1], [0], [1]])       # row 0 is not sorted
    indptr, heads = g.csr()
    assert g.csr()[1] is heads and not heads.flags.writeable
    report = structural_suite(g, MetricsConfig(
        metrics=("dsp", "paths", "scc", "eigenvalues", "betweenness")))
    assert report.values["dsp"]["outgoing"] == {0: 4, 1: 2}
    # the sorted matrix is built once, from copies: the CSR keeps list order
    assert _adjacency(g) is _adjacency(g)
    assert _adjacency(g).indices.tolist() == [1, 2, 0, 1]
    assert heads.tolist() == [2, 1, 0, 1] and indptr.tolist() == [0, 2, 3, 4]
