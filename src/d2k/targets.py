"""Target distributions extracted from a measured digraph.

Five models, in increasing order of what they pin down:

* size targets: node and edge counts only,
* dyad-census targets: mutual / asymmetric / null dyad counts,
* dds targets: the per-node (in-degree, out-degree) sequence,
* degree/side targets ("d2k"): dds plus a joint matrix counting bipartite
  edges between cells keyed by (degree, in-or-out side),
* full-pair targets ("d2km"): the same machinery with cells keyed by the
  whole (in-degree, out-degree) pair, a strictly finer partition.

The last two share one data model, D2KTargets, and one cell numbering,
`cell_table`; the mode only changes the cell labels, not the code path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import TargetStructureError
from .graph import DirectedGraph, _contains, _tails, _tally

MODE_DEGREE = "d2k"
MODE_PAIR = "d2km"
MODELS = ("d0k", "uman", "d1k", MODE_DEGREE, MODE_PAIR)


class CellKey(NamedTuple):
    """One cell of the bipartite partition.

    side is "in" or "out"; label is the degree for d2k mode or the full
    (in-degree, out-degree) pair for d2km mode.
    """

    side: str
    label: int | tuple[int, int]

    def degree(self) -> int:
        """The bipartite degree every member of this cell has."""
        if isinstance(self.label, tuple):
            return self.label[0] if self.side == "in" else self.label[1]
        return self.label


def json_int(x, what: str) -> int:
    """x itself when it is an int; a bool, float or string raises."""
    if type(x) is not int:
        raise TargetStructureError(f"{what} must be an integer, got {x!r}")
    return x


def check_seed(seed: int) -> int:
    """seed itself when it is not negative.  CPython seeds Random(s) from
    |s|, so a negative seed would repeat the draws of its absolute value."""
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    return seed


def _degree_pairs(dds) -> tuple[tuple[int, int], ...]:
    """dds as a tuple of int pairs; the first non-int or negative degree
    raises."""
    pairs = tuple((d_in, d_out) for d_in, d_out in dds)
    degrees = list(chain.from_iterable(pairs))
    if set(map(type, degrees)) - {int} or min(degrees, default=0) < 0:
        for d in degrees:
            if json_int(d, "dds entry") < 0:
                raise TargetStructureError("negative degree in dds")
    return pairs


def cell_to_json(c: CellKey) -> dict:
    """The JSON form of a cell: its side and its label, a pair as a list."""
    label = list(c.label) if isinstance(c.label, tuple) else c.label
    return {"side": c.side, "label": label}


def cell_from_json(obj: dict) -> CellKey:
    """The cell a JSON object {"side", "label"} encodes, a list label as a
    tuple; D2KTargets checks its side and its label."""
    try:
        side = obj["side"]
        label = obj["label"]
    except (TypeError, KeyError):
        raise TargetStructureError(f"malformed cell {obj!r}") from None
    return CellKey(side, tuple(label) if isinstance(label, list) else label)


def _check_mode(mode: str) -> None:
    """Raise TargetStructureError unless mode is d2k or d2km."""
    if mode not in (MODE_DEGREE, MODE_PAIR):
        raise TargetStructureError(f"unknown mode {mode!r}")


def cell_table(dds: Sequence[tuple[int, int]], mode: str) \
        -> tuple[list[CellKey], np.ndarray, np.ndarray]:
    """(cells, in_of, out_of): the sorted nonzero-degree cells of dds, and
    each node's in-cell and out-cell index into them, -1 on a zero side.
    A d2k cell is labelled by its side's degree, a d2km cell by the pair.
    Each distinct pair, numbered in a dict (exact at any size), is
    labelled once."""
    _check_mode(mode)
    number = {pair: i for i, pair in enumerate(dict.fromkeys(dds))}
    labels = []
    for pair in number:         # (d_in, d_out)
        in_label, out_label = pair if mode == MODE_DEGREE else (pair, pair)
        labels.append((CellKey("in", in_label) if pair[0] else None,
                       CellKey("out", out_label) if pair[1] else None))
    cells = sorted(set(chain(*labels)) - {None})
    index = {c: i for i, c in enumerate(cells)}
    sides = np.array([(index.get(a, -1), index.get(b, -1))
                      for a, b in labels], dtype=np.int64).reshape(-1, 2)
    pair_of = np.fromiter(map(number.get, dds), np.int64, len(dds))
    in_of, out_of = sides[pair_of].T
    return cells, in_of, out_of


def _normalize_jdam(mode: str, jdam: Mapping | Iterable) \
        -> dict[tuple[CellKey, CellKey], int]:
    """jdam, a mapping or ((a, b), count) rows, as one entry per nonzero
    unordered pair under its sorted key (a <= b), in sorted order.

    Accepts entries in either or both orientations.  A side other than in
    or out, a label that is not an int (d2k) or a pair of ints (d2km), a
    count that is not a non-negative int or a zero-degree cell with a
    nonzero count raises TargetStructureError, each checked before the
    row is hashed.  So does a pair given two different counts, in either
    orientation, zero being a count too; zeros are dropped after that.
    """
    pairs: dict[tuple[CellKey, CellKey], int] = {}
    for (a, b), count in jdam.items() if isinstance(jdam, Mapping) else jdam:
        for c in (a, b):
            if c.side not in ("in", "out"):
                raise TargetStructureError(f"bad cell side {c.side!r}")
            if not (type(c.label) is int if mode == MODE_DEGREE else
                    type(c.label) is tuple and len(c.label) == 2
                    and all(type(x) is int for x in c.label)):
                raise TargetStructureError(
                    f"cell label {c.label!r} does not fit mode {mode!r}")
        if json_int(count, "jdam count") < 0:
            raise TargetStructureError(f"negative jdam count at ({a},{b})")
        if count and (a.degree() == 0 or b.degree() == 0):
            raise TargetStructureError(
                f"zero-degree cell used as jdam key: ({a},{b})")
        known = pairs.setdefault((a, b) if a <= b else (b, a), count)
        if known != count:
            raise TargetStructureError(
                f"two counts for jdam pair ({a},{b}): {known} and {count}")
    return dict(sorted(item for item in pairs.items() if item[1]))


@dataclass(frozen=True, eq=False)
class D2KTargets:
    """Degree-correlation target: dds + joint degree/side matrix.

    An immutable value.  The constructor validates structure (not
    graphicality): the mode must be d2k or d2km, every degree and count
    must be an int, and dds becomes a tuple of pairs.  jdam (a mapping or
    ((a, b), count) rows, in either orientation) holds each nonzero
    unordered cell pair once, under its sorted key (a <= b, so the in-cell
    first on a cross-side pair), in sorted order.  n, f (non-chord counts
    per (in-cell, out-cell) pair), cell_sizes and table (`cell_table`)
    derive from dds; jdam, f and cell_sizes are read-only mappings.
    Equality compares mode, n, dds as a multiset and the jdam.
    """

    mode: str
    dds: tuple[tuple[int, int], ...]
    jdam: Mapping[tuple[CellKey, CellKey], int]
    n: int = field(init=False)
    f: Mapping[tuple[CellKey, CellKey], int] = field(init=False)
    cell_sizes: Mapping[CellKey, int] = field(init=False)
    table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _check_mode(self.mode)
        dds = _degree_pairs(self.dds)
        jdam = _normalize_jdam(self.mode, self.jdam)
        cells, in_of, out_of = table = cell_table(dds, self.mode)
        in_of.flags.writeable = out_of.flags.writeable = False
        # Node v puts one member in each of its nonzero cells, and one
        # non-chord (v_in, v_out) between them when both degrees are
        # positive.  Both are tallied in node order, in-cell before
        # out-cell, so the cells enter both mappings in node order.
        sides = np.column_stack((in_of, out_of)).ravel()
        keys, counts = _tally(sides[sides >= 0])
        sizes = {cells[k]: c for k, c in zip(keys.tolist(), counts.tolist())}
        both = (in_of >= 0) & (out_of >= 0)
        keys, counts = _tally(in_of[both] * len(cells) + out_of[both])
        f = {(cells[k // len(cells)], cells[k % len(cells)]): c
             for k, c in zip(keys.tolist(), counts.tolist())}
        object.__setattr__(self, "dds", dds)
        object.__setattr__(self, "jdam", MappingProxyType(jdam))
        object.__setattr__(self, "n", len(dds))
        object.__setattr__(self, "f", MappingProxyType(f))
        object.__setattr__(self, "cell_sizes", MappingProxyType(sizes))
        object.__setattr__(self, "table", table)

    def __reduce__(self):
        # A mapping proxy does not pickle: rebuild through the constructor.
        return D2KTargets, (self.mode, self.dds, dict(self.jdam))

    @property
    def model(self) -> str:
        """The model name, which for this type is the mode."""
        return self.mode

    @property
    def m(self) -> int:
        # the stub total: an off-diagonal count twice, a diagonal one once
        total = sum(c if a == b else 2 * c for (a, b), c in self.jdam.items())
        if total % 2:
            raise TargetStructureError("jdam totals to an odd stub count")
        return total // 2

    def cells(self) -> list[CellKey]:
        """All nonzero-degree cells, in canonical order."""
        return sorted(set(self.cell_sizes).union(*self.jdam))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, D2KTargets):
            return NotImplemented
        return (self.mode == other.mode and self.n == other.n
                and sorted(self.dds) == sorted(other.dds)
                and self.jdam == other.jdam)


@dataclass(frozen=True)
class UmanTargets:
    """Dyad-census target: counts of mutual, asymmetric, null dyads."""

    model: ClassVar[str] = "uman"
    n: int
    mutual: int
    asymmetric: int
    null: int

    def __post_init__(self):
        json_int(self.n, "n")
        for name in ("mutual", "asymmetric", "null"):
            json_int(getattr(self, name), f"{name} dyad count")
        if self.n < 0:
            raise TargetStructureError(f"n must be non-negative, got {self.n}")
        if min(self.mutual, self.asymmetric, self.null) < 0 \
                or self.total() != self.n * (self.n - 1) // 2:
            raise TargetStructureError("dyad counts do not sum to C(n,2)")

    def total(self) -> int:
        return self.mutual + self.asymmetric + self.null


@dataclass(frozen=True)
class SizeTargets:
    """Node and edge counts only."""

    model: ClassVar[str] = "d0k"
    n: int
    m: int

    def __post_init__(self):
        json_int(self.n, "n")
        json_int(self.m, "m")
        if self.n < 0:
            raise TargetStructureError(f"n must be non-negative, got {self.n}")
        if not 0 <= self.m <= self.n * (self.n - 1):
            raise TargetStructureError("edge count out of range")


@dataclass(frozen=True, eq=False)
class DdsTargets:
    """Directed degree sequence target; dds becomes a tuple of int pairs."""

    model: ClassVar[str] = "d1k"
    n: int
    dds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        json_int(self.n, "n")
        dds = _degree_pairs(self.dds)
        if len(dds) != self.n:
            raise TargetStructureError("dds length does not match n")
        object.__setattr__(self, "dds", dds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DdsTargets):
            return NotImplemented
        return self.n == other.n and sorted(self.dds) == sorted(other.dds)


def extract_d2k(g: DirectedGraph, mode: str = MODE_DEGREE) -> D2KTargets:
    """Measure dds and the joint degree/side matrix of g.

    jdam(k, l) counts bipartite edges between cells k and l, i.e. directed
    edges between the corresponding node groups; zero-degree cells never
    appear as keys.  `cell_table` numbers each node's cells, and the jdam
    is counted as one np.unique over the edges' in-cell-major (in-cell,
    out-cell) codes, which yields the rows in the sorted-key order the
    constructor keeps.
    """
    indptr, heads = g.csr()
    dds = g.degree_pairs()
    cells, in_of, out_of = cell_table(dds, mode)
    codes, counts = np.unique(in_of[heads] * len(cells)
                              + out_of[_tails(indptr)], return_counts=True)
    rows = (((cells[a], cells[b]), c)
            for a, b, c in zip((codes // len(cells)).tolist(),
                               (codes % len(cells)).tolist(),
                               counts.tolist()))
    return D2KTargets(mode, dds, rows)


def extract_uman(g: DirectedGraph) -> UmanTargets:
    """Dyad census: an arc u->v is reciprocated when its reverse v->u is
    among the sorted arc keys."""
    indptr, heads = g.csr()
    tails = _tails(indptr)
    keys = np.sort(tails * g.n + heads)
    reciprocated = int(_contains(keys, heads * g.n + tails).sum())
    mutual = reciprocated // 2
    asymmetric = g.m - reciprocated
    null = g.n * (g.n - 1) // 2 - mutual - asymmetric
    return UmanTargets(g.n, mutual, asymmetric, null)


def extract_size(g: DirectedGraph) -> SizeTargets:
    return SizeTargets(g.n, g.m)


def extract_dds(g: DirectedGraph) -> DdsTargets:
    return DdsTargets(g.n, g.degree_pairs())
