"""Target distributions extracted from a measured digraph.

Five models, in increasing order of what they pin down:

* size targets: node and edge counts only,
* dyad-census targets: mutual / asymmetric / null dyad counts,
* dds targets: the per-node (in-degree, out-degree) sequence,
* degree/side targets ("d2k"): dds plus a joint matrix counting bipartite
  edges between cells keyed by (degree, in-or-out side),
* full-pair targets ("d2km"): the same machinery with cells keyed by the
  whole (in-degree, out-degree) pair, a strictly finer partition.

The last two share one data model, D2KTargets; the mode only changes the
cell labelling, not the code path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import TargetStructureError
from .graph import DirectedGraph

MODE_DEGREE = "d2k"
MODE_PAIR = "d2km"


class CellKey(NamedTuple):
    """One cell of the bipartite partition.

    side is "in" or "out"; label is the degree for d2k mode or the full
    (in-degree, out-degree) pair for d2km mode.
    """

    side: str
    label: int | tuple[int, int]

    def sort_key(self) -> tuple:
        label = self.label if isinstance(self.label, tuple) else (self.label,)
        return (self.side, label)

    def degree(self) -> int:
        """The bipartite degree every member of this cell has."""
        if isinstance(self.label, tuple):
            return self.label[0] if self.side == "in" else self.label[1]
        return self.label


def json_int(x, what: str) -> int:
    """x itself when it is a JSON integer; a bool, float or string raises."""
    if type(x) is not int:
        raise TargetStructureError(f"{what} must be an integer, got {x!r}")
    return x


def cell_to_json(c: CellKey) -> dict:
    """The JSON form of a cell: its side and its label, a pair as a list."""
    label = list(c.label) if isinstance(c.label, tuple) else c.label
    return {"side": c.side, "label": label}


def cell_from_json(obj: dict) -> CellKey:
    """The cell a JSON object encodes; malformed input raises."""
    try:
        side = obj["side"]
        label = obj["label"]
    except (TypeError, KeyError):
        raise TargetStructureError(f"malformed cell {obj!r}") from None
    if side not in ("in", "out"):
        raise TargetStructureError(f"bad cell side {side!r}")
    if isinstance(label, list):
        if len(label) != 2:
            raise TargetStructureError(f"bad cell label {label!r}")
        return CellKey(side, (json_int(label[0], "cell label"),
                              json_int(label[1], "cell label")))
    return CellKey(side, json_int(label, "cell label"))


def node_cells(dds: list[tuple[int, int]], mode: str) \
        -> tuple[list[CellKey | None], list[CellKey | None]]:
    """Per-node (in-side cell, out-side cell); None on a zero-degree side."""
    if mode not in (MODE_DEGREE, MODE_PAIR):
        raise ValueError(f"unknown mode {mode!r}")
    in_cells: list[CellKey | None] = []
    out_cells: list[CellKey | None] = []
    for d_in, d_out in dds:
        if mode == MODE_DEGREE:
            in_cells.append(CellKey("in", d_in) if d_in > 0 else None)
            out_cells.append(CellKey("out", d_out) if d_out > 0 else None)
        else:
            pair = (d_in, d_out)
            in_cells.append(CellKey("in", pair) if d_in > 0 else None)
            out_cells.append(CellKey("out", pair) if d_out > 0 else None)
    return in_cells, out_cells


def non_chord_counts(dds: list[tuple[int, int]], mode: str) \
        -> dict[tuple[CellKey, CellKey], int]:
    """Count forbidden (v_in, v_out) pairs per cell pair, stored symmetrically.

    One pass over the degree sequence: node v contributes iff both degrees
    are positive, to the pair (cell of v_in, cell of v_out).
    """
    in_cells, out_cells = node_cells(dds, mode)
    f: dict[tuple[CellKey, CellKey], int] = {}
    for v, (d_in, d_out) in enumerate(dds):
        if d_in > 0 and d_out > 0:
            a, b = in_cells[v], out_cells[v]
            f[(a, b)] = f.get((a, b), 0) + 1
            f[(b, a)] = f.get((b, a), 0) + 1
    return f


@dataclass
class D2KTargets:
    """Degree-correlation target: dds + joint degree/side matrix.

    jdam maps ordered cell pairs to edge counts and stores both
    orientations of every pair; f (non-chord counts) and cell_sizes are
    derived from dds.  Equality compares mode, n, dds as a multiset and the
    nonzero jdam entries.
    """

    mode: str
    n: int
    dds: list[tuple[int, int]]
    jdam: dict[tuple[CellKey, CellKey], int]
    f: dict[tuple[CellKey, CellKey], int] = field(default_factory=dict)
    cell_sizes: dict[CellKey, int] = field(default_factory=dict)

    @classmethod
    def from_dds_jdam(cls, mode: str, dds: list[tuple[int, int]],
                      jdam: dict[tuple[CellKey, CellKey], int]) -> "D2KTargets":
        """Normalize and validate structure (not graphicality).

        Accepts jdam entries in either or both orientations; symmetrizes,
        drops zeros, and recomputes the derived fields from dds.
        """
        dds = [(int(a), int(b)) for a, b in dds]
        for d_in, d_out in dds:
            if d_in < 0 or d_out < 0:
                raise TargetStructureError("negative degree in dds")
        sym: dict[tuple[CellKey, CellKey], int] = {}
        for (a, b), count in jdam.items():
            for c in (a, b):
                if isinstance(c.label, tuple) != (mode == MODE_PAIR):
                    raise TargetStructureError(
                        f"cell label {c.label!r} does not fit mode {mode!r}")
            if count == 0:
                continue
            if count < 0:
                raise TargetStructureError(f"negative jdam count at ({a},{b})")
            if a.degree() == 0 or b.degree() == 0:
                raise TargetStructureError(
                    f"zero-degree cell used as jdam key: ({a},{b})")
            known = sym.get((a, b))
            if known is not None and known != count:
                raise TargetStructureError(
                    f"asymmetric jdam: ({a},{b})={count} vs ({b},{a})={known}")
            sym[(a, b)] = count
            sym[(b, a)] = count
        t = cls(mode=mode, n=len(dds), dds=dds, jdam=sym)
        t.f = non_chord_counts(dds, mode)
        t.cell_sizes = _cell_sizes(dds, mode)
        return t

    @property
    def m(self) -> int:
        total = sum(self.jdam.values())
        if total % 2:
            raise TargetStructureError("jdam totals to an odd stub count")
        return total // 2

    @property
    def d_max(self) -> int:
        return max((max(p) for p in self.dds), default=0)

    def cells(self) -> list[CellKey]:
        """All nonzero-degree cells, in canonical order."""
        seen = set(self.cell_sizes)
        for a, b in self.jdam:
            seen.add(a)
            seen.add(b)
        return sorted(seen, key=CellKey.sort_key)

    def jdam_entries(self) -> list[tuple[CellKey, CellKey, int]]:
        """Nonzero entries, one per unordered pair, canonically ordered."""
        rows = []
        for (a, b), count in self.jdam.items():
            if a.sort_key() <= b.sort_key():
                rows.append((a, b, count))
        rows.sort(key=lambda r: (r[0].sort_key(), r[1].sort_key()))
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, D2KTargets):
            return NotImplemented
        return (self.mode == other.mode and self.n == other.n
                and sorted(self.dds) == sorted(other.dds)
                and self.jdam == other.jdam)


def _cell_sizes(dds: list[tuple[int, int]], mode: str) -> dict[CellKey, int]:
    in_cells, out_cells = node_cells(dds, mode)
    sizes: dict[CellKey, int] = {}
    for cell in in_cells + out_cells:
        if cell is not None:
            sizes[cell] = sizes.get(cell, 0) + 1
    return sizes


@dataclass(frozen=True)
class UmanTargets:
    """Dyad-census target: counts of mutual, asymmetric, null dyads."""

    n: int
    mutual: int
    asymmetric: int
    null: int

    def total(self) -> int:
        return self.mutual + self.asymmetric + self.null


@dataclass(frozen=True)
class SizeTargets:
    """Node and edge counts only."""

    n: int
    m: int


@dataclass
class DdsTargets:
    """Directed degree sequence target."""

    n: int
    dds: list[tuple[int, int]]

    def __post_init__(self):
        if len(self.dds) != self.n:
            raise TargetStructureError("dds length does not match n")
        for d_in, d_out in self.dds:
            if d_in < 0 or d_out < 0:
                raise TargetStructureError("negative degree in dds")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DdsTargets):
            return NotImplemented
        return self.n == other.n and sorted(self.dds) == sorted(other.dds)


def extract_d2k(g: DirectedGraph, mode: str = MODE_DEGREE) -> D2KTargets:
    """Measure dds and the joint degree/side matrix of g.

    jdam(k, l) counts bipartite edges between cells k and l, i.e. directed
    edges between the corresponding node groups; zero-degree cells never
    appear as keys.
    """
    dds = g.degree_pairs()
    in_cells, out_cells = node_cells(dds, mode)
    jdam: dict[tuple[CellKey, CellKey], int] = {}
    for u, v in g.edges():
        a = out_cells[u]
        b = in_cells[v]
        jdam[(a, b)] = jdam.get((a, b), 0) + 1
        jdam[(b, a)] = jdam.get((b, a), 0) + 1
    return D2KTargets.from_dds_jdam(mode, dds, jdam)


def extract_uman(g: DirectedGraph) -> UmanTargets:
    """Dyad census in a single edge scan."""
    reciprocated = sum(1 for u, v in g.edges() if g.has_edge(v, u))
    mutual = reciprocated // 2
    asymmetric = g.m - reciprocated
    null = g.n * (g.n - 1) // 2 - mutual - asymmetric
    return UmanTargets(g.n, mutual, asymmetric, null)


def extract_size(g: DirectedGraph) -> SizeTargets:
    return SizeTargets(g.n, g.m)


def extract_dds(g: DirectedGraph) -> DdsTargets:
    return DdsTargets(g.n, g.degree_pairs())
