"""Graphicality test for degree-correlation targets.

A target is realizable by a simple digraph exactly when three conditions
hold on the bipartite side:

  I    the joint matrix is bipartite: no count between two same-side cells;
  II   for every pair with a positive count, count plus non-chords fits in
       the complete bipartite product of the two cells;
  III  row sums are consistent with the degree sequence: the edges incident
       to a cell, divided by its degree, must be an integer equal to the
       number of nodes the dds puts in that cell.

The check runs in time linear in the number of nonzero entries plus cells
and reports every violation, not just the first.  All arithmetic is exact
integer arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .targets import CellKey, D2KTargets, cell_to_json


@dataclass(frozen=True)
class Violation:
    condition: str                      # "I", "II" or "III"
    cells: tuple[CellKey, ...]
    message: str

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "cells": [cell_to_json(c) for c in self.cells],
            "message": self.message,
        }


@dataclass
class RealizabilityReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def realizable(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if self.realizable:
            return "realizable"
        lines = [f"not realizable ({len(self.violations)} violation(s)):"]
        lines += [f"  [{v.condition}] {v.message}" for v in self.violations]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "realizable": self.realizable,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def check(t: D2KTargets) -> RealizabilityReport:
    """Decide whether t admits a simple directed realization.

    t's structure was validated by its constructor, so this decides
    conditions I-III only, in one pass over t's jdam (one entry per
    unordered pair); every violation is collected in the report, those of
    I first, then II, then III.
    """
    same_side: list[Violation] = []     # I: no same-side counts
    overfull: list[Violation] = []      # II: edges + non-chords fit
    row_sum: dict[CellKey, int] = {}    # III: edges incident to a cell
    for (a, b), count in t.jdam.items():
        row_sum[a] = row_sum.get(a, 0) + count
        if b != a:
            row_sum[b] = row_sum.get(b, 0) + count
        if a.side == b.side:
            same_side.append(Violation(
                "I", (a, b),
                f"same-side cells {a} and {b} carry {count} edges"))
            continue
        size_a = t.cell_sizes.get(a, 0)
        size_b = t.cell_sizes.get(b, 0)
        forbidden = t.f.get((a, b), 0)
        if count + forbidden > size_a * size_b:
            overfull.append(Violation(
                "II", (a, b),
                f"{count} edges + {forbidden} non-chords exceed "
                f"|{a}| * |{b}| = {size_a} * {size_b}"))

    violations = same_side + overfull
    # III: row sums against the dds, exact integer arithmetic.
    for cell in t.cells():
        degree = cell.degree()
        total = row_sum.get(cell, 0)
        expected = t.cell_sizes.get(cell, 0)
        if total % degree != 0:
            violations.append(Violation(
                "III", (cell,),
                f"edges incident to {cell} total {total}, not divisible by "
                f"degree {degree}"))
        elif total // degree != expected:
            violations.append(Violation(
                "III", (cell,),
                f"jdam implies {total // degree} nodes in {cell}, dds has "
                f"{expected}"))
    return RealizabilityReport(violations)
