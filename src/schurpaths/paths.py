"""The translation between tableaux and tuples of nonintersecting lattice paths.

Paths live in the directed lattice with arcs one step right or one step up.
A family stores its tableau, its shift and its number of rows; the paths are
drawn from the tableau's rows.  Path ``i`` of a family for shape
``outer/inner`` at shift ``t`` runs from ``(inner_i - i + t, 1)`` to
``(outer_i - i + t, N)``, and its ``heights``, the levels of its horizontal
steps in order, are row ``i`` of the tableau.  Paths are counted from the
right, so path 1 is the rightmost.  The x-coordinates of the start and end
points are the boundary points of ``inner`` and ``outer`` at shift ``t``
(``partitions.to_points``), each a strictly decreasing tuple of ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .partitions import SkewShape, canonical_shape, to_points
from .tableaux import CellViolation, Tableau, validate_tableau, weight

Point = tuple[int, int]
Arc = tuple[Point, Point]


@dataclass(frozen=True)
class LatticePath:
    """The path from ``start`` up to level ``top`` whose horizontal steps lie
    at the weakly increasing levels ``heights``."""

    start: Point
    heights: tuple[int, ...]
    top: int

    @property
    def end(self) -> Point:
        return (self.start[0] + len(self.heights), self.top)

    def points(self) -> list[Point]:
        x, y = self.start
        pts = [(x, y)]
        for h in self.heights:
            while y < h:
                y += 1
                pts.append((x, y))
            x += 1
            pts.append((x, y))
        while y < self.top:
            y += 1
            pts.append((x, y))
        return pts

    def arcs(self) -> list[Arc]:
        pts = self.points()
        return list(zip(pts, pts[1:]))


@dataclass(frozen=True)
class PathFamily:
    """The nonintersecting paths of a tableau at a fixed shift.

    ``rows`` may exceed the shape's rows; the surplus paths belong to empty
    rows and are all-vertical.
    """

    tableau: Tableau
    shift: int
    rows: int

    def __post_init__(self) -> None:
        if self.tableau.alphabet < 1:
            raise ValueError(f"alphabet must be positive: {self.tableau.alphabet}")
        if self.rows < self.tableau.shape.rows:
            raise ValueError(f"rows {self.rows} below the shape's {self.tableau.shape.rows}")

    @property
    def shape(self) -> SkewShape:
        return self.tableau.shape

    @property
    def alphabet(self) -> int:
        return self.tableau.alphabet

    @cached_property
    def paths(self) -> tuple[LatticePath, ...]:
        xs = self.start_xs()
        rows = self.tableau.rows + ((),) * (len(xs) - self.shape.rows)
        n = self.alphabet
        return tuple(LatticePath((x, 1), r, n) for x, r in zip(xs, rows))

    def weight(self) -> tuple[int, ...]:
        return weight(self.tableau)

    def arcs(self) -> set[Arc]:
        out: set[Arc] = set()
        for p in self.paths:
            out.update(p.arcs())
        return out

    def start_xs(self) -> tuple[int, ...]:
        return to_points(self.shape.inner, self.rows, self.shift)

    def end_xs(self) -> tuple[int, ...]:
        return to_points(self.shape.outer, self.rows, self.shift)

    def to_json(self) -> dict:
        out = {
            "shape": self.shape.to_json(),
            "shift": self.shift,
            "N": self.alphabet,
            "tableau": [list(r) for r in self.tableau.rows],
        }
        if self.rows != self.shape.rows:
            out["rows"] = self.rows
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PathFamily":
        """The family of ``to_json``.  Each field must have its JSON type, and
        every number must be a JSON integer.  The constructors refuse a float
        or a string in the shape and the tableau too, but these checks name
        the field, refuse a bool (which ``operator.index`` takes as 0 or 1),
        and cover ``N``, ``shift`` and ``rows``, which nothing converts."""
        if type(obj) is not dict:
            raise ValueError("not a JSON object")
        n, shift = _field(obj, "N", int), _field(obj, "shift", int)
        rows = _typed(obj["rows"], int, "rows") if "rows" in obj else None
        raw = _field(obj, "shape", dict)
        outer = _field(raw, "outer", list, "shape.outer")
        inner = _typed(raw["inner"], list, "shape.inner") if "inner" in raw else []
        for key, parts in (("outer", outer), ("inner", inner)):
            for j, v in enumerate(parts):
                _typed(v, int, f"shape.{key}[{j}]")
        tableau = _field(obj, "tableau", list)
        for i, row in enumerate(tableau):
            for j, v in enumerate(_typed(row, list, f"tableau[{i}]")):
                _typed(v, int, f"tableau[{i}][{j}]")
        t = validate_tableau(SkewShape.from_json(raw), tableau, n)
        return tableau_to_paths(t, shift, rows=rows)


_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, name: str | None = None):
    """``obj[key]``, refused when missing, checked by ``_typed``."""
    name = name or key
    if key not in obj:
        raise ValueError(f"missing field {name!r}")
    return _typed(obj[key], kind, name)


def _typed(value, kind: type, name: str):
    """``value``, refused unless its type is exactly ``kind``: a bool is not an
    int, and a float or a string is not a number."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_KINDS[kind]}: {json.dumps(value)}")
    return value


def tableau_to_paths(t: Tableau, shift: int = 0, rows: int | None = None) -> PathFamily:
    """The family of ``t`` at ``shift``; weight preserving by construction.

    ``rows`` beyond the shape's rows add all-vertical paths for empty rows.
    """
    return PathFamily(t, shift, t.shape.rows if rows is None else rows)


def paths_to_tableau(pf: PathFamily) -> Tableau:
    """Read the entries off the levels of the drawn horizontal arcs; inverse of the above."""
    rows = [
        [tail[1] for tail, head in p.arcs() if tail[1] == head[1]]
        for p in pf.paths[: pf.shape.rows]
    ]
    return validate_tableau(pf.shape, rows, pf.alphabet)


def family_from_paths(paths: Iterable[LatticePath], alphabet: int) -> PathFamily:
    """Build a family from bare paths, deriving the shape and shift.

    The shift is chosen maximal subject to all parts being nonnegative, which
    makes the smallest decoded part zero.  Raises ValueError when a path does
    not run up from level 1 to level ``alphabet``, when the endpoints fit no
    skew shape, or when two paths meet.  Paths with these endpoints meet
    exactly when their rows break the column rule of a semistandard tableau,
    so nothing is drawn.
    """
    ordered = sorted(paths, key=lambda p: p.start[0], reverse=True)
    for p in ordered:
        levels = (1, *p.heights, alphabet)
        if p.start[1] != 1 or p.top != alphabet or any(a > b for a, b in zip(levels, levels[1:])):
            raise ValueError(f"path from {p.start} does not run up from level 1 to level {alphabet}")
    starts = [p.start[0] for p in ordered]
    ends = [p.end[0] for p in ordered]
    if any(a <= b for a, b in zip(ends, ends[1:])):
        raise ValueError("end points out of order for start point order")
    shape, shift = canonical_shape(starts, ends)
    try:
        t = validate_tableau(shape, [p.heights for p in ordered[: shape.rows]], alphabet)
    except CellViolation:
        raise ValueError("paths share a lattice point") from None
    return PathFamily(t, shift, len(ordered))


def endpoints(shape: SkewShape, rows: int, shift: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The x-coordinates of a family's start points (bottom level) and end
    points (top level), each a strictly decreasing tuple."""
    ends = to_points(shape.outer, rows, shift)  # too few rows: name outer's row count
    return to_points(shape.inner, rows, shift), ends
