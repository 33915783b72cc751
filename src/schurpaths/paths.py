"""The translation between tableaux and tuples of nonintersecting lattice paths.

Paths live in the directed lattice with arcs one step right or one step up.
Path ``i`` of a family for shape ``outer/inner`` at shift ``t`` runs from
``(inner_i - i + t, 1)`` to ``(outer_i - i + t, N)``; the height of its
``j``-th horizontal step is the ``j``-th entry of row ``i`` of the tableau.
Paths are counted from the right, so path 1 is the rightmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .partitions import PointSet, SkewShape, canonical_shape, to_points
from .tableaux import Tableau, validate_tableau

Point = tuple[int, int]
Arc = tuple[Point, Point]


@dataclass(frozen=True)
class LatticePath:
    start: Point
    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", (int(self.start[0]), int(self.start[1])))
        object.__setattr__(self, "steps", tuple(self.steps))
        if any(s not in ("R", "U") for s in self.steps):
            raise ValueError(f"steps must be 'R' or 'U': {self.steps}")

    @property
    def end(self) -> Point:
        x, y = self.start
        return (x + self.steps.count("R"), y + self.steps.count("U"))

    def points(self) -> list[Point]:
        x, y = self.start
        pts = [(x, y)]
        for s in self.steps:
            x, y = (x + 1, y) if s == "R" else (x, y + 1)
            pts.append((x, y))
        return pts

    def arcs(self) -> list[Arc]:
        pts = self.points()
        return list(zip(pts, pts[1:]))

    def horizontal_heights(self) -> list[int]:
        """Heights of the horizontal steps, in traversal order."""
        y = self.start[1]
        heights = []
        for s in self.steps:
            if s == "R":
                heights.append(y)
            else:
                y += 1
        return heights


def is_nonintersecting(paths: Sequence[LatticePath]) -> bool:
    """True iff no lattice point occurs in two distinct paths."""
    seen: set[Point] = set()
    for p in paths:
        pts = p.points()
        if seen.intersection(pts):
            return False
        seen.update(pts)
    return True


@dataclass(frozen=True)
class PathFamily:
    """A nonintersecting tuple of paths for a skew shape at a fixed shift.

    There may be more paths than positive parts of the outer partition; the
    surplus paths belong to empty rows and are all-vertical.
    """

    paths: tuple[LatticePath, ...]
    shape: SkewShape
    shift: int
    alphabet: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        n = self.alphabet
        if n < 1:
            raise ValueError(f"alphabet must be positive: {n}")
        if len(self.paths) < self.shape.rows:
            raise ValueError(
                f"need at least {self.shape.rows} paths, got {len(self.paths)}"
            )
        for i, path in enumerate(self.paths, start=1):
            want_start = (self.shape.inner.part(i) - i + self.shift, 1)
            want_end = (self.shape.outer.part(i) - i + self.shift, n)
            if path.start != want_start or path.end != want_end:
                raise ValueError(
                    f"path {i} runs {path.start}->{path.end}, expected {want_start}->{want_end}"
                )
        if not is_nonintersecting(self.paths):
            raise ValueError("paths share a lattice point")

    @property
    def rows(self) -> int:
        return len(self.paths)

    def weight(self) -> tuple[int, ...]:
        """Exponent vector counting horizontal steps at each height."""
        exps = [0] * self.alphabet
        for p in self.paths:
            for h in p.horizontal_heights():
                exps[h - 1] += 1
        return tuple(exps)

    def arcs(self) -> set[Arc]:
        out: set[Arc] = set()
        for p in self.paths:
            out.update(p.arcs())
        return out

    def start_xs(self) -> tuple[int, ...]:
        return tuple(p.start[0] for p in self.paths)

    def end_xs(self) -> tuple[int, ...]:
        return tuple(p.end[0] for p in self.paths)

    def to_json(self) -> dict:
        out = {
            "shape": self.shape.to_json(),
            "shift": self.shift,
            "N": self.alphabet,
            "tableau": [list(r) for r in paths_to_tableau(self).rows],
        }
        if self.rows != self.shape.rows:
            out["rows"] = self.rows
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PathFamily":
        shape = SkewShape.from_json(obj["shape"])
        t = validate_tableau(shape, obj["tableau"], obj["N"])
        return tableau_to_paths(t, obj["shift"], rows=obj.get("rows"))


def tableau_to_paths(t: Tableau, shift: int = 0, rows: int | None = None) -> PathFamily:
    """Encode each tableau row as a path; weight preserving by construction.

    ``rows`` beyond the shape's rows add all-vertical paths for empty rows.
    """
    if rows is None:
        rows = t.shape.rows
    if rows < t.shape.rows:
        raise ValueError(f"rows {rows} below the shape's {t.shape.rows}")
    paths = []
    for i in range(1, rows + 1):
        x = t.shape.inner.part(i) - i + shift
        y = 1
        steps: list[str] = []
        for h in t.rows[i - 1] if i <= t.shape.rows else ():
            steps.extend("U" * (h - y))
            steps.append("R")
            y = h
        steps.extend("U" * (t.alphabet - y))
        paths.append(LatticePath((x, 1), tuple(steps)))
    return PathFamily(tuple(paths), t.shape, shift, t.alphabet)


def paths_to_tableau(pf: PathFamily) -> Tableau:
    """Read entries off the horizontal step heights; inverse of the above."""
    rows = tuple(tuple(p.horizontal_heights()) for p in pf.paths[: pf.shape.rows])
    return validate_tableau(pf.shape, rows, pf.alphabet)


def family_from_paths(paths: Iterable[LatticePath], alphabet: int) -> PathFamily:
    """Build a family from bare paths, deriving the shape and shift.

    The shift is chosen maximal subject to all parts being nonnegative, which
    makes the smallest decoded part zero.  Raises ValueError when the
    endpoints fit no skew shape.
    """
    ordered = sorted(paths, key=lambda p: p.start[0], reverse=True)
    starts = [p.start[0] for p in ordered]
    ends = [p.end[0] for p in ordered]
    if any(a <= b for a, b in zip(ends, ends[1:])):
        raise ValueError("end points out of order for start point order")
    shape, shift = canonical_shape(starts, ends)
    return PathFamily(tuple(ordered), shape, shift, alphabet)


def endpoints(shape: SkewShape, rows: int, shift: int) -> tuple[PointSet, PointSet]:
    """Start points (bottom level) and end points (top level) of a family."""
    return to_points(shape.inner, rows, shift), to_points(shape.outer, rows, shift)
