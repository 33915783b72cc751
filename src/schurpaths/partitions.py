"""Partitions, skew shapes, and the boundary point model.

A partition with at most ``rows`` parts and an integer ``shift`` is encoded
by the strictly decreasing point set ``{part(i) - i + shift : 1 <= i <= rows}``
(parts padded with zeros).  Every border strip operation in this module is
one edit of the tuple of boundary points, removing one point and perhaps
inserting another, reread as a partition by ``_reread``; the familiar
row-wise descriptions are consequences and are checked as properties in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, le, lt
from typing import Iterable, Iterator, Sequence


def integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, converted by ``operator.index``: a
    float, a string or a ``Fraction`` is refused with a ValueError naming it,
    not truncated or parsed."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise ValueError(f"{what} must be integers: {bad!r}") from None


def _points(values: Iterable) -> tuple[int, ...]:
    """``values`` as a tuple of ints, refused unless they strictly decrease."""
    xs = integers(values, "points")
    if any(map(le, xs, xs[1:])):
        a, b = next((a, b) for a, b in zip(xs, xs[1:]) if a <= b)
        raise ValueError(f"point set must strictly decrease: {a} then {b}")
    return xs


class Partition(tuple):
    """A weakly decreasing sequence of positive integers.

    Trailing zeros are accepted on input and dropped, so ``len`` is always
    the number of positive parts.  A ``Partition`` is returned as it is, since
    it was checked when it was made.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is Partition:
            return parts
        data = integers(parts, "parts")
        if any(map(lt, data, data[1:])):
            a, b = next((a, b) for a, b in zip(data, data[1:]) if a < b)
            raise ValueError(f"parts must weakly decrease: {a} before {b}")
        if data and data[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {data[-1]}")
        if data and data[-1] == 0:
            # the parts weakly decrease and are nonnegative: the zeros trail
            data = data[: data.index(0)]
        return super().__new__(cls, data)

    def part(self, i: int) -> int:
        """The ``i``-th part, 1-indexed, zero past the last stored part."""
        if i < 1:
            raise ValueError(f"row index must be positive: {i}")
        return self[i - 1] if i <= len(self) else 0

    @property
    def size(self) -> int:
        return sum(self)

    def contains(self, other: "Partition") -> bool:
        """Containment of Ferrers diagrams, row by row."""
        return len(other) <= len(self) and all(map(le, other, self))


@dataclass(frozen=True)
class PointSet:
    """Strictly decreasing integers encoding a partition at a fixed shift."""

    values: tuple[int, ...]
    shift: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _points(self.values))

    @property
    def rows(self) -> int:
        return len(self.values)

    def partition(self) -> Partition:
        """Reread the point set as a partition; inverse of :func:`to_points`."""
        parts = []
        for i, v in enumerate(self.values, start=1):
            part = v + i - self.shift
            if part < 0:
                raise ValueError(f"row {i} would have length {part}")
            parts.append(part)
        return Partition(parts)


def to_points(p: Partition, rows: int, shift: int = 0) -> PointSet:
    """Boundary points ``part(i) - i + shift`` for ``i = 1..rows``."""
    p = Partition(p)
    if rows < len(p):
        raise ValueError(f"need at least {len(p)} rows, got {rows}")
    return PointSet(tuple(p.part(i) - i + shift for i in range(1, rows + 1)), shift)


@dataclass(frozen=True)
class SkewShape:
    """A pair of nested partitions, the cells of ``outer`` not in ``inner``."""

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", Partition(self.outer))
        object.__setattr__(self, "inner", Partition(self.inner))
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner {self.inner} does not fit inside outer {self.outer}")

    @property
    def rows(self) -> int:
        return len(self.outer)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_span(self, i: int) -> tuple[int, int]:
        """Half-open diagram column range of row ``i`` (0-indexed row)."""
        return self.inner.part(i + 1), self.outer.part(i + 1)

    def has_cell(self, i: int, j: int) -> bool:
        if not 0 <= i < self.rows:
            return False
        lo, hi = self.row_span(i)
        return lo <= j < hi

    def cells(self) -> Iterator[tuple[int, int]]:
        for i in range(self.rows):
            lo, hi = self.row_span(i)
            for j in range(lo, hi):
                yield (i, j)

    @property
    def max_column_height(self) -> int:
        """The tallest column, in one pass over the rows, without visiting the cells.

        Column j holds the rows i with inner_i <= j < outer_i, and it is
        tallest at the first column of some row.  With p_i the number of
        rows whose outer part exceeds inner_i (inner_i = 0 past inner's last
        part), p_i - i is at most the height of column inner_i, and equal to
        it when row i is the first with that inner part; so the result is
        max(0, max_i(p_i - i)), and past inner's last part row len(inner)
        gives the largest term.  As inner decreases p_i never falls, so one
        pointer serves every row: a part of 2**40 costs no more than a part
        of 4.
        """
        outer, inner = self.outer, self.inner
        rows, best, p = len(outer), len(outer) - len(inner), 0
        for i, lo in enumerate(inner):
            while p < rows and outer[p] > lo:
                p += 1
            best = max(best, p - i)
        return best

    def to_json(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner)}

    @classmethod
    def from_json(cls, obj: dict) -> "SkewShape":
        return cls(Partition(obj["outer"]), Partition(obj.get("inner", ())))


def canonical_shape(starts: Sequence[int], ends: Sequence[int]) -> tuple[SkewShape, int]:
    """Decode strictly decreasing start and end points as a shape and shift.

    The shift is the largest one for which both decoded partitions are
    nonnegative, which makes the smallest decoded part zero; with no points
    it is 0 and the shape is empty.  Each side's points are read into parts
    in one pass, refused with :class:`PointSet`'s messages, ends first.
    """
    # the points strictly decrease, so x_i + i weakly decreases in i: the
    # least is at the last point, and no part is negative
    shift = min((points[-1] + len(points) for points in (starts, ends) if points), default=0)
    outer = Partition([x + i - shift for i, x in enumerate(_points(ends), 1)])
    inner = Partition([x + i - shift for i, x in enumerate(_points(starts), 1)])
    return SkewShape(outer, inner), shift


@dataclass(frozen=True)
class StripSpec:
    """A partial border strip: ``boxes`` added in ``row``, spanning ``span`` rows.

    Bounds are context dependent and checked by :func:`add_strip` and
    :func:`build_nu`, not here.
    """

    boxes: int
    row: int
    span: int


def _reread(points: Iterable[int]) -> Partition:
    """The partition of the shift-0 points ``points``, taken in any order.

    A point given twice is refused by the strict decrease of ``PointSet``.
    """
    return PointSet(tuple(sorted(points, reverse=True))).partition()


def peel_complete(p: Partition) -> Partition:
    """Remove the full border strip, dropping the largest boundary point."""
    p = Partition(p)
    if not p:
        raise ValueError("cannot peel the empty partition")
    return _reread(to_points(p, len(p)).values[1:])


def peel_down(p: Partition, i: int) -> Partition:
    """Remove the partial border strip running from row ``i`` downwards.

    Drops the boundary point of row ``i``; rows above ``i`` are untouched.
    """
    p = Partition(p)
    if not 1 <= i <= len(p):
        raise ValueError(f"row {i} outside 1..{len(p)}")
    pts = to_points(p, len(p)).values
    return _reread(pts[: i - 1] + pts[i:])


def peel_up(p: Partition, i: int, t: int) -> Partition:
    """Remove the partial border strip from row ``i`` up to row 1.

    The strip starts at the ``t``-th of the ``part(i) - part(i+1)`` possible
    boxes of row ``i``, numbered from the left.  On boundary points: the
    largest point goes, ``part(i+1) - (i+1) + t`` comes in.
    """
    p = Partition(p)
    if i < 1:
        raise ValueError(f"row index must be positive: {i}")
    if not 1 <= t <= p.part(i) - p.part(i + 1):
        raise ValueError(
            f"box {t} outside 1..{p.part(i) - p.part(i + 1)} for row {i}"
        )
    # the new point lies strictly between the points of rows i + 1 and i
    return _reread(to_points(p, len(p)).values[1:] + (p.part(i + 1) - (i + 1) + t,))


def add_strip(p: Partition, s: StripSpec) -> Partition:
    """Add a partial border strip of ``s.boxes`` boxes in row ``s.row``.

    The strip spans rows ``s.row .. s.row + s.span - 1``.  On boundary
    points: ``part(row) - row + boxes`` comes in and the point of the last
    spanned row goes.
    """
    p = Partition(p)
    r, m, t = s.row, s.span, s.boxes
    if r < 2 or m < 1 or t < 1:
        raise ValueError(f"need row >= 2, span >= 1, boxes >= 1: got {s}")
    if r + m - 1 > len(p):
        raise ValueError(f"strip spans rows {r}..{r + m - 1}, partition has {len(p)}")
    if t > p.part(r - 1) - p.part(r):
        raise ValueError(
            f"boxes {t} exceeds {p.part(r - 1)} - {p.part(r)} available in row {r}"
        )
    pts = to_points(p, len(p)).values
    # the new point lies strictly between the points of rows r and r - 1
    return _reread(pts[: r + m - 2] + pts[r + m - 1 :] + (p.part(r) - r + t,))


def build_nu(p: Partition, strips: Sequence[StripSpec]) -> Partition:
    """Apply a sequence of strips after checking the construction constraints.

    Rows must satisfy ``2 <= r_1 < ... < r_k <= len(p)`` with
    ``part(r_i - 1) > part(r_i)``, boxes ``1 <= t_i <= part(r_i-1) - part(r_i)``
    and spans ``1 <= m_i <= r_{i+1} - r_i``, where ``r_{k+1}`` is read as
    ``len(p) + 1``.  All bounds refer to the original partition.
    """
    p = Partition(p)
    strips = list(strips)
    for idx, s in enumerate(strips, start=1):
        if s.row < 2 or s.row > len(p):
            raise ValueError(f"strip {idx}: row {s.row} outside 2..{len(p)}")
        gap = p.part(s.row - 1) - p.part(s.row)
        if gap <= 0:
            raise ValueError(f"strip {idx}: row {s.row} is not shorter than row {s.row - 1}")
        if not 1 <= s.boxes <= gap:
            raise ValueError(f"strip {idx}: boxes {s.boxes} outside 1..{gap}")
        nxt = strips[idx].row if idx < len(strips) else len(p) + 1
        if nxt <= s.row:
            raise ValueError(f"strip {idx + 1}: rows must strictly increase")
        if not 1 <= s.span <= nxt - s.row:
            raise ValueError(f"strip {idx}: span {s.span} outside 1..{nxt - s.row}")
    out = p
    for s in strips:
        out = add_strip(out, s)
    return out
