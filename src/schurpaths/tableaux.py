"""Semistandard skew Young tableaux: validation, enumeration, weights."""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import index
from typing import Iterator, Sequence

from .partitions import SkewShape


class CellViolation(ValueError):
    """Carries the offending cell as 0-indexed (row, diagram column)."""

    def __init__(self, cell: tuple[int, int], message: str) -> None:
        super().__init__(message)
        self.cell = cell


@dataclass(frozen=True)
class Tableau:
    """A filling of a skew shape with entries from ``1..alphabet``.

    ``rows[i]`` holds the entries of row ``i`` left to right; use
    :func:`validate_tableau` to construct from unchecked data.
    """

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]
    alphabet: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))


def validate_tableau(shape: SkewShape, rows: Sequence[Sequence[int]], alphabet: int) -> Tableau:
    """Check dimensions, entry range, row and column conditions.

    Violations are reported with the exact cell, rows must weakly increase
    left to right and columns strictly increase top to bottom.  Entries are
    converted by ``operator.index``, so a float, a string or a ``Fraction``
    is refused, not truncated or parsed.
    """
    if alphabet < 1:
        raise ValueError(f"alphabet must be positive: {alphabet}")
    rows = tuple(map(tuple, rows))
    if len(rows) != shape.rows:
        raise ValueError(f"expected {shape.rows} rows, got {len(rows)}")
    for i in range(shape.rows):
        lo, hi = shape.row_span(i)
        if len(rows[i]) != hi - lo:
            raise ValueError(f"row {i} expected {hi - lo} entries, got {len(rows[i])}")
    try:
        rows = tuple(tuple(map(index, r)) for r in rows)
    except TypeError:
        i, k = next(
            (i, k) for i, r in enumerate(rows) for k, v in enumerate(r)
            if not hasattr(type(v), "__index__")
        )
        cell = (i, shape.row_span(i)[0] + k)
        raise ValueError(f"entry {rows[i][k]!r} at {cell} is not an integer") from None
    for i in range(shape.rows):
        lo, hi = shape.row_span(i)
        for j in range(lo, hi):
            v = rows[i][j - lo]
            if not 1 <= v <= alphabet:
                raise CellViolation((i, j), f"entry {v} at ({i}, {j}) outside 1..{alphabet}")
            if j - 1 >= lo and v < rows[i][j - 1 - lo]:
                raise CellViolation((i, j), f"row {i} decreases at column {j}")
            if i > 0 and shape.has_cell(i - 1, j):
                above = rows[i - 1][j - shape.row_span(i - 1)[0]]
                if v <= above:
                    raise CellViolation((i, j), f"column {j} fails to increase at row {i}")
    return Tableau(shape, rows, alphabet)


def enumerate_ssyt(shape: SkewShape, alphabet: int) -> Iterator[Tableau]:
    """All semistandard fillings, in row-major lexicographic order.

    The empty shape yields exactly one empty tableau.  A shape with a column
    taller than ``alphabet`` yields nothing, without a search.
    """
    yield from _fill(shape, alphabet, lambda lo, hi: range(lo, hi + 1))


def weight(t: Tableau) -> tuple[int, ...]:
    """Exponent vector: position ``k`` counts the entries equal to ``k + 1``."""
    exps = [0] * t.alphabet
    for row in t.rows:
        for v in row:
            exps[v - 1] += 1
    return tuple(exps)


def _fill(shape: SkewShape, alphabet: int, candidates) -> Iterator[Tableau]:
    """Every filling, in row-major order of cells, each cell trying the values
    of ``candidates(lo, hi)`` in turn; the one search behind every filler.

    A column taller than ``alphabet`` is refused before any cell is filled.
    Past that, no partial filling is a dead end, so the first filling is one
    greedy pass.  ``hi`` is ``alphabet`` less the cells below, and ``lo <= hi``:

    - the left neighbour is at most its own ``hi``, which is at most this one,
      as the depth below falls weakly along a row;
    - the value above plus 1 is at most ``hi``;
    - ``hi >= 1``, as no column is too tall.
    """
    if alphabet < 1:
        raise ValueError(f"alphabet must be positive: {alphabet}")
    if shape.max_column_height > alphabet:
        return
    cells = list(shape.cells())
    acc: list[list[int]] = [[] for _ in range(shape.rows)]
    spans = [shape.row_span(i) for i in range(shape.rows)]
    # the cells below (i, j) are rows i + 1 .. #{parts of outer > j} - 1
    ascending = shape.outer[::-1]
    his = [alphabet - (len(ascending) - bisect_right(ascending, j) - 1 - i) for i, j in cells]

    def options(k: int) -> Iterator[int]:
        i, j = cells[k]
        left = acc[i][-1] if j > spans[i][0] else 1
        above = acc[i - 1][j - spans[i - 1][0]] + 1 if shape.has_cell(i - 1, j) else 1
        return iter(candidates(max(left, above), his[k]))

    if not cells:
        yield Tableau(shape, acc, alphabet)
        return
    # Depth-first with an explicit stack, so that long rows cannot exhaust the
    # interpreter's recursion limit.  stack[k] iterates the values of cell k;
    # while it is on top, acc holds the values of cells 0..k-1.
    stack = [options(0)]
    while stack:
        k = len(stack) - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if k:
                acc[cells[k - 1][0]].pop()
            continue
        row = acc[cells[k][0]]
        row.append(v)
        if k + 1 == len(cells):
            yield Tableau(shape, acc, alphabet)
            row.pop()
        else:
            stack.append(options(k + 1))


def first_tableau(shape: SkewShape, alphabet: int) -> Tableau | None:
    """The entrywise (and lexicographically) smallest filling, or None if
    none exists: the first of :func:`enumerate_ssyt`, found in one pass."""
    return next(enumerate_ssyt(shape, alphabet), None)


def last_tableau(shape: SkewShape, alphabet: int) -> Tableau | None:
    """The entrywise largest filling, or None if none exists, found in one
    pass with each entry as large as the cells below it allow."""
    return next(_fill(shape, alphabet, lambda lo, hi: range(hi, lo - 1, -1)), None)


def random_tableau(shape: SkewShape, alphabet: int, rng: random.Random) -> Tableau | None:
    """A filling drawn entry by entry from shuffled allowed values, or None if
    none exists; no draw is undone, as no cell is a dead end.  Not uniform
    over all fillings, but reaches every filling with positive probability."""

    def shuffled(lo: int, hi: int):
        vals = list(range(lo, hi + 1))
        rng.shuffle(vals)
        return vals

    return next(_fill(shape, alphabet, shuffled), None)
