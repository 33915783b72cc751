"""Shared generators for exhaustive and randomized tests."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

import pytest

from schurpaths import (
    CircularConfiguration,
    LatticePath,
    Partition,
    PathFamily,
    SkewShape,
    Tableau,
    canonical_shape,
    enumerate_admissible_matchings,
    family_from_paths,
    random_tableau,
    tableau_to_paths,
)


def partitions_up_to(max_size: int, max_part: int | None = None) -> Iterator[Partition]:
    """Every partition with at most ``max_size`` boxes, smallest first."""

    def gen(n: int, cap: int) -> Iterator[list[int]]:
        if n == 0:
            yield []
            return
        for k in range(min(n, cap), 0, -1):
            for rest in gen(n - k, k):
                yield [k] + rest

    for n in range(max_size + 1):
        cap = max_part if max_part is not None else n
        yield from (Partition(p) for p in gen(n, max(cap, 0) if n else 0))


def subpartitions(outer: Partition) -> Iterator[Partition]:
    """Every partition contained in ``outer``."""

    def gen(i: int, prev: int) -> Iterator[list[int]]:
        if i == len(outer):
            yield []
            return
        for v in range(min(outer[i], prev), -1, -1):
            for rest in gen(i + 1, v):
                yield [v] + rest

    yield from (Partition(p) for p in gen(0, outer[0] if outer else 0))


def shapes_up_to(max_outer: int) -> Iterator[SkewShape]:
    for outer in partitions_up_to(max_outer):
        for inner in subpartitions(outer):
            yield SkewShape(outer, inner)


def exact_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Oracle for ``bareiss_determinant``: Gaussian elimination over the
    rationals, with the first nonzero entry of each column as its pivot."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    assert det.denominator == 1
    return int(det)


def first_appearance_flip_sets(
    config: CircularConfiguration, s: set[int]
) -> list[tuple[int, ...]]:
    """Oracle for ``admissible_flip_sets``: walk every admissible matching,
    take the union of its pairs meeting ``s``, keep each set the first time."""
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for matching in enumerate_admissible_matchings(config):
        flips = tuple(sorted(i for pair in matching.pairs if s & set(pair) for i in pair))
        if flips not in seen:
            seen.add(flips)
            out.append(flips)
    return out


def drawn_family_from_paths(paths: list[LatticePath], alphabet: int) -> PathFamily:
    """Oracle for ``family_from_paths``: the same checks in the same order,
    but two paths meet when drawing them puts one lattice point in both."""
    ordered = sorted(paths, key=lambda p: p.start[0], reverse=True)
    for p in ordered:
        levels = (1, *p.heights, alphabet)
        if p.start[1] != 1 or p.top != alphabet or any(a > b for a, b in zip(levels, levels[1:])):
            raise ValueError(f"path from {p.start} does not run up from level 1 to level {alphabet}")
    ends = [p.end[0] for p in ordered]
    if any(a <= b for a, b in zip(ends, ends[1:])):
        raise ValueError("end points out of order for start point order")
    shape, shift = canonical_shape([p.start[0] for p in ordered], ends)
    seen: set[tuple[int, int]] = set()
    for p in ordered:
        points = p.points()
        if seen.intersection(points):
            raise ValueError("paths share a lattice point")
        seen.update(points)
    t = Tableau(shape, tuple(p.heights for p in ordered[: shape.rows]), alphabet)
    return PathFamily(t, shift, len(ordered))


class FamilySampler:
    """Seeded generator of random canonical path families at desk scale."""

    def __init__(self, seed: int, max_outer: int = 6) -> None:
        self.rng = random.Random(seed)
        self.max_outer = max_outer

    def partition(self) -> Partition:
        n = self.rng.randint(0, self.max_outer)
        parts: list[int] = []
        while n > 0:
            p = self.rng.randint(1, n)
            if parts and p > parts[-1]:
                p = parts[-1]
            parts.append(p)
            n -= p
        return Partition(parts)

    def shape(self) -> SkewShape:
        outer = self.partition()
        inner = []
        prev = None
        for o in outer:
            hi = min(o, prev) if prev is not None else o
            v = self.rng.randint(0, hi)
            inner.append(v)
            prev = v
        return SkewShape(outer, Partition(inner))

    def family(self, alphabet: int) -> PathFamily:
        while True:
            t = random_tableau(self.shape(), alphabet, self.rng)
            if t is None:
                continue
            fam = tableau_to_paths(t, self.rng.randint(-2, 2))
            return family_from_paths(fam.paths, alphabet)


@pytest.fixture
def sampler() -> FamilySampler:
    return FamilySampler(seed=20240)
