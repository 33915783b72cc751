"""Shared generators for exhaustive and randomized tests."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

import pytest

from schurpaths import (
    BicolouredPath,
    CircularConfiguration,
    Colour,
    Identity,
    LatticePath,
    Overlay,
    Partition,
    PathFamily,
    Polynomial,
    ProductTerm,
    SkewShape,
    StripSpec,
    Tableau,
    border_strip_identity,
    build_nu,
    estimate_expansion_size,
    canonical_shape,
    dominant_terms,
    enumerate_admissible_matchings,
    family_from_paths,
    peel_complete,
    peel_down,
    peel_up,
    random_tableau,
    skew_schur,
    tableau_to_paths,
    to_points,
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


def recoloured_configuration(config: CircularConfiguration, flips) -> CircularConfiguration:
    """Oracle for ``CircularConfiguration.shapes(flips)``: the configuration
    with the points at indices ``flips`` recoloured, built afresh by
    ``from_point_sets`` from each colour's recoloured start and end xs."""
    flips = set(flips)
    xs = {
        (colour, top): set(config.doubled_top if top else config.doubled_bottom)
        for colour in Colour
        for top in (False, True)
    }
    for p in config.points:
        xs[p.colour.other if p.index in flips else p.colour, p.top].add(p.x)
    white, black = Colour.WHITE, Colour.BLACK
    return CircularConfiguration.from_point_sets(
        xs[white, False], xs[white, True], xs[black, False], xs[black, True]
    )


def alternating_configuration(rng: random.Random, k: int) -> CircularConfiguration:
    """A random configuration with k coloured points on each level, alternating
    around the circle, plus up to two doubled points per level.

    Colours alternate along each level and agree at both ends of the two
    levels, which makes the orientations alternate; draws in which some row
    would be negative are retried.
    """
    while True:
        d = rng.randint(0, 2)
        span = 2 * (k + d) + 2
        top = sorted(rng.sample(range(span // 2, span // 2 + span), k + d), reverse=True)
        bottom = sorted(rng.sample(range(span), k + d))
        top_dbl, bot_dbl = set(rng.sample(top, d)), set(rng.sample(bottom, d))
        first = rng.choice(list(Colour))
        top_colours = [first if i % 2 == 0 else first.other for i in range(k)]
        last = top_colours[-1]
        bottom_colours = [last if i % 2 == 0 else last.other for i in range(k)]
        ends = {c: set(top_dbl) for c in Colour}
        starts = {c: set(bot_dbl) for c in Colour}
        for x, c in zip([x for x in top if x not in top_dbl], top_colours):
            ends[c].add(x)
        for x, c in zip([x for x in bottom if x not in bot_dbl], bottom_colours):
            starts[c].add(x)
        config = CircularConfiguration.from_point_sets(
            starts[Colour.WHITE], ends[Colour.WHITE], starts[Colour.BLACK], ends[Colour.BLACK]
        )
        if config.shapes() is not None:
            assert config.alternating and len(config.points) == 2 * k
            return config


def peel_expansion(
    lam: Partition, mu: Partition, strips: Sequence[StripSpec]
) -> list[ProductTerm]:
    """Oracle for the right side of ``border_strip_identity``: the
    Gurevich-Pyatov-Saponov expansion, built by peels.

    With nu the strip extension of ``lam`` and n = len(lam), the complete-peel
    term s_{peel(lam)/mu} * s_{nu/mu} comes first, its families on n - 1 and n
    rows, then one term per strip, s_{peel_up(lam, r_i - 1, t_i)/mu} *
    s_{peel_down(nu, r_i)/mu}, on n and n - 1 rows.  Each shape is read as a
    diagram, in the canonical shift of its family's point sets, as the
    recolouring decoder reads it.  A peeled shape that does not contain mu
    raises ``ValueError``.
    """
    n = len(lam)
    nu = build_nu(lam, strips)
    pairs = [(peel_complete(lam), n - 1, nu, n)]
    pairs += [(peel_up(lam, s.row - 1, s.boxes), n, peel_down(nu, s.row), n - 1) for s in strips]

    def diagram(outer: Partition, rows: int) -> SkewShape:
        SkewShape(outer, mu)  # refuses an outer shape that does not contain mu
        return canonical_shape(to_points(mu, rows).values, to_points(outer, rows).values)[0]

    return [ProductTerm(diagram(w, rw), diagram(b, rb)) for w, rw, b, rb in pairs]


def reference_trace(ov: Overlay, x: int, level: int) -> BicolouredPath:
    """Oracle for ``trace_bicoloured``: the walk with a colour and a
    direction as its state, which reads the overlay's per-colour maps afresh
    at every step.

    From a start point walk forward along its own family, from an end point
    backward; on arriving at a lattice point of the other family, switch to
    it and reverse; stop before a missing or a doubled arc, which is one that
    both drawn families hold.
    """

    def on_family(colour, point) -> bool:
        return point in ov._out[colour] or point in ov._in[colour]

    cp = ov.coloured_point(x, level)
    colour = cp.colour
    direction = 1 if not cp.top else -1
    v = (cp.x, ov.top if cp.top else 1)
    if on_family(colour.other, v):
        colour, direction = colour.other, -direction
    white, black = ov.white.arcs(), ov.black.arcs()
    doubled, coloured_arcs = white & black, len(white ^ black)
    arcs = []
    while True:
        arc = (ov._out if direction > 0 else ov._in)[colour].get(v)
        if arc is None or arc in doubled:
            break
        arcs.append((arc, colour))
        assert len(arcs) <= coloured_arcs, "the walk repeats an arc"
        v = arc[1] if direction > 0 else arc[0]
        if on_family(colour.other, v):
            colour, direction = colour.other, -direction
    return BicolouredPath(cp, ov.coloured_point(*v), tuple(arcs))


def random_overlays(seed: int, count: int) -> Iterator[Overlay]:
    """Seeded overlays of two ``random_tableau`` families in canonical shift.

    The overlays run through 6..14 rows at N = 8..16, on the grid (6, 8),
    (8, 10), ..., (14, 16); each family fills a skew shape with parts of at
    most 12, placed at a shift of -2..2 before it is made canonical.
    """
    rng = random.Random(seed)
    grid = ((6, 8), (8, 10), (10, 12), (12, 14), (14, 16))

    def family(rows: int, alphabet: int) -> PathFamily:
        while True:
            outer = sorted((rng.randint(1, 12) for _ in range(rows)), reverse=True)
            inner = []
            for o in outer:
                inner.append(rng.randint(0, min(o, inner[-1]) if inner else o))
            t = random_tableau(SkewShape(Partition(outer), Partition(inner)), alphabet, rng)
            if t is not None:
                fam = tableau_to_paths(t, rng.randint(-2, 2))
                return family_from_paths(fam.paths, alphabet)

    for i in range(count):
        rows, alphabet = grid[i % len(grid)]
        yield Overlay(family(rows, alphabet), family(rows, alphabet))


def strip_instances(seed: int, count: int) -> Iterator[tuple[Partition, Partition, list[StripSpec]]]:
    """Seeded strip identities ``(lam, mu, strips)`` with mu nonempty.

    lam has 2..5 parts of at most 7; the strips satisfy ``build_nu``'s
    constraints; mu fits inside lam and the complete peel of the strip
    extension, so the left side exists, but not always inside every peeled
    shape of the right side.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        lam = Partition(sorted((rng.randint(1, 7) for _ in range(rng.randint(2, 5))), reverse=True))
        rows = [r for r in range(2, len(lam) + 1) if lam.part(r - 1) > lam.part(r)]
        if not rows:
            continue
        chosen = sorted(rng.sample(rows, rng.randint(1, min(3, len(rows)))))
        nexts = chosen[1:] + [len(lam) + 1]
        strips = [
            StripSpec(rng.randint(1, lam.part(r - 1) - lam.part(r)), r, rng.randint(1, nxt - r))
            for r, nxt in zip(chosen, nexts)
        ]
        sigma = peel_complete(build_nu(lam, strips))
        mu = []
        for i in range(1, len(sigma) + 1):
            cap = min(lam.part(i), sigma.part(i), mu[-1] if mu else sigma.part(i))
            mu.append(rng.randint(0, cap))
        if Partition(mu):
            made += 1
            yield lam, Partition(mu), strips


def full_by_products(identity: Identity) -> tuple[str, tuple[int, ...] | None, int]:
    """Oracle for ``verify_identity(identity, method="full")``: its verdict,
    witness and maxAbs with each side expanded as a polynomial, a sum of
    ``Polynomial`` products of ``skew_schur`` expansions.  The witness is the
    lex-largest exponent at which the sides differ, maxAbs the largest
    coefficient of either side."""
    n = identity.alphabet
    sides = []
    for terms in (identity.lhs, identity.rhs):
        total = Polynomial(n)
        for t in terms:
            if not t.zero:
                total = total + skew_schur(t.white, n) * skew_schur(t.black, n)
        sides.append(total.terms)
    return _full_report(*sides)


def disjoint_sum(a: SkewShape, b: SkewShape) -> SkewShape:
    """A⊕B: ``b`` above ``a`` and to its right, sharing no row or column with
    it, so that s_{A⊕B} = s_A s_B (a tableau of A⊕B is one of each)."""
    width, rows = a.outer.part(1), b.rows
    return SkewShape(
        Partition([p + width for p in b.outer] + list(a.outer)),
        Partition([b.inner.part(i) + width for i in range(1, rows + 1)] + list(a.inner)),
    )


def full_by_disjoint_sums(identity: Identity) -> tuple[str, tuple[int, ...] | None, int]:
    """A second oracle for ``full`` that multiplies no polynomials: each side
    at its dominant exponents, a sum of ``dominant_terms(A⊕B)``.  Both sides
    are symmetric, so the witness and maxAbs lie among these exponents."""
    n = identity.alphabet
    sides = []
    for terms in (identity.lhs, identity.rhs):
        total = Counter()
        for t in terms:
            if not t.zero:
                total.update(dominant_terms(disjoint_sum(t.white, t.black), n).terms)
        sides.append(total)
    return _full_report(*sides)


def _full_report(lhs: dict, rhs: dict) -> tuple[str, tuple[int, ...] | None, int]:
    differ = [e for e in lhs.keys() | rhs.keys() if lhs.get(e, 0) != rhs.get(e, 0)]
    witness = max(differ, default=None)
    max_abs = max(map(abs, [*lhs.values(), *rhs.values()]), default=0)
    return ("pass" if witness is None else "fail"), witness, max_abs


def full_instances(seed: int, count: int) -> Iterator[Identity]:
    """Seeded identities for ``full``, true and corrupted in turn.

    Border strip identities from ``strip_instances`` with at most 5,000
    tableaux, each as it is, with one right term dropped, with one doubled,
    and at one more variable; and products of two small shapes with parts of
    at most 7, set equal to the product in the other order or to another
    product of the same degree, some with a part of 1, 3 or 7, whose
    products reach the top bit of their exponent fields.
    """
    rng = random.Random(seed)
    strips = strip_instances(seed, 10**6)
    sampler = FamilySampler(seed, max_outer=7)
    made = 0
    while made < count:
        kind = made % 6
        if kind < 4:
            lam, mu, spec = next(strips)
            try:
                ident = border_strip_identity(lam, mu, spec)
            except ValueError:  # mu does not fit inside a peeled shape
                continue
            rhs = list(ident.rhs)
            i = rng.randrange(len(rhs))
            n = ident.alphabet
            if kind == 1:
                del rhs[i]
            elif kind == 2:
                rhs.insert(i, rhs[i])
            elif kind == 3:
                n += 1
            ident = Identity(ident.lhs, tuple(rhs), n, "strips")
            if estimate_expansion_size(ident) > 5_000:
                continue
        else:
            a, b, c = sampler.shape(), sampler.shape(), sampler.shape()
            if kind == 4:
                a = SkewShape(Partition([rng.choice((1, 3, 7))] * rng.randint(1, 2)))
            lhs = (ProductTerm(a, b),)
            rhs = (ProductTerm(b, a),) if rng.random() < 0.3 else (ProductTerm(c, b),)
            ident = Identity(lhs, rhs, rng.randint(1, 4), "products")
        made += 1
        yield ident


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
