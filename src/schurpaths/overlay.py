"""Overlays of two path families, bicoloured paths, and recolouring.

Superimpose a white and a black nonintersecting family with a common top
level.  Start/end points and arcs used by both families are "doubled" and
inert; the remaining ones are the coloured points and arcs.  Coloured points
are listed in circular order (right to left along the top level, then left
to right along the bottom) and carry a radial orientation determined by
colour and level: white points are inward on top and outward on the bottom,
black points the other way around.

A bicoloured path is traced from a coloured point by walking its own family's
path away from the endpoint; whenever the walk arrives at a lattice point
that lies on the other family, it must switch to that family and reverse
direction, stopping if no coloured arc continues.  Doubled arcs are never
traversed.  A step reads three things, each from a map looked up once per
trace: the arc that leaves the point in the current family and direction,
whether the other family's map from tail holds that arc too (it is then
doubled), and whether its far end is a tail or a head of an arc of the other
family.  Traces stop exactly at coloured points, two traces from the two
ends of one bicoloured path retrace each other, and the induced pairing of
coloured points is a non-crossing perfect matching joining opposite
orientations.  The trace is the one rule for a bicoloured path: recolouring
accepts exactly the traces, swaps the colour of their arcs and endpoints,
and is a weight-preserving involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import lt
from typing import Iterable, Iterator

from .partitions import SkewShape, canonical_shape
from .paths import Arc, PathFamily, Point
from .tableaux import Tableau


class Colour(Enum):
    WHITE = "white"
    BLACK = "black"

    # Members are singletons and ``==`` compares them by identity, so the
    # identity hash agrees with it; ``Enum.__hash__`` is a Python-level call
    # on every per-colour map lookup, three per arc that recolouring flips.
    __hash__ = object.__hash__

    @property
    def other(self) -> "Colour":
        return Colour.BLACK if self is Colour.WHITE else Colour.WHITE


@dataclass(frozen=True)
class ColouredPoint:
    """A start/end point carried by exactly one family.

    ``top`` is True for end points (top level) and False for start points.
    ``index`` is the 1-based position in circular order.
    """

    x: int
    top: bool
    colour: Colour
    index: int

    @property
    def inward(self) -> bool:
        """White points are inward on top and outward at the bottom; black the reverse."""
        return (self.colour is Colour.WHITE) == self.top

    @property
    def level_name(self) -> str:
        return "N" if self.top else "1"


@dataclass(frozen=True)
class CircularConfiguration:
    """Doubled points plus the cyclically ordered coloured points."""

    points: tuple[ColouredPoint, ...]
    doubled_top: tuple[int, ...]
    doubled_bottom: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.points) % 2:
            raise ValueError(f"{len(self.points)} coloured points")
        for i, p in enumerate(self.points, start=1):
            if p.index != i:
                raise ValueError(f"point {p} out of circular order")

    @classmethod
    def from_point_sets(
        cls,
        white_starts: Iterable[int],
        white_ends: Iterable[int],
        black_starts: Iterable[int],
        black_ends: Iterable[int],
    ) -> "CircularConfiguration":
        ws, we = set(white_starts), set(white_ends)
        bs, be = set(black_starts), set(black_ends)
        top = [(x, Colour.WHITE) for x in we - be] + [(x, Colour.BLACK) for x in be - we]
        bottom = [(x, Colour.WHITE) for x in ws - bs] + [(x, Colour.BLACK) for x in bs - ws]
        top.sort(key=lambda t: -t[0])
        bottom.sort(key=lambda t: t[0])
        pts = []
        for x, colour in top:
            pts.append(ColouredPoint(x, True, colour, len(pts) + 1))
        for x, colour in bottom:
            pts.append(ColouredPoint(x, False, colour, len(pts) + 1))
        return cls(
            tuple(pts),
            tuple(sorted(we & be, reverse=True)),
            tuple(sorted(ws & bs, reverse=True)),
        )

    @property
    def admissible(self) -> bool:
        return sum(p.inward for p in self.points) * 2 == len(self.points)

    @property
    def alternating(self) -> bool:
        """Orientations alternate around the circle (cyclically)."""
        n = len(self.points)
        return all(
            self.points[i].inward != self.points[(i + 1) % n].inward
            for i in range(n)
        )

    def inward_points(self) -> tuple[ColouredPoint, ...]:
        return tuple(p for p in self.points if p.inward)

    def family_xs(self, flips: Iterable[int] = ()) -> dict[Colour, tuple[list[int], list[int]]]:
        """Each colour's start and end xs, strictly decreasing, white first, with
        the points at indices ``flips`` recoloured; one pass over the points.
        An index that names no point is refused."""
        flips = set(flips)
        stray = flips.difference(range(1, len(self.points) + 1))
        if stray:
            raise ValueError(f"no coloured point has index {min(stray)}")
        xs = {c: ([*self.doubled_bottom], [*self.doubled_top]) for c in Colour}
        for p in self.points:
            xs[p.colour.other if p.index in flips else p.colour][p.top].append(p.x)
        for starts, ends in xs.values():
            starts.sort(reverse=True)
            ends.sort(reverse=True)
        return xs

    def shapes(
        self, flips: Iterable[int] = ()
    ) -> tuple[tuple[SkewShape, int], tuple[SkewShape, int]] | None:
        """Decode the white and black (shape, canonical shift) pairs, ``flips`` recoloured.

        Returns None when some row would be negative, i.e. the configuration
        cannot be reached and its product of Schur functions is zero.  An index
        of ``flips`` that names no point is refused.
        """
        return self._decode(self.family_xs(flips))

    @staticmethod
    def _decode(
        xs: dict[Colour, tuple[list[int], list[int]]],
    ) -> tuple[tuple[SkewShape, int], tuple[SkewShape, int]] | None:
        """The (shape, canonical shift) pairs of the xs that ``family_xs`` gives."""
        out = []
        for colour, (starts, ends) in xs.items():
            if len(ends) != len(starts):
                raise ValueError(
                    f"{colour.value} has {len(ends)} end points but {len(starts)} start points"
                )
            if any(map(lt, ends, starts)):
                return None
            out.append(canonical_shape(starts, ends))
        return (out[0], out[1])


@dataclass(frozen=True)
class BicolouredPath:
    """A traced path between two coloured points.

    ``arcs`` lists (arc, colour-it-had) in traversal order from ``start``;
    each arc leaves the point where the one before it arrived.
    """

    start: ColouredPoint
    end: ColouredPoint
    arcs: tuple[tuple[Arc, Colour], ...]

    @property
    def endpoint_positions(self) -> frozenset[tuple[int, bool]]:
        return frozenset({(self.start.x, self.start.top), (self.end.x, self.end.top)})

    def arc_set(self) -> frozenset[Arc]:
        return frozenset(a for a, _ in self.arcs)


@dataclass(frozen=True)
class Matching:
    """Index pairs on a circular configuration."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def is_noncrossing(self) -> bool:
        for a, b in self.pairs:
            for c, d in self.pairs:
                if (a, b) != (c, d) and a < c < b < d:
                    return False
        return True

    def joins_opposite(self, config: CircularConfiguration) -> bool:
        pts = config.points
        return all(pts[a - 1].inward != pts[b - 1].inward for a, b in self.pairs)


class Overlay:
    """A white and a black family over the same levels, with arc bookkeeping."""

    def __init__(self, white: PathFamily, black: PathFamily) -> None:
        if white.alphabet != black.alphabet:
            raise ValueError(
                f"white ends on level {white.alphabet}, black on {black.alphabet}"
            )
        if white.alphabet < 2:
            raise ValueError("overlays need at least two levels")
        out = {
            colour: {arc[0]: arc for arc in fam.arcs()}
            for colour, fam in ((Colour.WHITE, white), (Colour.BLACK, black))
        }
        configuration = CircularConfiguration.from_point_sets(
            white.start_xs(), white.end_xs(), black.start_xs(), black.end_xs()
        )
        self._assemble(white, black, out, configuration)

    def _assemble(
        self,
        white: PathFamily,
        black: PathFamily,
        out: dict[Colour, dict[Point, Arc]],
        configuration: CircularConfiguration,
    ) -> None:
        """Store the families, the per-colour maps from tail ``out`` and the
        configuration, and derive the maps from head and the lookup of
        coloured points; ``__init__`` draws ``out`` from the families,
        ``recolour`` passes the maps it edited.  A doubled arc is one that
        both maps from tail hold.

        A family of ``rows`` paths from level 1 to the top level ``N`` takes
        ``shape.size + rows * (N - 1)`` steps, and its paths meet exactly when
        two steps share a tail or a head.  A map from tail or from head keeps
        one arc per key, so each must hold one arc per step.
        """
        self.white = white
        self.black = black
        self.top = white.alphabet
        self._out = out
        self._in: dict[Colour, dict[Point, Arc]] = {}
        for colour, fam in ((Colour.WHITE, white), (Colour.BLACK, black)):
            tails = out[colour]
            heads = self._in[colour] = {arc[1]: arc for arc in tails.values()}
            if not len(heads) == len(tails) == fam.shape.size + fam.rows * (self.top - 1):
                raise AssertionError("family intersects itself")
        self.configuration = configuration
        self._coloured = {(p.x, p.top): p for p in configuration.points}

    def coloured_point(self, x: int, level: int) -> ColouredPoint:
        if level == self.top:
            key = (x, True)
        elif level == 1:
            key = (x, False)
        else:
            raise ValueError(f"level {level} holds no start/end points")
        if key not in self._coloured:
            raise ValueError(f"{x},{'N' if key[1] else 1} is not a coloured point")
        return self._coloured[key]


def trace_bicoloured(ov: Overlay, x: int, level: int) -> BicolouredPath:
    """Trace the bicoloured path starting at the coloured point (x, level).

    Walk away from the point along its own family (forward from a start
    point, backward from an end point); on arriving at any lattice point of
    the other family, switch to it and reverse direction.  Stop when no
    coloured arc continues.  The stopping point is always another coloured
    point; a runtime check enforces this.

    One step: switch if the point is on the other family (the start point
    too), take the arc of the current family that leaves it in the current
    direction (as tail going forward, as head going backward), stop if there
    is none or the other family's map from tail holds it too (it is doubled),
    else record it with the family's colour and move to its other end.  With
    two or more levels every path has an arc, so a point lies on a family
    exactly when it is a tail or a head of one of its arcs.  Each family is held as the tuple (arcs by head, arcs by tail,
    colour), indexed by the direction as a bool; a switch swaps the tuples.
    """
    cp = ov.coloured_point(x, level)
    here = (ov._in[cp.colour], ov._out[cp.colour], cp.colour)
    there = (ov._in[cp.colour.other], ov._out[cp.colour.other], cp.colour.other)
    forward = not cp.top
    v: Point = (cp.x, ov.top if cp.top else 1)
    arcs: list[tuple[Arc, Colour]] = []
    # one more than the number of arcs of both families, which bounds the coloured ones
    budget = len(here[1]) + len(there[1]) + 1
    while True:
        if v in there[0] or v in there[1]:
            here, there, forward = there, here, not forward
        arc = here[forward].get(v)
        if arc is None or there[1].get(arc[0]) == arc:
            break
        arcs.append((arc, here[2]))
        v = arc[forward]
        budget -= 1
        if budget < 0:
            raise AssertionError("bicoloured trace failed to terminate")
    end = ov.coloured_point(v[0], v[1])
    return BicolouredPath(cp, end, tuple(arcs))


def all_bicoloured(ov: Overlay) -> tuple[tuple[BicolouredPath, ...], Matching]:
    """One trace per coloured point, paired into a perfect matching.

    Checks that the two traces of each pair retrace one another arc for arc
    and that the matching is non-crossing and joins opposite orientations.
    """
    traces: dict[int, BicolouredPath] = {}
    for p in ov.configuration.points:
        traces[p.index] = trace_bicoloured(ov, p.x, ov.top if p.top else 1)
    paths: list[BicolouredPath] = []
    pairs: list[tuple[int, int]] = []
    for p in ov.configuration.points:
        t = traces[p.index]
        partner = t.end.index
        back = traces[partner]
        if back.end.index != p.index or back.arcs != t.arcs[::-1]:
            raise AssertionError("traces from the two endpoints disagree")
        if p.index < partner:
            paths.append(t)
            pairs.append((p.index, partner))
    matching = Matching(tuple(pairs))
    if not matching.is_noncrossing or not matching.joins_opposite(ov.configuration):
        raise AssertionError("induced matching is not admissible")
    return tuple(paths), matching


def recolour(ov: Overlay, chosen: Iterable[BicolouredPath]) -> Overlay:
    """Swap the colours of the chosen paths' arcs and endpoints.

    Each chosen path must be its start point's trace in this overlay, with
    the start, end and arcs that ``trace_bicoloured`` gives; distinct traces
    are arc-disjoint, so chosen paths can only clash by repeating one.
    Returns a new overlay; applying the same selection again restores the
    original.  ``family_xs`` gives each colour's xs with the endpoints as
    flips; they are decoded into shapes and shifts as the expansion decodes
    its terms, and each row is walked off the recoloured arcs between them.
    The new overlay is assembled from the recoloured maps from tail and the
    configuration of those xs, as ``Overlay`` assembles one from the maps it
    draws; no path is drawn.  Recolouring keeps the doubled arcs: a trace
    stops before one, and an arc recoloured onto an arc of its new colour is
    refused for their shared tail.
    """
    chosen = list(chosen)
    flip_arcs: dict[Arc, Colour] = {}
    # endpoint index -> position in ``chosen`` of its path; a coloured point
    # ends at most one bicoloured path, so a shared endpoint means the same path
    flip_indices: dict[int, int] = {}
    for i, bp in enumerate(chosen):
        name = f"{bp.start.x},{bp.start.level_name}"
        trace = trace_bicoloured(ov, bp.start.x, ov.top if bp.start.top else 1)
        if (bp.start, bp.end, bp.arcs) != (trace.start, trace.end, trace.arcs):
            raise ValueError(f"path from {name} is not a bicoloured path of this overlay")
        for p in (bp.start, bp.end):
            j = flip_indices.setdefault(p.index, i)
            if j != i:
                first = chosen[j].start
                raise ValueError(
                    f"start points {first.x},{first.level_name} and {name} trace the same path"
                )
        flip_arcs.update(bp.arcs)

    out = {colour: dict(ov._out[colour]) for colour in Colour}
    into = {colour: out[colour.other] for colour in Colour}
    for arc, colour in flip_arcs.items():
        del out[colour][arc[0]]
    for arc, colour in flip_arcs.items():
        if arc[0] in into[colour]:
            raise AssertionError("recoloured family intersects itself")
        into[colour][arc[0]] = arc

    xs = ov.configuration.family_xs(flip_indices)
    shapes = CircularConfiguration._decode(xs)
    if shapes is None:
        raise AssertionError("recoloured configuration has a negative row")
    families = []
    for colour, (shape, shift) in zip(Colour, shapes):
        rows = [_walk(out[colour], (x, 1), (e, ov.top)) for x, e in zip(*xs[colour])]
        families.append(PathFamily(Tableau(shape, rows[: shape.rows], ov.top), shift, len(rows)))
    configuration = CircularConfiguration.from_point_sets(*xs[Colour.WHITE], *xs[Colour.BLACK])
    result = Overlay.__new__(Overlay)
    result._assemble(*families, out, configuration)
    return result


def _walk(out: dict[Point, Arc], v: Point, end: Point) -> tuple[int, ...]:
    """The levels of the horizontal arcs on the walk along ``out`` from ``v``,
    which must end at ``end``: one row of the family's tableau."""
    start, heights = v, []
    while v in out:
        tail, v = out[v]
        if tail[1] == v[1]:
            heights.append(tail[1])
    if v != end:
        raise AssertionError(f"walk from {start} ends at {v}, not at its end point {end}")
    return tuple(heights)


def _require_admissible(config: CircularConfiguration) -> None:
    if not config.admissible:
        raise ValueError(
            f"{len(config.inward_points())} inward of {len(config.points)} points"
        )


def enumerate_admissible_matchings(config: CircularConfiguration) -> tuple[Matching, ...]:
    """All non-crossing perfect matchings joining inward to outward points.

    Deterministic order: the first point is matched to candidates left to
    right, recursing on the enclosed and remaining segments.  There are
    Catalan(k) of them on 2k alternating points, so the expansion identities
    use :func:`admissible_flip_sets` instead; this enumeration is its test
    oracle.
    """
    _require_admissible(config)
    inward = [p.inward for p in config.points]

    def rec(segment: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not segment:
            yield ()
            return
        first = segment[0]
        for k in range(1, len(segment), 2):
            j = segment[k]
            if inward[first - 1] == inward[j - 1]:
                continue
            for left in rec(segment[1:k]):
                for right in rec(segment[k + 1 :]):
                    yield ((first, j),) + left + right

    indices = tuple(p.index for p in config.points)
    return tuple(Matching(tuple(sorted(pairs))) for pairs in rec(indices))


def admissible_flip_sets(
    config: CircularConfiguration, s: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """The distinct sets of points that admissible matchings join to ``s``.

    A matching's flip set is the union of its pairs meeting the point indices
    ``s``.  Returns every distinct flip set as a sorted index tuple, in order
    of first appearance under :func:`enumerate_admissible_matchings`, without
    listing the matchings.  A memoised recursion over contiguous ranges of the
    circular order mirrors that enumeration: the first point of a range is
    paired, left to right, with each candidate of opposite orientation at odd
    offset, then the enclosed range and the rest are expanded.  The two
    ranges are disjoint, so for one candidate their flip sets combine
    injectively and the nested order is the order of first appearance; a
    ``seen`` set drops the repeats across candidates.  A range with no point
    of ``s`` contributes the empty set when its inward and outward points
    balance, which is when it has a matching, and nothing otherwise.  An
    index of ``s`` that names no point is refused.
    """
    _require_admissible(config)
    s = frozenset(s)
    inward = [p.inward for p in config.points]
    for i in s:
        if not 1 <= i <= len(inward):
            raise ValueError(f"no coloured point has index {i}")
    # over the first i points: inward minus outward, and the number in s
    balance = list(accumulate((1 if inw else -1 for inw in inward), initial=0))
    in_s = list(accumulate((p.index in s for p in config.points), initial=0))
    memo: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    # shared by every range that gives them; no caller mutates a result
    no_sets: list[tuple[int, ...]] = []
    only_empty: list[tuple[int, ...]] = [()]

    def rec(lo: int, hi: int) -> list[tuple[int, ...]]:
        """Flip sets of the range of positions lo..hi-1 (indices lo+1..hi)."""
        if balance[hi] != balance[lo]:
            return no_sets
        if in_s[hi] == in_s[lo]:
            return only_empty
        if (lo, hi) in memo:
            return memo[lo, hi]
        out: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for j in range(lo + 1, hi, 2):
            if inward[j] == inward[lo]:
                continue
            rights = rec(j + 1, hi)
            if not rights:
                continue
            pair = (lo + 1 in s) or (j + 1 in s)
            for left in rec(lo + 1, j):
                for right in rights:
                    # sorted: lo+1 < left < j+1 < right
                    flips = (lo + 1,) + left + (j + 1,) + right if pair else left + right
                    if flips not in seen:
                        seen.add(flips)
                        out.append(flips)
        memo[lo, hi] = out
        return out

    return tuple(rec(0, len(inward)))
