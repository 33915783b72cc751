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
traversed.  Traces stop exactly at coloured points, two traces from the two
ends of one bicoloured path retrace each other, and the induced pairing of
coloured points is a non-crossing perfect matching joining opposite
orientations.  Recolouring a set of traced paths swaps the colour of their
arcs and endpoints and is a weight-preserving involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .partitions import SkewShape, canonical_shape
from .paths import Arc, LatticePath, PathFamily, Point, family_from_paths


class LevelMismatch(ValueError):
    pass


class NotColouredPoint(ValueError):
    pass


class OddColouredCount(ValueError):
    """Internal inconsistency; cannot occur for valid overlays."""


class PathNotInOverlay(ValueError):
    pass


class NotAdmissibleConfiguration(ValueError):
    pass


class Colour(Enum):
    WHITE = "white"
    BLACK = "black"

    @property
    def other(self) -> "Colour":
        return Colour.BLACK if self is Colour.WHITE else Colour.WHITE


class Orientation(Enum):
    INWARD = "in"
    OUTWARD = "out"


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
    def orientation(self) -> Orientation:
        """White points are inward on top and outward at the bottom; black the reverse."""
        inward = (self.colour is Colour.WHITE) == self.top
        return Orientation.INWARD if inward else Orientation.OUTWARD

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
            raise OddColouredCount(f"{len(self.points)} coloured points")
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
        inward = sum(1 for p in self.points if p.orientation is Orientation.INWARD)
        return inward * 2 == len(self.points)

    @property
    def alternating(self) -> bool:
        """Orientations alternate around the circle (cyclically)."""
        n = len(self.points)
        return all(
            self.points[i].orientation is not self.points[(i + 1) % n].orientation
            for i in range(n)
        )

    def inward_points(self) -> tuple[ColouredPoint, ...]:
        return tuple(p for p in self.points if p.orientation is Orientation.INWARD)

    def reoriented(self, indices: Iterable[int]) -> "CircularConfiguration":
        """Flip the colour (and hence orientation) of the points at ``indices``."""
        flips = set(indices)
        pts = tuple(
            ColouredPoint(p.x, p.top, p.colour.other, p.index) if p.index in flips else p
            for p in self.points
        )
        return CircularConfiguration(pts, self.doubled_top, self.doubled_bottom)

    def colour_point_xs(self, colour: Colour, top: bool) -> list[int]:
        base = list(self.doubled_top if top else self.doubled_bottom)
        base += [p.x for p in self.points if p.top == top and p.colour is colour]
        return sorted(base, reverse=True)

    def shapes(self) -> tuple[tuple[SkewShape, int], tuple[SkewShape, int]] | None:
        """Decode the white and black (shape, canonical shift) pairs.

        Returns None when some row would be negative, i.e. the configuration
        cannot be reached and its product of Schur functions is zero.
        """
        out = []
        for colour in (Colour.WHITE, Colour.BLACK):
            ends = self.colour_point_xs(colour, True)
            starts = self.colour_point_xs(colour, False)
            if len(ends) != len(starts):
                raise ValueError(
                    f"{colour.value} has {len(ends)} end points but {len(starts)} start points"
                )
            if any(e < s for e, s in zip(ends, starts)):
                return None
            out.append(canonical_shape(starts, ends))
        return (out[0], out[1])


@dataclass(frozen=True)
class BicolouredPath:
    """A traced path between two coloured points.

    ``arcs`` lists (arc, colour-it-had) in traversal order from ``start``;
    ``trail`` is the visited lattice points, one more than the arcs.
    """

    start: ColouredPoint
    end: ColouredPoint
    arcs: tuple[tuple[Arc, Colour], ...]
    trail: tuple[Point, ...]

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
        return all(pts[a - 1].orientation is not pts[b - 1].orientation for a, b in self.pairs)


class Overlay:
    """A white and a black family over the same levels, with arc bookkeeping."""

    def __init__(self, white: PathFamily, black: PathFamily) -> None:
        if white.alphabet != black.alphabet:
            raise LevelMismatch(
                f"white ends on level {white.alphabet}, black on {black.alphabet}"
            )
        if white.alphabet < 2:
            raise LevelMismatch("overlays need at least two levels")
        self.white = white
        self.black = black
        self.top = white.alphabet
        self._arcs = {Colour.WHITE: white.arcs(), Colour.BLACK: black.arcs()}
        self.doubled_arcs = frozenset(self._arcs[Colour.WHITE] & self._arcs[Colour.BLACK])
        self._out: dict[Colour, dict[Point, Arc]] = {}
        self._in: dict[Colour, dict[Point, Arc]] = {}
        for colour in Colour:
            out: dict[Point, Arc] = {}
            inn: dict[Point, Arc] = {}
            for arc in self._arcs[colour]:
                tail, head = arc
                assert tail not in out and head not in inn, "family intersects itself"
                out[tail] = arc
                inn[head] = arc
            self._out[colour] = out
            self._in[colour] = inn
        self.configuration = CircularConfiguration.from_point_sets(
            white.start_xs(), white.end_xs(), black.start_xs(), black.end_xs()
        )
        self._coloured = {(p.x, p.top): p for p in self.configuration.points}

    def coloured_arcs(self, colour: Colour) -> set[Arc]:
        return self._arcs[colour] - self.doubled_arcs

    def arc_colour_class(self, arc: Arc) -> str | None:
        """'white', 'black', 'doubled', or None for an unused arc."""
        w = arc in self._arcs[Colour.WHITE]
        b = arc in self._arcs[Colour.BLACK]
        if w and b:
            return "doubled"
        if w:
            return "white"
        if b:
            return "black"
        return None

    def on_family(self, colour: Colour, point: Point) -> bool:
        # with two or more levels every path has an arc, so its points are arc ends
        return point in self._out[colour] or point in self._in[colour]

    def coloured_point(self, x: int, level: int) -> ColouredPoint:
        if level == self.top:
            key = (x, True)
        elif level == 1:
            key = (x, False)
        else:
            raise NotColouredPoint(f"level {level} holds no start/end points")
        if key not in self._coloured:
            raise NotColouredPoint(f"({x}, {level}) is not a coloured point")
        return self._coloured[key]


def trace_bicoloured(ov: Overlay, x: int, level: int) -> BicolouredPath:
    """Trace the bicoloured path starting at the coloured point (x, level).

    Walk away from the point along its own family (forward from a start
    point, backward from an end point); on arriving at any lattice point of
    the other family, switch to it and reverse direction.  Stop when no
    coloured arc continues.  The stopping point is always another coloured
    point; a runtime check enforces this.
    """
    cp = ov.coloured_point(x, level)
    colour = cp.colour
    direction = 1 if not cp.top else -1
    v: Point = (cp.x, ov.top if cp.top else 1)
    if ov.on_family(colour.other, v):
        colour, direction = colour.other, -direction
    arcs: list[tuple[Arc, Colour]] = []
    trail: list[Point] = [v]
    # one more than the number of coloured arcs, |white - doubled| + |black - doubled|
    budget = (
        len(ov._arcs[Colour.WHITE]) + len(ov._arcs[Colour.BLACK]) - 2 * len(ov.doubled_arcs) + 1
    )
    while True:
        arc = (ov._out if direction > 0 else ov._in)[colour].get(v)
        if arc is None or arc in ov.doubled_arcs:
            break
        arcs.append((arc, colour))
        v = arc[1] if direction > 0 else arc[0]
        trail.append(v)
        if ov.on_family(colour.other, v):
            colour, direction = colour.other, -direction
        budget -= 1
        if budget < 0:
            raise AssertionError("bicoloured trace failed to terminate")
    end = ov.coloured_point(v[0], v[1])
    return BicolouredPath(cp, end, tuple(arcs), tuple(trail))


def all_bicoloured(ov: Overlay) -> tuple[tuple[BicolouredPath, ...], Matching]:
    """One trace per coloured point, paired into a perfect matching.

    Checks that the two traces of each pair retrace one another and that the
    matching is non-crossing and joins opposite orientations.
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
        if back.end.index != p.index or back.arc_set() != t.arc_set():
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

    The chosen paths must come from this overlay and be pairwise
    arc-disjoint.  Returns a new overlay; applying the same selection again
    restores the original.
    """
    chosen = list(chosen)
    flip_arcs: dict[Arc, Colour] = {}
    # endpoint index -> the chosen path ending there; a coloured point ends
    # at most one bicoloured path, so a shared endpoint means the same path
    flip_indices: dict[int, BicolouredPath] = {}
    for bp in chosen:
        for pos in bp.endpoint_positions:
            if pos not in ov._coloured:
                raise PathNotInOverlay(f"endpoint {pos} is not a coloured point here")
            owner = flip_indices.setdefault(ov._coloured[pos].index, bp)
            if owner is not bp:
                raise PathNotInOverlay(
                    f"start points {owner.start.x},{owner.start.level_name} and "
                    f"{bp.start.x},{bp.start.level_name} trace the same path"
                )
        for arc, colour in bp.arcs:
            if ov.arc_colour_class(arc) != colour.value:
                raise PathNotInOverlay(f"arc {arc} is not a {colour.value} arc here")
            if arc in flip_arcs:
                raise PathNotInOverlay(f"arc {arc} appears in two chosen paths")
            flip_arcs[arc] = colour

    arcs = {
        Colour.WHITE: set(ov._arcs[Colour.WHITE]),
        Colour.BLACK: set(ov._arcs[Colour.BLACK]),
    }
    for arc, colour in flip_arcs.items():
        arcs[colour].discard(arc)
        arcs[colour.other].add(arc)

    config = ov.configuration.reoriented(flip_indices)
    families = {}
    for colour in Colour:
        families[colour] = _assemble_family(
            arcs[colour], config.colour_point_xs(colour, False),
            config.colour_point_xs(colour, True), ov.top,
        )
    return Overlay(families[Colour.WHITE], families[Colour.BLACK])


def _assemble_family(arc_set: set[Arc], start_xs: list[int], end_xs: list[int], top: int) -> PathFamily:
    out: dict[Point, Arc] = {}
    for arc in arc_set:
        if arc[0] in out:
            raise AssertionError("recoloured family intersects itself")
        out[arc[0]] = arc
    paths = []
    for x in start_xs:
        v: Point = (x, 1)
        steps: list[str] = []
        while v in out:
            tail, head = out[v]
            steps.append("R" if head[0] == tail[0] + 1 else "U")
            v = head
        if v[1] != top or v[0] not in end_xs:
            raise AssertionError(f"walk from ({x}, 1) ends at {v}, not an end point")
        paths.append(LatticePath((x, 1), tuple(steps)))
    fam = family_from_paths(paths, top)
    if [p.end[0] for p in fam.paths] != end_xs:
        raise AssertionError("assembled family misses an end point")
    return fam


def enumerate_admissible_matchings(config: CircularConfiguration) -> tuple[Matching, ...]:
    """All non-crossing perfect matchings joining inward to outward points.

    Deterministic order: the first point is matched to candidates left to
    right, recursing on the enclosed and remaining segments.
    """
    if not config.admissible:
        raise NotAdmissibleConfiguration(
            f"{len(config.inward_points())} inward of {len(config.points)} points"
        )
    orientations = [p.orientation for p in config.points]

    def rec(segment: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not segment:
            yield ()
            return
        first = segment[0]
        for k in range(1, len(segment), 2):
            j = segment[k]
            if orientations[first - 1] is orientations[j - 1]:
                continue
            for left in rec(segment[1:k]):
                for right in rec(segment[k + 1 :]):
                    yield ((first, j),) + left + right

    indices = tuple(p.index for p in config.points)
    return tuple(Matching(tuple(sorted(pairs))) for pairs in rec(indices))
