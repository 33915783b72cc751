"""Products of two skew Schur functions and their expansion identities.

Given two shapes whose circular configuration of coloured points alternates
in orientation, the product expands as a sum over the configurations reached
by reorienting, in each admissible matching, every edge incident with a
chosen set S of inward points (Fulmek's Lemma 16).  The border strip
identity of Gurevich, Pyatov and Saponov is this expansion for one partition
and a sequence of added strips, with S the single point of the first row;
it is built that way and no other.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .overlay import CircularConfiguration, admissible_flip_sets
from .partitions import (
    Partition,
    SkewShape,
    StripSpec,
    build_nu,
    peel_complete,
    to_points,
)
# border_strip_identity does not call them, but perfbench/tracing.py rebinds
# identities.peel_down and identities.peel_up, so the names stay here.
from .partitions import peel_down, peel_up  # noqa: F401
from .schur import Polynomial, h_values, skew_schur, skew_schur_eval


# ``auto`` expands in full when the estimated tableau count is at most this.
AUTO_BUDGET = 10**6


@dataclass(frozen=True)
class ProductTerm:
    """One product s_white * s_black; both shapes are None for the zero term."""

    white: SkewShape | None
    black: SkewShape | None

    @property
    def zero(self) -> bool:
        return self.white is None

    def shapes(self) -> tuple[SkewShape, SkewShape]:
        if self.zero:
            raise ValueError("zero term has no shapes")
        return self.white, self.black

    def to_json(self):
        if self.zero:
            return {"zero": True}
        return [self.white.to_json(), self.black.to_json()]


@dataclass(frozen=True)
class Identity:
    """An asserted equality between two sums of products of skew Schur functions.

    ``alphabet`` defaults to the smallest one at which every shape has a filling.
    """

    lhs: tuple[ProductTerm, ...]
    rhs: tuple[ProductTerm, ...]
    alphabet: int | None = None
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.alphabet is None:
            object.__setattr__(self, "alphabet", minimal_alphabet(self.all_shapes()))
        elif self.alphabet < 1:
            # with no variables multipoint evaluates at the empty point only,
            # where nearly every identity holds
            raise ValueError(f"alphabet must be positive: {self.alphabet}")

    def all_shapes(self) -> list[SkewShape]:
        shapes = []
        for t in self.lhs + self.rhs:
            if not t.zero:
                shapes.extend(t.shapes())
        return shapes

    def to_json(self) -> dict:
        return {
            "lhs": [t.to_json() for t in self.lhs],
            "rhs": [t.to_json() for t in self.rhs],
            "N": self.alphabet,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class VerificationReport:
    method: str
    points: int
    seed: int | None
    verdict: str
    witness: tuple[int, ...] | None
    max_abs: int
    elapsed: float
    per_point: tuple[tuple[tuple[int, ...], int, int], ...] = field(default=())

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self, verbose: bool = False) -> dict:
        """Timing and the per-point values are reported only under
        ``verbose``, so that seeded runs are byte-identical on standard output."""
        out = {
            "method": self.method,
            "points": self.points,
            "seed": self.seed,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "maxAbs": str(self.max_abs),
        }
        if verbose:
            out["elapsed"] = round(self.elapsed, 6)
            out["perPoint"] = [
                {"point": list(p), "lhs": str(a), "rhs": str(b)} for p, a, b in self.per_point
            ]
        return out


def _as_x(x) -> int:
    # a float or a string would be read as a different point; a bool is no x
    if type(x) is not int:
        raise ValueError(f"x must be an integer, got {x!r}")
    return x


def _as_top(level) -> bool:
    if isinstance(level, bool):
        return level
    if level in (1, "1"):
        return False
    if level == "N":
        return True
    raise ValueError(f"level must be 1 or 'N', got {level!r}")


def configuration_from_shapes(
    white: SkewShape,
    black: SkewShape,
    shifts: tuple[int, int] = (0, 0),
    rows: tuple[int | None, int | None] = (None, None),
) -> CircularConfiguration:
    """Circular configuration of the start/end points of the two families."""
    rows_w = rows[0] if rows[0] is not None else white.rows
    rows_b = rows[1] if rows[1] is not None else black.rows
    ws = to_points(white.inner, rows_w, shifts[0]).values
    we = to_points(white.outer, rows_w, shifts[0]).values
    bs = to_points(black.inner, rows_b, shifts[1]).values
    be = to_points(black.outer, rows_b, shifts[1]).values
    return CircularConfiguration.from_point_sets(ws, we, bs, be)


def recolouring_expansion(
    white: SkewShape,
    black: SkewShape,
    s: Iterable[tuple[int, object]],
    shifts: tuple[int, int] = (0, 0),
    rows: tuple[int | None, int | None] = (None, None),
) -> tuple[ProductTerm, ...]:
    """Expansion terms for s_white * s_black through the point set ``s``.

    Requires the circular configuration to alternate in orientation and
    ``s`` to be a nonempty set of inward coloured points, given as
    ``(x, level)`` pairs with level 1 or "N".  For every admissible matching
    the edges meeting ``s`` are reoriented; each reachable configuration
    contributes one term, deduplicated, with unreachable (negative row)
    configurations kept as zero terms.

    A term depends only on the points matched to ``s``, so the flip sets come
    from :func:`admissible_flip_sets` directly, not from the Catalan(k)
    matchings of the 2k coloured points.  On an alternating configuration
    they are ``s`` together with any ``|s|`` of the k outward points, so there
    are C(k, |s|) terms, zero terms included, in the order of their first
    appearance under :func:`enumerate_admissible_matchings`.
    """
    config = configuration_from_shapes(white, black, shifts, rows)
    if not config.alternating:
        raise ValueError("coloured point orientations do not alternate")
    s_pts = {(_as_x(x), _as_top(level)) for x, level in s}
    if not s_pts:
        raise ValueError("s must be nonempty")
    inward = {(p.x, p.top): p.index for p in config.inward_points()}
    missing = s_pts - set(inward)
    if missing:
        names = ";".join(f"{x},{'N' if top else 1}" for x, top in sorted(missing))
        raise ValueError(f"not inward coloured points: {names}")
    s_idx = {inward[p] for p in s_pts}

    terms: list[ProductTerm] = []
    for flips in admissible_flip_sets(config, s_idx):
        reoriented = config.reoriented(flips)
        if not reoriented.admissible:
            raise AssertionError("reorientation broke the orientation balance")
        shapes = reoriented.shapes()
        if shapes is None:
            terms.append(ProductTerm(None, None))
        else:
            (w, _), (b, _) = shapes
            terms.append(ProductTerm(w, b))
    return tuple(terms)


def minimal_alphabet(shapes: Iterable[SkewShape]) -> int:
    """Smallest entry bound at which every given shape admits a filling."""
    return max((s.max_column_height for s in shapes), default=1) or 1


def border_strip_identity(
    lam: Sequence[int],
    mu: Sequence[int],
    strips: Sequence[StripSpec],
    alphabet: int | None = None,
) -> Identity:
    """The expansion of s_{lam/mu} * s_{sigma/mu}, sigma = peel_complete(nu)
    for nu built from ``lam`` by the strips.

    The right side is :func:`recolouring_expansion` with S the point of the
    first row, ``lam`` on ``len(lam)`` rows and sigma on one fewer.  Its terms
    are one term per strip, an up-peel of ``lam`` with a down-peel of ``nu``,
    and the complete-peel term last, each shape in its canonical shift.  A
    zero term, where ``mu`` does not fit inside a peeled shape, is refused.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if not strips:
        raise ValueError("at least one strip is required")
    sigma = peel_complete(build_nu(lam, strips))
    white, black = SkewShape(lam, mu), SkewShape(sigma, mu)
    rhs = recolouring_expansion(
        white, black, s={(lam.part(1) - 1, "N")}, rows=(len(lam), len(lam) - 1)
    )
    if any(t.zero for t in rhs):
        raise ValueError(f"mu {tuple(mu)} does not fit inside a peeled shape")
    return Identity((ProductTerm(white, black),), rhs, alphabet, "border-strip expansion")


def _side(terms: Sequence[ProductTerm], schur_of: Callable[[SkewShape], object], zero):
    """The sum over ``terms`` of schur_of(white) * schur_of(black), from ``zero``."""
    total = zero
    for t in terms:
        if t.zero:
            continue
        total = total + schur_of(t.white) * schur_of(t.black)
    return total


def estimate_expansion_size(identity: Identity) -> int:
    """Total tableau count over every shape of the identity at its alphabet."""
    ones = (1,) * identity.alphabet
    shapes = identity.all_shapes()
    h = h_values(shapes, ones)
    return sum(skew_schur_eval(s, ones, h) for s in shapes)


def verify_identity(
    identity: Identity,
    method: str = "auto",
    points: int = 20,
    seed: int = 42,
) -> VerificationReport:
    """Compare the two sides exactly.

    ``full`` expands both sides as polynomials; ``multipoint`` evaluates at
    ``points`` seeded random points with entries in 0..4 and requires
    equality at every point, computing the h-values once per point and
    sharing that one vector across every shape's determinant (a shape with
    a column taller than the point's nonzero coordinates is 0 there and
    needs none); ``auto`` picks full when the estimated tableau count fits
    ``AUTO_BUDGET``.
    Failures carry the witnessing point.  ``points`` below 1 is refused
    whatever the method.
    """
    t0 = time.perf_counter()
    n = identity.alphabet
    if points < 1:
        raise ValueError(f"verification needs at least one point, got {points}")
    if method == "auto":
        method = "full" if estimate_expansion_size(identity) <= AUTO_BUDGET else "multipoint"
    if method == "full":
        lhs = _side(identity.lhs, lambda sh: skew_schur(sh, n), Polynomial(n))
        rhs = _side(identity.rhs, lambda sh: skew_schur(sh, n), Polynomial(n))
        max_abs = max(map(abs, [*lhs.coefficients(), *rhs.coefficients()]), default=0)
        witness = (lhs - rhs).leading_exponent()
        return VerificationReport(
            "full", 0, None, "pass" if witness is None else "fail", witness,
            max_abs, time.perf_counter() - t0,
        )
    if method != "multipoint":
        raise ValueError(f"unknown method {method!r}")
    rng = random.Random(seed)
    shapes = identity.all_shapes()
    per_point = []
    for _ in range(points):
        point = tuple(rng.randint(0, 4) for _ in range(n))
        h = h_values(shapes, point)
        lv = _side(identity.lhs, lambda sh: skew_schur_eval(sh, point, h), 0)
        rv = _side(identity.rhs, lambda sh: skew_schur_eval(sh, point, h), 0)
        per_point.append((point, lv, rv))
    witness = next((p for p, lv, rv in per_point if lv != rv), None)
    max_abs = max(abs(v) for _, lv, rv in per_point for v in (lv, rv))
    return VerificationReport(
        "multipoint", points, seed, "pass" if witness is None else "fail", witness, max_abs,
        time.perf_counter() - t0, tuple(per_point),
    )
