"""Exact skew Schur computations.

Two independent routes, exact arbitrary-precision arithmetic throughout:
symbolic expansion by the branching rule, one horizontal strip per variable
(``skew_schur``), and integer evaluation through the determinant of
complete homogeneous sums by fraction-free elimination (``skew_schur_eval``),
which rescales a row only when it next takes part in a step.  Both routes
read one column rule, ``SkewShape.max_column_height``: a shape with a column
taller than the variables, or than a point's nonzero coordinates, is 0 with
no expansion and no determinant.
Summing tableau weights over ``tableaux.enumerate_ssyt`` is a third route,
kept as the test oracle for the expansion; the test suite cross-checks all
three on every shape it can enumerate.

A ``Polynomial`` keys its terms by one packed int per exponent vector
(Kronecker substitution, as in Monagan and Pearce, "Sparse polynomial
multiplication"): the exponent of x_1 sits in the most significant field, so
integer order on keys is descending lexicographic order on exponents, and a
product of monomials is a sum of keys.  The constructor packs exponent
tuples, and ``sorted_terms`` is the one place that unpacks them; ``terms``,
``leading_exponent``, ``evaluate`` and the JSON form read it.
"""

from __future__ import annotations

from collections.abc import Mapping, ValuesView
from functools import lru_cache
from itertools import product
from typing import Sequence

from .partitions import SkewShape
# skew_schur does not call it, but perfbench/tracing.py rebinds
# schur.enumerate_ssyt to count tableau enumeration, so the name stays here.
from .tableaux import enumerate_ssyt  # noqa: F401

Monomial = tuple[int, ...]


def _pack(exp: Sequence[int], bits: int) -> int:
    key = 0
    for e in exp:
        key = key << bits | e
    return key


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    Terms map packed exponent keys to nonzero coefficients.  Each field of a
    key is ``bits`` wide, with every exponent below 2**bits; a product widens
    its fields by one bit, so that no sum of two fields carries, and a sum or
    comparison of polynomials of different widths repacks the narrower one.
    The constructor packs exponent tuples and only ``sorted_terms`` unpacks
    them: ``terms`` is a new dict of its pairs, in canonical order, and
    ``coefficients()`` reads the store without unpacking.  Instances are
    treated as immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "_bits", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None) -> None:
        terms = terms or {}
        top = 0
        for exp in terms:
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has length != {nvars}")
            if min(exp, default=0) < 0:
                raise ValueError(f"exponent {exp} has a negative entry")
            top = max(top, max(exp, default=0))
        bits = max(top, 1).bit_length()
        packed: dict[int, int] = {}
        for exp, coeff in terms.items():
            key = _pack(exp, bits)
            packed[key] = packed.get(key, 0) + coeff
        self._set(nvars, bits, packed)

    def _set(self, nvars: int, bits: int, packed: dict[int, int]) -> None:
        self.nvars = nvars
        self._bits = bits
        self._terms = packed if all(packed.values()) else {k: c for k, c in packed.items() if c}

    @classmethod
    def _packed(cls, nvars: int, bits: int, packed: dict[int, int]) -> "Polynomial":
        """A polynomial owning ``packed``, whose keys have ``bits``-wide fields."""
        poly = cls.__new__(cls)
        poly._set(nvars, bits, packed)
        return poly

    @property
    def terms(self) -> dict[Monomial, int]:
        """A new dict of the terms keyed by exponent tuples, in canonical order."""
        return dict(self.sorted_terms())

    def coefficients(self) -> ValuesView[int]:
        """The nonzero coefficients, read from the store without unpacking."""
        return self._terms.values()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"{self.nvars} variables vs {other.nvars}")

    def _at(self, bits: int) -> dict[int, int]:
        """The terms packed with fields ``bits`` wide, at least this one's."""
        old = self._bits
        if bits == old:
            return self._terms
        mask = (1 << old) - 1
        moves = [(i * old, i * bits) for i in range(self.nvars)]
        terms = {}
        for k, c in self._terms.items():
            key = 0
            for s, t in moves:
                key |= (k >> s & mask) << t
            terms[key] = c
        return terms

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        self._check(other)
        bits = max(self._bits, other._bits)
        terms = dict(self._at(bits))
        for key, coeff in other._at(bits).items():
            terms[key] = terms.get(key, 0) + sign * coeff
        return Polynomial._packed(self.nvars, bits, terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        bits = max(self._bits, other._bits) + 1
        right = other._at(bits).items()
        terms: dict[int, int] = {}
        get = terms.get
        for k1, c1 in self._at(bits).items():
            for k2, c2 in right:
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return Polynomial._packed(self.nvars, bits, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        bits = max(self._bits, other._bits)
        return self.nvars == other.nvars and self._at(bits) == other._at(bits)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {len(self._terms)} terms)"

    def evaluate(self, values: Sequence[int]) -> int:
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        total = 0
        for exp, coeff in self.terms.items():
            m = coeff
            for v, e in zip(values, exp):
                m *= v**e
            total += m
        return total

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Descending lexicographic exponent order; the canonical term order."""
        terms, mask = self._terms, (1 << self._bits) - 1
        shifts = range((self.nvars - 1) * self._bits, -1, -self._bits)
        return [
            (tuple([k >> s & mask for s in shifts]), terms[k]) for k in sorted(terms, reverse=True)
        ]

    def leading_exponent(self) -> Monomial | None:
        """The first exponent of ``sorted_terms``, or None for zero."""
        return next(iter(self.terms), None)

    def to_json(self) -> dict:
        return {
            "N": self.nvars,
            "terms": [{"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        return cls(
            obj["N"], {tuple(t["exp"]): int(t["coeff"]) for t in obj["terms"]}
        )


@lru_cache(maxsize=None)
def skew_schur(shape: SkewShape, nvars: int) -> Polynomial:
    """s_{outer/inner}(x_1..x_nvars), expanded by the branching rule.

    After level k, ``states`` maps each shape nu between inner and outer to
    the polynomial of nu/inner in x_1..x_k.  The cells that level k + 1 adds
    form a horizontal strip, and its size is the power of x_{k+1}
    (Macdonald, I.5.11).  A shape is kept only while outer/nu can still be
    filled by the variables left, so the last level holds outer alone.  The
    cost follows the number of intermediate shapes and terms, not the number
    of tableaux.
    """
    if nvars < 1:
        raise ValueError(f"alphabet must be positive: {nvars}")
    if shape.max_column_height > nvars:
        return Polynomial(nvars)
    lam = tuple(shape.outer)
    rows = len(lam)
    inner = tuple(shape.inner.part(i) for i in range(1, rows + 1))
    # Terms are packed keys: a column holds each entry at most once, so no
    # exponent exceeds lam[0], and a strip of size d at level k adds d to the
    # field of x_{k+1}.
    bits = max(lam[0] if lam else 0, 1).bit_length()
    states: dict[tuple[int, ...], dict[int, int]] = {inner: {0: 1}}
    for k in range(nvars):
        shift = (nvars - 1 - k) * bits
        # After this level row i of nu is at least row i + left of outer, so
        # that the variables left can still fill every column, and at most
        # row i of reach, row i - k - 1 of inner, since each level adds a
        # horizontal strip.  Rows whose two bounds meet are the same in every
        # shape of the level; only the free rows vary.  Pinning a row to low
        # unchecked against rho relies on the zero return above: with no
        # column taller than nvars, low <= reach, and low[i] is a valid strip
        # step from row i of every rho kept.
        left = nvars - k - 1
        low = lam[left:] + (0,) * min(left, rows)
        reach = lam[: k + 1] + inner[: max(rows - k - 1, 0)]
        free = [i for i in range(rows) if low[i] < lam[i] and low[i] < reach[i]]
        single = list(zip(low))  # the one choice (low[i],) of each row
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for rho, terms in states.items():
            ranges: list = single[:]
            for i in free:
                ranges[i] = range(max(rho[i], low[i]), min(lam[i], rho[i - 1] if i else lam[0]) + 1)
            size = sum(rho)
            by_strip = {0: terms}
            for nu in product(*ranges):
                d = sum(nu) - size
                add = by_strip.get(d)
                if add is None:
                    step = d << shift
                    add = by_strip[d] = {e + step: c for e, c in terms.items()}
                into = nxt.get(nu)
                if into is None:
                    nxt[nu] = dict(add)
                else:
                    for e, c in add.items():
                        into[e] = into.get(e, 0) + c
        states = nxt
    return Polynomial._packed(nvars, bits, states[lam])


def complete_homogeneous_values(values: Sequence[int], max_degree: int) -> list[int]:
    """h_d evaluated at ``values`` for d = 0..max_degree.

    A zero coordinate leaves every h_d as it is, so it is skipped.
    """
    h = [0] * (max_degree + 1)
    h[0] = 1
    for v in values:
        if v:
            for d in range(1, max_degree + 1):
                h[d] += v * h[d - 1]
    return h


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination (Bareiss, 1968).

    Step k sets m_ij <- (m_ij p_k - m_ik m_kj) / p_{k-1} for i, j > k, with
    p_k the pivot of step k and p_{-1} = 1; every entry so made is a minor of
    the matrix.  A row whose multiplier m_ik is 0 would only be scaled by
    p_k / p_{k-1}, so it is left alone, and ``done[i]`` keeps the number of
    steps it has had.  The skipped factors telescope: when the row is next
    updated, its divisor is the pivot of its own last step,
    ``pivots[done[i]]``, in place of p_{k-1}; as the pivot row or the last
    entry it is multiplied by p_{k-1} and divided by that pivot.  Both
    divisions are exact, because each gives the minor that rescaling every
    row would hold, so the result is the same integer.  A zero test does not
    depend on a row's scale, so the pivot search reads stale rows, and a swap
    moves ``done`` with the rows.  A matrix that is not square, or has an
    entry that is not an ``int``, is refused: the divisions floor a float.
    """
    n = len(matrix)
    m = []
    for i, entries in enumerate(matrix):
        row = list(entries)
        if len(row) != n:
            raise ValueError(f"matrix is not square: row {i} has {len(row)} entries, not {n}")
        for j, x in enumerate(row):
            if not isinstance(x, int):
                raise ValueError(f"matrix entry ({i}, {j}) is not an integer: {x!r}")
        m.append(row)
    if n == 0:
        return 1
    done = [0] * n
    pivots = [1]  # pivots[k] = p_{k-1}, the divisor of step k
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            done[k], done[pivot] = done[pivot], done[k]
            sign = -sign
        row = m[k]
        if done[k] < k:
            prev, base = pivots[k], pivots[done[k]]
            for j in range(k, n):
                row[j] = row[j] * prev // base
        p = row[k]
        for i in range(k + 1, n):
            r = m[i]
            f = r[k]
            if f:
                base = pivots[done[i]]
                for j in range(k + 1, n):
                    r[j] = (r[j] * p - f * row[j]) // base
                done[i] = k + 1
        pivots.append(p)
    last = m[n - 1][n - 1]
    if done[n - 1] < n - 1:
        last = last * pivots[n - 1] // pivots[done[n - 1]]
    return sign * last


def h_values(shapes: Sequence[SkewShape], values: Sequence[int]) -> list[int]:
    """h_0..h_D at ``values``, D the top degree read by any shape's determinant.

    Entry (i, j) of the Jacobi-Trudi matrix of outer/inner with r rows is
    h_{a_i - b_j}, a_i = outer_i - i and b_j = inner_j - j; both strictly
    decrease, so the top degree is a_1 - b_r = outer_1 - inner_r + r - 1.
    One vector serves every shape evaluated at the same point.
    """
    top = max(
        (s.outer[0] - s.inner.part(s.rows) + s.rows - 1 for s in shapes if s.rows), default=0
    )
    return complete_homogeneous_values(values, top)


def skew_schur_eval(
    shape: SkewShape, values: Sequence[int], h: Sequence[int] | None = None
) -> int:
    """Independent oracle: det(h_{outer_i - inner_j - i + j}) at integer values.

    ``h`` is ``h_values`` at ``values`` for a set of shapes that includes this
    one; it is computed for this shape alone when not given, and refused
    when it stops short of the top degree a_1 - b_r.  A zero coordinate
    drops out of s_{outer/inner}, and a column taller than the coordinates
    left has no filling, so such a shape is 0 at this point with no
    determinant; as a polynomial identity this holds at every integer
    point.  Out-of-range indices contribute h_d = 0 for d < 0; the empty
    shape gives 1.  The matrix has a staircase of zeros in its lower-left
    corner, which is where ``bareiss_determinant`` skips rows.
    """
    lam, mu = shape.outer, shape.inner
    r = len(lam)
    if r == 0:
        return 1
    a = [p - i for i, p in enumerate(lam, 1)]
    b = [p - j for j, p in enumerate((*mu, *(0,) * (r - len(mu))), 1)]
    top = a[0] - b[-1]
    if h is not None and len(h) <= top:
        raise ValueError(f"h has {len(h)} values, but {shape} needs {top + 1} (h_0..h_{top})")
    if shape.max_column_height > len(values) - values.count(0):
        return 0
    if h is None:
        h = h_values((shape,), values)
    return bareiss_determinant([[h[x - y] if x >= y else 0 for y in b] for x in a])
