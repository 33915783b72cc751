"""Exact skew Schur computations.

Two independent routes, exact arbitrary-precision arithmetic throughout:
symbolic expansion (``skew_schur``), and integer evaluation through the
determinant of complete homogeneous sums by fraction-free elimination
(``skew_schur_eval``), which rescales a row only when it next takes part in
a step; ``skew_schur_evaluator`` lays several shapes' matrices out once and
reads them all from one h-vector per point.  A shape with a column taller
than the variables is 0 on both routes: the branching bounds leave it no
term, and the evaluation skips its determinant by
``SkewShape.max_column_height`` on a point's nonzero coordinates.
Summing tableau weights over ``tableaux.enumerate_ssyt`` is a third route,
kept as the test oracle for the expansion; the test suite cross-checks all
three on every shape it can enumerate.

The expansion is symmetric, so it is fixed by its dominant terms, those at
weakly decreasing exponents, whose coefficients are skew Kostka numbers
(Macdonald, I.5-6).  ``dominant_terms`` finds them alone by the branching
rule, one horizontal strip per variable with no strip larger than the one
before; ``skew_schur`` writes every distinct permutation of each with its
coefficient; and ``dominant_products`` gives a sum of products of skew
Schur polynomials at its dominant exponents only, with no product expanded,
which is how ``identities.verify_identity`` compares the two sides of an
identity in full.

A ``Polynomial`` keys its terms by one packed int per exponent vector
(Kronecker substitution, as in Monagan and Pearce, "Sparse polynomial
multiplication"): the exponent of x_1 sits in the most significant field, so
integer order on keys is descending lexicographic order on exponents, and a
product of monomials is a sum of keys.  The constructor packs exponent
tuples, and ``exponent_columns`` unpacks them, one C-level pass over the
sorted keys per column of one or two fields; ``sorted_terms`` zips its
one-field columns for ``terms``, ``evaluate`` and the JSON form, the CLI
writes the polynomial from its two-field columns, and ``dominant_products``
unpacks only the one key that bounds the exponents of each product.
"""

from __future__ import annotations

from collections.abc import Mapping, ValuesView
from functools import lru_cache
from itertools import accumulate, combinations, product, repeat
from operator import itemgetter, lshift, rshift
from typing import Callable, Sequence

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
    The constructor packs exponent tuples and only ``exponent_columns``
    unpacks them: ``terms`` is a new dict of the pairs of ``sorted_terms``,
    in canonical order, and ``coefficients()`` reads the store without
    unpacking.  Instances are treated as immutable; all operations return
    new objects.
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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        bits = max(self._bits, other._bits)
        terms = dict(self._at(bits))
        for key, coeff in other._at(bits).items():
            terms[key] = terms.get(key, 0) + coeff
        return Polynomial._packed(self.nvars, bits, terms)

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

    @property
    def field_bits(self) -> int:
        """The width of one exponent field, which ``exponent_columns`` packs."""
        return self._bits

    def exponent_columns(self, fields: int = 1) -> tuple[list[int], list[list[int]]]:
        """The coefficients in canonical term order, and the exponents in that
        order as columns.

        Column j holds the exponents of the ``fields`` variables from
        x_{j * fields + 1} on, the last column those left over, packed as a
        key packs them: ``field_bits`` wide, the first variable's field the
        highest.  Each column is one pass of C-level maps over the sorted keys.
        """
        terms, bits = self._terms, self._bits
        keys = sorted(terms, reverse=True)
        columns = []
        for left in range(self.nvars, 0, -fields):
            width = min(fields, left)
            low = (left - width) * bits
            mask = (1 << width * bits) - 1
            shifted = map(rshift, keys, repeat(low)) if low else keys
            columns.append(list(map(mask.__and__, shifted)))
        return list(map(terms.__getitem__, keys)), columns

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Descending lexicographic exponent order; the canonical term order."""
        coeffs, columns = self.exponent_columns()
        exps = zip(*columns) if columns else repeat((), len(coeffs))
        return list(zip(exps, coeffs))

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


def dominant_terms(shape: SkewShape, nvars: int) -> Polynomial:
    """The terms of s_{outer/inner}(x_1..x_nvars) at weakly decreasing exponents.

    s is symmetric, so these fix it: its coefficient at any exponent is the
    one at the sorted exponent, a skew Kostka number (Macdonald, I.5-6).
    They come from the branching rule with each level's strip no larger
    than the last.  After level k, ``states`` maps each shape nu between
    inner and outer, with the size d of the strip that ended at nu, to the
    terms of nu/inner in x_1..x_k whose strips decrease weakly.  The cells
    that level k + 1 adds form a horizontal strip, and its size is the power
    of x_{k+1} (Macdonald, I.5.11).  A shape is kept only while outer/nu can
    still be filled by the variables left, with no strip above d, so the last
    level holds outer alone, and no level holds a shape when a column is
    taller than nvars, which gives 0 with no rule of its own.  The cost
    follows the number of intermediate shapes and dominant terms, not the
    number of tableaux.
    """
    if nvars < 1:
        raise ValueError(f"alphabet must be positive: {nvars}")
    lam = tuple(shape.outer)
    rows, boxes = len(lam), sum(lam)
    inner = tuple(shape.inner.part(i) for i in range(1, rows + 1))
    # Terms are packed keys: a column holds each entry at most once, so no
    # exponent exceeds lam[0], and a strip of size d at level k adds d to the
    # field of x_{k+1}.
    bits = max(lam[0] if lam else 0, 1).bit_length()
    states: dict[tuple[tuple[int, ...], int], dict[int, int]] = {(inner, boxes): {0: 1}}
    for k in range(nvars):
        shift = (nvars - 1 - k) * bits
        # Row i of nu lies between rho_i and rho_{i-1}, as the cells added form
        # a horizontal strip, grows by at most cap and stays inside outer; it
        # is at least row i + left of outer, so that the variables left can
        # still fill every column.
        left = nvars - k - 1
        low = lam[left:] + (0,) * min(left, rows)
        nxt: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
        for (rho, cap), terms in states.items():
            ranges = [
                range(max(r, lo), min(top, prev, r + cap) + 1)
                for r, lo, top, prev in zip(rho, low, lam, lam[:1] + rho)
            ]
            size = sum(rho)
            # this strip and the left ones, none above it, must fill the boxes left
            least = -((size - boxes) // (left + 1))
            for nu in product(*ranges):
                d = sum(nu) - size
                if least <= d <= cap:
                    into, step = nxt.setdefault((nu, d), {}), d << shift
                    for e, c in terms.items():
                        into[e + step] = into.get(e + step, 0) + c
        states = nxt
    dominant: dict[int, int] = {}
    for terms in states.values():
        for e, c in terms.items():
            dominant[e] = dominant.get(e, 0) + c
    return Polynomial._packed(nvars, bits, dominant)


def _orderings(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct orderings of the weakly decreasing ``parts``, in descending
    lexicographic order: each is the previous permutation of the one before."""
    a, n = list(parts), len(parts)
    out = [parts]
    while True:
        i = n - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]
        out.append(tuple(a))


@lru_cache(maxsize=None)
def skew_schur(shape: SkewShape, nvars: int) -> Polynomial:
    """s_{outer/inner}(x_1..x_nvars): every permutation of each dominant term.

    The orbit of a dominant exponent alpha is every placement of its r
    nonzero parts: r of the nvars fields, in increasing order, times each
    distinct ordering of the parts; the zero parts add nothing to a key.
    Distinct exponents have disjoint orbits, and every key of an orbit takes
    the coefficient of alpha.
    """
    dominant = dominant_terms(shape, nvars)
    bits = dominant._bits
    shifts = range((nvars - 1) * bits, -1, -bits)
    places: dict[int, list[tuple[int, ...]]] = {}  # r -> the r-field shift tuples
    terms: dict[int, int] = {}
    for alpha, coeff in dominant.sorted_terms():
        parts = alpha[: nvars - alpha.count(0)]
        fields = places.get(len(parts))
        if fields is None:
            fields = places[len(parts)] = list(combinations(shifts, len(parts)))
        orders = _orderings(parts)
        terms.update(
            dict.fromkeys([sum(map(lshift, o, f)) for f in fields for o in orders], coeff)
        )
    return Polynomial._packed(nvars, bits, terms)


def _dominated(rho: Sequence[int]) -> list[tuple[int, ...]]:
    """The weakly decreasing exponents of ``len(rho)`` fields and degree
    sum(rho) whose top k parts sum to no more than rho's, for every k.

    Built part by part on a stack: a part is at most the last one and at
    least the share of the degree left that the fields left must hold.
    """
    n, degree = len(rho), sum(rho)
    bound = list(accumulate(rho))
    out = []
    stack: list[tuple[tuple[int, ...], int]] = [((), degree)]
    while stack:
        alpha, rest = stack.pop()
        i = len(alpha)
        if i == n:
            out.append(alpha)
            continue
        top = min(alpha[-1] if alpha else rest, bound[i] - degree + rest)
        for a in range(-(-rest // (n - i)), top + 1):
            stack.append(((*alpha, a), rest - a))
    return out


def dominant_products(pairs: Sequence[tuple[Polynomial, Polynomial]], nvars: int) -> Polynomial:
    """The terms of the sum of p * q over ``pairs`` at weakly decreasing
    exponents, for skew Schur polynomials p and q in ``nvars`` variables,
    with no product expanded.

    The coefficient of p * q at alpha is the sum of q[gamma] * p[alpha - gamma]
    over the gamma <= alpha in the support of q, taken as the factor with
    fewer terms.  Keys are packed with fields ``bits + 2`` wide, ``bits`` the
    widest of all factors: a product exponent fits in ``bits + 1``, and the top
    bit of each field is a guard.  With every guard set in alpha, alpha - gamma
    keeps them all exactly when no field of gamma exceeds alpha's, and then
    clearing them leaves the key of alpha - gamma.

    The alpha tried are the weakly decreasing exponents of the product's
    degree dominated by the sum of the factors' lex-largest exponents.  That
    of s_{outer/inner} is its column lengths transposed: filling each column
    with 1, 2, ... from its top cell is a tableau, and a column holds at most
    k entries up to k, so the top k parts of any sorted exponent sum to no
    more than its top k.
    """
    pairs = [(p, q) for p, q in pairs if not (p.is_zero or q.is_zero)]
    if any(f.nvars != nvars for pair in pairs for f in pair):
        raise ValueError(f"every factor must have {nvars} variables")
    width = max((max(p._bits, q._bits) for p, q in pairs), default=0) + 2
    shifts = range((nvars - 1) * width, -1, -width)
    guard = sum(1 << (s + width - 1) for s in shifts)
    total: dict[int, int] = {}
    for p, q in pairs:
        if len(q._terms) > len(p._terms):
            p, q = q, p
        big, small = p._at(width), q._at(width)
        look, cells = big.get, small.items()
        # a sum of keys is the key of the sum of their exponents
        lead, mask = max(big) + max(small), (1 << width) - 1
        for alpha in _dominated([lead >> s & mask for s in shifts]):
            a = _pack(alpha, width) | guard
            coeff = sum(c * look(d ^ guard, 0) for g, c in cells if (d := a - g) & guard == guard)
            if coeff:
                key = a ^ guard
                total[key] = total.get(key, 0) + coeff
    return Polynomial._packed(nvars, width, total)


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


class _IntRows(list):
    """A square matrix as new lists of ints, the rows a Jacobi-Trudi matrix
    is read into: ``bareiss_determinant`` eliminates in them with no copy or
    check."""


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
    The ``_IntRows`` of a Jacobi-Trudi matrix hold ints by construction, so they
    skip that check, which cost about a tenth of each of its determinants.
    """
    n = len(matrix)
    if type(matrix) is _IntRows:
        m = matrix
    else:
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
        rest = range(k + 1, n)
        for i in rest:
            r = m[i]
            f = r[k]
            if f:
                base = pivots[done[i]]
                if base == 1:
                    for j in rest:
                        r[j] = r[j] * p - f * row[j]
                else:
                    for j in rest:
                        r[j] = (r[j] * p - f * row[j]) // base
                done[i] = k + 1
        pivots.append(p)
    last = m[n - 1][n - 1]
    if done[n - 1] < n - 1:
        last = last * pivots[n - 1] // pivots[done[n - 1]]
    return sign * last


def _top_degree(shapes: Sequence[SkewShape]) -> int:
    """D, the top degree read by any shape's Jacobi-Trudi matrix, 0 for none.

    Entry (i, j) of the matrix of outer/inner with r rows is h_{a_i - b_j},
    a_i = outer_i - i and b_j = inner_j - j; both strictly decrease, so D is
    a_1 - b_r = outer_1 - inner_r + r - 1.
    """
    return max(
        (s.outer[0] - s.inner.part(s.rows) + s.rows - 1 for s in shapes if s.rows), default=0
    )


def _index_rows(shape: SkewShape, zero: int) -> list[itemgetter]:
    """The Jacobi-Trudi matrix of ``shape`` as one ``itemgetter`` per row, to
    read from h_0..h_D followed by a 0 at index ``zero``: entry (i, j) is
    a_i - b_j, or ``zero`` where a_i < b_j.  A one-row shape's getter
    returns its one h-value, not a tuple."""
    a = [p - i for i, p in enumerate(shape.outer, 1)]
    b = [shape.inner.part(j) - j for j in range(1, shape.rows + 1)]
    return [itemgetter(*[x - y if x >= y else zero for y in b]) for x in a]


def _checked(h: Sequence[int], top: int) -> list[int]:
    """h_0..h_top followed by the 0 that ``_index_rows`` reads where
    a_i < b_j; an h-value that is not an ``int`` is refused."""
    for d in range(top + 1):
        if not isinstance(h[d], int):
            raise ValueError(f"h_{d} is not an integer: {h[d]!r}")
    return [*h[: top + 1], 0]


def _determinant(rows: list[itemgetter], h: list[int]) -> int:
    """The determinant of the matrix laid out as ``rows``, read from ``h``."""
    if len(rows) == 1:
        return rows[0](h)
    return bareiss_determinant(_IntRows([[*row(h)] for row in rows]))


def h_values(shapes: Sequence[SkewShape], values: Sequence[int]) -> list[int]:
    """h_0..h_D at ``values``, D the top degree read by any shape's determinant.

    One vector serves every shape evaluated at the same point, as
    ``skew_schur_eval``'s ``h``.  A multipoint verification reads the same
    vector through ``skew_schur_evaluator``, which builds the shapes'
    layout once per verification and the h-vector once per point.
    """
    return complete_homogeneous_values(values, _top_degree(shapes))


def skew_schur_evaluator(shapes: Sequence[SkewShape]) -> Callable[[Sequence[int]], list[int]]:
    """The values of ``shapes`` at one integer point, as a function of the point.

    Each shape's Jacobi-Trudi matrix is laid out once, here, as index rows
    into one h-vector; at each point the evaluator computes h_0..h_D once,
    D the top degree of all the shapes, and gives each shape 0 when it has a
    column taller than the point's nonzero coordinates, its one h-value
    when it has one row, and otherwise its determinant, as
    ``skew_schur_eval`` would.  Nothing outlives the returned function.
    """
    top = _top_degree(shapes)
    layout = [(s.max_column_height, _index_rows(s, top + 1)) for s in shapes]

    def values_at(values: Sequence[int]) -> list[int]:
        h = _checked(complete_homogeneous_values(values, top), top)
        nonzero = len(values) - values.count(0)
        return [0 if height > nonzero else _determinant(rows, h) for height, rows in layout]

    return values_at


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
    corner, which is where ``bareiss_determinant`` skips rows.  An h-value
    that is not an ``int``, as at a point with a float coordinate, is
    refused: the elimination would floor it.
    """
    if not shape.rows:
        return 1
    top = _top_degree((shape,))
    if h is not None and len(h) <= top:
        raise ValueError(f"h has {len(h)} values, but {shape} needs {top + 1} (h_0..h_{top})")
    if shape.max_column_height > len(values) - values.count(0):
        return 0
    if h is None:
        h = complete_homogeneous_values(values, top)
    return _determinant(_index_rows(shape, top + 1), _checked(h, top))
