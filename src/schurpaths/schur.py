"""Exact skew Schur computations.

Two independent routes, exact arbitrary-precision arithmetic throughout:
symbolic expansion by the branching rule, one horizontal strip per variable
(``skew_schur``), and integer evaluation through the determinant of
complete homogeneous sums by fraction-free elimination (``skew_schur_eval``).
Summing tableau weights over ``tableaux.enumerate_ssyt`` is a third route,
kept as the test oracle for the expansion; the test suite cross-checks all
three on every shape it can enumerate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

from .partitions import SkewShape
# skew_schur does not call it, but perfbench/tracing.py rebinds
# schur.enumerate_ssyt to count tableau enumeration, so the name stays here.
from .tableaux import enumerate_ssyt  # noqa: F401

Monomial = tuple[int, ...]


class VariableCountMismatch(ValueError):
    pass


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    Terms map exponent tuples of length ``nvars`` to nonzero coefficients.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, int] | None = None) -> None:
        self.nvars = nvars
        self.terms: dict[Monomial, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise VariableCountMismatch(f"exponent {exp} has length != {nvars}")
                if coeff:
                    self.terms[tuple(exp)] = self.terms.get(tuple(exp), 0) + coeff
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return cls(len(exps), {tuple(exps): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise VariableCountMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coeff
        return Polynomial(self.nvars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms.get(exp, 0) - coeff
        return Polynomial(self.nvars, terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict[Monomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial(self.nvars, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {len(self.terms)} terms)"

    def evaluate(self, values: Sequence[int]) -> int:
        if len(values) != self.nvars:
            raise VariableCountMismatch(f"need {self.nvars} values, got {len(values)}")
        total = 0
        for exp, coeff in self.terms.items():
            m = coeff
            for v, e in zip(values, exp):
                m *= v**e
            total += m
        return total

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Descending lexicographic exponent order; the canonical term order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

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
        return Polynomial.zero(nvars)
    lam = tuple(shape.outer)
    rows = len(lam)
    inner = tuple(shape.inner.part(i) for i in range(1, rows + 1))
    # Exponents stay sparse until the end, as flat (variable, power, ...)
    # tuples extended only by a nonempty strip: dense tuples would cost
    # O(nvars) per term at every level.
    states: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {inner: {(): 1}}
    for k in range(nvars):
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
        nxt: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
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
                    add = by_strip[d] = {e + (k, d): c for e, c in terms.items()}
                into = nxt.get(nu)
                if into is None:
                    nxt[nu] = dict(add)
                else:
                    for e, c in add.items():
                        into[e] = into.get(e, 0) + c
        states = nxt
    dense: dict[Monomial, int] = {}
    for e, c in states[lam].items():
        exp = [0] * nvars
        for var, power in zip(e[0::2], e[1::2]):
            exp[var] = power
        dense[tuple(exp)] = c
    return Polynomial(nvars, dense)


def complete_homogeneous_values(values: Sequence[int], max_degree: int) -> list[int]:
    """h_d evaluated at ``values`` for d = 0..max_degree."""
    h = [0] * (max_degree + 1)
    h[0] = 1
    for v in values:
        for d in range(1, max_degree + 1):
            h[d] += v * h[d - 1]
    return h


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def skew_schur_eval(shape: SkewShape, values: Sequence[int]) -> int:
    """Independent oracle: det(h_{outer_i - inner_j - i + j}) at integer values.

    Out-of-range indices contribute h_d = 0 for d < 0; the empty shape gives 1.
    """
    lam, mu = shape.outer, shape.inner
    r = len(lam)
    if r == 0:
        return 1
    degrees = [
        [lam.part(i) - mu.part(j) - i + j for j in range(1, r + 1)] for i in range(1, r + 1)
    ]
    max_degree = max(max(row) for row in degrees)
    h = complete_homogeneous_values(values, max(max_degree, 0))
    m = [[h[d] if d >= 0 else 0 for d in row] for row in degrees]
    return bareiss_determinant(m)
