import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurpaths import (
    Partition,
    Polynomial,
    SkewShape,
    bareiss_determinant,
    complete_homogeneous_values,
    dominant_terms,
    enumerate_ssyt,
    h_values,
    skew_schur,
    skew_schur_eval,
    skew_schur_evaluator,
    weight,
)
from conftest import FamilySampler, exact_determinant, shapes_up_to


def P(*parts):
    return Partition(parts)


def _one(nvars):
    return Polynomial(nvars, {(0,) * nvars: 1})


# Polynomials the reader tests run on: zero, one variable, a field wider
# than a machine word, and coefficients of both signs.
READER_POLYNOMIALS = {
    "zero": Polynomial(3),
    "one-variable": skew_schur(SkewShape(P(2)), 1),
    "wide": Polynomial(1, {(2**40,): 1}) * Polynomial(1, {(2**40,): 1, (0,): 2}),
    "signed": Polynomial(2, {(1, 0): -3, (0, 2): 10**40, (0, 0): 7}),
}


class TestPolynomial:
    def test_square_of_sum(self):
        x1 = Polynomial(2, {(1, 0): 1})
        x2 = Polynomial(2, {(0, 1): 1})
        s = x1 + x2
        assert (s * s).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_add_zero(self):
        p = Polynomial(2, {(1, 1): 3})
        assert p + Polynomial(2) == p

    def test_multiply_by_one(self):
        p = skew_schur(SkewShape(P(2, 1)), 2)
        assert p * _one(2) == p
        assert p.terms == {(2, 1): 1, (1, 2): 1}

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError, match=r"2 variables vs 3"):
            _one(2) + _one(3)
        with pytest.raises(ValueError, match=r"2 variables vs 3"):
            _one(2) * _one(3)

    def test_zero_coefficients_dropped(self):
        p = Polynomial(1, {(1,): 1}) + Polynomial(1, {(1,): -1})
        assert p.is_zero and p.terms == {}

    def test_evaluate(self):
        p = Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert p.evaluate((3, 4)) == 49

    def test_json_roundtrip_sorted(self):
        p = Polynomial(2, {(0, 2): 5, (2, 0): 1})
        obj = p.to_json()
        assert [t["exp"] for t in obj["terms"]] == [[2, 0], [0, 2]]
        assert Polynomial.from_json(obj) == p

    def test_wide_exponent_squared(self):
        p = Polynomial(1, {(2**40,): 1})
        assert (p * p).terms == {(2**41,): 1}

    def test_items_match_terms_and_sorted_terms(self):
        for shape in shapes_up_to(4):
            for n in (1, 2, 3):
                poly = skew_schur(shape, n)
                assert dict(poly.terms.items()) == poly.terms
                assert sorted(poly.terms.items()) == sorted(poly.sorted_terms())

    @pytest.mark.parametrize("p", READER_POLYNOMIALS.values(), ids=READER_POLYNOMIALS.keys())
    def test_terms_is_sorted_terms_as_a_dict(self, p):
        assert list(p.terms.items()) == p.sorted_terms()

    @pytest.mark.parametrize("p", READER_POLYNOMIALS.values(), ids=READER_POLYNOMIALS.keys())
    def test_terms_is_a_copy(self, p):
        before = p.sorted_terms()
        terms = p.terms
        terms.clear()
        terms[(7,) * p.nvars] = 5
        assert p.sorted_terms() == before

    @pytest.mark.parametrize("p", READER_POLYNOMIALS.values(), ids=READER_POLYNOMIALS.keys())
    def test_coefficients_are_the_terms_values(self, p):
        assert sorted(p.coefficients()) == sorted(p.terms.values())

    def test_equal_across_constructions(self):
        poly = skew_schur(SkewShape(P(3, 1), P(1)), 3)
        from_tuples = Polynomial(3, dict(poly.terms.items()))
        from_json = Polynomial.from_json(poly.to_json())
        widened = poly * _one(3)  # the same terms in wider fields
        for other in (from_tuples, from_json, widened):
            assert other == poly
        assert poly + _one(3) != poly


class TestSkewSchur:
    def test_single_box(self):
        assert skew_schur(SkewShape(P(1)), 3).terms == {
            (1, 0, 0): 1,
            (0, 1, 0): 1,
            (0, 0, 1): 1,
        }

    def test_free_cell_in_second_row(self):
        assert skew_schur(SkewShape(P(1, 1), P(1)), 2).terms == {(1, 0): 1, (0, 1): 1}

    def test_tall_column_vanishes(self):
        assert skew_schur(SkewShape(P(1, 1, 1)), 2).is_zero

    def test_one_box_in_two_thousand_variables(self):
        # one dominant term, x_1, whose orbit is placed without a zero part
        poly = skew_schur(SkewShape(P(1)), 2000)
        assert dominant_terms(SkewShape(P(1)), 2000).terms == {(1,) + (0,) * 1999: 1}
        assert len(poly.coefficients()) == 2000 and set(poly.coefficients()) == {1}
        assert poly.evaluate(range(2000)) == sum(range(2000))


def tableau_weight_sum(shape, n):
    """The oracle: the weights of all fillings of ``shape`` with 1..n, summed."""
    terms = {}
    for t in enumerate_ssyt(shape, n):
        exp = weight(t)
        terms[exp] = terms.get(exp, 0) + 1
    return terms


def _dominant(terms):
    return {e: c for e, c in terms.items() if all(a >= b for a, b in zip(e, e[1:]))}


def _transposed_columns(shape, n):
    """The conjugate of the column lengths of ``shape``, padded to n parts."""
    heights = Counter(j for _, j in shape.cells())
    return tuple(sum(1 for h in heights.values() if h >= k) for k in range(1, n + 1))


class TestBranchingRuleAgainstTableaux:
    def test_dominant_terms_are_the_dominant_tableau_weights(self):
        for shape in shapes_up_to(6):
            for n in range(1, 6):
                dominant = dominant_terms(shape, n)
                assert dominant.terms == _dominant(tableau_weight_sum(shape, n)), (shape, n)
                assert dominant._bits == skew_schur(shape, n)._bits

    def test_leading_exponent_is_the_transposed_columns(self):
        """What ``dominant_products`` bounds its exponents by: the lex-largest
        exponent of s_{outer/inner} is its column lengths transposed."""
        for shape in shapes_up_to(6):
            for n in range(1, 6):
                terms = skew_schur(shape, n).terms
                if terms:
                    assert max(terms) == _transposed_columns(shape, n), (shape, n)
                else:
                    assert shape.max_column_height > n

    def test_every_small_shape(self):
        for shape in shapes_up_to(6):
            for n in range(1, 6):
                assert skew_schur(shape, n).terms == tableau_weight_sum(shape, n), (shape, n)

    def test_random_shapes(self):
        sampler = FamilySampler(seed=4, max_outer=10)
        rng = random.Random(4)
        for _ in range(300):
            shape, n = sampler.shape(), rng.randint(1, 6)
            assert skew_schur(shape, n).terms == tableau_weight_sum(shape, n), (shape, n)

    @pytest.mark.parametrize(
        "outer, inner, n, pinned",
        [
            ((), (), 3, {(0, 0, 0): 1}),  # the empty shape: one empty filling
            ((1, 1, 1, 1), (), 3, {}),  # a column taller than n: zero
            ((3, 3, 3, 1), (2, 1), 2, {}),  # a skew column of height 3 at n = 2
            ((1100,), (), 1, {(1100,): 1}),  # one long row in one variable
            ((4, 3, 2, 2), (2,), 3, None),  # inner has fewer rows than outer
        ],
        ids=["empty", "tall-column", "skew-tall-column", "long-row", "short-inner"],
    )
    def test_edge_cases(self, outer, inner, n, pinned):
        shape = SkewShape(P(*outer), P(*inner))
        terms = skew_schur(shape, n).terms
        assert terms == tableau_weight_sum(shape, n)
        assert pinned is None or terms == pinned

    def test_nonpositive_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet must be positive"):
            skew_schur(SkewShape(P(1)), 0)

    def test_column_rule_is_only_a_shortcut(self):
        """The branching rule alone gives 0 for a shape with a column taller
        than N, with no ``max_column_height`` check, and terms for every
        other shape."""
        pairs = [(shape, n) for shape in shapes_up_to(5) for n in range(1, 5)]
        tall = {pair for pair in pairs if pair[0].max_column_height > pair[1]}
        assert len(tall) == 53
        for pair in pairs:
            assert dominant_terms(*pair).is_zero == (pair in tall), pair

    def test_readme_compute_example_at_eight_variables(self):
        # 78,478,400 tableaux: minutes by enumeration, seconds by branching
        shape = SkewShape(P(7, 4, 4, 3, 1, 1, 1), P(3, 2, 2, 1))
        poly = skew_schur(shape, 8)
        assert len(poly.terms) == 68_272
        assert sum(poly.terms.values()) == skew_schur_eval(shape, (1,) * 8) == 78_478_400
        rng = random.Random(8)
        point = tuple(rng.randint(-3, 5) for _ in range(8))
        assert poly.evaluate(point) == skew_schur_eval(shape, point)


class TestHomogeneous:
    def test_ones(self):
        # h_d at (1, 1, 1) counts multisets of size d from 3 values
        assert complete_homogeneous_values((1, 1, 1), 4) == [1, 3, 6, 10, 15]

    def test_single_variable(self):
        assert complete_homogeneous_values((2,), 3) == [1, 2, 4, 8]

    def test_zero_coordinates_change_nothing(self):
        # the reference: the recurrence over every coordinate, zeros included
        rng = random.Random(3)
        for _ in range(200):
            point = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(rng.randint(0, 6))]
            reference = [1] + [0] * 6
            for v in point:
                for d in range(1, 7):
                    reference[d] += v * reference[d - 1]
            assert complete_homogeneous_values(point, 6) == reference, point
        assert complete_homogeneous_values((0, 0, 0), 3) == [1, 0, 0, 0]


def _counting_int() -> type:
    """A new int subclass that counts its multiplications in ``products``;
    sums, differences and quotients stay in the subclass."""

    class Counted(int):
        products = 0

        def __mul__(self, other):
            Counted.products += 1
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __rsub__(self, other):
            return Counted(int(other) - int(self))

        def __floordiv__(self, other):
            return Counted(int(self) // int(other))

        def __rfloordiv__(self, other):
            return Counted(int(other) // int(self))

    return Counted


def _stale_swap(rng, n):
    """Row 1 is a multiple of row 0 up to column 1, so step 0 leaves a zero
    pivot at (1, 1); rows 2.. have a zero in column 0, so step 0 skips them,
    and step 1 swaps one of them in without the factor of pivot 0."""
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if n >= 3:
        m[0][0] = rng.choice((-3, 2, 5))
        c = rng.choice((-2, 1, 3))
        m[1][0], m[1][1] = c * m[0][0], c * m[0][1]
        for i in range(2, n):
            m[i][0] = 0
        m[rng.randrange(2, n)][1] = rng.choice((-4, 7))
    return m


def _singular(rng, n):
    m = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        m[j] = [c * x for x in m[i]]
    return m


def _jacobi_trudi_like(rng, n):
    """Zeros below a random weakly increasing staircase, as in a Jacobi-Trudi
    matrix, and a few more where h_d vanishes at a point with negatives."""
    edge = sorted(rng.randint(0, n) for _ in range(n))
    return [
        [0 if j < edge[i] - 1 or rng.random() < 0.15 else rng.randint(-20, 20) for j in range(n)]
        for i in range(n)
    ]


MATRIX_KINDS = {
    "dense": lambda rng, n: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
    "mostly-zero": lambda rng, n: [
        [rng.randint(-4, 4) if rng.random() < 0.2 else 0 for _ in range(n)] for _ in range(n)
    ],
    "staircase": _jacobi_trudi_like,
    "stale-swap": _stale_swap,
    "singular": _singular,
    "wide": lambda rng, n: [
        [rng.choice((0, rng.getrandbits(260) - 2**259)) for _ in range(n)] for _ in range(n)
    ],
}


class TestBareiss:
    def test_empty(self):
        assert bareiss_determinant([]) == 1

    def test_known_3x3(self):
        assert bareiss_determinant([[2, 3, 4], [1, 2, 3], [0, 1, 2]]) == 0
        assert bareiss_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5

    def test_zero_pivot_with_swap(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[0, 0], [0, 0]]) == 0
        # Step 0 (pivot 2) skips row 2 and zeroes row 1's next entry, so step 1
        # swaps in row 2 without its factor 2, and the last entry is stale too.
        assert bareiss_determinant([[2, 1, 0], [2, 1, 3], [0, 5, 7]]) == -30
        # Rows skipped across steps with pivots other than 1, then swapped in:
        # this one goes wrong if a swap leaves the step counts behind, or if
        # any catch-up or divisor uses the wrong pivot.
        sparse = [
            [0, 1, 0, 0, 4],
            [0, -2, 0, 0, 0],
            [-2, 0, -1, 0, 0],
            [-1, 0, 0, 0, 0],
            [0, 0, 0, -3, -2],
        ]
        assert bareiss_determinant(sparse) == exact_determinant(sparse) == 24

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1, 2, 3], [4, 5, 6]], "matrix is not square: row 0 has 3 entries, not 2"),
            ([[1, 2], [3, 4], [5, 6]], "matrix is not square: row 0 has 2 entries, not 3"),
            ([[1, 2], [3]], "matrix is not square: row 1 has 1 entries, not 2"),
            ([[]], "matrix is not square: row 0 has 0 entries, not 1"),
            # the determinants are -0.5 and 19.5; elimination would floor them
            ([[0.5, 1], [1, 1]], "matrix entry (0, 0) is not an integer: 0.5"),
            ([[2, 1, 1], [1, 3, 1], [1, 1, 4.5]], "matrix entry (2, 2) is not an integer: 4.5"),
        ],
        ids=["2x3", "3x2", "ragged", "empty-row", "float-2x2", "float-3x3"],
    )
    def test_not_square_refused(self, matrix, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bareiss_determinant(matrix)

    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    def test_agrees_with_exact_oracle(self, kind):
        rng = random.Random(kind)
        for trial in range(300):
            n = trial % 9
            matrix = MATRIX_KINDS[kind](rng, n)
            before = [list(row) for row in matrix]
            assert bareiss_determinant(matrix) == exact_determinant(matrix), matrix
            assert matrix == before

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**240), 2**240)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_agrees_with_exact_oracle_on_any_matrix(self, matrix):
        assert bareiss_determinant(matrix) == exact_determinant(matrix)

    def test_zero_multipliers_cost_no_multiplication(self):
        # Every entry is counted. Plain Bareiss, which rescales every row at
        # every step, takes 771 and 571 multiplications on these matrices.
        for shape, point, pinned in (
            (SkewShape(P(*(1,) * 11)), (1,) * 11, 111),
            (SkewShape(P(10, 7, 7, 6, 6, 4, 4, 3, 2, 2), P(4, 3, 3, 1)), (1,) * 11, 217),
        ):
            counted = _counting_int()
            h = h_values((shape,), point)
            r = len(shape.outer)
            a = [p - i for i, p in enumerate(shape.outer, 1)]
            b = [p - j for j, p in enumerate((*shape.inner, *(0,) * (r - len(shape.inner))), 1)]
            matrix = [[counted(h[x - y] if x >= y else 0) for y in b] for x in a]
            value = bareiss_determinant(matrix)
            assert value == skew_schur_eval(shape, point) == exact_determinant(matrix)
            assert counted.products == pinned, shape


class TestEvalOracle:
    def test_single_box_ones(self):
        assert skew_schur_eval(SkewShape(P(1)), (1, 1, 1)) == 3

    def test_counts_two_one(self):
        assert skew_schur_eval(SkewShape(P(2, 1)), (1, 1)) == 2

    def test_tall_column(self):
        assert skew_schur_eval(SkewShape(P(1, 1, 1)), (4, 7)) == 0

    def test_empty_shape(self):
        assert skew_schur_eval(SkewShape(P()), (1, 1)) == 1

    def test_agreement_with_enumeration(self):
        # each shape read from its own h-vector and from one built together
        # with a taller shape, whose vector is longer
        # with negative coordinates too, where h_d can vanish off the
        # staircase of zeros (h_1(1, -1) = 0)
        tall = SkewShape(P(6, 1, 1, 1, 1, 1, 1))
        rng = random.Random(11)
        vanishing = off_staircase = 0
        for shape in shapes_up_to(5):
            for n in (2, 3):
                poly = skew_schur(shape, n)
                points = [(0,) * n, (0,) + (3,) * (n - 1), (1, -1) + (0,) * (n - 2)]
                points += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(3)]
                points += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3)]
                for point in points:
                    own = h_values((shape,), point)
                    shared = h_values((shape, tall), point)
                    assert len(shared) > len(own)
                    value = skew_schur_eval(shape, point)
                    assert skew_schur_eval(shape, point, shared) == value
                    assert poly.evaluate(point) == value, (shape, point)
                    if shape.max_column_height > n:
                        assert value == 0
                        vanishing += 1
                    off_staircase += min(point) < 0 and 0 in own
        assert vanishing > 0 and off_staircase > 0

    def test_evaluator_agrees_shape_by_shape(self):
        """``skew_schur_evaluator`` lays several shapes out against one
        h-vector of their common top degree and gives each the value that
        ``skew_schur_eval`` and the expansion give, at seeded points with
        zero and negative coordinates; the draws include the empty shape,
        one-row shapes and columns taller than the nonzero coordinates."""
        pool = list(shapes_up_to(6))
        rng = random.Random(29)
        seen = Counter()
        for _ in range(120):
            n = rng.randint(1, 4)
            shapes = rng.sample(pool, rng.randint(1, 5))
            values_at = skew_schur_evaluator(shapes)
            tops = {len(h_values((shape,), ())) for shape in shapes}
            seen["shared"] += len(tops) > 1
            for _ in range(3):
                point = [rng.randint(-3, 4) for _ in range(n)]
                if rng.random() < 0.4:
                    point[rng.randrange(n)] = 0
                values = values_at(point)
                assert len(values) == len(shapes)
                nonzero = n - point.count(0)
                seen["zero"] += nonzero < n
                for shape, value in zip(shapes, values):
                    assert value == skew_schur_eval(shape, point), (shape, point)
                    assert value == skew_schur(shape, n).evaluate(point), (shape, point)
                    seen["empty"] += shape.rows == 0
                    seen["one row"] += shape.rows == 1
                    seen["tall"] += shape.max_column_height > nonzero
        assert set(seen) == {"shared", "zero", "empty", "one row", "tall"}
        assert min(seen.values()) > 0, seen
        assert skew_schur_evaluator([])((1, 2)) == []

    def test_dual_jacobi_trudi_in_e(self):
        """A second route in Lambda_N = Z[e_1..e_N] (Macdonald, I.2-3): at
        seeded integers e_1..e_N, with e_k = 0 for k > N, the Jacobi-Trudi
        determinant in the h's they give, h_d = sum_{i=1..min(d,N)}
        (-1)^(i-1) e_i h_{d-i}, equals the dual determinant
        det(e_{outer'_i - inner'_j - i + j}) of the conjugate shapes.  The
        point is R ones, R the tallest column, so the support rule never
        zeroes the shape; a column taller than N makes both sides 0."""
        rng = random.Random(13)
        checked = 0
        for shape in shapes_up_to(6):
            width = shape.outer.part(1)
            outer_t, inner_t = (
                [sum(p >= j for p in part) for j in range(1, width + 1)]
                for part in (shape.outer, shape.inner)
            )
            top = len(h_values((shape,), ())) - 1  # h_0..h_top, the top degree
            for n in range(1, 6):
                e = [1] + [rng.randint(-9, 9) for _ in range(n)]
                h = [1]
                for d in range(1, top + 1):
                    h.append(sum((-1) ** (i - 1) * e[i] * h[d - i] for i in range(1, min(d, n) + 1)))
                dual = [
                    [e[k] if 0 <= (k := lam - mu - i + j) <= n else 0 for j, mu in enumerate(inner_t)]
                    for i, lam in enumerate(outer_t)
                ]
                value = skew_schur_eval(shape, (1,) * shape.max_column_height, h)
                assert value == bareiss_determinant(dual), (shape, n, e)
                checked += 1
        assert checked == 1150

    def test_zero_coordinates_drop_out(self):
        """At a point with a zero coordinate the value is the value with the
        zeros deleted, and 0 when a column is taller than the coordinates
        left; a short h is still refused there."""
        rng = random.Random(19)
        deleted = vanished = 0
        for shape in shapes_up_to(5):
            for n in (2, 3, 4):
                poly = skew_schur(shape, n)
                for _ in range(4):
                    point = [rng.randint(-4, 4) for _ in range(n)]
                    point[rng.randrange(n)] = 0
                    value = skew_schur_eval(shape, point)
                    assert poly.evaluate(point) == value, (shape, point)
                    rest = [v for v in point if v]
                    if rest:
                        assert skew_schur_eval(shape, rest) == value, (shape, point)
                        deleted += 1
                    if shape.max_column_height > len(rest):
                        assert value == 0
                        vanished += 1
                        h = h_values((shape,), point)
                        with pytest.raises(ValueError, match=r"^h has"):
                            skew_schur_eval(shape, point, h[:-1])
        assert deleted > 0 and vanished > 0

    @pytest.mark.parametrize(
        "point, h, message",
        [
            ((0.5, 1), None, "h_1 is not an integer: 1.5"),
            ((1, 1.0), None, "h_1 is not an integer: 2.0"),
            ((2, 5), [1, 7, 39, 203.0, 1031], "h_3 is not an integer: 203.0"),
        ],
        ids=["float-point", "float-one", "float-h"],
    )
    def test_non_integer_h_refused(self, point, h, message):
        # the determinant's entries are h-values, so a float one is refused
        # before the elimination would floor it
        shape = SkewShape(P(3, 1), P(1))
        assert h is None or h == h_values((shape,), point)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            skew_schur_eval(shape, point, h)

    def test_short_h_vector_refused(self):
        shape = SkewShape(P(3, 1), P(1))  # top degree 3 - 0 + 2 - 1 = 4
        h = h_values((shape,), (2, 5))
        assert len(h) == 5 and skew_schur_eval(shape, (2, 5), h) == skew_schur_eval(shape, (2, 5))
        with pytest.raises(ValueError, match=r"h has 4 values, but .* needs 5 \(h_0\.\.h_4\)"):
            skew_schur_eval(shape, (2, 5), h[:4])

    def test_straight_shapes_are_symmetric(self):
        import itertools

        for shape in shapes_up_to(5):
            if shape.inner:
                continue
            for n in (2, 3):
                poly = skew_schur(shape, n)
                for perm in itertools.permutations(range(n)):
                    permuted = {
                        tuple(exp[p] for p in perm): c for exp, c in poly.terms.items()
                    }
                    assert permuted == poly.terms

    def test_disconnected_multiplicativity(self):
        # (5,1)/(4) is two far-apart cells; so is (3,1)/(2)
        for outer, inner, parts in (
            ((5, 1), (4,), ((1,), (1,))),
            ((3, 1), (2,), ((1,), (1,))),
            ((4, 2, 2), (2, 2), ((2,), (2,))),
        ):
            whole = SkewShape(P(*outer), P(*inner))
            n = 3
            product = _one(n)
            for comp in parts:
                product = product * skew_schur(SkewShape(P(*comp)), n)
            assert skew_schur(whole, n) == product
