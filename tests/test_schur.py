import random

import pytest

from schurpaths import (
    Partition,
    Polynomial,
    SkewShape,
    bareiss_determinant,
    complete_homogeneous_values,
    enumerate_ssyt,
    h_values,
    skew_schur,
    skew_schur_eval,
    weight,
)
from conftest import FamilySampler, shapes_up_to


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
        p = Polynomial(1, {(1,): 1}) - Polynomial(1, {(1,): 1})
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

    @pytest.mark.parametrize("p", READER_POLYNOMIALS.values(), ids=READER_POLYNOMIALS.keys())
    def test_leading_exponent(self, p):
        if p.is_zero:
            assert p.leading_exponent() is None
        else:
            assert p.leading_exponent() == p.sorted_terms()[0][0]

    def test_equal_and_hash_equal_across_constructions(self):
        poly = skew_schur(SkewShape(P(3, 1), P(1)), 3)
        from_tuples = Polynomial(3, dict(poly.terms.items()))
        from_json = Polynomial.from_json(poly.to_json())
        widened = poly * _one(3)  # the same terms in wider fields
        for other in (from_tuples, from_json, widened):
            assert other == poly and hash(other) == hash(poly)
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


def tableau_weight_sum(shape, n):
    """The oracle: the weights of all fillings of ``shape`` with 1..n, summed."""
    terms = {}
    for t in enumerate_ssyt(shape, n):
        exp = weight(t)
        terms[exp] = terms.get(exp, 0) + 1
    return terms


class TestBranchingRuleAgainstTableaux:
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


class TestBareiss:
    def test_empty(self):
        assert bareiss_determinant([]) == 1

    def test_known_3x3(self):
        assert bareiss_determinant([[2, 3, 4], [1, 2, 3], [0, 1, 2]]) == 0
        assert bareiss_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5

    def test_zero_pivot_with_swap(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[0, 0], [0, 0]]) == 0


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
        tall = SkewShape(P(6, 1, 1, 1, 1, 1, 1))
        rng = random.Random(11)
        vanishing = 0
        for shape in shapes_up_to(5):
            for n in (2, 3):
                poly = skew_schur(shape, n)
                points = [(0,) * n, (0,) + (3,) * (n - 1)]
                points += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(3)]
                for point in points:
                    shared = h_values((shape, tall), point)
                    assert len(shared) > len(h_values((shape,), point))
                    value = skew_schur_eval(shape, point)
                    assert skew_schur_eval(shape, point, shared) == value
                    assert poly.evaluate(point) == value, (shape, point)
                    if shape.max_column_height > n:
                        assert value == 0
                        vanishing += 1
        assert vanishing > 0

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
