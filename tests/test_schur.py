import random

import pytest

from schurpaths import (
    Partition,
    Polynomial,
    SkewShape,
    VariableCountMismatch,
    bareiss_determinant,
    complete_homogeneous_values,
    enumerate_ssyt,
    skew_schur,
    skew_schur_eval,
    weight,
)
from conftest import FamilySampler, shapes_up_to


def P(*parts):
    return Partition(parts)


class TestPolynomial:
    def test_square_of_sum(self):
        x1 = Polynomial.monomial((1, 0))
        x2 = Polynomial.monomial((0, 1))
        s = x1 + x2
        assert (s * s).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_add_zero(self):
        p = Polynomial(2, {(1, 1): 3})
        assert p + Polynomial.zero(2) == p

    def test_multiply_by_one(self):
        p = skew_schur(SkewShape(P(2, 1)), 2)
        assert p * Polynomial.one(2) == p
        assert p.terms == {(2, 1): 1, (1, 2): 1}

    def test_variable_count_mismatch(self):
        with pytest.raises(VariableCountMismatch):
            Polynomial.one(2) + Polynomial.one(3)
        with pytest.raises(VariableCountMismatch):
            Polynomial.one(2) * Polynomial.one(3)

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
        rng = random.Random(11)
        for shape in shapes_up_to(5):
            for n in (2, 3):
                poly = skew_schur(shape, n)
                for _ in range(3):
                    point = tuple(rng.randint(0, 4) for _ in range(n))
                    assert poly.evaluate(point) == skew_schur_eval(shape, point)

    def test_straight_shapes_are_symmetric(self):
        import itertools

        for shape in shapes_up_to(5):
            if not shape.is_straight:
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
            product = Polynomial.one(n)
            for comp in parts:
                product = product * skew_schur(SkewShape(P(*comp)), n)
            assert skew_schur(whole, n) == product
