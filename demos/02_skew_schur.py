"""Skew Schur polynomials two ways: the branching rule and the determinant.

The symbolic route adds one horizontal strip per variable, so its terms are
the tableau weights listed first, summed; the evaluation route computes the
determinant of complete homogeneous sums over exact integers.  They must
agree at every point.
"""

import random

from schurpaths import Partition, SkewShape, enumerate_ssyt, skew_schur, skew_schur_eval, weight

shape = SkewShape(Partition((3, 2)), Partition((1,)))
print("shape (3,2)/(1) with entries from {1, 2, 3}")
for t in enumerate_ssyt(shape, 3):
    print("  tableau", [list(r) for r in t.rows], "weight", weight(t))

poly = skew_schur(shape, 3)
print("polynomial terms (exponent vector -> coefficient):")
for exp, coeff in poly.sorted_terms():
    print("  ", exp, "->", coeff)
print()

rng = random.Random(2024)
for _ in range(4):
    point = tuple(rng.randint(0, 4) for _ in range(3))
    poly_value = poly.evaluate(point)
    det_value = skew_schur_eval(shape, point)
    print(f"at {point}: polynomial {poly_value}, determinant {det_value}, equal {poly_value == det_value}")
print()

tall = SkewShape(Partition((1, 1, 1)))
print("a column of height 3 with only 2 entries vanishes:", skew_schur(tall, 2).is_zero)

big = SkewShape(Partition((10, 9, 8, 8, 6, 5, 5, 3, 2, 2)))
print("counting fillings of a 58-box shape at N=11:", skew_schur_eval(big, (1,) * 11))
