"""Partitions, boundary points, and border strip operations.

Walks the strip construction on the running example: two partial border
strips are added to a partition, then the complete border strip is peeled,
all through the boundary point model.
"""

from schurpaths import (
    Partition,
    SkewShape,
    StripSpec,
    add_strip,
    build_nu,
    canonical_shape,
    peel_complete,
    peel_down,
    peel_up,
    to_points,
)

lam = Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))
print("lambda:", tuple(lam))
print("boundary points (rows=10, shift=0):", to_points(lam, 10, 0))
print()

print("adding a strip of 2 boxes in row 2 spanning 3 rows:")
step1 = add_strip(lam, StripSpec(2, 2, 3))
print("  ->", tuple(step1), "_points:", to_points(step1, 10, 0))

print("adding a strip of 1 box in row 6 spanning 2 rows:")
nu = add_strip(step1, StripSpec(1, 6, 2))
print("  ->", tuple(nu))

print("same result in one call:", tuple(build_nu(lam, [StripSpec(2, 2, 3), StripSpec(1, 6, 2)])))
print()

sigma = peel_complete(nu)
print("complete peel of nu:", tuple(sigma))
print("down-peel of nu at row 2:", tuple(peel_down(nu, 2)))
print("down-peel of nu at row 6:", tuple(peel_down(nu, 6)))
print("up-peel of lambda at row 1, box 2:", tuple(peel_up(lam, 1, 2)))
print("up-peel of lambda at row 5, box 1:", tuple(peel_up(lam, 5, 1)))
print()

# decoding the points of lambda over the empty partition's recovers both
# lambda and the shift: the two surplus rows make the least part zero
starts, ends = to_points(Partition(), 12, shift=3), to_points(lam, 12, shift=3)
print("the point model is exact:", canonical_shape(starts, ends) == (SkewShape(lam), 3))
