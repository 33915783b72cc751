"""Expansion identities for products of skew Schur functions, verified exactly.

The recolouring expansion rewrites s_white * s_black as a sum over
configurations reached through admissible matchings; the border strip
identity is that expansion for one partition, with S the point of its first
row, so its right side comes in recolouring order.  Verification is exact,
either by full polynomial expansion or at seeded integer points.
"""

from schurpaths import (
    Partition,
    SkewShape,
    StripSpec,
    border_strip_identity,
    recolouring_expansion,
    verify_identity,
)

lam = Partition((16, 15, 15, 13, 13, 11, 11, 10, 10, 9, 7, 5))
sig = Partition((14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))
print("product of straight shapes, expanding through the point (15, N):")
for t in recolouring_expansion(SkewShape(lam), SkewShape(sig), s={(15, "N")}):
    print("  ", tuple(t.white.outer), "x", tuple(t.black.outer))
print()

lam = Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))
mu = Partition((4, 3, 3, 1))
strips = [StripSpec(2, 2, 3), StripSpec(1, 6, 2)]
ident = border_strip_identity(lam, mu, strips, alphabet=11)
print("border strip identity, left side:")
for t in ident.lhs:
    print("  ", tuple(t.white.outer), "/", tuple(mu), "x", tuple(t.black.outer), "/", tuple(mu))
print("right side, in recolouring order (the complete-peel term last):")
for t in ident.rhs:
    print("  ", tuple(t.white.outer), "x", tuple(t.black.outer))

report = verify_identity(ident, method="multipoint", points=20, seed=42)
print("multipoint verification at N=11:", report.verdict,
      f"(largest value has {len(str(report.max_abs))} digits)")
print()

small = border_strip_identity(Partition((3, 1)), (), [StripSpec(1, 2, 1)], alphabet=3)
print("a small instance verified by full expansion:",
      verify_identity(small, method="full").verdict)
