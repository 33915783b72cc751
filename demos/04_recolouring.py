"""Overlays, bicoloured paths, and the recolouring involution.

Superimposes two families, lists the coloured points in circular order,
traces every bicoloured path, then recolours two chosen paths and reads off
the new pair of skew shapes.  Recolouring the same paths again restores the
original overlay.
"""

import operator

from schurpaths import all_bicoloured, recolour, trace_bicoloured
from schurpaths.gallery import demo_overlay_large

ov = demo_overlay_large()
print("white family:", tuple(ov.white.shape.outer), "/", tuple(ov.white.shape.inner),
      "shift", ov.white.shift)
print("black family:", tuple(ov.black.shape.outer), "/", tuple(ov.black.shape.inner),
      "shift", ov.black.shift)
print()

print("coloured points in circular order (index, x, level, colour, orientation):")
for p in ov.configuration.points:
    orientation = "in" if p.inward else "out"
    print(f"  {p.index:2d}  x={p.x:4d}  level {p.level_name}  {p.colour.value:5s}  {orientation}")
print("doubled end points:", ov.configuration.doubled_top)
print("doubled start points:", ov.configuration.doubled_bottom)
print()

paths, matching = all_bicoloured(ov)
print("bicoloured paths (induced matching is non-crossing):")
for q in paths:
    print(f"  ({q.start.x},{q.start.level_name}) -- ({q.end.x},{q.end.level_name})  [{len(q.arcs)} arcs]")
print()

first = trace_bicoloured(ov, 15, ov.top)
second = trace_bicoloured(ov, 5, 1)
print(f"recolouring the paths from (15,N) and (5,1) "
      f"(other ends ({first.end.x},{first.end.level_name}) and ({second.end.x},{second.end.level_name}))")
out = recolour(ov, [first, second])
print("new white:", tuple(out.white.shape.outer), "/", tuple(out.white.shape.inner),
      "shift", out.white.shift)
print("new black:", tuple(out.black.shape.outer), "/", tuple(out.black.shape.inner),
      "shift", out.black.shift)

before = tuple(map(operator.add, ov.white.weight(), ov.black.weight()))
after = tuple(map(operator.add, out.white.weight(), out.black.weight()))
print("weight product invariant:", before == after)

again = recolour(out, [p for p in all_bicoloured(out)[0]
                       if p.arc_set() in {first.arc_set(), second.arc_set()}])
print("recolouring twice restores the overlay:",
      again.white.shape == ov.white.shape and again.black.shape == ov.black.shape)
