"""The bijection between tableaux and nonintersecting lattice paths.

Row i of the tableau becomes path i (counted from the right): the height of
the j-th horizontal step equals the j-th entry of the row, so a path's
heights are its row.  A family stores the tableau and draws its paths from
the rows.  The bijection preserves weights, and the shape can be read back
off the endpoints.
"""

from schurpaths import (
    Partition,
    SkewShape,
    endpoints,
    first_tableau,
    paths_to_tableau,
    tableau_to_paths,
    weight,
)

shape = SkewShape(Partition((7, 4, 4, 3, 1, 1, 1)), Partition((3, 2, 2, 1)))
t = first_tableau(shape, 8)
print("tableau rows:", [list(r) for r in t.rows])

family = tableau_to_paths(t, shift=0)
for i, p in enumerate(family.paths, start=1):
    print(f"  path {i}: {p.start} -> {p.end}  heights {list(p.heights)}")

print("weight preserved:", family.weight() == weight(t))
print("roundtrip recovers the tableau:", paths_to_tableau(family) == t)
print()

starts, ends = endpoints(shape, rows=7, shift=0)
print("start points:", starts)
print("end points:  ", ends)
print()

shifted = tableau_to_paths(t, shift=5)
print("a shift translates the picture but not the tableau:",
      paths_to_tableau(shifted) == t)
