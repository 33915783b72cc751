"""Curated worked instances used by the self-test, demos, and golden tests.

Two overlays whose bicoloured-path structure is pinned down:

* the large instance, twelve paths per family, where the traces pair the
  white end (15, N) with the white start (10, 1) and the black start (5, 1)
  with the white start (-8, 1);
* the small instance, two fillings of one shape at shifts 0 and 1, where the
  traces pair (7, N) with (6, N) and (-1, 1) with (-1, N).

The large instance uses the entrywise minimal white and maximal black
fillings; the small one uses two fixed fillings found by search.  Expected
recolouring results are asserted in the test suite.
"""

from __future__ import annotations

from .overlay import Overlay
from .partitions import Partition, SkewShape, StripSpec
from .paths import tableau_to_paths
from .tableaux import first_tableau, last_tableau, validate_tableau

LARGE_ALPHABET = 8
LARGE_WHITE = SkewShape(
    Partition((14, 13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3)),
    Partition((9, 9, 9, 6, 6, 5, 4, 4, 4, 3, 1)),
)
LARGE_WHITE_SHIFT = 2
LARGE_BLACK = SkewShape(
    Partition((14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5)),
    Partition((10, 10, 8, 8, 8, 7, 6, 6, 6, 5, 2)),
)
LARGE_BLACK_SHIFT = 0
LARGE_RECOLOUR_ENDPOINTS = (
    frozenset({(15, "N"), (10, "1")}),
    frozenset({(5, "1"), (-8, "1")}),
)

SMALL_ALPHABET = 8
SMALL_SHAPE = SkewShape(Partition((7, 4, 4, 3, 1, 1, 1)), Partition((3, 2, 2, 1)))
SMALL_WHITE_SHIFT = 0
SMALL_BLACK_SHIFT = 1
SMALL_WHITE_ROWS = ((3, 4, 7, 7), (6, 7), (7, 8), (4, 8), (2,), (5,), (8,))
SMALL_BLACK_ROWS = ((6, 8, 8, 8), (1, 7), (4, 8), (5, 7), (3,), (4,), (8,))
SMALL_RECOLOUR_ENDPOINTS = (
    frozenset({(7, "N"), (6, "N")}),
    frozenset({(-1, "1"), (-1, "N")}),
)

STRIP_LAMBDA = Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))
STRIP_MU = Partition((4, 3, 3, 1))
STRIP_SPECS = (StripSpec(2, 2, 3), StripSpec(1, 6, 2))


def demo_overlay_large() -> Overlay:
    white = tableau_to_paths(first_tableau(LARGE_WHITE, LARGE_ALPHABET), LARGE_WHITE_SHIFT)
    black = tableau_to_paths(last_tableau(LARGE_BLACK, LARGE_ALPHABET), LARGE_BLACK_SHIFT)
    return Overlay(white, black)


def demo_overlay_small() -> Overlay:
    white = tableau_to_paths(
        validate_tableau(SMALL_SHAPE, SMALL_WHITE_ROWS, SMALL_ALPHABET), SMALL_WHITE_SHIFT
    )
    black = tableau_to_paths(
        validate_tableau(SMALL_SHAPE, SMALL_BLACK_ROWS, SMALL_ALPHABET), SMALL_BLACK_SHIFT
    )
    return Overlay(white, black)
