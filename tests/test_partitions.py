import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    skew_schur,
    to_points,
)
from schurpaths.partitions import PointSet, _parts
from conftest import partitions_up_to, shapes_up_to

LAM = Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))
NU = Partition((10, 9, 8, 8, 6, 5, 5, 3, 2, 2))


class TestValidatePartition:
    def test_long_partition(self):
        assert len(Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))) == 10

    def test_trailing_zeros_dropped(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert len(Partition((3, 1, 0, 0))) == 2

    def test_many_trailing_zeros_dropped_in_one_slice(self):
        # stripping one zero per copy of the tuple took seconds at 40,000 zeros
        assert Partition((3,) + (0,) * 300_000) == Partition((3,))
        assert Partition((0,) * 300_000) == Partition()

    def test_not_weakly_decreasing(self):
        with pytest.raises(ValueError, match=r"parts must weakly decrease: 2 before 3"):
            Partition((2, 3))
        # the first pair out of order is named, not a later one
        with pytest.raises(ValueError, match=r"^parts must weakly decrease: 3 before 4$"):
            Partition((5, 3, 4, 1, 2))

    def test_negative_part(self):
        with pytest.raises(ValueError, match=r"parts must be nonnegative: -1"):
            Partition((2, -1))

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", Fraction(5, 2), Fraction(2), None])
    def test_non_integer_part_refused(self, bad):
        # int() would truncate 2.5, parse "2" and take Fraction(2)
        with pytest.raises(ValueError, match=rf"^parts must be integers: {re.escape(repr(bad))}$"):
            Partition([3, bad, 1])

    def test_non_integer_parts_of_a_skew_shape_refused(self):
        with pytest.raises(ValueError, match=r"^parts must be integers: 3\.5$"):
            SkewShape([3.5, 1], [1.2])
        with pytest.raises(ValueError, match=r"^parts must be integers: 2\.9$"):
            skew_schur(SkewShape([2.9, 1]), 2)

    def test_integer_like_parts_accepted(self):
        # operator.index takes a bool and any int subclass, as int() did
        assert Partition([True, False]) == Partition((1,))
        assert Partition(x for x in (3, 2, 0)) == Partition((3, 2))

    def test_partition_and_shape_keep_a_partition(self):
        p, q = Partition((4, 2, 1)), Partition((1,))
        assert Partition(p) is p
        shape = SkewShape(p, q)
        assert shape.outer is p and shape.inner is q

    def test_part_padding(self):
        p = Partition((3, 1))
        assert (p.part(1), p.part(2), p.part(3)) == (3, 1, 0)
        with pytest.raises(ValueError, match=r"row index must be positive: 0"):
            p.part(0)


class TestPoints:
    def test_first_value_large_example(self):
        lam = Partition((14, 13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3))
        assert to_points(lam, 12, 2)[0] == 15

    def test_last_value_large_example(self):
        mu = Partition((9, 9, 9, 6, 6, 5, 4, 4, 4, 3, 1))
        assert to_points(mu, 12, 2)[-1] == -10

    def test_zero_shift(self):
        assert to_points(LAM, 10, 0) == (9, 5, 4, 2, 1, -2, -3, -5, -7, -8)

    def test_rows_too_small(self):
        with pytest.raises(ValueError, match=r"need at least 2 rows, got 1"):
            to_points(Partition((2, 1)), 1, 0)

    def test_rows_not_an_integer(self):
        with pytest.raises(ValueError, match=r"^rows must be an integer: 2\.0$"):
            to_points(Partition((2, 1)), 2.0)

    def test_shift_not_an_integer(self):
        # refused by the first point it makes, 1 - 1 + 1.5
        with pytest.raises(ValueError, match=r"^points must be integers: 1\.5$"):
            to_points(Partition((1,)), 1, 1.5)

    def test_from_points_inverse(self):
        points = (9, 5, 4, 2, 1, -2, -3, -5, -7, -8)
        assert _parts(points, 0) == LAM == PointSet(points).partition()

    def test_empty(self):
        assert _parts((), 0) == Partition()

    def test_negative_resulting_part(self):
        # the first negative row is named, though the later rows are more negative
        with pytest.raises(ValueError, match=r"^row 2 would have length -1$"):
            _parts((0, -3, -5), 0)
        with pytest.raises(ValueError, match=r"^row 1 would have length -1$"):
            PointSet((-2,), 0).partition()

    def test_canonical_shape(self):
        assert canonical_shape((), ()) == (SkewShape(Partition()), 0)
        # the largest shift keeping every part nonnegative empties the last row
        assert canonical_shape((3, 0), (5, 1)) == (SkewShape(Partition((4, 1)), Partition((2,))), 2)

    def test_strictly_decreasing_required(self):
        with pytest.raises(ValueError):
            PointSet((3, 3), 0)

    def test_non_integer_point_refused(self):
        with pytest.raises(ValueError, match=r"^points must be integers: 3\.0$"):
            PointSet((3.0, 1))

    @staticmethod
    def point_set_route(starts, ends):
        """A second decode, at the same shift: each side checked as a
        ``PointSet``, ends first, then read row by row, the first negative
        row refused."""
        shift = min((xs[-1] + len(xs) for xs in (starts, ends) if xs), default=0)
        sides = []
        for xs in (PointSet(tuple(ends)).values, PointSet(tuple(starts)).values):
            parts = []
            for i, x in enumerate(xs, start=1):
                part = x + i - shift
                if part < 0:
                    raise ValueError(f"row {i} would have length {part}")
                parts.append(part)
            sides.append(Partition(parts))
        return SkewShape(*sides), shift

    def test_canonical_shape_agrees_with_point_set_route(self):
        cases = [
            ((), ()),
            ((4,), (4,)),
            ((-7,), (-3,)),
            ((-2, -5, -9), (0, -4, -6)),
            ((2**40, 0), (2**40 + 3, 5)),
            ((2**40,), (2**40,)),
        ]
        rng = random.Random(3016)
        for _ in range(600):
            n = rng.randint(0, 7)
            ends = sorted(rng.sample(range(-15, 15), n), reverse=True)
            if ends and rng.random() < 0.2:
                ends[0] += 2**40
            if rng.random() < 0.2:
                starts = list(ends)
            else:
                starts = [e - rng.randint(0, 3) for e in ends]
                if any(a <= b for a, b in zip(starts, starts[1:])):
                    continue
            cases.append((starts, ends))
        for starts, ends in cases:
            assert canonical_shape(starts, ends) == self.point_set_route(starts, ends)
            assert canonical_shape(tuple(starts), tuple(ends)) == self.point_set_route(starts, ends)

    @pytest.mark.parametrize(
        "starts, ends, message",
        [
            ((3, 3), (5, 4), "point set must strictly decrease: 3 then 3"),
            ((1, 1), (4, 4, 2), "point set must strictly decrease: 4 then 4"),
            ((3, 1), (4, 5), "point set must strictly decrease: 4 then 5"),
            ((3.0, 1), (4, 2), "points must be integers: 3.0"),
            ((3, 1), (4, 2.5), "points must be integers: 2.5"),
        ],
        ids=["repeated-start", "ends-before-starts", "rising-end", "float-start", "float-end"],
    )
    def test_canonical_shape_refuses_as_point_set_does(self, starts, ends, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            canonical_shape(starts, ends)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            self.point_set_route(starts, ends)

    @staticmethod
    def partition_route(starts, ends):
        """The decode through validated ``Partition(...)`` calls, at the same shift."""
        shift = min((xs[-1] + len(xs) for xs in (starts, ends) if xs), default=0)
        outer, inner = (
            Partition([x + i - shift for i, x in enumerate(xs, 1)]) for xs in (ends, starts)
        )
        return SkewShape(outer, inner), shift

    def test_canonical_shape_agrees_with_partition_route(self):
        """``canonical_shape`` makes its partitions with no second check; a
        seeded sweep, empty, single and negative points included, decodes as
        validated partitions do, to a ``Partition`` with no trailing zero."""
        cases = [((), ()), ((0,), (0,)), ((-5,), (-1,)), ((-9, -12), (-3, -11))]
        rng = random.Random(3207)
        while len(cases) < 800:
            n = rng.randint(0, 6)
            ends = sorted(rng.sample(range(-20, 8), n), reverse=True)
            starts = sorted(rng.sample(range(-24, 8), n), reverse=True)
            if all(s <= e for s, e in zip(starts, ends)):
                cases.append((starts, ends))
        for starts, ends in cases:
            shape, shift = canonical_shape(starts, ends)
            assert (shape, shift) == self.partition_route(starts, ends)
            for p in (shape.outer, shape.inner):
                assert type(p) is Partition and 0 not in p and list(p) == sorted(p, reverse=True)

    @pytest.mark.parametrize(
        "starts, ends, message",
        [
            (("a",), (1,), "points must be integers: 'a'"),
            ((2, 3), ("b", 0), "points must be integers: 'b'"),
            ((3, 3), (5.5, 4), "points must be integers: 5.5"),
            ((1, 2), (4, 4), "point set must strictly decrease: 4 then 4"),
        ],
        ids=["str-start", "str-end-before-rising-start", "float-end-first", "ends-first"],
    )
    def test_canonical_shape_refuses_ends_first(self, starts, ends, message):
        # the ends are refused before the starts, and before a shift is read
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            canonical_shape(starts, ends)

    def test_canonical_shift_is_least_point_plus_row(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(0, 6)
            ends = sorted(rng.sample(range(-12, 12), n), reverse=True)
            starts = [e - rng.randint(0, 3) for e in ends]
            if any(a <= b for a, b in zip(starts, starts[1:])):
                continue
            shape, shift = canonical_shape(starts, ends)
            points = list(enumerate(starts, 1)) + list(enumerate(ends, 1))
            assert shift == min((x + i for i, x in points), default=0)
            assert to_points(shape.outer, n, shift) == tuple(ends)
            assert to_points(shape.inner, n, shift) == tuple(starts)

    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=200, derandomize=True)
    def test_roundtrip(self, parts, extra_rows, shift):
        p = Partition(sorted(parts, reverse=True))
        assert _parts(to_points(p, len(p) + extra_rows, shift), shift) == p


class TestPeelComplete:
    def test_golden(self):
        assert peel_complete(NU) == Partition((8, 7, 7, 5, 4, 4, 2, 1, 1))

    def test_single_box(self):
        assert peel_complete(Partition((1,))) == Partition()

    def test_small(self):
        assert peel_complete(Partition((5, 3, 3, 1))) == Partition((2, 2))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match=r"cannot peel the empty partition"):
            peel_complete(Partition())


class TestPeelDown:
    def test_golden_row2(self):
        assert peel_down(NU, 2) == Partition((10, 7, 7, 5, 4, 4, 2, 1, 1))

    def test_golden_row6(self):
        assert peel_down(NU, 6) == Partition((10, 9, 8, 8, 6, 4, 2, 1, 1))

    def test_row1_is_complete_peel(self):
        for p in partitions_up_to(7):
            if p:
                assert peel_down(p, 1) == peel_complete(p)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"row 11 outside 1\.\.10"):
            peel_down(NU, 11)


class TestPeelUp:
    def test_large_example(self):
        lam = Partition((16, 15, 15, 13, 13, 11, 11, 10, 10, 9, 7, 5))
        # removes the point 15, inserts the point 6
        assert peel_up(lam, 5, 1) == Partition((14, 14, 12, 12, 11, 11, 11, 10, 10, 9, 7, 5))

    def test_row1(self):
        assert peel_up(LAM, 1, 2) == Partition((8, 7, 7, 6, 6, 4, 4, 3, 2, 2))

    def test_row5(self):
        assert peel_up(LAM, 5, 1) == Partition((6, 6, 5, 5, 4, 4, 4, 3, 2, 2))

    def test_box_out_of_range(self):
        with pytest.raises(ValueError, match=r"box 4 outside 1\.\.3 for row 1"):
            peel_up(LAM, 1, 4)
        with pytest.raises(ValueError, match=r"box 1 outside 1\.\.0 for row 2"):
            peel_up(LAM, 2, 1)

    def test_position_count(self):
        # row i admits exactly part(i) - part(i+1) starting boxes
        for p in partitions_up_to(8, max_part=6):
            for i in range(1, len(p) + 1):
                valid = 0
                for t in range(1, p.part(1) + 2):
                    try:
                        peel_up(p, i, t)
                        valid += 1
                    except ValueError as exc:
                        assert str(exc).startswith(f"box {t} outside ")
                assert valid == p.part(i) - p.part(i + 1)


class TestAddStrip:
    def test_first_strip(self):
        # inserts the point 7, removes the point 2
        assert add_strip(LAM, StripSpec(2, 2, 3)) == Partition((10, 9, 8, 8, 6, 4, 4, 3, 2, 2))

    def test_second_strip(self):
        mid = Partition((10, 9, 8, 8, 6, 4, 4, 3, 2, 2))
        assert add_strip(mid, StripSpec(1, 6, 2)) == NU

    def test_zero_boxes(self):
        with pytest.raises(
            ValueError, match=r"need row >= 2, span >= 1, boxes >= 1: got StripSpec\(boxes=0,"
        ):
            add_strip(LAM, StripSpec(0, 2, 3))


class TestBuildNu:
    def test_golden(self):
        assert build_nu(LAM, [StripSpec(2, 2, 3), StripSpec(1, 6, 2)]) == NU

    def test_empty_strip_list(self):
        assert build_nu(LAM, []) == LAM

    def test_rows_not_increasing(self):
        with pytest.raises(ValueError, match=r"strip 2: rows must strictly increase"):
            build_nu(LAM, [StripSpec(1, 2, 1), StripSpec(1, 2, 1)])

    def test_row_one_rejected(self):
        with pytest.raises(ValueError, match=r"strip 1: row 1 outside 2\.\.10"):
            build_nu(LAM, [StripSpec(1, 1, 1)])

    def test_span_bound_uses_length_plus_one(self):
        # last strip may span to the last row but not past it
        assert build_nu(Partition((3, 1)), [StripSpec(1, 2, 1)]) == Partition((3, 2))
        with pytest.raises(ValueError, match=r"strip 1: span 2 outside 1\.\.1"):
            build_nu(Partition((3, 1)), [StripSpec(1, 2, 2)])


def _peel_complete_rowwise(p):
    return Partition([p.part(i + 1) - 1 for i in range(1, len(p)) if p.part(i + 1) >= 1])


def _peel_down_rowwise(p, i):
    parts = [p.part(j) if j < i else p.part(j + 1) - 1 for j in range(1, len(p))]
    return Partition([x for x in parts if x >= 0])


def _peel_up_rowwise(p, i, t):
    parts = []
    for j in range(1, len(p) + 1):
        if j < i:
            parts.append(p.part(j + 1) - 1)
        elif j == i:
            parts.append(p.part(i + 1) + t - 1)
        else:
            parts.append(p.part(j))
    return Partition(parts)


def _add_strip_rowwise(p, s):
    parts = []
    for j in range(1, len(p) + 1):
        if j < s.row or j >= s.row + s.span:
            parts.append(p.part(j))
        elif j == s.row:
            parts.append(p.part(j) + s.boxes)
        else:
            parts.append(p.part(j - 1) + 1)
    return Partition(parts)


class TestPointModelAgreesWithRowwiseForms:
    """The point-set semantics against the row description, exhaustively."""

    def test_all_operations(self):
        for p in partitions_up_to(8, max_part=6):
            if not p:
                continue
            assert peel_complete(p) == _peel_complete_rowwise(p)
            for i in range(1, len(p) + 1):
                assert peel_down(p, i) == _peel_down_rowwise(p, i)
                for t in range(1, p.part(i) - p.part(i + 1) + 1):
                    assert peel_up(p, i, t) == _peel_up_rowwise(p, i, t)
            for r in range(2, len(p) + 1):
                for m in range(1, len(p) - r + 2):
                    for t in range(1, p.part(r - 1) - p.part(r) + 1):
                        s = StripSpec(t, r, m)
                        assert add_strip(p, s) == _add_strip_rowwise(p, s)

    def test_peel_inverts_added_strip(self):
        # peeling at the strip's row removes exactly the inserted point
        for p in partitions_up_to(8, max_part=6):
            for r in range(2, len(p) + 1):
                for m in range(1, len(p) - r + 2):
                    for t in range(1, p.part(r - 1) - p.part(r) + 1):
                        s = StripSpec(t, r, m)
                        assert peel_down(add_strip(p, s), r) == peel_down(p, r + m - 1)


class TestSkewShape:
    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            SkewShape(Partition((2, 1)), Partition((3,)))
        with pytest.raises(ValueError):
            SkewShape(Partition((2,)), Partition((1, 1)))

    def test_size_and_columns(self):
        sh = SkewShape(Partition((3, 2)), Partition((1,)))
        assert sh.size == 4
        assert sh.max_column_height == 2

    def test_max_column_height_against_cells(self):
        for sh in shapes_up_to(7):
            heights = Counter(j for _, j in sh.cells())
            assert sh.max_column_height == max(heights.values(), default=0), sh
        assert SkewShape(Partition((2**40, 1))).max_column_height == 2

    def test_max_column_height_of_huge_parts(self):
        """Parts near 2**40, against outer'_j - inner'_j at each row's first
        column; no cell is visited."""
        rng = random.Random(40)
        for _ in range(2000):
            rows = rng.randint(0, 10)
            outer = sorted((2**40 + rng.randint(-5, 5) for _ in range(rows)), reverse=True)
            low = sorted(
                (rng.choice((0, 2**40 + rng.randint(-8, 2))) for _ in range(rows)), reverse=True
            )
            sh = SkewShape(Partition(outer), Partition(map(min, outer, low)))

            def height(j):
                return sum(p > j for p in sh.outer) - sum(p > j for p in sh.inner)

            starts = [lo for lo, hi in map(sh.row_span, range(sh.rows)) if lo < hi]
            assert sh.max_column_height == max(map(height, starts), default=0), sh

    def test_json_roundtrip(self):
        sh = SkewShape(Partition((3, 2)), Partition((1,)))
        assert SkewShape.from_json(sh.to_json()) == sh
