import collections
import copy
import itertools
import math
import operator
import pickle
import random
import re
import time

import pytest

from schurpaths import (
    BicolouredPath,
    CircularConfiguration,
    Colour,
    ColouredPoint,
    LatticePath,
    Overlay,
    Partition,
    PathFamily,
    SkewShape,
    Tableau,
    admissible_flip_sets,
    all_bicoloured,
    enumerate_admissible_matchings,
    family_from_paths,
    recolour,
    tableau_to_paths,
    trace_bicoloured,
    validate_tableau,
)
from conftest import (
    alternating_configuration,
    first_appearance_flip_sets,
    random_overlays,
    recoloured_configuration,
    reference_trace,
)
from schurpaths import overlay
from schurpaths.gallery import (
    LARGE_RECOLOUR_ENDPOINTS,
    SMALL_RECOLOUR_ENDPOINTS,
    demo_overlay_large,
    demo_overlay_small,
)


def _family(outer, inner, rows, n, shift=0):
    shape = SkewShape(Partition(outer), Partition(inner))
    t = validate_tableau(shape, rows, n)
    return tableau_to_paths(t, shift)


def _single(outer, inner, row, n, shift=0):
    return _family(outer, inner, [row], n, shift)


class TestMakeOverlay:
    def test_large_doubled_points(self):
        ov = demo_overlay_large()
        cfg = ov.configuration
        assert cfg.doubled_top == (13, 12, 9, 8, 5, 4, 1, -1, -4, -7)
        assert cfg.doubled_bottom == (9, 8, 4, 3, 1, -1, -2, -3, -5)

    def test_identical_families_all_doubled(self):
        w = _family((2, 1), (), [[1, 1], [2]], 2)
        b = _family((2, 1), (), [[1, 1], [2]], 2)
        ov = Overlay(w, b)
        assert ov.configuration.points == ()
        assert ov.configuration.admissible
        assert ov.white.arcs() & ov.black.arcs() == w.arcs() == b.arcs()

    def test_disjoint_singles_four_coloured(self):
        ov = Overlay(_single((1,), (), [1], 2, shift=0), _single((1,), (), [2], 2, shift=5))
        assert len(ov.configuration.points) == 4

    def test_level_mismatch(self):
        with pytest.raises(ValueError, match=r"white ends on level 2, black on 3"):
            Overlay(_single((1,), (), [1], 2), _single((1,), (), [1], 3))

    def test_single_level_rejected(self):
        with pytest.raises(ValueError, match=r"overlays need at least two levels"):
            Overlay(_single((1,), (), [1], 1), _single((1,), (), [1], 1))

    def test_arc_classes(self):
        w = _single((2,), (), [1, 1], 2)
        b = _single((2,), (), [1, 1], 2, shift=1)
        ov = Overlay(w, b)
        assert ov.white.arcs() & ov.black.arcs() == {((0, 1), (1, 1))}
        assert ((-1, 1), (0, 1)) in w.arcs() - b.arcs()  # white only
        assert ((1, 1), (2, 1)) in b.arcs() - w.arcs()  # black only
        assert ((5, 5), (6, 5)) not in w.arcs() | b.arcs()

    def test_point_classes(self):
        w = _single((2,), (), [1, 1], 2)
        b = _single((2,), (), [1, 1], 2, shift=1)
        ov = Overlay(w, b)
        assert ov.coloured_point(1, 2).colour is Colour.WHITE  # white end
        assert ov.coloured_point(2, 2).colour is Colour.BLACK  # black end
        assert ov.coloured_point(-1, 1).colour is Colour.WHITE
        assert ov.coloured_point(0, 1).colour is Colour.BLACK
        with pytest.raises(ValueError, match=r"^7,1 is not a coloured point$"):
            ov.coloured_point(7, 1)
        with pytest.raises(ValueError, match=r"level 5 holds no start/end points"):
            ov.coloured_point(0, 5)
        identical = Overlay(w, _single((2,), (), [1, 1], 2))
        assert identical.configuration.doubled_bottom == (-1,)
        with pytest.raises(ValueError, match=r"^-1,1 is not a coloured point$"):
            identical.coloured_point(-1, 1)

    def test_configuration_from_point_sets(self):
        cfg = CircularConfiguration.from_point_sets((0,), (3,), (1,), (2,))
        assert [(p.x, p.level_name, p.colour) for p in cfg.points] == [
            (3, "N", Colour.WHITE),
            (2, "N", Colour.BLACK),
            (0, "1", Colour.WHITE),
            (1, "1", Colour.BLACK),
        ]


class TestCircularOrder:
    def test_large_example_indices(self):
        cfg = demo_overlay_large().configuration
        seq = [(p.x, p.level_name, p.colour, p.inward) for p in cfg.points]
        assert seq[0] == (15, "N", Colour.WHITE, True)
        assert seq[1] == (6, "N", Colour.BLACK, False)
        assert [(p.x, p.level_name) for p in cfg.points] == [
            (15, "N"), (6, "N"), (2, "N"), (-3, "N"),
            (-12, "1"), (-10, "1"), (-9, "1"), (-8, "1"), (5, "1"), (10, "1"),
        ]
        assert cfg.alternating

    def test_orientation_convention(self):
        ov = Overlay(_single((1,), (), [1], 2, shift=0), _single((1,), (), [2], 2, shift=5))
        by_pos = {(p.x, p.top): p for p in ov.configuration.points}
        assert by_pos[(0, True)].inward is True  # white end
        assert by_pos[(-1, False)].inward is False  # white start
        assert by_pos[(5, True)].inward is False  # black end
        assert by_pos[(4, False)].inward is True  # black start

    def test_odd_count_rejected(self):
        pt = ColouredPoint(0, True, Colour.WHITE, 1)
        with pytest.raises(ValueError, match=r"1 coloured points"):
            CircularConfiguration((pt,), (), ())


class TestTrace:
    def test_disjoint_runs_whole_path(self):
        white = _single((1,), (), [1], 3, shift=0)
        black = _single((1,), (), [2], 3, shift=10)
        ov = Overlay(white, black)
        bp = trace_bicoloured(ov, 0, 3)
        assert (bp.end.x, bp.end.top) == (-1, False)
        assert len(bp.arcs) == len(white.paths[0].arcs())

    def test_reverse_trace_returns(self):
        """The trace from the far end of a trace is its exact reversal: the
        same arcs with the same colours in reverse order; on both gallery
        overlays and seeded random ones."""
        overlays = [demo_overlay_small(), demo_overlay_large(), *random_overlays(155, 200)]
        traced = 0
        for ov in overlays:
            for p in ov.configuration.points:
                bp = trace_bicoloured(ov, p.x, ov.top if p.top else 1)
                back = trace_bicoloured(ov, bp.end.x, ov.top if bp.end.top else 1)
                assert back.end.index == p.index
                assert back.arc_set() == bp.arc_set()
                assert back.arcs == bp.arcs[::-1]
                traced += 1
        assert traced > 1000

    def test_not_coloured(self):
        w = _family((2, 1), (), [[1, 1], [2]], 2)
        ov = Overlay(w, w)
        with pytest.raises(ValueError, match=r"^1,N is not a coloured point$"):
            trace_bicoloured(ov, 1, 2)

    def test_small_golden_pairs(self):
        ov = demo_overlay_small()
        paths, _ = all_bicoloured(ov)
        pairs = {
            frozenset({(q.start.x, q.start.level_name), (q.end.x, q.end.level_name)})
            for q in paths
        }
        for want in SMALL_RECOLOUR_ENDPOINTS:
            assert want in pairs

    def test_large_golden_pairs(self):
        ov = demo_overlay_large()
        paths, _ = all_bicoloured(ov)
        pairs = {
            frozenset({(q.start.x, q.start.level_name), (q.end.x, q.end.level_name)})
            for q in paths
        }
        for want in LARGE_RECOLOUR_ENDPOINTS:
            assert want in pairs


class TestTraceAgainstReference:
    """The walk on local maps gives the reference walk's start, end and arcs
    from every coloured point, and recolouring through its traces twice
    restores the overlay."""

    @staticmethod
    def _check(ov, rng):
        for p in ov.configuration.points:
            level = ov.top if p.top else 1
            got, want = trace_bicoloured(ov, p.x, level), reference_trace(ov, p.x, level)
            assert (got.start, got.end, got.arcs) == (want.start, want.end, want.arcs)
        paths, _ = all_bicoloured(ov)
        if not paths:
            return
        chosen = rng.sample(paths, rng.randint(1, len(paths)))
        once = recolour(ov, chosen)
        again = [trace_bicoloured(once, q.start.x, once.top if q.start.top else 1) for q in chosen]
        twice = recolour(once, again)
        assert twice.white == family_from_paths(ov.white.paths, ov.top)
        assert twice.black == family_from_paths(ov.black.paths, ov.top)

    @pytest.mark.parametrize("make", [demo_overlay_small, demo_overlay_large])
    def test_gallery(self, make):
        self._check(make(), random.Random(3))

    def test_seeded_random_overlays(self):
        rng = random.Random(7)
        overlays = list(random_overlays(seed=2201, count=200))
        assert sum(bool(ov.configuration.points) for ov in overlays) >= 190
        for ov in overlays:
            self._check(ov, rng)


class TestColour:
    """``Colour`` hashes by identity, which agrees with ``==`` because its
    members are singletons; the per-colour maps rest on this."""

    def test_lookup_by_value_finds_member(self):
        assert Colour("white") is Colour.WHITE
        assert hash(Colour("white")) == hash(Colour.WHITE)
        assert {Colour.BLACK: 1}[Colour("black")] == 1

    def test_copies_are_the_member(self):
        for colour in Colour:
            assert pickle.loads(pickle.dumps(colour)) is colour
            assert copy.deepcopy(colour) is colour

    def test_not_equal_to_its_value(self):
        assert Colour.WHITE != "white"
        assert Colour.WHITE != Colour.BLACK


class TestAllBicoloured:
    def test_identical_families_empty(self):
        w = _family((2, 1), (), [[1, 1], [2]], 2)
        assert all_bicoloured(Overlay(w, w))[0] == ()

    def test_matching_structure(self, sampler):
        for _ in range(60):
            ov = Overlay(sampler.family(3), sampler.family(3))
            paths, matching = all_bicoloured(ov)
            by_idx = {p.index: p for p in ov.configuration.points}
            for a, b in matching.pairs:
                assert by_idx[a].inward != by_idx[b].inward
                assert (a - b) % 2 == 1
            assert matching.is_noncrossing

    def test_odd_degree_exactly_at_coloured_points(self, sampler):
        for _ in range(40):
            ov = Overlay(sampler.family(4), sampler.family(4))
            arcs = ov.white.arcs() ^ ov.black.arcs()  # the arcs of one colour only
            deg = collections.Counter()
            for tail, head in arcs:
                deg[tail] += 1
                deg[head] += 1
            odd = {v for v, d in deg.items() if d % 2}
            coloured = {(p.x, ov.top if p.top else 1) for p in ov.configuration.points}
            assert odd == coloured

    def test_paths_arc_disjoint_with_even_leftover(self, sampler):
        for _ in range(40):
            ov = Overlay(sampler.family(3), sampler.family(3))
            paths, _ = all_bicoloured(ov)
            used = [a for q in paths for a in q.arc_set()]
            assert len(used) == len(set(used))
            leftover = (ov.white.arcs() ^ ov.black.arcs()) - set(used)
            deg = collections.Counter()
            for tail, head in leftover:
                deg[tail] += 1
                deg[head] += 1
            assert all(d % 2 == 0 for d in deg.values())


class TestRecolour:
    def test_small_golden_shapes(self):
        ov = demo_overlay_small()
        paths, _ = all_bicoloured(ov)
        want = {frozenset({(x, lvl == "N") for x, lvl in pair}) for pair in SMALL_RECOLOUR_ENDPOINTS}
        chosen = [q for q in paths if q.endpoint_positions in want]
        assert len(chosen) == 2
        out = recolour(ov, chosen)
        assert out.white.shape == SkewShape(Partition((9, 5, 5, 1, 1, 1)), Partition((4, 3, 1)))
        assert out.white.shift == -1
        assert out.black.shape == SkewShape(
            Partition((5, 3, 3, 2, 2, 1, 1, 1)), Partition((2, 1, 1, 1, 1))
        )
        assert out.black.shift == 2

    def test_involution(self, sampler):
        for _ in range(40):
            w, b = sampler.family(3), sampler.family(3)
            ov = Overlay(w, b)
            paths, _ = all_bicoloured(ov)
            ov2 = recolour(ov, paths)
            paths2, _ = all_bicoloured(ov2)
            assert {q.arc_set() for q in paths2} == {q.arc_set() for q in paths}
            ov3 = recolour(ov2, paths2)
            assert ov3.white == family_from_paths(w.paths, w.alphabet)
            assert ov3.black == family_from_paths(b.paths, b.alphabet)

    def test_weight_product_invariant(self, sampler):
        for _ in range(40):
            ov = Overlay(sampler.family(4), sampler.family(4))
            paths, _ = all_bicoloured(ov)
            before = tuple(map(operator.add, ov.white.weight(), ov.black.weight()))
            ov2 = recolour(ov, paths)
            after = tuple(map(operator.add, ov2.white.weight(), ov2.black.weight()))
            assert before == after

    def test_foreign_path_rejected(self):
        ov = demo_overlay_small()
        other = Overlay(
            _single((1,), (), [1], 8, shift=0), _single((1,), (), [2], 8, shift=5)
        )
        foreign = all_bicoloured(other)[0]
        with pytest.raises(ValueError, match=r"^5,N is not a coloured point$"):
            recolour(ov, foreign)
        # -3,N is coloured in both gallery overlays, but by another index
        (large,) = [q for q in all_bicoloured(demo_overlay_large())[0] if q.start.x == -3]
        message = "path from -3,N is not a bicoloured path of this overlay"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            recolour(ov, [large])

    def test_path_not_joining_its_endpoints_rejected(self):
        ov = demo_overlay_small()
        pts = ov.configuration.points

        def refused(bp):
            name = f"{bp.start.x},{bp.start.level_name}"
            message = rf"^path from {name} is not a bicoloured path of this overlay$"
            return pytest.raises(ValueError, match=message)

        for p, q in itertools.permutations(pts, 2):
            empty = BicolouredPath(p, q, ())
            with refused(empty):
                recolour(ov, [empty])
        for bp in all_bicoloured(ov)[0]:
            cut = BicolouredPath(bp.start, bp.end, bp.arcs[:-1])
            with refused(cut):
                recolour(ov, [cut])
            if len(bp.arcs) > 1:
                backwards = BicolouredPath(bp.start, bp.end, bp.arcs[::-1])
                with refused(backwards):
                    recolour(ov, [backwards])

    def test_every_walk_that_no_trace_gives_is_refused(self):
        """Walk the coloured arcs of the small gallery overlay, in either
        direction and through no lattice point twice, from each coloured
        point to each other one; recolour takes exactly the traces."""
        ov = demo_overlay_small()
        coloured = {(p.x, ov.top if p.top else 1): p for p in ov.configuration.points}
        incident = collections.defaultdict(list)
        doubled = ov.white.arcs() & ov.black.arcs()
        for colour in Colour:
            for arc in ov._out[colour].values():
                if arc not in doubled:
                    for v in arc:
                        incident[v].append((arc, colour))

        def walks(start, v, arcs, seen):
            if arcs and v in coloured:
                yield BicolouredPath(coloured[start], coloured[v], tuple(arcs))
            for arc, colour in incident[v]:
                w = arc[1] if v == arc[0] else arc[0]
                if w not in seen:
                    yield from walks(start, w, arcs + [(arc, colour)], seen | {w})

        traces = {p: trace_bicoloured(ov, p.x, ov.top if p.top else 1) for p in coloured.values()}
        untraced = 0
        for start in coloured:
            for walk in walks(start, start, [], {start}):
                trace = traces[walk.start]
                if (walk.end, walk.arcs) == (trace.end, trace.arcs):
                    continue
                untraced += 1
                with pytest.raises(ValueError, match=r"is not a bicoloured path of this overlay$"):
                    recolour(ov, [walk])
        assert untraced == 18
        assert len(traces) == 16
        for trace in traces.values():
            assert recolour(ov, [trace]).configuration == recoloured_configuration(
                ov.configuration, (trace.start.index, trace.end.index)
            )


class TestRecolourInvariants:
    """Each internal check of recolour fires on a path that no trace gives,
    whose arcs still join its two endpoints, once ``trace_bicoloured`` is
    replaced by one that returns it."""

    @pytest.fixture
    def forge(self, monkeypatch):
        def forged(ov, i, j, arcs=()):
            pts = ov.configuration.points
            coloured = [
                (arc, next(c for c in Colour if ov._out[c].get(arc[0]) == arc)) for arc in arcs
            ]
            bp = BicolouredPath(pts[i - 1], pts[j - 1], tuple(coloured))
            monkeypatch.setattr(overlay, "trace_bicoloured", lambda *_: bp)
            return bp

        return forged

    def test_flipped_arc_meets_the_other_family(self, forge):
        ov = demo_overlay_small()
        # from (3, N) along black, across one white arc, back up black to (1, N)
        arcs = (((3, 7), (3, 8)), ((2, 7), (3, 7)), ((1, 7), (2, 7)), ((1, 7), (1, 8)))
        with pytest.raises(AssertionError, match=r"recoloured family intersects itself"):
            recolour(ov, [forge(ov, 3, 4, arcs)])

    def test_unreachable_configuration(self, forge):
        white = _family((2, 1), (1,), [(3,), (4,)], 4, shift=2)
        black = _family((4, 1), (1,), [(4, 4, 4), (1,)], 4, shift=1)
        ov = Overlay(white, black)
        arcs = (((2, 4), (3, 4)), ((1, 4), (2, 4)), ((0, 4), (1, 4)))
        with pytest.raises(AssertionError, match=r"recoloured configuration has a negative row"):
            recolour(ov, [forge(ov, 2, 4, arcs)])

    def test_walk_misses_its_end_point(self, forge):
        ov = demo_overlay_small()
        message = "walk from (-2, 1) ends at (2, 8), not at its end point (1, 8)"
        with pytest.raises(AssertionError, match=re.escape(message)):
            recolour(ov, [forge(ov, 4, 5, (((0, 8), (1, 8)),))])

    def test_overlay_of_meeting_paths(self):
        t = Tableau(SkewShape(Partition((1, 1))), ((1,), (1,)), 2)
        fam = PathFamily(t, 0, 2)
        with pytest.raises(AssertionError, match=r"family intersects itself"):
            Overlay(fam, fam)


class TestRecolourIsReorientation:
    """Recolouring paths reorients their endpoints in the circular configuration."""

    def _check_subsets(self, ov, limit=256):
        paths, _ = all_bicoloured(ov)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(paths, r) for r in range(len(paths) + 1)
        )
        for chosen in itertools.islice(subsets, limit):
            out = recolour(ov, chosen)
            flips = [
                ov.coloured_point(x, ov.top if top else 1).index
                for bp in chosen
                for x, top in bp.endpoint_positions
            ]
            config = recoloured_configuration(ov.configuration, flips)
            assert out.configuration.points == config.points
            assert ov.configuration.shapes(flips) == config.shapes() == (
                (out.white.shape, out.white.shift),
                (out.black.shape, out.black.shift),
            )

    @pytest.mark.parametrize("make", [demo_overlay_small, demo_overlay_large])
    def test_gallery_every_subset(self, make):
        self._check_subsets(make())

    def test_random_overlays(self, sampler):
        for _ in range(40):
            self._check_subsets(Overlay(sampler.family(4), sampler.family(4)), limit=32)


def _facts(ov):
    """Every fact an overlay stores, its coloured points read through
    ``coloured_point``."""
    points = {
        (p.x, p.top): ov.coloured_point(p.x, ov.top if p.top else 1)
        for p in ov.configuration.points
    }
    return (ov.top, ov._out, ov._in, ov.configuration, points)


class TestRecolourAssembly:
    """The overlay ``recolour`` assembles from its recoloured maps stores the
    facts that ``Overlay`` derives by drawing the new families, its oracle; a
    second recolouring of the same paths restores the original's facts."""

    @staticmethod
    def _check(ov, chosen):
        once = recolour(ov, chosen)
        assert _facts(once) == _facts(Overlay(once.white, once.black))
        again = [trace_bicoloured(once, q.start.x, once.top if q.start.top else 1) for q in chosen]
        assert _facts(recolour(once, again)) == _facts(ov)

    @pytest.mark.parametrize("make", [demo_overlay_small, demo_overlay_large])
    def test_gallery_each_path_and_all(self, make):
        ov = make()
        paths, _ = all_bicoloured(ov)
        assert len(paths) >= 5
        for bp in paths:
            self._check(ov, [bp])
        self._check(ov, paths)

    def test_seeded_random_overlays(self):
        rng = random.Random(2402)
        checked = 0
        for ov in random_overlays(seed=2401, count=200):
            paths, _ = all_bicoloured(ov)
            if paths:
                self._check(ov, rng.sample(paths, rng.randint(1, len(paths))))
                checked += 1
        assert checked >= 190

    def test_surplus_all_vertical_rows(self):
        # white: six paths for a shape of two rows, four of them all-vertical
        shape = SkewShape(Partition((3, 1)))
        white = tableau_to_paths(validate_tableau(shape, [(1, 2, 4), (3,)], 5), rows=6)
        black = _family((2, 2, 1), (1,), [(2,), (1, 3), (5,)], 5, shift=1)
        ov = Overlay(white, black)
        assert white.rows > white.shape.rows
        paths, _ = all_bicoloured(ov)
        assert paths
        for bp in paths:
            self._check(ov, [bp])
        self._check(ov, paths)

    def test_all_on_the_large_gallery_overlay_draws_nothing(self, monkeypatch):
        """``recolour`` of every path of the large gallery overlay draws no
        path and builds no overlay through ``Overlay.__init__``."""
        ov = demo_overlay_large()
        paths, _ = all_bicoloured(ov)
        calls = collections.Counter()
        points, init = LatticePath.points, Overlay.__init__

        def counted_points(self):
            calls["points"] += 1
            return points(self)

        def counted_init(self, *args):
            calls["init"] += 1
            init(self, *args)

        monkeypatch.setattr(LatticePath, "points", counted_points)
        monkeypatch.setattr(Overlay, "__init__", counted_init)
        result = recolour(ov, paths)
        assert result.configuration.points
        assert (calls["points"], calls["init"]) == (0, 0)
        Overlay(result.white, result.black)
        assert calls["init"] == 1 and calls["points"] == result.white.rows + result.black.rows

    @staticmethod
    def _assemble(white_out=None):
        """Assemble the overlay of two one-box paths on two levels with the
        white map from tail ``white_out``, by default the drawn one."""
        ov = Overlay(_single((1,), (), [1], 2), _single((1,), (), [2], 2, shift=1))
        assert ov._out[Colour.WHITE] == {(-1, 1): ((-1, 1), (0, 1)), (0, 1): ((0, 1), (0, 2))}
        out = {Colour.WHITE: white_out or ov._out[Colour.WHITE], Colour.BLACK: ov._out[Colour.BLACK]}
        Overlay.__new__(Overlay)._assemble(ov.white, ov.black, out, ov.configuration)

    def test_two_arcs_into_one_head_refused(self):
        into_one_head = {(-1, 1): ((-1, 1), (-1, 2)), (0, 1): ((0, 1), (-1, 2))}
        with pytest.raises(AssertionError, match=r"^family intersects itself$"):
            self._assemble(into_one_head)
        self._assemble()

    def test_arc_lost_to_a_shared_tail_refused(self):
        # drawn into a map from tail, two arcs from one tail leave one entry
        with pytest.raises(AssertionError, match=r"^family intersects itself$"):
            self._assemble({(0, 1): ((0, 1), (1, 1))})

    def test_doubled_arcs_are_the_original_ones(self):
        """The arcs that both recoloured families hold are those that both
        families of the overlay ``recolour`` recolours hold."""
        rng = random.Random(2501)
        doubled = 0
        for ov in random_overlays(seed=2502, count=200):
            paths, _ = all_bicoloured(ov)
            chosen = rng.sample(paths, rng.randint(1, len(paths))) if paths else []
            once = recolour(ov, chosen)
            arcs = ov.white.arcs() & ov.black.arcs()
            assert once.white.arcs() & once.black.arcs() == arcs
            doubled += bool(arcs)
        assert doubled >= 100

    def test_family_xs_read_once(self, monkeypatch):
        """``recolour`` decodes the shapes from the xs it walks between."""
        calls = []
        family_xs = CircularConfiguration.family_xs

        def counted(self, flips=()):
            calls.append(tuple(flips))
            return family_xs(self, flips)

        ov = demo_overlay_large()
        paths, _ = all_bicoloured(ov)
        monkeypatch.setattr(CircularConfiguration, "family_xs", counted)
        once = recolour(ov, paths[:2])
        assert len(calls) == 1
        assert ov.configuration.shapes(calls[0]) == (
            (once.white.shape, once.white.shift),
            (once.black.shape, once.black.shift),
        )


def _pattern_config(inward):
    pts = []
    for k, o in enumerate(inward):
        colour = Colour.WHITE if o else Colour.BLACK  # white is inward on top
        pts.append(ColouredPoint(len(inward) - k, True, colour, k + 1))
    return CircularConfiguration(tuple(pts), (), ())


IN, OUT = True, False


class TestMatchingEnumeration:
    def test_two_points(self):
        assert len(enumerate_admissible_matchings(_pattern_config([IN, OUT]))) == 1

    def test_six_alternating_catalan(self):
        cfg = _pattern_config([IN, OUT, IN, OUT, IN, OUT])
        ms = enumerate_admissible_matchings(cfg)
        assert len(ms) == 5
        assert all(m.is_noncrossing for m in ms)

    def test_in_in_out_out(self):
        ms = enumerate_admissible_matchings(_pattern_config([IN, IN, OUT, OUT]))
        assert [m.pairs for m in ms] == [((1, 4), (2, 3))]

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match=r"2 inward of 2 points"):
            enumerate_admissible_matchings(_pattern_config([IN, IN]))

    def test_eight_alternating_catalan(self):
        cfg = _pattern_config([IN, OUT] * 4)
        assert len(enumerate_admissible_matchings(cfg)) == 14


class TestFlipSets:
    """``admissible_flip_sets`` against the first-appearance dedupe over every matching."""

    @pytest.mark.parametrize("k", range(1, 7))
    # phase: whether the first point is inward; the ids keep the cases' names stable
    @pytest.mark.parametrize("phase", [IN, OUT], ids=["Orientation.INWARD", "Orientation.OUTWARD"])
    def test_alternating_every_s(self, k, phase):
        pattern = [phase, not phase] * k
        cfg = _pattern_config(pattern)
        inward = [p.index for p in cfg.inward_points()]
        for r in range(1, k + 1):
            for s in itertools.combinations(inward, r):
                got = admissible_flip_sets(cfg, s)
                assert list(got) == first_appearance_flip_sets(cfg, set(s))
                # S together with any |S| of the k outward points
                assert len(got) == math.comb(k, r)

    def test_every_balanced_pattern(self):
        for n in range(0, 9, 2):
            for pattern in itertools.product([IN, OUT], repeat=n):
                if pattern.count(IN) * 2 != n:
                    continue
                cfg = _pattern_config(pattern)
                for r in range(4):
                    for s in itertools.combinations(range(1, n + 1), r):
                        assert list(admissible_flip_sets(cfg, s)) == (
                            first_appearance_flip_sets(cfg, set(s))
                        )

    def test_repeats_across_candidates_dropped(self):
        # both partners of the first point, outside S = {2, 4}, flip all four
        # points; as unsorted tuples the two would be (1, 2, 3, 4) and (1, 4, 2, 3)
        cfg = _pattern_config([OUT, IN, OUT, IN])
        assert admissible_flip_sets(cfg, {2, 4}) == ((1, 2, 3, 4),)
        assert admissible_flip_sets(cfg, {4}) == ((3, 4), (1, 4))

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match=r"2 inward of 2 points"):
            admissible_flip_sets(_pattern_config([IN, IN]), {1})

    @pytest.mark.parametrize("index", [0, 17, 99, -1])
    def test_index_outside_the_circle_refused(self, index):
        # the small gallery configuration has 16 coloured points
        cfg = demo_overlay_small().configuration
        assert len(cfg.points) == 16
        with pytest.raises(ValueError, match=rf"^no coloured point has index {index}$"):
            admissible_flip_sets(cfg, {cfg.inward_points()[0].index, index})

    def test_forty_points_without_matchings(self):
        # Catalan(20), about 6.6e9 matchings, is out of reach of the oracle
        cfg = _pattern_config([IN, OUT] * 20)
        t0 = time.perf_counter()
        got = admissible_flip_sets(cfg, {1, 11, 25})
        assert time.perf_counter() - t0 < 10.0
        assert len(got) == len(set(got)) == math.comb(20, 3)
        assert all(set(f) >= {1, 11, 25} and len(f) == 6 for f in got)


class TestConfigurationToShapes:
    def test_untouched_overlay_recovers_shapes(self):
        ov = demo_overlay_small()
        (w, sw), (b, sb) = ov.configuration.shapes()
        assert w == ov.white.shape and sw == ov.white.shift
        assert b == ov.black.shape and sb == ov.black.shift

    @pytest.mark.parametrize("index", [0, -3, 99])
    def test_flip_naming_no_point_refused(self, index):
        # the small gallery configuration has 16 coloured points
        cfg = demo_overlay_small().configuration
        message = rf"^no coloured point has index {index}$"
        with pytest.raises(ValueError, match=message):
            cfg.shapes((index,))
        with pytest.raises(ValueError, match=message):
            cfg.family_xs((cfg.points[0].index, index))

    def test_zero_when_end_left_of_start(self):
        cfg = CircularConfiguration.from_point_sets({1}, {0}, (), ())
        assert cfg.shapes() is None

    def test_reorientation_golden(self):
        cfg = demo_overlay_large().configuration
        flips = [p.index for p in cfg.points if (p.x, p.level_name) in
                 {(15, "N"), (10, "1"), (5, "1"), (-8, "1")}]
        assert cfg.shapes(flips) == recoloured_configuration(cfg, flips).shapes()
        (w, sw), (b, sb) = cfg.shapes(flips)
        assert w == SkewShape(
            Partition((13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3)),
            Partition((9, 9, 7, 7, 7, 6, 5, 5, 5, 4)),
        )
        assert b == SkewShape(
            Partition((15, 14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5)),
            Partition((10, 10, 10, 7, 7, 6, 5, 5, 5, 4, 2, 2)),
        )
        assert sw == 1 and sb == 1

    @staticmethod
    def _check_flip_sets(cfg, s):
        """``shapes(flips)`` against the rebuilt configuration, for every flip
        set of ``s``; returns how many there were."""
        flip_sets = admissible_flip_sets(cfg, s)
        for flips in flip_sets:
            assert cfg.shapes(flips) == recoloured_configuration(cfg, flips).shapes()
        return len(flip_sets)

    @pytest.mark.parametrize("make", [demo_overlay_small, demo_overlay_large])
    def test_flip_decode_gallery(self, make):
        cfg = make().configuration
        inward = [p.index for p in cfg.inward_points()]
        decoded = sum(
            self._check_flip_sets(cfg, s)
            for r in (1, 2)
            for s in itertools.combinations(inward, r)
        )
        assert decoded > len(inward)

    def test_flip_decode_random_alternating(self):
        rng = random.Random(523)
        zero = 0
        for i in range(240):
            k = 1 + i % 8
            cfg = alternating_configuration(rng, k)
            s = {p.index for p in rng.sample(cfg.inward_points(), rng.randint(1, min(k, 3)))}
            self._check_flip_sets(cfg, s)
            zero += any(cfg.shapes(f) is None for f in admissible_flip_sets(cfg, s))
        assert zero > 0  # some flip sets reach a negative row
