import hashlib
import json
import random

import pytest

from schurpaths import (
    LatticePath,
    Partition,
    PathFamily,
    SkewShape,
    endpoints,
    enumerate_ssyt,
    family_from_paths,
    first_tableau,
    paths_to_tableau,
    tableau_to_paths,
    validate_tableau,
    weight,
)
from conftest import drawn_family_from_paths, shapes_up_to
from schurpaths.gallery import demo_overlay_small

FIG_SHAPE = SkewShape(Partition((7, 4, 4, 3, 1, 1, 1)), Partition((3, 2, 2, 1)))


class TestLatticePath:
    def test_end_and_points(self):
        p = LatticePath((0, 1), (1, 2), 2)
        assert p.end == (2, 2)
        assert p.points() == [(0, 1), (1, 1), (1, 2), (2, 2)]
        assert paths_to_tableau(family_from_paths([p], 2)).rows == ((1, 2),)

    def test_bad_step(self):
        # heights that go down would need a step to the left or down
        with pytest.raises(ValueError, match=r"path from \(0, 1\) does not run up from level 1 to level 3"):
            family_from_paths([LatticePath((0, 1), (2, 1), 3)], 3)


class TestTableauToPaths:
    def test_figure_family(self):
        t = first_tableau(FIG_SHAPE, 8)
        fam = tableau_to_paths(t, 0)
        assert len(fam.paths) == 7
        assert fam.paths[0].start == (2, 1)
        assert fam.paths[0].end == (6, 8)

    def test_empty_shape(self):
        t = validate_tableau(SkewShape(Partition()), [], 3)
        fam = tableau_to_paths(t, 0)
        assert fam.paths == ()

    def test_single_cell(self):
        for k in (1, 2, 3):
            t = validate_tableau(SkewShape(Partition((1,))), [[k]], 3)
            fam = tableau_to_paths(t, 0)
            path = fam.paths[0]
            assert path.start == (-1, 1) and path.end == (0, 3)
            assert path.heights == (k,)
            assert paths_to_tableau(fam).rows == ((k,),)
            exps = [0, 0, 0]
            exps[k - 1] = 1
            assert fam.weight() == tuple(exps)


class TestBijection:
    def test_roundtrip_small(self):
        for shape in shapes_up_to(4):
            for n in range(1, 4):
                for t in enumerate_ssyt(shape, n):
                    for shift in (1, -2):
                        fam = tableau_to_paths(t, shift)
                        assert paths_to_tableau(fam) == fam.tableau == t
                        assert fam.weight() == weight(t)
                        canon = family_from_paths(fam.paths, n)
                        assert [p.heights for p in canon.paths] == [p.heights for p in fam.paths]

    def test_single_path_inverse(self):
        t = validate_tableau(SkewShape(Partition((1,))), [[2]], 3)
        fam = PathFamily(t, 0, 1)
        assert fam.paths == (LatticePath((-1, 1), (2,), 3),)
        assert fam.paths[0].points() == [(-1, 1), (-1, 2), (0, 2), (0, 3)]
        assert paths_to_tableau(fam).rows == ((2,),)

    def test_shift_independence(self):
        t = first_tableau(FIG_SHAPE, 8)
        f0 = tableau_to_paths(t, 0)
        f5 = tableau_to_paths(t, 5)
        assert paths_to_tableau(f0) == paths_to_tableau(f5)
        for a, b in zip(f0.paths, f5.paths):
            assert a.heights == b.heights
            assert b.start[0] - a.start[0] == 5

    def test_weight_preserved_on_figure_shape(self):
        for t in list(enumerate_ssyt(FIG_SHAPE, 3)):
            assert tableau_to_paths(t, 2).weight() == weight(t)


class TestEndpoints:
    def test_black_family_first_end(self):
        sigma = Partition((14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))
        tau = Partition((10, 10, 8, 8, 8, 7, 6, 6, 6, 5, 2))
        starts, ends = endpoints(SkewShape(sigma, tau), 12, 0)
        assert ends.values[0] == 13

    def test_white_family_extremes(self):
        lam = Partition((14, 13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3))
        mu = Partition((9, 9, 9, 6, 6, 5, 4, 4, 4, 3, 1))
        starts, ends = endpoints(SkewShape(lam, mu), 12, 2)
        assert ends.values[0] == 15
        assert starts.values[-1] == -10

    def test_recoloured_family_end(self):
        lam = Partition((13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3))
        mu = Partition((9, 9, 7, 7, 7, 6, 5, 5, 5, 4))
        _, ends = endpoints(SkewShape(lam, mu), 11, 1)
        assert ends.values[10] == -7


# outcomes of the seeded corpus below, taken when paths were checked by drawing them
ACCEPTED, MEETING = 1761, 206
CORPUS_DIGEST = "85c3ef58fff6ab751ef8b39d312fc9377ad814f1592ef134208734561a7f6ad5"


def random_path_lists(rng: random.Random, count: int):
    """``count`` lists of up to 4 paths, each with its N in 0..5: distinct
    random starts and random heights, a few off the levels or out of order."""
    for _ in range(count):
        n = rng.randint(0, 5)
        paths = []
        for x in rng.sample(range(-3, 4), rng.randint(0, 4)):
            lo, hi = (1, max(n, 1)) if rng.random() < 0.9 else (0, n + 1)
            heights = [rng.randint(lo, hi) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.9:
                heights.sort()
            start = (x, 1 if rng.random() < 0.95 else 2)
            paths.append(LatticePath(start, tuple(heights), n if rng.random() < 0.95 else n + 1))
        yield paths, n


def _outcome(decode, paths, n):
    """The decoded family as JSON, or the message of the refusal."""
    try:
        return decode(paths, n).to_json()
    except ValueError as exc:
        return str(exc)


class TestFamilyFromPaths:
    def test_canonical_shift(self):
        t = validate_tableau(SkewShape(Partition((2, 2)), Partition((1, 1))), [[2], [3]], 3)
        fam = tableau_to_paths(t, 0)
        canon = family_from_paths(fam.paths, 3)
        assert canon.shape == SkewShape(Partition((1, 1)))
        assert canon.shift == 1

    def test_empty(self):
        fam = family_from_paths([], 3)
        assert fam.shape.rows == 0

    def test_trailing_empty_rows(self):
        paths = (
            LatticePath((0, 1), (1,), 2),
            LatticePath((-2, 1), (), 2),
        )
        fam = family_from_paths(paths, 2)
        assert fam.rows == 2
        assert fam.shape == SkewShape(Partition((2,)), Partition((1,)))
        assert fam.shift == 0

    @pytest.mark.parametrize(
        "path", [LatticePath((0, 2), (), 3), LatticePath((0, 1), (1,), 2)],
        ids=["starts-above-level-1", "top-not-N"],
    )
    def test_path_off_the_levels(self, path):
        with pytest.raises(ValueError, match=r"does not run up from level 1 to level 3"):
            family_from_paths([LatticePath((3, 1), (2,), 3), path], 3)

    def test_malformed(self):
        paths = (
            LatticePath((0, 1), (), 2),
            LatticePath((-1, 1), (1, 1), 2),
        )
        with pytest.raises(ValueError, match=r"end points out of order for start point order"):
            family_from_paths(paths, 2)

    def test_disjoint_columns(self):
        a = LatticePath((0, 1), (), 2)
        b = LatticePath((1, 1), (), 2)
        fam = family_from_paths([a, b], 2)
        assert fam.shape == SkewShape(Partition()) and fam.rows == 2

    def test_shared_point(self):
        # (-1, 1) -> (0, 1) -> (0, 2) runs through the start of (0, 1) -> (0, 2) -> (1, 2)
        a = LatticePath((0, 1), (2,), 2)
        b = LatticePath((-1, 1), (1,), 2)
        with pytest.raises(ValueError, match=r"^paths share a lattice point$"):
            family_from_paths([a, b], 2)

    def test_agrees_with_drawing_oracle(self):
        outcomes = []
        for paths, n in random_path_lists(random.Random(2001), 4000):
            got, want = _outcome(family_from_paths, paths, n), _outcome(drawn_family_from_paths, paths, n)
            assert got == want, (paths, n)
            outcomes.append(got)
        assert sum(type(o) is dict for o in outcomes) == ACCEPTED
        assert outcomes.count("paths share a lattice point") == MEETING
        assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == CORPUS_DIGEST

    def test_decoding_draws_nothing(self, monkeypatch):
        obj = demo_overlay_small().white.to_json()
        obj["N"] = 100000
        fam = PathFamily.from_json(obj)
        drawn = []
        points = LatticePath.points
        monkeypatch.setattr(LatticePath, "points", lambda p: drawn.append(p) or points(p))
        assert family_from_paths(fam.paths, 100000).tableau == fam.tableau
        assert drawn == []


class TestJson:
    def test_roundtrip(self):
        t = first_tableau(FIG_SHAPE, 8)
        fam = tableau_to_paths(t, 2)
        assert PathFamily.from_json(fam.to_json()) == fam

    def test_roundtrip_with_padding_rows(self):
        t = validate_tableau(SkewShape(Partition((1,))), [[1]], 2)
        fam = tableau_to_paths(t, 0, rows=3)
        assert fam.rows == 3
        assert PathFamily.from_json(fam.to_json()) == fam

    @pytest.mark.parametrize("key", ["N", "shift"])
    def test_float_refused(self, key):
        obj = tableau_to_paths(first_tableau(FIG_SHAPE, 8), 2).to_json()
        obj[key] = 8.5
        with pytest.raises(ValueError, match=rf"{key} must be an integer: 8.5"):
            PathFamily.from_json(obj)
