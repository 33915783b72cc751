import json
import math
import random
import re
import time
from collections import Counter

import pytest

from conftest import first_appearance_flip_sets, peel_expansion, strip_instances
from schurpaths import (
    CircularConfiguration,
    Colour,
    Identity,
    Partition,
    ProductTerm,
    SkewShape,
    StripSpec,
    bareiss_determinant,
    border_strip_identity,
    complete_homogeneous_values,
    configuration_from_shapes,
    estimate_expansion_size,
    minimal_alphabet,
    recolouring_expansion,
    skew_schur_eval,
    verify_identity,
)
from schurpaths import schur

LAM = Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))
MU = Partition((4, 3, 3, 1))
STRIPS = (StripSpec(2, 2, 3), StripSpec(1, 6, 2))

BIG_LAM = Partition((16, 15, 15, 13, 13, 11, 11, 10, 10, 9, 7, 5))
BIG_SIG = Partition((14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))


def P(*parts):
    return Partition(parts)


def _side_at(terms, point):
    """One side of an identity at ``point``, each shape evaluated on its own."""
    return sum(
        skew_schur_eval(t.white, point) * skew_schur_eval(t.black, point)
        for t in terms
        if not t.zero
    )


def alternating_configuration(rng: random.Random, k: int) -> CircularConfiguration:
    """A random configuration with k coloured points on each level, alternating
    around the circle, plus up to two doubled points per level.

    Colours alternate along each level and agree at both ends of the two
    levels, which makes the orientations alternate; draws in which some row
    would be negative are retried.
    """
    while True:
        d = rng.randint(0, 2)
        span = 2 * (k + d) + 2
        top = sorted(rng.sample(range(span // 2, span // 2 + span), k + d), reverse=True)
        bottom = sorted(rng.sample(range(span), k + d))
        top_dbl, bot_dbl = set(rng.sample(top, d)), set(rng.sample(bottom, d))
        first = rng.choice(list(Colour))
        top_colours = [first if i % 2 == 0 else first.other for i in range(k)]
        last = top_colours[-1]
        bottom_colours = [last if i % 2 == 0 else last.other for i in range(k)]
        ends = {c: set(top_dbl) for c in Colour}
        starts = {c: set(bot_dbl) for c in Colour}
        for x, c in zip([x for x in top if x not in top_dbl], top_colours):
            ends[c].add(x)
        for x, c in zip([x for x in bottom if x not in bot_dbl], bottom_colours):
            starts[c].add(x)
        config = CircularConfiguration.from_point_sets(
            starts[Colour.WHITE], ends[Colour.WHITE], starts[Colour.BLACK], ends[Colour.BLACK]
        )
        if config.shapes() is not None:
            assert config.alternating and len(config.points) == 2 * k
            return config


def expansion_of(config: CircularConfiguration, s_points):
    """``recolouring_expansion`` of the shapes whose families give ``config``."""
    (white, sw), (black, sb) = config.shapes()
    rows = tuple(len(config.colour_point_xs(c, False)) for c in Colour)
    assert configuration_from_shapes(white, black, (sw, sb), rows) == config
    return recolouring_expansion(white, black, s_points, shifts=(sw, sb), rows=rows)


def oracle_terms(config: CircularConfiguration, s_idx: set[int]) -> tuple[ProductTerm, ...]:
    """The expansion built by walking every admissible matching."""
    terms = []
    for flips in first_appearance_flip_sets(config, s_idx):
        shapes = config.reoriented(flips).shapes()
        if shapes is None:
            terms.append(ProductTerm(None, None))
        else:
            (white, _), (black, _) = shapes
            terms.append(ProductTerm(white, black))
    return tuple(terms)


class TestExpansionAgainstMatchings:
    """Terms, in order, equal those of the first-appearance dedupe over matchings."""

    @staticmethod
    def _draw(rng, k, size):
        config = alternating_configuration(rng, k)
        chosen = rng.sample(config.inward_points(), size)
        return config, [(p.x, p.level_name) for p in chosen], {p.index for p in chosen}

    def test_random_alternating_pairs(self):
        rng = random.Random(515)
        for k in range(1, 9):
            for size in range(1, min(k, 3) + 1):
                for _ in range(3):
                    config, s_points, s_idx = self._draw(rng, k, size)
                    assert expansion_of(config, s_points) == oracle_terms(config, s_idx)

    def test_term_count_is_binomial(self):
        # the flip sets are S with any |S| of the k outward points, zero terms included
        rng = random.Random(516)
        for k in range(1, 7):
            for size in range(1, min(k, 4) + 1):
                config, s_points, s_idx = self._draw(rng, k, size)
                terms = expansion_of(config, s_points)
                assert len(terms) == len(oracle_terms(config, s_idx)) == math.comb(k, size)

    def test_forty_points(self):
        # 1,140 terms where the matchings would number Catalan(20), about 6.6e9
        config, s_points, _ = self._draw(random.Random(517), 20, 3)
        t0 = time.perf_counter()
        terms = expansion_of(config, s_points)
        assert time.perf_counter() - t0 < 30.0
        assert len(terms) == math.comb(20, 3) == 1140


class TestRecolouringExpansion:
    @pytest.mark.parametrize("mu", [(), (5, 4, 2, 2, 2, 1, 1, 1)])
    def test_equal_length_golden(self, mu):
        mu = Partition(mu)
        terms = recolouring_expansion(SkewShape(BIG_LAM, mu), SkewShape(BIG_SIG, mu), s={(15, "N")})
        got = [(tuple(t.white.outer), tuple(t.black.outer)) for t in terms]
        assert got == [
            (
                (14, 14, 12, 12, 11, 11, 11, 10, 10, 9, 7, 5),
                (16, 15, 15, 13, 13, 11, 11, 9, 8, 7, 7, 5),
            ),
            (
                (14, 14, 12, 12, 10, 10, 9, 9, 8, 7, 7, 5),
                (16, 15, 15, 13, 13, 12, 12, 12, 10, 9, 7, 5),
            ),
        ]
        assert all(t.white.inner == mu and t.black.inner == mu for t in terms)

    def test_two_coloured_points_swap(self):
        terms = recolouring_expansion(SkewShape(P(1)), SkewShape(P(2)), s={(0, "N")})
        assert len(terms) == 1
        assert terms[0].white == SkewShape(P(2))
        assert terms[0].black == SkewShape(P(1))

    def test_zero_terms_retained_and_identity_holds(self):
        # disjoint single-box families: one matching reaches an impossible
        # configuration, the other a two-cell disconnected shape
        terms = recolouring_expansion(
            SkewShape(P(1)), SkewShape(P(1)), s={(0, "N")}, shifts=(0, 5)
        )
        assert any(t.zero for t in terms)
        lhs = (ProductTerm(SkewShape(P(1)), SkewShape(P(1))),)
        ident = Identity(lhs, terms, 3, "test")
        assert verify_identity(ident, method="full").passed

    def test_not_alternating(self):
        with pytest.raises(ValueError, match=r"coloured point orientations do not alternate"):
            recolouring_expansion(SkewShape(P(2, 2)), SkewShape(P(4, 1)), s={(1, "N")})

    def test_empty_s(self):
        with pytest.raises(ValueError, match=r"s must be nonempty"):
            recolouring_expansion(SkewShape(BIG_LAM), SkewShape(BIG_SIG), s=set())

    def test_s_not_inward(self):
        with pytest.raises(ValueError, match=r"not inward coloured points: 13,N$"):
            recolouring_expansion(SkewShape(BIG_LAM), SkewShape(BIG_SIG), s={(13, "N")})

    @pytest.mark.parametrize("x", [15.9, "15", True], ids=["float", "str", "bool"])
    def test_x_not_an_integer(self, x):
        # int() would read 15.9 and "15" as the inward point 15
        with pytest.raises(ValueError, match=rf"^x must be an integer, got {re.escape(repr(x))}$"):
            recolouring_expansion(SkewShape(BIG_LAM), SkewShape(BIG_SIG), s={(x, "N")})

    def test_degree_conservation(self):
        lhs_cells = SkewShape(BIG_LAM).size + SkewShape(BIG_SIG).size
        terms = recolouring_expansion(SkewShape(BIG_LAM), SkewShape(BIG_SIG), s={(15, "N")})
        for t in terms:
            assert t.white.size + t.black.size == lhs_cells


class TestBorderStripIdentity:
    def test_golden_terms(self):
        # the right side in recolouring order: the complete-peel term comes last
        ident = border_strip_identity(LAM, MU, STRIPS)
        assert [tuple(t.white.outer) for t in ident.lhs] == [tuple(LAM)]
        assert [tuple(t.black.outer) for t in ident.lhs] == [(8, 7, 7, 5, 4, 4, 2, 1, 1)]
        got = [(tuple(t.white.outer), tuple(t.black.outer)) for t in ident.rhs]
        assert got == [
            ((8, 7, 7, 6, 6, 4, 4, 3, 2, 2), (10, 7, 7, 5, 4, 4, 2, 1, 1)),
            ((6, 6, 5, 5, 4, 4, 4, 3, 2, 2), (10, 9, 8, 8, 6, 4, 2, 1, 1)),
            ((6, 6, 5, 5, 3, 3, 2, 1, 1), (10, 9, 8, 8, 6, 5, 5, 3, 2, 2)),
        ]
        assert all(t.white.inner == MU and t.black.inner == MU for t in ident.lhs + ident.rhs)

    def test_default_alphabet_is_max_column_height(self):
        ident = border_strip_identity(LAM, MU, STRIPS)
        assert ident.alphabet == minimal_alphabet(ident.all_shapes())
        assert ident.alphabet == 7

    def test_identity_defaults_to_minimal_alphabet(self):
        lhs = (ProductTerm(SkewShape(P(2, 2, 1)), SkewShape(P(1))),)
        rhs = (ProductTerm(None, None),)
        assert Identity(lhs, rhs).alphabet == 3
        assert Identity(lhs, rhs, 5).alphabet == 5
        assert Identity((), ()).alphabet == 1

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_alphabet_rejected(self, n):
        # s_1 s_1 = 0 is false, but both sides are 0 at the empty point
        lhs = (ProductTerm(SkewShape(P(1)), SkewShape(P(1))),)
        with pytest.raises(ValueError, match="alphabet must be positive"):
            Identity(lhs, (), n)
        with pytest.raises(ValueError, match="alphabet must be positive"):
            border_strip_identity(P(3, 1), (), [StripSpec(1, 2, 1)], alphabet=n)

    def test_empty_strips_rejected(self):
        with pytest.raises(ValueError, match=r"at least one strip is required"):
            border_strip_identity(LAM, MU, [])

    def test_straight_shapes_when_mu_empty(self):
        ident = border_strip_identity(LAM, (), STRIPS)
        assert all(not t.white.inner and not t.black.inner for t in ident.lhs + ident.rhs)


class TestConsistency:
    """``border_strip_identity`` against the expansion built by peels."""

    @staticmethod
    def agrees(lam, mu, strips) -> bool:
        ident = border_strip_identity(lam, mu, strips)
        return Counter(ident.rhs) == Counter(peel_expansion(Partition(lam), Partition(mu), strips))

    def test_running_example(self):
        assert self.agrees(LAM, MU, STRIPS)
        assert self.agrees(LAM, (), STRIPS)

    def test_empty_leading_column(self):
        # the peels give (5,2)/(3,1) and (7,6)/(3,1), whose first columns are
        # empty; as diagrams they are (4,1)/(2) and (6,5)/(2)
        strips = [StripSpec(1, 3, 1)]
        assert [(t.white, t.black) for t in peel_expansion(P(7, 6, 3), P(3, 1), strips)] == [
            (SkewShape(P(4, 1), P(2)), SkewShape(P(7, 6, 4), P(3, 1))),
            (SkewShape(P(5, 3, 3), P(3, 1)), SkewShape(P(6, 5), P(2))),
        ]

    def test_single_strip_small(self):
        assert self.agrees(P(3, 1), (), [StripSpec(1, 2, 1)])
        ident = border_strip_identity(P(3, 1), (), [StripSpec(1, 2, 1)], alphabet=3)
        assert verify_identity(ident, method="full").passed

    def test_sweep_small_instances(self):
        checked = 0
        for lam in (P(3, 1), P(4, 2, 1), P(5, 3, 3, 1), P(4, 4, 2, 1)):
            for r in range(2, len(lam) + 1):
                gap = lam.part(r - 1) - lam.part(r)
                for t in range(1, gap + 1):
                    for m in range(1, len(lam) - r + 2):
                        assert self.agrees(lam, (), [StripSpec(t, r, m)])
                        checked += 1
        assert checked >= 20

    def test_seeded_sweep_with_mu(self):
        # with the instance of test_empty_leading_column, where comparing
        # (outer, inner) tuples would fail
        agreed = 0
        leading = (P(7, 6, 3), P(3, 1), [StripSpec(1, 3, 1)])
        for lam, mu, strips in [leading, *strip_instances(seed=5, count=800)]:
            try:
                expected = peel_expansion(lam, mu, strips)
            except ValueError:
                continue
            rhs = border_strip_identity(lam, mu, strips).rhs
            assert Counter(rhs) == Counter(expected)
            # in recolouring order the complete-peel term comes last
            assert rhs[-1] == expected[0]
            agreed += 1
        assert agreed >= 401

    def test_refuses_exactly_where_mu_does_not_fit(self):
        refused = 0
        for lam, mu, strips in strip_instances(seed=5, count=800):
            try:
                peel_expansion(lam, mu, strips)
            except ValueError:
                message = f"mu {tuple(mu)} does not fit inside a peeled shape"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    border_strip_identity(lam, mu, strips)
                refused += 1
            else:
                border_strip_identity(lam, mu, strips)
        assert refused >= 100


class TestVerify:
    def test_full_small(self):
        ident = border_strip_identity(P(3, 1), (), [StripSpec(1, 2, 1)], alphabet=4)
        report = verify_identity(ident, method="full")
        assert report.passed and report.method == "full"

    def test_multipoint_running_example(self):
        ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        report = verify_identity(ident, method="multipoint", points=20, seed=42)
        assert report.passed
        assert report.points == 20 and report.seed == 42

    def test_multipoint_deterministic(self):
        ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        a = verify_identity(ident, method="multipoint", points=5, seed=9)
        b = verify_identity(ident, method="multipoint", points=5, seed=9)
        assert len(a.per_point) == 5 and a.per_point == b.per_point
        assert "perPoint" not in a.to_json() and len(a.to_json(verbose=True)["perPoint"]) == 5

    @pytest.mark.parametrize(
        "ident, seeds",
        [
            (Identity((ProductTerm(SkewShape(Partition((1,) * 11)), SkewShape(P(1))),), (), 11),
             range(30)),
            (border_strip_identity(LAM, MU, STRIPS, alphabet=11), range(1, 6)),
        ],
        ids=["false-identity", "strip-identity"],
    )
    def test_multipoint_report_follows_per_point(self, ident, seeds):
        for seed in seeds:
            report = verify_identity(ident, method="multipoint", points=20, seed=seed)
            unequal = [p for p, lv, rv in report.per_point if lv != rv]
            assert report.witness == (unequal[0] if unequal else None)
            assert report.max_abs == max(abs(v) for _, *values in report.per_point for v in values)
            assert (report.verdict == "fail") == (report.witness is not None)
            # the shared h-vector gives each shape's own value
            assert report.per_point == tuple(
                (p, *(_side_at(side, p) for side in (ident.lhs, ident.rhs)))
                for p, _, _ in report.per_point
            )

    def test_multipoint_computes_one_h_vector_per_point(self, monkeypatch):
        calls = []

        def counting(values, max_degree):
            calls.append(tuple(values))
            return complete_homogeneous_values(values, max_degree)

        monkeypatch.setattr(schur, "complete_homogeneous_values", counting)
        ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        report = verify_identity(ident, method="multipoint", points=20, seed=42)
        assert report.passed and len(calls) == 20
        assert calls == [p for p, _, _ in report.per_point]

    def test_multipoint_skips_determinants_of_vanishing_shapes(self, monkeypatch):
        """A shape with a column taller than a point's nonzero coordinates is
        0 there without a determinant.  Determinants are counted, not timed."""
        calls = []

        def counting(matrix):
            calls.append(len(matrix))
            return bareiss_determinant(matrix)

        monkeypatch.setattr(schur, "bareiss_determinant", counting)
        white, black = SkewShape(BIG_LAM), SkewShape(BIG_SIG)
        terms = recolouring_expansion(white, black, [(15, True)])
        ident = Identity((ProductTerm(white, black),), terms)
        assert ident.alphabet == 12 and len(ident.all_shapes()) == 6
        # without the rule 20 points times 6 twelve-row shapes make 120
        # determinants; one point of the 20 has all 12 coordinates nonzero
        assert verify_identity(ident, method="multipoint", points=20, seed=42).passed
        assert len(calls) == 6
        calls.clear()
        column = SkewShape(Partition((1,) * 11))
        false = Identity((ProductTerm(column, SkewShape(P(1))),), (), 11, "s_{1^11} s_1 = 0")
        passes = sum(
            verify_identity(false, method="multipoint", points=20, seed=s).passed for s in range(30)
        )
        assert passes == 6
        assert len(calls) == 650

    def test_negative_control_drops_term(self):
        ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        for drop in range(len(ident.rhs)):
            broken = Identity(
                ident.lhs,
                ident.rhs[:drop] + ident.rhs[drop + 1 :],
                ident.alphabet,
                "corrupted",
            )
            report = verify_identity(broken, method="multipoint", points=20, seed=42)
            assert not report.passed
            assert report.witness is not None

    def test_auto_prefers_full_when_small(self):
        ident = border_strip_identity(P(3, 1), (), [StripSpec(1, 2, 1)], alphabet=3)
        assert estimate_expansion_size(ident) < 1000
        assert verify_identity(ident, method="auto").method == "full"

    @pytest.mark.parametrize("points", [0, -3])
    def test_multipoint_needs_a_point(self, points):
        column = SkewShape(Partition((1,) * 11))
        false = Identity((ProductTerm(column, SkewShape(P(1))),), (), 11, "s_{1^11} s_1 = 0")
        with pytest.raises(ValueError):
            verify_identity(false, method="multipoint", points=points)
        # auto falls back to multipoint when the expansion is over budget
        ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        with pytest.raises(ValueError):
            verify_identity(ident, method="auto", points=points)

    def test_full_reports_witness_monomial(self):
        lhs = (ProductTerm(SkewShape(P(1)), SkewShape(P(1))),)
        broken = Identity(lhs, (), 2, "empty rhs")
        report = verify_identity(broken, method="full")
        assert not report.passed and report.witness is not None

    def test_full_false_identity_pinned(self):
        # s_{111} s_1 = s_{211} + s_{1111}, so the difference is x1 x2 x3 x4,
        # and the lhs coefficient of x1 x2 x3 x4 is 3 + 1
        lhs = (ProductTerm(SkewShape(P(1, 1, 1)), SkewShape(P(1))),)
        rhs = (ProductTerm(SkewShape(P(2, 1, 1)), SkewShape(P())),)
        report = verify_identity(Identity(lhs, rhs, 4, "false"), method="full")
        assert report.verdict == "fail"
        assert report.witness == (1, 1, 1, 1)
        assert report.max_abs == 4


class TestJson:
    def test_roundtrip(self):
        ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        obj = json.loads(json.dumps(ident.to_json()))

        def side(key):
            return tuple(
                ProductTerm(SkewShape.from_json(w), SkewShape.from_json(b)) for w, b in obj[key]
            )

        assert side("lhs") == ident.lhs and side("rhs") == ident.rhs
        assert obj["N"] == 11 and obj["provenance"] == ident.provenance

    def test_zero_term_roundtrip(self):
        assert ProductTerm(None, None).to_json() == {"zero": True}


class TestConfigurationFromShapes:
    def test_strip_example_configuration(self):
        from schurpaths import build_nu, peel_complete

        sigma = peel_complete(build_nu(LAM, STRIPS))
        cfg = configuration_from_shapes(
            SkewShape(LAM, MU), SkewShape(sigma, MU), rows=(10, 9)
        )
        assert [(p.x, p.level_name) for p in cfg.points] == [
            (9, "N"), (7, "N"), (2, "N"), (-1, "N"), (-3, "N"), (-10, "1"),
        ]
        assert cfg.alternating
        assert cfg.points[0].inward is True

    def test_mu_not_contained_rejected(self):
        with pytest.raises(ValueError):
            border_strip_identity(Partition((3, 1)), Partition((3, 2)), [StripSpec(1, 2, 1)])

    def test_rows_padding_changes_configuration(self):
        lam, sigma = P(3, 1), P(2)
        natural = configuration_from_shapes(SkewShape(lam), SkewShape(sigma))
        padded = configuration_from_shapes(SkewShape(lam), SkewShape(sigma), rows=(2, 2))
        assert natural.points != padded.points
        # padding the black family moves the extra coloured point to the top
        assert any(not p.top for p in natural.points)
        assert all(p.top for p in padded.points)
