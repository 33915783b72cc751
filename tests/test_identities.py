import itertools
import json
import math
import random
import re
import time
from collections import Counter

import pytest

from conftest import (
    alternating_configuration,
    first_appearance_flip_sets,
    full_by_disjoint_sums,
    full_by_products,
    full_instances,
    jacobi_trudi,
    peel_expansion,
    recoloured_configuration,
    strip_instances,
    top_degree,
)
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
    skew_schur_evaluator,
    to_points,
    verify_identity,
)
from schurpaths import identities, schur

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


def expansion_of(config: CircularConfiguration, s_points):
    """``recolouring_expansion`` of the shapes whose families give ``config``."""
    (white, sw), (black, sb) = config.shapes()
    # a family has one path per start point, doubled or of its colour
    rows = tuple(
        len(config.doubled_bottom) + sum(not p.top and p.colour is c for p in config.points)
        for c in Colour
    )
    assert configuration_from_shapes(white, black, (sw, sb), rows) == config
    return recolouring_expansion(white, black, s_points, shifts=(sw, sb), rows=rows)


def oracle_terms(config: CircularConfiguration, s_idx: set[int]) -> tuple[ProductTerm, ...]:
    """The expansion built by walking every admissible matching, each term
    decoded from the configuration rebuilt with its flip set recoloured."""
    terms = []
    for flips in first_appearance_flip_sets(config, s_idx):
        shapes = recoloured_configuration(config, flips).shapes()
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

    @classmethod
    def random_pairs(cls):
        rng = random.Random(515)
        for k in range(1, 9):
            for size in range(1, min(k, 3) + 1):
                for _ in range(3):
                    yield cls._draw(rng, k, size)

    @classmethod
    def binomial_pairs(cls):
        rng = random.Random(516)
        for k in range(1, 7):
            for size in range(1, min(k, 4) + 1):
                yield k, size, cls._draw(rng, k, size)

    def test_random_alternating_pairs(self):
        for config, s_points, s_idx in self.random_pairs():
            assert expansion_of(config, s_points) == oracle_terms(config, s_idx)

    def test_term_count_is_binomial(self):
        # the flip sets are S with any |S| of the k outward points, zero terms included
        for k, size, (config, s_points, s_idx) in self.binomial_pairs():
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

    def test_one_configuration_per_call(self, monkeypatch):
        """Every term is decoded from the one configuration of the pair, with
        its flip set recoloured, so no configuration is built per term; on the
        README pair and the README border strip identity."""
        built = []
        post_init = CircularConfiguration.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(CircularConfiguration, "__post_init__", counted)
        terms = recolouring_expansion(SkewShape(BIG_LAM), SkewShape(BIG_SIG), s={(15, "N")})
        assert (len(terms), len(built)) == (2, 1)
        built.clear()
        identity = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
        assert (len(identity.rhs), len(built)) == (3, 1)


    def test_dodgson_condensation(self):
        """Desnanot-Jacobi on the Jacobi-Trudi matrix M of a seeded lam/mu
        with r = 3..8 rows, det M det M^{1r}_{1r} = det M^1_1 det M^r_r -
        det M^1_r det M^r_1, is the expansion of s_A s_B through either
        inward point, A = M^1_1 on r - 1 rows at shift -1 and B = M^r_r on
        r - 1 rows at shift 0: the terms are s_D s_E and s_{lam/mu} s_C,
        C = M^{1r}_{1r}, D = M^1_r and E = M^r_1, each shape up to the
        canonical shift, with the colours swapped through the point at level
        N, and a zero term in place of s_D s_E exactly when D is not a skew
        shape (E always is).  At a seeded point the Bareiss minors of M equal
        ``skew_schur_evaluator``'s values of the shapes, and a minor whose
        shape is not skew is 0."""

        def shape(outer, inner):
            # the canonical shift takes the least part to 0, the last of inner
            return SkewShape(*(Partition([p - inner[-1] for p in ps]) for ps in (outer, inner)))

        def minor(m, row, col):
            return [[x for j, x in enumerate(r) if j != col] for i, r in enumerate(m) if i != row]

        rng = random.Random(31)
        kinds = Counter()
        for _ in range(300):
            r = rng.randint(3, 8)
            lam = sorted((rng.randint(1, 7) for _ in range(r)), reverse=True)
            cap = sorted((rng.randint(0, 6) for _ in range(r)), reverse=True)
            mu = [min(p, q) for p, q in zip(lam, cap)]
            a, b = SkewShape(P(*lam[1:]), P(*mu[1:])), SkewShape(P(*lam[:-1]), P(*mu[:-1]))
            whole, c = shape(lam, mu), shape(lam[1:-1], mu[1:-1])
            d_parts = ([p - 1 for p in lam[1:]], mu[:-1])
            e_parts = ([p + 1 for p in lam[:-1]], mu[1:])
            skew = all(q <= p for outer, inner in (d_parts, e_parts) for p, q in zip(outer, inner))
            pairs = [(shape(*d_parts), shape(*e_parts)) if skew else (None, None), (whole, c)]
            config = configuration_from_shapes(a, b, (-1, 0), (r - 1, r - 1))
            inward = {p.top: p.x for p in config.inward_points()}
            assert len(inward) == 2
            for top, x in inward.items():
                terms = recolouring_expansion(a, b, [(x, top)], shifts=(-1, 0), rows=(r - 1, r - 1))
                assert terms == tuple(ProductTerm(*(p[::-1] if top else p)) for p in pairs)
            kinds[skew] += 1
            point = [rng.randint(-3, 4) for _ in range(rng.randint(2, r + 1))]
            h = complete_homogeneous_values(point, lam[0] - mu[-1] + r - 1)
            m = [[h[x - y] if x >= y else 0 for y in (q - j for j, q in enumerate(mu))]
                 for x in (p - i for i, p in enumerate(lam))]
            det = {
                "whole": bareiss_determinant(m),
                "c": bareiss_determinant(minor(minor(m, 0, 0), r - 2, r - 2)),
                "a": bareiss_determinant(minor(m, 0, 0)),
                "b": bareiss_determinant(minor(m, r - 1, r - 1)),
                "d": bareiss_determinant(minor(m, 0, r - 1)),
                "e": bareiss_determinant(minor(m, r - 1, 0)),
            }
            assert det["whole"] * det["c"] == det["a"] * det["b"] - det["d"] * det["e"]
            shapes = {"whole": whole, "c": c, "a": a, "b": b}
            if skew:
                shapes.update(d=shape(*d_parts), e=shape(*e_parts))
            else:
                assert det["d"] == 0
            values = skew_schur_evaluator(list(shapes.values()))(point)
            assert dict(zip(shapes, values)) == {k: det[k] for k in shapes}, (lam, mu, point)
        assert kinds[True] > 0 and kinds[False] > 0, kinds

    def test_plucker_relation(self):
        """The three-term Plucker relation on the maximal minors of an
        r x (r + 2) matrix, r = 2..6, Delta_ac Delta_bd = Delta_ab Delta_cd +
        Delta_ad Delta_bc, is the expansion of s_A s_B through either inward
        point.  Delta_X has the columns S + X of h_{e - x}, for the r ends e
        and the r + 2 start columns x, where |S| = r - 2 and a < b < c < d are
        the rest.  A starts at S + {a, c} and B at S + {b, d}, both end at the
        r ends, so only a, b, c and d are coloured, and they alternate.
        Recolouring through b swaps b with a, then with c; through d it swaps
        d with c, then with a.  Each term is compared as the starts and ends
        of its decoded shapes, up to one shift per shape (read by
        ``to_points``, not by ``canonical_shape``), and a pair with a factor
        whose starts pass its ends is a zero term.  Draws in which A or B has
        such a factor are skipped.  At a seeded point the Bareiss minors
        satisfy the relation and equal the values of the decoded shapes; a
        zero term's minors multiply to 0."""

        def passes(starts, ends):
            return any(x > e for x, e in zip(starts, ends))

        def up_to_shift(shape, starts, ends):
            rows = len(ends)
            got = [to_points(p, rows) for p in (shape.inner, shape.outer)]
            t = ends[0] - got[1][0]
            return [[x + t for x in xs] for xs in got] == [starts, ends]

        rng = random.Random(32)
        skipped, zero = 0, Counter()
        for _ in range(300):
            r = rng.randint(2, 6)
            ends = sorted(rng.sample(range(3 * r), r), reverse=True)
            columns = rng.sample(range(-r, 2 * r + 2), r + 2)
            a, b, c, d = sorted(columns[:4])
            cols = {
                pair: sorted([*columns[4:], *pair], reverse=True)
                for pair in itertools.combinations((a, b, c, d), 2)
            }
            if passes(cols[a, c], ends) or passes(cols[b, d], ends):
                skipped += 1
                continue
            # a shift that leaves no part negative: the least x of all
            t = min(*ends, *columns)
            white, black = (
                SkewShape(*(P(*(x + i - t for i, x in enumerate(xs, 1))) for xs in (ends, starts)))
                for starts in (cols[a, c], cols[b, d])
            )
            config = configuration_from_shapes(white, black, (t, t), (r, r))
            assert [(p.x, p.inward) for p in config.points] == [
                (a, False), (b, True), (c, False), (d, True)
            ]
            point = [rng.randint(-3, 4) for _ in range(rng.randint(1, r + 1))]
            h = complete_homogeneous_values(point, ends[0] - min(columns))
            minor = {
                pair: bareiss_determinant([[h[e - x] if e >= x else 0 for x in xs] for e in ends])
                for pair, xs in cols.items()
            }
            ac_bd = minor[a, c] * minor[b, d]
            assert ac_bd == minor[a, b] * minor[c, d] + minor[a, d] * minor[b, c]
            # each term's white and black pair, in the expansion's order
            for x, want in (
                (b, [((b, c), (a, d)), ((a, b), (c, d))]),
                (d, [((a, d), (b, c)), ((c, d), (a, b))]),
            ):
                terms = recolouring_expansion(white, black, [(x, 1)], shifts=(t, t), rows=(r, r))
                assert len(terms) == 2
                for term, pairs in zip(terms, want):
                    zero[term.zero] += 1
                    if any(passes(cols[p], ends) for p in pairs):
                        assert term.zero and minor[pairs[0]] * minor[pairs[1]] == 0
                        continue
                    shapes = term.shapes()
                    for shape, p in zip(shapes, pairs):
                        assert up_to_shift(shape, cols[p], ends), (x, p, term)
                    values = skew_schur_evaluator(shapes)(point)
                    assert values == [minor[p] for p in pairs], (x, pairs, point)
        assert skipped > 0 and zero[True] > 0 and zero[False] > 500, (skipped, zero)


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

    @staticmethod
    def small_instances():
        for lam in (P(3, 1), P(4, 2, 1), P(5, 3, 3, 1), P(4, 4, 2, 1)):
            for r in range(2, len(lam) + 1):
                gap = lam.part(r - 1) - lam.part(r)
                for t in range(1, gap + 1):
                    for m in range(1, len(lam) - r + 2):
                        yield lam, (), [StripSpec(t, r, m)]

    @staticmethod
    def seeded_instances():
        # with the instance of test_empty_leading_column, where comparing
        # (outer, inner) tuples would fail
        yield P(7, 6, 3), P(3, 1), [StripSpec(1, 3, 1)]
        yield from strip_instances(seed=5, count=800)

    def test_sweep_small_instances(self):
        checked = 0
        for lam, mu, strips in self.small_instances():
            assert self.agrees(lam, mu, strips)
            checked += 1
        assert checked >= 20

    def test_seeded_sweep_with_mu(self):
        agreed = 0
        for lam, mu, strips in self.seeded_instances():
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


def in_lambda(identity: Identity, rng: random.Random) -> bool:
    """Whether the sides are equal at seeded random integers h_1..h_D, h_0 = 1.

    Each shape is its Jacobi-Trudi determinant in h (``jacobi_trudi``), which
    has no number of variables to zero a shape.  The h_d are algebraically
    independent in the ring of symmetric functions, so an identity that
    holds there holds at every draw, and one that holds only at its own
    number of variables fails at almost every draw.
    """
    top = max(map(top_degree, identity.all_shapes()), default=0)
    h = [1] + [rng.randint(-(10**6), 10**6) for _ in range(top)]

    def side(terms):
        return sum(jacobi_trudi(t.white, h) * jacobi_trudi(t.black, h) for t in terms if not t.zero)

    return side(identity.lhs) == side(identity.rhs)


class TestInLambda:
    """The identities of the sweeps above hold in the ring of symmetric
    functions, not only at their number of variables."""

    def test_border_strip_sweeps(self):
        rng = random.Random(2601)
        held = 0
        instances = [*TestConsistency.small_instances(), *TestConsistency.seeded_instances()]
        for lam, mu, strips in instances:
            try:
                ident = border_strip_identity(lam, mu, strips)
            except ValueError:  # mu does not fit inside a peeled shape
                continue
            assert in_lambda(ident, rng)
            held += 1
        assert held == 527

    def test_recolouring_sweeps(self):
        rng = random.Random(2602)
        draws = [
            *TestExpansionAgainstMatchings.random_pairs(),
            *(draw for _, _, draw in TestExpansionAgainstMatchings.binomial_pairs()),
        ]
        for config, s_points, _ in draws:
            (white, _), (black, _) = config.shapes()
            ident = Identity((ProductTerm(white, black),), expansion_of(config, s_points))
            assert in_lambda(ident, rng)
        assert len(draws) == 81

    def test_products_true_only_at_their_n_fail(self):
        rng = random.Random(2603)
        at_n = [
            ident
            for ident in full_instances(seed=2503, count=330)
            if ident.provenance == "products" and verify_identity(ident, method="full").passed
        ]
        assert any(not in_lambda(ident, rng) for ident in at_n)
        # commuting the factors is an identity in Lambda
        commuted = [i for i in at_n if i.rhs == (ProductTerm(*reversed(i.lhs[0].shapes())),)]
        assert commuted and all(in_lambda(i, rng) for i in commuted)


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

    def test_each_distinct_shape_evaluated_once_per_point(self, monkeypatch):
        """s_A s_B = s_B s_A holds four shapes, two of them distinct: each is
        laid out once per verification, and has one determinant at each point
        where no column is taller than the nonzero coordinates; the tableau
        count lays out and evaluates each once, and under auto it is read off
        the layout that multipoint then uses, so each shape is laid out once."""
        layouts, determinants = [], []

        def laying_out(shape):
            layouts.append(shape)
            return index_rows(shape)

        def counting(matrix):
            determinants.append(len(matrix))
            return bareiss_determinant(matrix)

        index_rows = schur._index_rows
        monkeypatch.setattr(schur, "_index_rows", laying_out)
        monkeypatch.setattr(schur, "bareiss_determinant", counting)
        a, b = SkewShape(P(2, 1)), SkewShape(P(3, 1), P(1))
        ident = Identity((ProductTerm(a, b),), (ProductTerm(b, a),), 3)
        assert len(ident.all_shapes()) == 4
        report = verify_identity(ident, method="multipoint", points=5, seed=2)
        assert report.passed and layouts == [a, b]
        # both shapes have two rows; a's column of 2 needs two nonzero
        # coordinates and b's columns of 1 need one
        nonzero = [len(p) - p.count(0) for p, _, _ in report.per_point]
        live = sum((k >= 2) + (k >= 1) for k in nonzero)
        assert determinants == [2] * live and live == 8
        tableaux = skew_schur_eval(a, (1, 1, 1)) + skew_schur_eval(b, (1, 1, 1))
        layouts.clear(), determinants.clear()
        assert estimate_expansion_size(ident) == 2 * tableaux
        assert layouts == [a, b] and determinants == [2, 2]
        # auto reads the tableau count off the evaluator it verifies with,
        # whichever method it picks
        layouts.clear(), determinants.clear()
        assert verify_identity(ident, method="auto").method == "full"
        assert layouts == [a, b] and determinants == [2, 2]
        monkeypatch.setattr(identities, "AUTO_BUDGET", 2 * tableaux - 1)
        layouts.clear(), determinants.clear()
        report = verify_identity(ident, method="auto", points=5, seed=2)
        assert report.method == "multipoint" and report.passed and layouts == [a, b]
        assert determinants == [2, 2] + [2] * live
        # full forced lays nothing out, and expands each distinct shape once
        expanded = []

        def expanding(shape, n):
            expanded.append(shape)
            return skew_schur(shape, n)

        skew_schur = identities.skew_schur
        monkeypatch.setattr(identities, "skew_schur", expanding)
        layouts.clear()
        assert verify_identity(ident, method="full").passed and layouts == []
        assert expanded == [a, b]

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
        # the column has a determinant at the 50 of the 600 points with all
        # 11 coordinates nonzero; s_1 has one row, read as h_1 with none
        assert calls == [11] * 50

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

    @pytest.mark.parametrize("points", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_points_must_be_an_integer(self, points):
        # multipoint raised TypeError on 2.5, and full, which never reads the
        # count, accepted it silently
        ident = border_strip_identity(P(3, 1), (), [StripSpec(1, 2, 1)], alphabet=3)
        message = f"points must be an integer, got {points!r}"
        for method in ("full", "multipoint", "auto"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                verify_identity(ident, method=method, points=points)

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

    def test_full_agrees_with_the_product_oracle(self):
        verdicts = Counter()
        for ident in full_instances(seed=2503, count=330):
            report = verify_identity(ident, method="full")
            found = (report.verdict, report.witness, report.max_abs)
            assert found == full_by_products(ident) == full_by_disjoint_sums(ident)
            verdicts[report.verdict] += 1
        assert verdicts["pass"] >= 100 and verdicts["fail"] >= 150

    @pytest.mark.parametrize("part", [1, 3, 7])
    def test_full_witness_at_the_top_bit_of_the_product_field(self, part):
        """s_p s_p against s_{pp} in two variables: the sides differ first at
        (2p, 0), whose first part reaches the top bit of the product's
        exponent field, one bit wider than the factors'."""
        row = SkewShape(P(part))
        square = Identity(
            (ProductTerm(row, row),), (ProductTerm(SkewShape(P(part, part)), SkewShape(P())),), 2
        )
        assert 2 * part >= 2 ** schur.skew_schur(row, 2)._bits
        report = verify_identity(square, method="full")
        assert report.witness == (2 * part, 0)
        found = (report.verdict, report.witness, report.max_abs)
        assert found == full_by_products(square) == full_by_disjoint_sums(square)

    def test_full_multiplies_no_polynomials(self, monkeypatch):
        calls = []
        mul = schur.Polynomial.__mul__

        def counted(self, other):
            calls.append(len(self.coefficients()) * len(other.coefficients()))
            return mul(self, other)

        monkeypatch.setattr(schur.Polynomial, "__mul__", counted)
        verdicts = {verify_identity(i, method="full").verdict for i in full_instances(2504, 30)}
        assert verdicts == {"pass", "fail"}
        assert calls == []
        full_by_products(border_strip_identity(P(3, 1), (), [StripSpec(1, 2, 1)]))
        assert calls  # the guard counts the oracle's products


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
