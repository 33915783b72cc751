"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All comparisons are exact; the random suites are seeded and deterministic.
"""

import collections
import itertools
import operator
import random
import time

from schurpaths import (
    Identity,
    Overlay,
    Partition,
    ProductTerm,
    SkewShape,
    StripSpec,
    all_bicoloured,
    border_strip_identity,
    build_nu,
    configuration_from_shapes,
    enumerate_ssyt,
    family_from_paths,
    paths_to_tableau,
    peel_complete,
    recolour,
    recolouring_expansion,
    skew_schur,
    skew_schur_eval,
    tableau_to_paths,
    verify_identity,
    weight,
)
from schurpaths.gallery import (
    LARGE_RECOLOUR_ENDPOINTS,
    demo_overlay_large,
)
from conftest import FamilySampler, shapes_up_to


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok


def test_criterion_1_golden_recolouring():
    t0 = time.perf_counter()
    ov = demo_overlay_large()
    paths, _ = all_bicoloured(ov)
    want = {
        frozenset({(x, lvl == "N") for x, lvl in pair}) for pair in LARGE_RECOLOUR_ENDPOINTS
    }
    chosen = [p for p in paths if p.endpoint_positions in want]
    assert len(chosen) == 2
    out = recolour(ov, chosen)
    ok = (
        out.white.shape.outer == Partition((13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3))
        and out.white.shape.inner == Partition((9, 9, 7, 7, 7, 6, 5, 5, 5, 4))
        and out.black.shape.outer == Partition((15, 14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))
        and out.black.shape.inner == Partition((10, 10, 10, 7, 7, 6, 5, 5, 5, 4, 2, 2))
        and out.white.shift == 1
        and out.black.shift == 1
        and out.white.rows == 11
        and out.black.rows == 13
    )
    elapsed = time.perf_counter() - t0
    _verdict(1, "golden recolouring", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_golden_expansion():
    t0 = time.perf_counter()
    lam = Partition((16, 15, 15, 13, 13, 11, 11, 10, 10, 9, 7, 5))
    sig = Partition((14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))
    terms = recolouring_expansion(SkewShape(lam), SkewShape(sig), s={(15, "N")})
    got = [(tuple(t.white.outer), tuple(t.black.outer)) for t in terms]
    ok = got == [
        (
            (14, 14, 12, 12, 11, 11, 11, 10, 10, 9, 7, 5),
            (16, 15, 15, 13, 13, 11, 11, 9, 8, 7, 7, 5),
        ),
        (
            (14, 14, 12, 12, 10, 10, 9, 9, 8, 7, 7, 5),
            (16, 15, 15, 13, 13, 12, 12, 12, 10, 9, 7, 5),
        ),
    ]
    elapsed = time.perf_counter() - t0
    _verdict(2, "golden expansion", ok and elapsed < 1.0, f"{elapsed:.3f}s")


LAM = Partition((10, 7, 7, 6, 6, 4, 4, 3, 2, 2))
MU = Partition((4, 3, 3, 1))
STRIPS = (StripSpec(2, 2, 3), StripSpec(1, 6, 2))


def test_criterion_3_strip_identity():
    t0 = time.perf_counter()
    nu = build_nu(LAM, STRIPS)
    sigma = peel_complete(nu)
    ok = nu == Partition((10, 9, 8, 8, 6, 5, 5, 3, 2, 2))
    ok = ok and sigma == Partition((8, 7, 7, 5, 4, 4, 2, 1, 1))
    for mu in (MU, Partition()):
        ident = border_strip_identity(LAM, mu, STRIPS, alphabet=11)
        report = verify_identity(ident, method="multipoint", points=20, seed=42)
        ok = ok and report.passed and report.points == 20
    elapsed = time.perf_counter() - t0
    _verdict(3, "strip identity", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def _random_strip_instance(rng):
    """A pair (lam, strips) valid for the border strip construction, or None."""
    parts = []
    total = rng.randint(2, 6)
    while total > 0:
        p = rng.randint(1, total)
        if parts and p > parts[-1]:
            p = parts[-1]
        parts.append(p)
        total -= p
    lam = Partition(parts)
    rows = [r for r in range(2, len(lam) + 1) if lam.part(r - 1) > lam.part(r)]
    if not rows:
        return None
    k = rng.randint(1, min(2, len(rows)))
    chosen = sorted(rng.sample(rows, k))
    strips = []
    for i, r in enumerate(chosen):
        nxt = chosen[i + 1] if i + 1 < len(chosen) else len(lam) + 1
        t = rng.randint(1, lam.part(r - 1) - lam.part(r))
        m = rng.randint(1, nxt - r)
        strips.append(StripSpec(t, r, m))
    return lam, strips


def _verify_all_subsets(white, black, shifts, rows, nvars):
    cfg = configuration_from_shapes(white, black, shifts, rows)
    inward = [(p.x, p.level_name) for p in cfg.inward_points()]
    lhs = (ProductTerm(white, black),)
    verified = 0
    for size in range(1, len(inward) + 1):
        for s in itertools.combinations(inward, size):
            terms = recolouring_expansion(white, black, s, shifts=shifts, rows=rows)
            ident = Identity(lhs, terms, nvars, "property suite")
            report = verify_identity(ident, method="full")
            assert report.passed, (tuple(white.outer), tuple(black.outer), shifts, s)
            verified += 1
    return verified


def test_criterion_4_expansion_property_suite():
    t0 = time.perf_counter()
    sampler = FamilySampler(seed=424)
    rng = sampler.rng
    configs = 0
    verified = 0
    attempts = 0
    size_seen = collections.Counter()
    while configs < 120:
        attempts += 1
        assert attempts < 100000, "generator failed to reach 120 configurations"
        white, black = sampler.shape(), sampler.shape()
        shift = rng.randint(-2, 2)
        cfg = configuration_from_shapes(white, black, (0, shift))
        if not cfg.points or len(cfg.points) > 8 or not cfg.alternating:
            continue
        nvars = max(2, min(4, max(white.max_column_height, black.max_column_height, 1)))
        verified += _verify_all_subsets(white, black, (0, shift), (None, None), nvars)
        size_seen[len(cfg.points)] += 1
        configs += 1
    while configs < 200:
        attempts += 1
        assert attempts < 100000, "generator failed to reach 200 configurations"
        instance = _random_strip_instance(rng)
        if instance is None:
            continue
        lam, strips = instance
        sigma = peel_complete(build_nu(lam, strips))
        white, black = SkewShape(lam), SkewShape(sigma)
        rows = (len(lam), len(lam) - 1)
        cfg = configuration_from_shapes(white, black, (0, 0), rows)
        assert cfg.alternating
        nvars = max(2, min(4, max(white.max_column_height, black.max_column_height, 1)))
        verified += _verify_all_subsets(white, black, (0, 0), rows, nvars)
        size_seen[len(cfg.points)] += 1
        configs += 1
    elapsed = time.perf_counter() - t0
    assert max(size_seen) >= 6, f"only small configurations generated: {dict(size_seen)}"
    _verdict(
        4,
        "expansion property suite",
        configs >= 200 and elapsed < 300.0,
        f"{configs} configurations, {verified} identities, {elapsed:.1f}s",
    )


def test_criterion_5_involution_suite():
    t0 = time.perf_counter()
    sampler = FamilySampler(seed=555)
    overlays = 0
    while overlays < 1000:
        n = sampler.rng.randint(2, 4)
        ov = Overlay(sampler.family(n), sampler.family(n))
        paths, matching = all_bicoloured(ov)  # checks retracing per point
        by_idx = {p.index: p for p in ov.configuration.points}
        for a, b in matching.pairs:
            assert by_idx[a].inward != by_idx[b].inward
            assert (a - b) % 2 == 1
        assert matching.is_noncrossing
        before = tuple(map(operator.add, ov.white.weight(), ov.black.weight()))
        ov2 = recolour(ov, paths)
        after = tuple(map(operator.add, ov2.white.weight(), ov2.black.weight()))
        assert before == after
        paths2, _ = all_bicoloured(ov2)
        assert {q.arc_set() for q in paths2} == {q.arc_set() for q in paths}
        ov3 = recolour(ov2, paths2)
        assert ov3.white == family_from_paths(ov.white.paths, n)
        assert ov3.black == family_from_paths(ov.black.paths, n)
        for fam in (ov2.white, ov2.black, ov3.white, ov3.black):
            assert paths_to_tableau(fam) == fam.tableau
        overlays += 1
    elapsed = time.perf_counter() - t0
    _verdict(5, "involution suite", overlays >= 1000, f"{overlays} overlays, {elapsed:.1f}s")


def test_criterion_6_bijection_suite():
    t0 = time.perf_counter()
    tableaux = 0
    for shape in shapes_up_to(5):
        for n in range(1, 5):
            for t in enumerate_ssyt(shape, n):
                fam = tableau_to_paths(t, shift=2)
                assert paths_to_tableau(fam) == t
                assert fam.weight() == weight(t)
                tableaux += 1
    elapsed = time.perf_counter() - t0
    _verdict(6, "bijection suite", tableaux > 0, f"{tableaux} tableaux, {elapsed:.1f}s")


def test_criterion_7_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(777)
    checked = 0
    for shape in shapes_up_to(6):
        for n in range(1, 5):
            poly = skew_schur(shape, n)
            for _ in range(20):
                point = tuple(rng.randint(0, 4) for _ in range(n))
                assert poly.evaluate(point) == skew_schur_eval(shape, point)
                checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(7, "oracle agreement", checked > 0, f"{checked} evaluations, {elapsed:.1f}s")


def test_criterion_8_negative_control():
    ident = border_strip_identity(LAM, MU, STRIPS, alphabet=11)
    ok = True
    for drop in range(len(ident.rhs)):
        broken = Identity(
            ident.lhs, ident.rhs[:drop] + ident.rhs[drop + 1 :], 11, "corrupted"
        )
        report = verify_identity(broken, method="multipoint", points=20, seed=42)
        ok = ok and (not report.passed) and report.witness is not None
    _verdict(8, "negative control", ok, "every dropped term is caught with a witness")
