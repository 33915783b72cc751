"""Golden self-test: the worked instances with their published results."""

from __future__ import annotations

import os

from . import gallery
from .identities import border_strip_identity, recolouring_expansion, verify_identity
from .overlay import all_bicoloured, recolour
from .partitions import Partition, SkewShape, build_nu, peel_complete
from .paths import paths_to_tableau, tableau_to_paths
from .schur import skew_schur, skew_schur_eval
from .tableaux import enumerate_ssyt


def default_seed() -> int:
    text = os.environ.get("SCHURPATHS_SEED", "42")
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"SCHURPATHS_SEED must be an integer: {text!r}") from exc


def _check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def run_selftest(seed: int | None = None) -> dict:
    seed = default_seed() if seed is None else seed
    checks: list[dict] = []

    nu = build_nu(gallery.STRIP_LAMBDA, gallery.STRIP_SPECS)
    sigma = peel_complete(nu)
    _check(
        checks,
        "strip construction",
        nu == Partition((10, 9, 8, 8, 6, 5, 5, 3, 2, 2))
        and sigma == Partition((8, 7, 7, 5, 4, 4, 2, 1, 1)),
        f"nu={tuple(nu)} sigma={tuple(sigma)}",
    )

    ov = gallery.demo_overlay_large()
    paths, _ = all_bicoloured(ov)
    chosen = [p for p in paths if p.endpoint_positions in {
        frozenset({(x, lvl == "N") for x, lvl in pair}) for pair in gallery.LARGE_RECOLOUR_ENDPOINTS
    }]
    ok = len(chosen) == 2
    if ok:
        ov2 = recolour(ov, chosen)
        ok = (
            ov2.white.shape.outer == Partition((13, 13, 11, 11, 9, 9, 8, 8, 7, 5, 3))
            and ov2.white.shape.inner == Partition((9, 9, 7, 7, 7, 6, 5, 5, 5, 4))
            and ov2.black.shape.outer == Partition((15, 14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))
            and ov2.black.shape.inner == Partition((10, 10, 10, 7, 7, 6, 5, 5, 5, 4, 2, 2))
            and ov2.white.shift == 1
            and ov2.black.shift == 1
        )
    _check(checks, "recolouring golden", ok, "two traced paths recoloured")

    lam = Partition((16, 15, 15, 13, 13, 11, 11, 10, 10, 9, 7, 5))
    sig = Partition((14, 14, 12, 12, 11, 11, 11, 9, 8, 7, 7, 5))
    terms = recolouring_expansion(SkewShape(lam), SkewShape(sig), s={(15, "N")})
    expected = [
        (
            (14, 14, 12, 12, 11, 11, 11, 10, 10, 9, 7, 5),
            (16, 15, 15, 13, 13, 11, 11, 9, 8, 7, 7, 5),
        ),
        (
            (14, 14, 12, 12, 10, 10, 9, 9, 8, 7, 7, 5),
            (16, 15, 15, 13, 13, 12, 12, 12, 10, 9, 7, 5),
        ),
    ]
    got = [(tuple(t.white.outer), tuple(t.black.outer)) for t in terms]
    _check(checks, "expansion golden", got == expected, f"{len(terms)} terms")

    ident = border_strip_identity(
        gallery.STRIP_LAMBDA, gallery.STRIP_MU, gallery.STRIP_SPECS, alphabet=11
    )
    report = verify_identity(ident, method="multipoint", points=20, seed=seed)
    _check(
        checks,
        "strip identity multipoint",
        report.passed,
        f"seed={seed} maxAbs digits={len(str(report.max_abs))}",
    )

    ok = True
    shape = SkewShape(Partition((3, 2)), Partition((1,)))
    for t in enumerate_ssyt(shape, 3):
        back = paths_to_tableau(tableau_to_paths(t, shift=1))
        ok = ok and back == t
    _check(checks, "bijection roundtrip", ok, "shape (3,2)/(1), 3 entries")

    ok = True
    for outer, inner, n in (((3, 1), (), 3), ((2, 2, 1), (1,), 3), ((4, 2), (2, 1), 2)):
        sh = SkewShape(Partition(outer), Partition(inner))
        poly = skew_schur(sh, n)
        for point in ((1,) * n, (2, 1, 0)[:n], (1, 2, 3)[:n]):
            ok = ok and poly.evaluate(point) == skew_schur_eval(sh, point)
    _check(checks, "oracle agreement", ok, "3 shapes, 3 points each")

    return {"ok": all(c["ok"] for c in checks), "seed": seed, "checks": checks}
