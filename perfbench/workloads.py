"""The three workloads of the schurpaths benchmark.

Every workload has two halves:

* ``generate(prog, rng, workdir)`` draws the inputs from the seed as plain
  data (strings, integers and lists). It may call the program to size the
  inputs, but the program never sees the seed.
* ``build(prog, spec, workdir)`` turns that data into operations against a
  freshly imported copy of the program. This is the program-side set-up that
  ``setup_s`` times.

Sizes are drawn on fixed geometric grids (tableau counts, estimated expansion
sizes, numbers of coloured points) so that two seeds give different inputs of
the same cost profile; that keeps the latency quantiles steady across seeds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

GALLERY_SHAPE = "7,4,4,3,1,1,1/3,2,2,1"
README_GPS = ["--lambda", "10,7,7,6,6,4,4,3,2,2", "--mu", "4,3,3,1", "--strips", "2:(2,3);1:(6,2)"]
README_WHITE = "16,15,15,13,13,11,11,10,10,9,7,5/"
README_BLACK = "14,14,12,12,11,11,11,9,8,7,7,5/"
MULTIPOINT_POINTS = 20


class Program:
    """One fresh import of the ``schurpaths`` package found under ``src``."""

    def __init__(self, src: Path) -> None:
        for name in [m for m in sys.modules if m == "schurpaths" or m.startswith("schurpaths.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        pkg = importlib.import_module("schurpaths")
        if Path(pkg.__file__).resolve().parent != (src / "schurpaths").resolve():
            raise ImportError(f"schurpaths imported from {pkg.__file__}, not from {src}")
        self.cli = importlib.import_module("schurpaths.cli")
        self.schur = importlib.import_module("schurpaths.schur")
        self.identities = importlib.import_module("schurpaths.identities")
        self.overlay = importlib.import_module("schurpaths.overlay")
        self.paths = importlib.import_module("schurpaths.paths")
        self.partitions = importlib.import_module("schurpaths.partitions")
        self.tableaux = importlib.import_module("schurpaths.tableaux")
        self.tracer = None

    def cli_run(self, argv: list[str]) -> tuple[int, str]:
        """``cli.main(argv)`` with standard output captured."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                rc = exc.code
        text = out.getvalue()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.counts["cli.stdout_bytes"] += len(text.encode())
        return rc, text

    def clear_cache(self) -> None:
        """Empty the ``skew_schur`` cache, if the program has one."""
        clear = getattr(self.schur.skew_schur, "cache_clear", None)
        if clear is not None:
            clear()


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` and ``fingerprint`` are not.

    ``check`` judges a result in full. ``fingerprint`` reduces it to a value
    that a later, identical run of the op must reproduce exactly. A negative
    control is an op whose expected verdict is "fail"; when it passes, that is
    the known unsound multipoint sampling, not a new defect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    fingerprint: Callable[[Any], Any] = lambda result: result
    negative_control: bool = False


# ---------------------------------------------------------------- helpers


def shape_text(shape) -> str:
    return ",".join(map(str, shape.outer)) + "/" + ",".join(map(str, shape.inner))


def strips_text(strips) -> str:
    return ";".join(f"{t}:({r},{m})" for t, r, m in strips)


def random_partition(rng, rows: int, max_part: int) -> list[int]:
    return sorted((rng.randint(1, max_part) for _ in range(rows)), reverse=True)


def random_skew(prog, rng, rows: int, max_part: int):
    outer = random_partition(rng, rows, max_part)
    inner, prev = [], None
    for o in outer:
        v = rng.randint(0, o if prev is None else min(o, prev))
        inner.append(v)
        prev = v
    return prog.partitions.SkewShape(prog.partitions.Partition(outer), prog.partitions.Partition(inner))


def random_strips(rng, lam: list[int]) -> list[tuple[int, int, int]] | None:
    """A strip sequence ``(boxes, row, span)`` satisfying ``build_nu``'s constraints."""
    part = lambda i: lam[i - 1] if i <= len(lam) else 0  # noqa: E731
    rows = [r for r in range(2, len(lam) + 1) if part(r - 1) > part(r)]
    if not rows:
        return None
    chosen = sorted(rng.sample(rows, rng.randint(1, min(3, len(rows)))))
    strips = []
    for i, r in enumerate(chosen):
        nxt = chosen[i + 1] if i + 1 < len(chosen) else len(lam) + 1
        strips.append((rng.randint(1, part(r - 1) - part(r)), r, rng.randint(1, nxt - r)))
    return strips


def strip_identity(prog, lam, mu, strips, alphabet=None):
    P = prog.partitions
    return prog.identities.border_strip_identity(
        P.Partition(lam), P.Partition(mu), [P.StripSpec(*s) for s in strips], alphabet=alphabet
    )


def enumeration_work(prog, shape, n: int) -> int:
    """Tableaux times (boxes + 5): the cost of enumerating a shape's fillings.
    It predicts a ``compute``'s time more closely than the tableau count."""
    return prog.schur.skew_schur_eval(shape, (1,) * n) * (shape.size + 5)


def expansion_work(prog, ident) -> int:
    """The enumeration work of an identity's shapes plus five per term pair
    that its products multiply; it predicts ``identity-gps --method full``
    time more closely than ``estimate_expansion_size``."""
    n = ident.alphabet
    work = sum(enumeration_work(prog, shape, n) for shape in ident.all_shapes())
    for term in ident.lhs + ident.rhs:
        pairs = 1
        for shape in term.shapes():
            pairs *= len(prog.schur.skew_schur(shape, n).terms)
        work += 5 * pairs
    return work


def pick_on_grid(cands: list[tuple[int, Any]], lo: float, hi: float, k: int) -> list[Any]:
    """For each of ``k`` geometric targets in [lo, hi], the unused candidate
    ``(size, item)`` whose size is closest in ratio; ties go to the earlier."""
    pool = [c for c in cands if c[0] > 0]
    out = []
    for j in range(k):
        target = lo * (hi / lo) ** (j / max(k - 1, 1))
        best = min(range(len(pool)), key=lambda i: abs(math.log(pool[i][0] / target)))
        out.append(pool.pop(best)[1])
    return out


def interleave_repeats(rng, firsts: list, repeats: list[int]) -> list:
    """Shuffle ``firsts`` and insert a copy of ``firsts[i]`` for each ``i`` in
    ``repeats`` somewhere after its first occurrence."""
    seq = list(firsts)
    rng.shuffle(seq)
    for i in repeats:
        pos = next(j for j, item in enumerate(seq) if item is firsts[i])
        seq.insert(rng.randint(pos + 1, len(seq)), firsts[i])
    return seq


def verdict_of(text: str) -> tuple[str, int]:
    report = json.loads(text)["report"]
    return report["verdict"], report["points"]


# ---------------------------------------------------------------- expand_full


def generate_expand_full(prog, rng, workdir: Path) -> dict:
    """``compute`` on seeded skew shapes, 32 at each N = 4..6 with
    enumeration work on a grid from 10^4 to 10^5, plus the gallery shape at
    N=4 and N=5; twenty shapes and both gallery ones recur, so the
    ``skew_schur`` cache has hits. And ``identity-gps --method full`` on
    eighty border strip identities in four variables with expansion work on
    a grid from 10^4 to 1.2 * 10^5 (about 80 ms), built from a pool of twelve
    base partitions so that shapes recur across identities."""
    computes = []
    for n in (4, 5, 6):
        cands, seen = [], set()
        while len(cands) < 500:
            text = shape_text(random_skew(prog, rng, rng.randint(2, 6), 7))
            if text not in seen:
                seen.add(text)
                cands.append((enumeration_work(prog, prog.cli.parse_shape(text), n), [text, n]))
        computes += pick_on_grid(cands, 10_000, 100_000, 32)
    computes += [[GALLERY_SHAPE, 4], [GALLERY_SHAPE, 5]]

    lams = []
    while len(lams) < 12:
        lam = random_partition(rng, 4, 5)
        if random_strips(rng, lam) is not None and lam not in lams:
            lams.append(lam)
    mus = [[], [1], [1, 1], [2, 1]]
    cands, seen = [], set()
    for _ in range(2000):
        lam, mu = rng.choice(lams), rng.choice(mus)
        strips = random_strips(rng, lam)
        key = json.dumps([lam, mu, strips])
        if key in seen:
            continue
        seen.add(key)
        try:
            ident = strip_identity(prog, lam, mu, strips)
        except ValueError:  # mu does not fit inside a peeled shape
            continue
        # the tableau count bounds the work; far larger ones are never picked
        if ident.alphabet == 4 and prog.identities.estimate_expansion_size(ident) <= 10_000:
            cands.append((expansion_work(prog, ident), [lam, mu, strips]))
    identities = pick_on_grid(cands, 10_000, 120_000, 80)

    firsts = [["compute", s, n, [rng.randint(0, 9) for _ in range(n)]] for s, n in computes]
    firsts += [["gps-full", *ident] for ident in identities]
    repeats = rng.sample(range(96), 20) + [96, 97]
    return {"ops": interleave_repeats(rng, firsts, repeats)}


def build_expand_full(prog, spec: dict, workdir: Path) -> list[Op]:
    ops = []
    for kind, *args in spec["ops"]:
        if kind == "compute":
            ops.append(_compute_op(prog, *args))
        else:
            ops.append(_gps_full_op(prog, *args))
    return ops


def _compute_op(prog, text: str, n: int, point: list[int]) -> Op:
    argv = ["compute", "--shape", text, "--vars", str(n)]

    def check(result) -> bool:
        rc, out = result
        if rc != 0:
            return False
        poly = prog.schur.Polynomial.from_json(json.loads(out)["polynomial"])
        shape = prog.cli.parse_shape(text)
        return (
            poly.evaluate(point) == prog.schur.skew_schur_eval(shape, point)
            and sum(poly.terms.values()) == prog.schur.skew_schur_eval(shape, (1,) * n)
        )

    return Op("compute", lambda: prog.cli_run(argv), check)


def _gps_full_op(prog, lam, mu, strips) -> Op:
    argv = [
        "identity-gps", "--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu)),
        "--strips", strips_text(strips), "--method", "full",
    ]

    def check(result) -> bool:
        rc, out = result
        return rc == 0 and verdict_of(out) == ("pass", 0)

    return Op("identity-gps-full", lambda: prog.cli_run(argv), check)


# ---------------------------------------------------------------- verify_points


def alternating_pair(prog, rng, k: int) -> tuple[str, str, int, list[tuple[int, str]]]:
    """Shapes whose circular configuration has ``2k`` alternating coloured
    points, as ``(white, black, black_shift, inward points)``.

    Built on point sets: ``k`` coloured points on each level plus a few
    doubled ones, colours alternating along each level, with the same colour
    at each end of the two levels, which makes the orientations alternate
    around the circle. The white shift is 0 and every part is positive, so
    ``identity-theorem`` reads back the same configuration.
    """
    while True:
        d = rng.randint(1, 3)
        span = 2 * (k + d) + 2
        top = sorted(rng.sample(range(span // 2, span // 2 + span), k + d), reverse=True)
        bottom = sorted(rng.sample(range(span), k + d))
        top_dbl = set(rng.sample(top, d))
        bot_dbl = set(rng.sample(bottom, d))
        top_col = [x for x in top if x not in top_dbl]  # right to left
        bot_col = [x for x in bottom if x not in bot_dbl]  # left to right
        first = rng.choice("WB")
        other = {"W": "B", "B": "W"}
        colour_top = [first if i % 2 == 0 else other[first] for i in range(k)]
        colour_bot = [colour_top[-1] if i % 2 == 0 else other[colour_top[-1]] for i in range(k)]
        fam = {
            c: (
                sorted(top_dbl | {x for x, cc in zip(top_col, colour_top) if cc == c}, reverse=True),
                sorted(bot_dbl | {x for x, cc in zip(bot_col, colour_bot) if cc == c}, reverse=True),
            )
            for c in "WB"
        }
        if not all(e >= s for c in "WB" for e, s in zip(*fam[c])):
            continue
        base = min(x + i for pts in fam["W"] for i, x in enumerate(pts, start=1)) - 1
        black_shift = min(x + i for pts in fam["B"] for i, x in enumerate(pts, start=1)) - 1 - base
        shift_of = {"W": 0, "B": black_shift}
        texts = {
            c: "/".join(
                ",".join(str(x - base + i - shift_of[c]) for i, x in enumerate(pts, start=1))
                for pts in fam[c]
            )
            for c in "WB"
        }
        white, black = prog.cli.parse_shape(texts["W"]), prog.cli.parse_shape(texts["B"])
        config = prog.identities.configuration_from_shapes(white, black, (0, black_shift))
        if len(config.points) != 2 * k or not config.alternating:
            continue
        inward = [(p.x, "N" if p.top else "1") for p in config.inward_points()]
        return texts["W"], texts["B"], black_shift, inward


def generate_verify_points(prog, rng, workdir: Path) -> dict:
    """Multipoint verification, 130 ops: the README strip identity at N=11
    and the README recolouring pair, with per-op seeds; seeded strip
    identities on eight-row partitions and small alternating pairs
    (2k = 4..8 points, so matchings stay cheap), at N = 11..18 in turn; and
    two kinds of negative control: a seeded strip identity with one
    right-hand term dropped, and the false identity s_{1^11} s_1 = 0."""
    seed = lambda: rng.randrange(2**31)  # noqa: E731
    ns = list(range(11, 19))
    strips_pool = []
    while len(strips_pool) < 40:
        lam = random_partition(rng, 8, 10)
        mu = random_partition(rng, rng.randint(0, 3), 3)
        strips = random_strips(rng, lam)
        if strips is None:
            continue
        try:
            strip_identity(prog, lam, mu, strips)
        except ValueError:
            continue
        strips_pool.append([lam, mu, strips])
    ops = [["gps", README_GPS, 11, seed()] for _ in range(20)]
    ops += [["theorem", README_WHITE, README_BLACK, 0, [[15, "N"]], None, seed()] for _ in range(10)]
    for i, (lam, mu, strips) in enumerate(strips_pool[:30]):
        argv = ["--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu)),
                "--strips", strips_text(strips)]
        ops.append(["gps", argv, ns[i % 8], seed()])
    for i, (lam, mu, strips) in enumerate(strips_pool[30:]):
        ops.append(["corrupt", lam, mu, strips, ns[i % 8], rng.randrange(len(strips) + 1), seed()])
    for i in range(30):
        white, black, shift, inward = alternating_pair(prog, rng, 2 + i % 3)
        s = rng.sample(inward, 1 + i % 2)
        ops.append(["theorem", white, black, shift, s, ns[i % 8], seed()])
    # the false identity runs with the per-op seeds 0..29 whatever the run's
    # seed, so its false passes (6 of the 30 today) are the same in every run
    ops += [["false", s] for s in range(30)]
    rng.shuffle(ops)
    return {"ops": ops}


def build_verify_points(prog, spec: dict, workdir: Path) -> list[Op]:
    ops = []
    for kind, *args in spec["ops"]:
        if kind == "gps":
            argv, n, seed = args
            ops.append(_multipoint_cli_op(prog, "identity-gps", ["identity-gps", *argv], n, seed))
        elif kind == "theorem":
            white, black, shift, s, n, seed = args
            argv = ["identity-theorem", "--white", white, "--black", black, f"--shift={shift}",
                    "--s=" + ";".join(f"{x},{level}" for x, level in s)]
            ops.append(_multipoint_cli_op(prog, "identity-theorem", argv, n, seed))
        elif kind == "corrupt":
            lam, mu, strips, n, drop, seed = args
            ident = strip_identity(prog, lam, mu, strips, alphabet=n)
            broken = prog.identities.Identity(
                ident.lhs, ident.rhs[:drop] + ident.rhs[drop + 1:], n, "one term dropped"
            )
            ops.append(_negative_control_op(prog, "corrupted-term", broken, seed))
        else:
            (seed,) = args
            P, ids = prog.partitions, prog.identities
            column = P.SkewShape(P.Partition([1] * 11))
            box = P.SkewShape(P.Partition([1]))
            false = ids.Identity((ids.ProductTerm(column, box),), (), 11, "s_{1^11} s_1 = 0")
            ops.append(_negative_control_op(prog, "false-identity", false, seed))
    return ops


def _multipoint_cli_op(prog, kind: str, argv: list[str], n: int | None, seed: int) -> Op:
    argv = argv + ["--method", "multipoint", "--points", str(MULTIPOINT_POINTS), "--seed", str(seed)]
    if n is not None:
        argv += ["--vars", str(n)]

    def check(result) -> bool:
        rc, out = result
        return rc == 0 and verdict_of(out) == ("pass", MULTIPOINT_POINTS)

    return Op(kind, lambda: prog.cli_run(argv), check)


def _negative_control_op(prog, kind: str, identity, seed: int) -> Op:
    def run():
        return prog.identities.verify_identity(
            identity, method="multipoint", points=MULTIPOINT_POINTS, seed=seed
        )

    return Op(
        kind,
        run,
        check=lambda report: report.verdict == "fail" and report.witness is not None,
        fingerprint=lambda report: (report.verdict, report.witness, report.max_abs),
        negative_control=True,
    )


# ---------------------------------------------------------------- recolour

OVERLAY_GRID = ((6, 8), (8, 10), (10, 12), (12, 14), (14, 16))  # (rows, N)
# k per expansion, for 2k coloured points. Catalan(10) = 16796 matchings make
# the k = 10 expansions the slowest sixth of the ops, so p90 falls among them.
EXPANSION_KS = (6, 6, 7, 7, 8, 8, 9, 9) + (10,) * 16


def random_family(prog, rng, rows: int, n: int) -> dict:
    """A canonical path family from a ``random_tableau`` filling, as JSON."""
    while True:
        shape = random_skew(prog, rng, rows, 12)
        if shape.max_column_height > n:
            continue
        t = prog.tableaux.random_tableau(shape, n, rng)
        if t is None:
            continue
        fam = prog.paths.tableau_to_paths(t, rng.randint(-2, 2))
        return prog.paths.family_from_paths(fam.paths, n).to_json()


def generate_recolour(prog, rng, workdir: Path) -> dict:
    """Eighty overlays of two random fillings (6..14 rows, N=8..16), recoloured
    through a seeded subset of their bicoloured paths and back, every fourth
    through ``recolour --all`` on a file; and recolouring expansions of
    alternating configurations with 2k = 12..20 points and |S| = 1..3."""
    ops = []
    for i in range(80):
        rows, n = OVERLAY_GRID[i % len(OVERLAY_GRID)]
        cands = []
        while len(cands) < 5:
            white, black = random_family(prog, rng, rows, n), random_family(prog, rng, rows, n)
            ov = prog.overlay.Overlay(
                prog.paths.PathFamily.from_json(white), prog.paths.PathFamily.from_json(black)
            )
            if ov.configuration.points:
                size = len(ov.configuration.points) * (len(ov.white.arcs()) + len(ov.black.arcs()))
                cands.append((size, len(cands), white, black, len(ov.configuration.points) // 2))
        # the middle-sized of five candidates, so that the op costs vary less between seeds
        _, _, white, black, npaths = sorted(cands)[2]
        if i % 4 == 3:
            name = f"overlay-{i:02d}.json"
            (workdir / name).write_text(json.dumps({"white": white, "black": black}))
            ops.append(["recolour-cli", name])
        else:
            subset = sorted(rng.sample(range(npaths), rng.randint(1, npaths)))
            ops.append(["recolour", white, black, subset])
    for i, k in enumerate(EXPANSION_KS):
        white, black, shift, inward = alternating_pair(prog, rng, k)
        s = rng.sample(inward, 1 + i % 3)
        ops.append(["expansion", white, black, shift, s, [rng.randint(1, 9) for _ in range(32)]])
    rng.shuffle(ops)
    return {"ops": ops}


def build_recolour(prog, spec: dict, workdir: Path) -> list[Op]:
    ops = []
    for kind, *args in spec["ops"]:
        if kind == "recolour":
            white, black, subset = args
            fam = prog.paths.PathFamily.from_json
            ops.append(_recolour_op(prog, prog.overlay.Overlay(fam(white), fam(black)), subset))
        elif kind == "recolour-cli":
            ops.append(_recolour_cli_op(prog, workdir / args[0]))
        else:
            ops.append(_expansion_op(prog, *args))
    return ops


def _total_weight(ov) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(ov.white.weight(), ov.black.weight()))


def _retrace(prog, ov, chosen):
    """The same bicoloured paths traced again in the recoloured overlay."""
    return [prog.overlay.trace_bicoloured(ov, p.start.x, ov.top if p.start.top else 1) for p in chosen]


def _recolour_op(prog, ov, subset: list[int]) -> Op:
    def run():
        paths, _ = prog.overlay.all_bicoloured(ov)
        chosen = [paths[i] for i in subset]
        once = prog.overlay.recolour(ov, chosen)
        twice = prog.overlay.recolour(once, _retrace(prog, once, chosen))
        return once, twice

    def check(result) -> bool:
        once, twice = result
        return (
            (twice.white, twice.black) == (ov.white, ov.black)
            and _total_weight(once) == _total_weight(ov)
            and (once.white, once.black) != (ov.white, ov.black)
        )

    return Op(
        "recolour", run, check,
        fingerprint=lambda r: (r[0].white, r[0].black, r[1].white, r[1].black),
    )


def _recolour_cli_op(prog, path: Path) -> Op:
    argv = ["recolour", "--overlay", str(path), "--all"]

    def check(result) -> bool:
        rc, out = result
        if rc != 0:
            return False
        fam = prog.paths.PathFamily.from_json
        before = json.loads(path.read_text())
        after = json.loads(out)["overlay"]
        ov = prog.overlay.Overlay(fam(before["white"]), fam(before["black"]))
        once = prog.overlay.Overlay(fam(after["white"]), fam(after["black"]))
        paths, _ = prog.overlay.all_bicoloured(once)
        twice = prog.overlay.recolour(once, paths)
        return (
            (twice.white, twice.black) == (ov.white, ov.black)
            and _total_weight(once) == _total_weight(ov)
        )

    return Op("recolour-cli", lambda: prog.cli_run(argv), check)


def _expansion_op(prog, white_text, black_text, shift, s, values) -> Op:
    white, black = prog.cli.parse_shape(white_text), prog.cli.parse_shape(black_text)
    s = [tuple(p) for p in s]

    def run():
        return prog.identities.recolouring_expansion(white, black, s, shifts=(0, shift))

    def check(terms) -> bool:
        """Both sides agree at one point with entries 1..9 in as many
        variables as the tallest column needs, so no product vanishes."""
        live = [t for t in terms if not t.zero]
        shapes = [white, black] + [sh for t in live for sh in t.shapes()]
        point = values[: prog.identities.minimal_alphabet(shapes)]
        ev = prog.schur.skew_schur_eval
        lhs = ev(white, point) * ev(black, point)
        return bool(live) and lhs == sum(ev(t.white, point) * ev(t.black, point) for t in live)

    return Op("expansion", run, check)


WORKLOADS = {
    "expand_full": (generate_expand_full, build_expand_full),
    "verify_points": (generate_verify_points, build_verify_points),
    "recolour": (generate_recolour, build_recolour),
}
