"""Command-line interface.

Subcommands: compute, endpoints, recolour, identity-theorem, identity-gps,
render, selftest.  All reports are JSON on standard output.  Exit status is
0 on success or a passing verdict, 1 on a failing verdict, 2 on usage errors,
on a standard output closed by its reader, on internal invariant failures
(reported as ``error: internal: ...``), on running out of memory (reported
as ``error: resource limit: out of memory``) and on a number too large for a
float (``error: resource limit: number too large: ...``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache

from .identities import (
    Identity,
    ProductTerm,
    border_strip_identity,
    recolouring_expansion,
    verify_identity,
)
from .overlay import Overlay, all_bicoloured, recolour, trace_bicoloured
from .partitions import Partition, SkewShape, StripSpec
from .paths import PathFamily, endpoints
from .render import render_overlay
from .schur import Polynomial, skew_schur, skew_schur_eval
from .selftest import default_seed, run_selftest


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from exc


def parse_shape(text: str) -> SkewShape:
    outer, _, inner = text.partition("/")
    try:
        return SkewShape(parse_partition(outer), parse_partition(inner))
    except ValueError as exc:
        raise ValueError(f"bad shape {text!r}: {exc}") from exc


def parse_strips(text: str) -> list[StripSpec]:
    strips = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            boxes, rest = chunk.split(":")
            row, span = rest.strip().lstrip("(").rstrip(")").split(",")
            strips.append(StripSpec(int(boxes), int(row), int(span)))
        except ValueError as exc:
            raise ValueError(f"bad strip {chunk!r}, expected 't:(r,m)'") from exc
    return strips


def parse_points(text: str) -> list[tuple[int, str]]:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            x, level = chunk.split(",")
            level = level.strip()
            if level not in ("1", "N"):
                raise ValueError(f"level must be 1 or N, got {level!r}")
            pts.append((int(x), level))
        except ValueError as exc:
            raise ValueError(f"bad point {chunk!r}, expected 'x,level'") from exc
    return pts


def parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad point values {text!r}") from exc


def _emit(payload: dict) -> None:
    """Print ``payload`` as ``json.dumps(payload, indent=2)``."""
    print(json.dumps(payload, indent=2))


def _dumps_polynomial(poly: Polynomial, head: str, tail: str) -> str:
    """``head``, the ``indent=2`` text of ``poly.to_json()`` as the value of a
    top-level key, and ``tail``, built with no loop per term.

    The text is one ``"".join`` over a flat list of pieces, in which the
    constant pieces stay in place and each column of two adjacent exponents
    (the last of odd N one exponent; N >= 1, as ``compute`` refuses fewer),
    then the coefficients, fill their slots by one extended-slice assignment
    from a C-level ``map``.  A column's texts are looked up in a dict of the
    texts of its distinct values, built by a loop over those values only.
    The tests compare the text with ``json.dumps``.
    """
    i1, i2, i3, i4 = ("\n" + " " * k for k in (4, 6, 8, 10))
    n, bits = poly.nvars, poly.field_bits
    coeffs, columns = poly.exponent_columns(2)
    text = head + "{" + i1 + '"N": ' + str(n) + "," + i1 + '"terms": '
    if not coeffs:
        return text + "[]\n  }" + tail
    opened = "{" + i3 + '"exp": [' + i4
    template = ['"' + i2 + "}," + i2 + opened]
    for j in range(len(columns)):
        template += ["," + i4, None] if j else [None]
    template += [i3 + "]," + i3 + '"coeff": "', None]
    step, mask = len(template), (1 << bits) - 1
    pieces = template * len(coeffs)
    for j, column in enumerate(columns):
        if 2 * j + 1 < n:
            texts = {v: str(v >> bits) + "," + i4 + str(v & mask) for v in set(column)}
        else:
            texts = {v: str(v) for v in set(column)}
        pieces[1 + 2 * j :: step] = map(texts.__getitem__, column)
    pieces[step - 1 :: step] = map(str, coeffs)
    pieces[0] = text + "[" + i2 + opened
    pieces.append('"' + i2 + "}" + i1 + "]\n  }" + tail)
    return "".join(pieces)


def _load_overlay(path: str) -> Overlay:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError as exc:  # nested deeper than the decoder goes
                raise ValueError(exc) from exc
        if type(obj) is not dict:
            raise ValueError("not a JSON object")
        families = []
        for colour in ("white", "black"):
            if colour not in obj:
                raise ValueError(f"missing field {colour!r}")
            try:
                families.append(PathFamily.from_json(obj[colour]))
            except ValueError as exc:
                raise ValueError(f"{colour}: {exc}") from exc
        return Overlay(*families)
    except (OSError, ValueError) as exc:
        raise ValueError(f"--overlay: cannot load {path!r}: {exc}") from exc


def _trace_points(ov: Overlay, text: str) -> list:
    """The bicoloured path traced from each point of the list ``text``."""
    return [
        trace_bicoloured(ov, x, ov.top if level == "N" else 1) for x, level in parse_points(text)
    ]


def _overlay_json(ov: Overlay) -> dict:
    return {"white": ov.white.to_json(), "black": ov.black.to_json()}


def cmd_compute(args) -> int:
    shape = parse_shape(args.shape)
    if args.method == "enum":
        if args.point is not None:
            raise ValueError("--point is only read with --method eval")
        poly = skew_schur(shape, args.vars)
        head = json.dumps({"shape": shape.to_json(), "N": args.vars}, indent=2)
        print(_dumps_polynomial(poly, head[:-2] + ',\n  "polynomial": ', "\n}"))
        return 0
    if args.point is None:
        raise ValueError("--point is required with --method eval")
    if args.vars < 1:
        raise ValueError(f"alphabet must be positive: {args.vars}")
    values = parse_values(args.point)
    if len(values) != args.vars:
        raise ValueError(f"--point needs {args.vars} values, got {len(values)}")
    value = skew_schur_eval(shape, values)
    _emit({"shape": shape.to_json(), "point": list(values), "value": str(value)})
    return 0


def cmd_endpoints(args) -> int:
    shape = parse_shape(args.shape)
    if args.vars < 1:
        raise ValueError(f"alphabet must be positive: {args.vars}")
    rows = args.rows if args.rows is not None else shape.rows
    starts, ends = endpoints(shape, rows, args.shift)
    _emit(
        {
            "shape": shape.to_json(),
            "rows": rows,
            "shift": args.shift,
            "N": args.vars,
            "starts": list(starts),
            "ends": list(ends),
        }
    )
    return 0


def cmd_recolour(args) -> int:
    if args.all and args.start is not None:
        raise ValueError("--start and --all cannot be combined")
    ov = _load_overlay(args.overlay)
    if args.all:
        chosen, _ = all_bicoloured(ov)
    elif args.start:
        chosen = _trace_points(ov, args.start)
        if not chosen:
            raise ValueError("--start must name at least one point")
    else:
        raise ValueError("--start or --all is required")
    result = recolour(ov, chosen)
    _emit(
        {
            "traced": [
                {
                    "from": [p.start.x, p.start.level_name],
                    "to": [p.end.x, p.end.level_name],
                    "arcs": len(p.arcs),
                }
                for p in chosen
            ],
            "overlay": _overlay_json(result),
        }
    )
    return 0


def _verify_and_emit(identity: Identity, args) -> int:
    report = verify_identity(
        identity,
        method=args.method,
        points=args.points,
        seed=default_seed() if args.seed is None else args.seed,
    )
    _emit({"identity": identity.to_json(), "report": report.to_json(verbose=args.verbose)})
    return 0 if report.passed else 1


def cmd_identity_theorem(args) -> int:
    white = parse_shape(args.white)
    black = parse_shape(args.black)
    s = parse_points(args.s)
    if not s:
        raise ValueError("--s must name at least one point")
    terms = recolouring_expansion(white, black, s, shifts=(0, args.shift))
    identity = Identity((ProductTerm(white, black),), terms, args.vars, "recolouring expansion")
    return _verify_and_emit(identity, args)


def cmd_identity_gps(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    strips = parse_strips(args.strips)
    identity = border_strip_identity(lam, mu, strips, alphabet=args.vars)
    return _verify_and_emit(identity, args)


def cmd_render(args) -> int:
    ov = _load_overlay(args.overlay)
    highlight = []
    if args.highlight is not None:
        highlight = _trace_points(ov, args.highlight)
        if not highlight:
            raise ValueError("--highlight must name at least one point")
    svg = render_overlay(ov, highlight, scale=args.scale)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(f"--output: cannot write {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(svg + "\n")
    return 0


def cmd_selftest(args) -> int:
    result = run_selftest(seed=args.seed)
    _emit(result)
    return 0 if result["ok"] else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Its defaults are constants; a default read from the environment, such as
    the seed, is resolved when the command runs.
    """
    parser = argparse.ArgumentParser(
        prog="schurpaths",
        description="Exact skew Schur products and recolouring identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="skew Schur polynomial or point evaluation")
    p.add_argument("--shape", required=True, help="outer/inner, e.g. '7,4,4,3,1,1,1/3,2,2,1'")
    p.add_argument("--vars", type=int, required=True, help="number of variables N")
    p.add_argument("--method", choices=("enum", "eval"), default="enum")
    p.add_argument("--point", help="comma separated values for --method eval")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("endpoints", help="start and end points of the path family")
    p.add_argument("--shape", required=True)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--vars", type=int, default=2)
    p.set_defaults(func=cmd_endpoints)

    p = sub.add_parser("recolour", help="trace and recolour bicoloured paths")
    p.add_argument("--overlay", required=True, help="overlay JSON file")
    p.add_argument("--start", help="points 'x,level;...' with level 1 or N")
    p.add_argument("--all", action="store_true", help="recolour every bicoloured path")
    p.set_defaults(func=cmd_recolour)

    p = sub.add_parser("identity-theorem", help="verify the recolouring expansion")
    p.add_argument("--white", required=True, help="white shape outer/inner")
    p.add_argument("--black", required=True, help="black shape outer/inner")
    p.add_argument("--shift", type=int, default=0, help="shift of the black family")
    p.add_argument("--s", required=True, help="inward points 'x,level;...'")
    _verification_flags(p)
    p.set_defaults(func=cmd_identity_theorem)

    p = sub.add_parser("identity-gps", help="verify the border strip expansion")
    p.add_argument("--lambda", dest="lam", required=True, help="base partition")
    p.add_argument("--mu", default="", help="inner partition, may be empty")
    p.add_argument("--strips", required=True, help="strips 't:(r,m);...'")
    _verification_flags(p)
    p.set_defaults(func=cmd_identity_gps)

    p = sub.add_parser("render", help="render an overlay to SVG")
    p.add_argument("--overlay", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--highlight", help="trace and highlight from points 'x,level;...'")
    p.add_argument("--scale", type=int, default=24)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the golden self-test suite")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def _verification_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vars", type=int, default=None, help="number of variables N")
    p.add_argument("--method", choices=("auto", "full", "multipoint"), default="auto")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verbose", action="store_true", help="include per-point values")


# argparse reads a value such as "-7,1;13,N" or "-1,2" as an unknown option,
# because it starts with "-" and is not a plain number.
_NEGATIVE_LIST = re.compile(r"-\d+\s*,")


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Join each list value that starts with a negative number to the long
    option before it, as ``--s=-7,1;13,N``, which argparse reads as a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_LIST.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_lists(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output; pointing it at the null device
        # keeps the interpreter's own flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RecursionError) as exc:
        # a broken internal invariant is reported, not shown as a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: resource limit: out of memory", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: resource limit: number too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
