"""Command-line interface.

Subcommands: compute, endpoints, recolour, identity-theorem, identity-gps,
render, selftest.  All reports are JSON on standard output.  Exit status is
0 on success or a passing verdict, 1 on a failing verdict, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
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
from .schur import skew_schur, skew_schur_eval
from .selftest import default_seed, run_selftest


class UsageError(ValueError):
    pass


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def parse_shape(text: str) -> SkewShape:
    outer, _, inner = text.partition("/")
    try:
        return SkewShape(parse_partition(outer), parse_partition(inner))
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from exc


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
            raise UsageError(f"bad strip {chunk!r}, expected 't:(r,m)'") from exc
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
            raise UsageError(f"bad point {chunk!r}, expected 'x,level'") from exc
    return pts


def parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad point values {text!r}") from exc


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _load_overlay(path: str) -> Overlay:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return Overlay(
            PathFamily.from_json(obj["white"]), PathFamily.from_json(obj["black"])
        )
    except (OSError, KeyError, ValueError) as exc:
        raise UsageError(f"--overlay: cannot load {path!r}: {exc}") from exc


def _overlay_json(ov: Overlay) -> dict:
    return {"white": ov.white.to_json(), "black": ov.black.to_json()}


def cmd_compute(args) -> int:
    shape = parse_shape(args.shape)
    if args.method == "enum":
        poly = skew_schur(shape, args.vars)
        _emit({"shape": shape.to_json(), "N": args.vars, "polynomial": poly.to_json()})
        return 0
    if args.point is None:
        raise UsageError("--point is required with --method eval")
    values = parse_values(args.point)
    if len(values) != args.vars:
        raise UsageError(f"--point needs {args.vars} values, got {len(values)}")
    value = skew_schur_eval(shape, values)
    _emit({"shape": shape.to_json(), "point": list(values), "value": str(value)})
    return 0


def cmd_endpoints(args) -> int:
    shape = parse_shape(args.shape)
    rows = args.rows if args.rows is not None else shape.rows
    starts, ends = endpoints(shape, rows, args.shift)
    _emit(
        {
            "shape": shape.to_json(),
            "rows": rows,
            "shift": args.shift,
            "N": args.vars,
            "starts": list(starts.values),
            "ends": list(ends.values),
        }
    )
    return 0


def cmd_recolour(args) -> int:
    ov = _load_overlay(args.overlay)
    if args.all:
        chosen, _ = all_bicoloured(ov)
    elif args.start:
        chosen = []
        for x, level in parse_points(args.start):
            y = ov.top if level == "N" else 1
            chosen.append(trace_bicoloured(ov, x, y))
    else:
        raise UsageError("--start or --all is required")
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
        keep_values=args.verbose,
    )
    _emit({"identity": identity.to_json(), "report": report.to_json(verbose=args.verbose)})
    return 0 if report.passed else 1


def cmd_identity_theorem(args) -> int:
    white = parse_shape(args.white)
    black = parse_shape(args.black)
    s = parse_points(args.s)
    if not s:
        raise UsageError("--s must name at least one point")
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
    if args.highlight:
        for x, level in parse_points(args.highlight):
            y = ov.top if level == "N" else 1
            highlight.append(trace_bicoloured(ov, x, y))
    svg = render_overlay(ov, highlight, scale=args.scale)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
