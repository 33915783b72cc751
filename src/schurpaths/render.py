"""SVG pictures of overlays, circular configurations, and Ferrers boards.

Conventions follow the rest of the package: white paths dashed, black paths
solid, bicoloured paths thick grey, doubled points boxed in grey.  The
lattice is drawn with x increasing rightwards and levels increasing upwards.
Output is plain text SVG, so golden tests can diff it.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from typing import Iterable, Sequence

from .overlay import BicolouredPath, CircularConfiguration, Colour, Overlay
from .partitions import SkewShape


MARGIN = 20
WHITE_COLOUR = "#888888"
BLACK_COLOUR = "#000000"
HIGHLIGHT_COLOUR = "#bbbbbb"
GRID_COLOUR = "#dddddd"


def _check_scale(scale: int) -> None:
    if scale <= 0:
        raise ValueError("scale must be positive")


def _svg_root(width: int, height: int) -> ET.Element:
    return ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        version="1.1",
        width=f"{width}px",
        height=f"{height}px",
        viewBox=f"0 0 {width} {height}",
    )


def _polyline(parent: ET.Element, pts: Sequence[tuple[float, float]], **attrs) -> ET.Element:
    d = "M" + " L".join(f"{x:g} {y:g}" for x, y in pts)
    return ET.SubElement(parent, "path", d=d, fill="none", **attrs)


def _to_text(root: ET.Element) -> str:
    return ET.tostring(root, encoding="unicode")


def render_overlay(
    ov: Overlay,
    highlight: Iterable[BicolouredPath] = (),
    scale: int = 24,
) -> str:
    """The two families over the lattice, with optional bicoloured highlights."""
    _check_scale(scale)
    # paths step only right or up, so their x values span start to end
    xs = ov.white.start_xs() + ov.black.start_xs() + ov.white.end_xs() + ov.black.end_xs() or (0,)
    x_lo, x_hi = min(xs), max(xs)
    s, m = scale, MARGIN

    def cx(x: int) -> float:
        return m + (x - x_lo) * s

    def cy(y: int) -> float:
        return m + (ov.top - y) * s

    width = int(2 * m + (x_hi - x_lo) * s)
    height = int(2 * m + (ov.top - 1) * s)
    root = _svg_root(max(width, 2 * m + s), height)

    grid = ET.SubElement(root, "g", attrib={"class": "grid"})
    for level in range(1, ov.top + 1):
        _polyline(
            grid,
            [(cx(x_lo) - s / 2, cy(level)), (cx(x_hi) + s / 2, cy(level))],
            stroke=GRID_COLOUR,
        )

    for colour, fam, style in (
        (Colour.BLACK, ov.black, {"stroke": BLACK_COLOUR}),
        (Colour.WHITE, ov.white, {"stroke": WHITE_COLOUR, "stroke-dasharray": "4 3"}),
    ):
        group = ET.SubElement(root, "g", attrib={"class": f"{colour.value}-paths"})
        for path in fam.paths:
            _polyline(group, [(cx(x), cy(y)) for x, y in path.points()], **style)

    hi = ET.SubElement(root, "g", attrib={"class": "bicoloured"})
    for bp in highlight:
        # each arc leads from the point reached to its other end
        trail = [(bp.start.x, ov.top if bp.start.top else 1)]
        for (tail, head), _ in bp.arcs:
            trail.append(tail if trail[-1] == head else head)
        _polyline(
            hi,
            [(cx(x), cy(y)) for x, y in trail],
            attrib={
                "stroke": HIGHLIGHT_COLOUR,
                "stroke-width": "5",
                "stroke-opacity": "0.7",
            },
        )

    boxes = ET.SubElement(root, "g", attrib={"class": "doubled-points"})
    marks = ET.SubElement(root, "g", attrib={"class": "coloured-points"})
    config = ov.configuration
    for top, doubled in ((True, config.doubled_top), (False, config.doubled_bottom)):
        y = ov.top if top else 1
        for x in doubled:
            ET.SubElement(
                boxes,
                "rect",
                x=f"{cx(x) - 6:g}",
                y=f"{cy(y) - 6:g}",
                width="12",
                height="12",
                fill="none",
                stroke=HIGHLIGHT_COLOUR,
            )
    for p in config.points:
        y = ov.top if p.top else 1
        fill = "#ffffff" if p.colour is Colour.WHITE else BLACK_COLOUR
        ET.SubElement(
            marks,
            "circle",
            cx=f"{cx(p.x):g}",
            cy=f"{cy(y):g}",
            r="4",
            fill=fill,
            stroke=BLACK_COLOUR,
        )
    return _to_text(root)


def render_ferrers(
    shapes: Sequence[tuple[SkewShape, str]],
    scale: int = 24,
) -> str:
    """Left-justified cell grids, one outline group per (shape, colour) pair."""
    _check_scale(scale)
    s, m = scale, MARGIN
    width_cells = max((sh.outer.part(1) for sh, _ in shapes), default=0)
    height_cells = max((sh.rows for sh, _ in shapes), default=0)
    root = _svg_root(2 * m + width_cells * s, 2 * m + height_cells * s)
    for shape, colour in shapes:
        group = ET.SubElement(root, "g", attrib={"class": "ferrers", "stroke": colour})
        for i, j in shape.cells():
            ET.SubElement(
                group,
                "rect",
                x=f"{m + j * s:g}",
                y=f"{m + i * s:g}",
                width=f"{s:g}",
                height=f"{s:g}",
                fill="none",
            )
    return _to_text(root)


def render_configuration(config: CircularConfiguration) -> str:
    """Coloured points on a circle with their radial orientations."""
    n = len(config.points)
    radius = max(60, 12 * n)
    size = 2 * (radius + MARGIN + 20)
    centre = size / 2
    root = _svg_root(size, size)
    ET.SubElement(
        root,
        "circle",
        cx=f"{centre:g}",
        cy=f"{centre:g}",
        r=f"{radius:g}",
        fill="none",
        stroke=GRID_COLOUR,
    )
    _polyline(
        root,
        [(centre - radius - 10, centre), (centre + radius + 10, centre)],
        stroke=GRID_COLOUR,
    )
    if n == 0:
        return _to_text(root)

    top = [p for p in config.points if p.top]
    bottom = [p for p in config.points if not p.top]
    placed: list[tuple[float, object]] = []
    for k, p in enumerate(top):
        angle = math.pi * (k + 1) / (len(top) + 1)
        placed.append((angle, p))
    for k, p in enumerate(bottom):
        angle = math.pi + math.pi * (k + 1) / (len(bottom) + 1)
        placed.append((angle, p))
    group = ET.SubElement(root, "g", attrib={"class": "config-points"})
    for angle, p in placed:
        x = centre + radius * math.cos(angle)
        y = centre - radius * math.sin(angle)
        fill = "#ffffff" if p.colour is Colour.WHITE else BLACK_COLOUR
        ET.SubElement(
            group,
            "circle",
            cx=f"{x:g}",
            cy=f"{y:g}",
            r="5",
            fill=fill,
            stroke=BLACK_COLOUR,
        )
        r1, r2 = (radius - 8, radius - 22) if p.inward else (radius + 8, radius + 22)
        _polyline(
            group,
            [
                (centre + r1 * math.cos(angle), centre - r1 * math.sin(angle)),
                (centre + r2 * math.cos(angle), centre - r2 * math.sin(angle)),
            ],
            stroke=BLACK_COLOUR,
        )
        ET.SubElement(
            group,
            "text",
            x=f"{centre + (radius + 32) * math.cos(angle):g}",
            y=f"{centre - (radius + 32) * math.sin(angle):g}",
            attrib={"font-size": "11", "text-anchor": "middle"},
        ).text = str(p.index)
    return _to_text(root)
