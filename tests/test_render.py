import xml.etree.ElementTree as ET

import pytest

from schurpaths import (
    Overlay,
    Partition,
    SkewShape,
    all_bicoloured,
    render_configuration,
    render_ferrers,
    render_overlay,
    trace_bicoloured,
    validate_tableau,
)
from schurpaths.gallery import demo_overlay_large, demo_overlay_small
from schurpaths.paths import PathFamily

from conftest import random_overlays


def _tags(svg: str):
    root = ET.fromstring(svg)
    return root, [el.tag.split("}")[-1] for el in root.iter()]


class TestOverlaySvg:
    def test_parses_and_counts(self):
        ov = demo_overlay_small()
        paths, _ = all_bicoloured(ov)
        svg = render_overlay(ov, paths[:2])
        root, tags = _tags(svg)
        assert tags.count("circle") == len(ov.configuration.points)
        doubled = len(ov.configuration.doubled_top) + len(ov.configuration.doubled_bottom)
        assert tags.count("rect") == doubled
        path_count = tags.count("path")
        grid = ov.top
        assert path_count == grid + len(ov.white.paths) + len(ov.black.paths) + 2

    def test_empty_overlay_axes_only(self):
        empty = PathFamily(validate_tableau(SkewShape(Partition()), [], 3), 0, 0)
        svg = render_overlay(Overlay(empty, empty))
        root, tags = _tags(svg)
        assert tags.count("path") == 3  # one grid line per level
        assert tags.count("circle") == 0

    def test_highlight_follows_the_trace(self):
        """Each coloured point's highlight, alone in its picture, runs from
        the mark of the trace's start to the mark of its end, one lattice
        unit per step, through one point more than the trace has arcs."""
        scale, traced = 24, 0
        for ov in [demo_overlay_small(), demo_overlay_large(), *random_overlays(2901, 20)]:
            for p in ov.configuration.points:
                bp = trace_bicoloured(ov, p.x, ov.top if p.top else 1)
                root = ET.fromstring(render_overlay(ov, [bp], scale=scale))
                groups = {g.get("class"): list(g) for g in root}
                marks = [(float(c.get("cx")), float(c.get("cy"))) for c in groups["coloured-points"]]
                (line,) = groups["bicoloured"]
                pts = [tuple(map(float, xy.split())) for xy in line.get("d")[1:].split(" L")]
                assert len(pts) == len(bp.arcs) + 1
                assert (pts[0], pts[-1]) == (marks[bp.start.index - 1], marks[bp.end.index - 1])
                for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                    assert sorted((abs(x1 - x0), abs(y1 - y0))) == [0, scale]
                traced += 1
        assert traced > 300

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            render_overlay(demo_overlay_small(), scale=0)
        with pytest.raises(ValueError):
            render_ferrers([(SkewShape(Partition((1,))), "#000000")], scale=-1)


class TestFerrersSvg:
    def test_cell_count(self):
        svg = render_ferrers([(SkewShape(Partition((2, 1))), "#000000")])
        _, tags = _tags(svg)
        assert tags.count("rect") == 3

    def test_overlaid_outlines(self):
        a = SkewShape(Partition((3, 2)), Partition((1,)))
        b = SkewShape(Partition((2, 2, 1)))
        svg = render_ferrers([(a, "#888888"), (b, "#000000")])
        root, tags = _tags(svg)
        assert tags.count("g") == 2
        assert tags.count("rect") == a.size + b.size

    def test_empty_shape(self):
        svg = render_ferrers([(SkewShape(Partition()), "#000000")])
        _, tags = _tags(svg)
        assert tags.count("rect") == 0


class TestConfigurationSvg:
    def test_point_and_arrow_counts(self):
        cfg = demo_overlay_small().configuration
        svg = render_configuration(cfg)
        _, tags = _tags(svg)
        n = len(cfg.points)
        assert tags.count("circle") == n + 1  # the points plus the circle itself
        assert tags.count("text") == n
