import itertools
import json
import time

import pytest

from schurpaths import schur
from schurpaths.cli import main, parse_shape, parse_strips
from schurpaths.gallery import demo_overlay_small
from schurpaths.identities import Identity, ProductTerm, verify_identity
from schurpaths.partitions import Partition, SkewShape, StripSpec
from schurpaths.schur import skew_schur


@pytest.fixture
def overlay_file(tmp_path):
    ov = demo_overlay_small()
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"white": ov.white.to_json(), "black": ov.black.to_json()}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsers:
    def test_shape_with_inner(self):
        sh = parse_shape("7,4,4,3,1,1,1/3,2,2,1")
        assert sh.outer == Partition((7, 4, 4, 3, 1, 1, 1))
        assert sh.inner == Partition((3, 2, 2, 1))

    def test_shape_empty_inner(self):
        assert parse_shape("1/") == SkewShape(Partition((1,)))
        assert parse_shape("3,1") == SkewShape(Partition((3, 1)))

    def test_strips(self):
        assert parse_strips("2:(2,3);1:(6,2)") == [StripSpec(2, 2, 3), StripSpec(1, 6, 2)]


class TestCompute:
    def test_single_box(self, capsys):
        code, out = run(capsys, "compute", "--shape", "1/", "--vars", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["polynomial"]["terms"] == [
            {"exp": [1, 0], "coeff": "1"},
            {"exp": [0, 1], "coeff": "1"},
        ]

    def test_zero_polynomial_exits_zero(self, capsys):
        code, out = run(capsys, "compute", "--shape", "1,1,1/", "--vars", "2")
        assert code == 0
        assert json.loads(out)["polynomial"]["terms"] == []

    def test_row_longer_than_recursion_limit(self, capsys):
        code, out = run(capsys, "compute", "--shape", "1100/", "--vars", "1")
        assert code == 0
        assert json.loads(out)["polynomial"]["terms"] == [{"exp": [1100], "coeff": "1"}]

    @pytest.mark.parametrize(
        "shape, n, terms, shapes_visited",
        [("1/", 1000, 1000, 3 * 1000 - 2), (",".join(["1"] * 1200) + "/", 1200, 1, 1200)],
        ids=["one-box-1000-vars", "1200-row-column"],
    )
    def test_many_variables_and_rows(self, capsys, monkeypatch, shape, n, terms, shapes_visited):
        code, out = run(capsys, "compute", "--shape", shape, "--vars", str(n))
        assert code == 0
        assert len(json.loads(out)["polynomial"]["terms"]) == terms
        # The expansion alone, without printing it.  Its work is the number of
        # shapes nu visited, counted through the product that enumerates the
        # strips of each level: at most two states a level on "1/" and one on
        # the column.  The loose time bound catches exponent tuples kept dense
        # while building, O(N^3) on "1/" (about 9 s), which adds no shapes.
        visited = 0

        def counted(*ranges):
            nonlocal visited
            for nu in itertools.product(*ranges):
                visited += 1
                yield nu

        monkeypatch.setattr(schur, "product", counted)
        skew_schur.cache_clear()
        t0 = time.perf_counter()
        skew_schur(parse_shape(shape), n)
        assert time.perf_counter() - t0 < 5.0
        assert visited == shapes_visited

    def test_eval(self, capsys):
        code, out = run(capsys, "compute", "--shape", "2,1/", "--vars", "2",
                        "--method", "eval", "--point", "1,1")
        assert code == 0
        assert json.loads(out)["value"] == "2"

    def test_eval_requires_point(self, capsys):
        code, _ = run(capsys, "compute", "--shape", "2,1/", "--vars", "2", "--method", "eval")
        assert code == 2

    def test_bad_shape_usage_error(self, capsys):
        code, _ = run(capsys, "compute", "--shape", "2,x/", "--vars", "2")
        assert code == 2


class TestEndpoints:
    def test_values(self, capsys):
        code, out = run(capsys, "endpoints", "--shape",
                        "13,13,11,11,9,9,8,8,7,5,3/9,9,7,7,7,6,5,5,5,4",
                        "--rows", "11", "--shift", "1", "--vars", "8")
        assert code == 0
        obj = json.loads(out)
        assert obj["ends"][10] == -7
        assert obj["starts"][0] == 9


class TestIdentityGps:
    def test_running_example_passes(self, capsys):
        code, out = run(
            capsys, "identity-gps",
            "--lambda", "10,7,7,6,6,4,4,3,2,2", "--mu", "4,3,3,1",
            "--strips", "2:(2,3);1:(6,2)",
            "--vars", "11", "--method", "multipoint", "--points", "20", "--seed", "42",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["verdict"] == "pass"
        assert len(obj["identity"]["rhs"]) == 3

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = (
            "identity-gps", "--lambda", "5,3,3,1", "--mu", "", "--strips", "1:(2,2)",
            "--vars", "5", "--method", "multipoint", "--points", "6", "--seed", "3",
        )
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_seed_default_read_when_the_command_runs(self, capsys, monkeypatch):
        args = (
            "identity-gps", "--lambda", "5,3,3,1", "--mu", "", "--strips", "1:(2,2)",
            "--vars", "5", "--method", "multipoint", "--points", "2",
        )
        for seed in ("5", "9"):
            monkeypatch.setenv("SCHURPATHS_SEED", seed)
            code, out = run(capsys, *args)
            assert code == 0
            assert json.loads(out)["report"]["seed"] == int(seed)
        monkeypatch.delenv("SCHURPATHS_SEED")
        assert json.loads(run(capsys, *args)[1])["report"]["seed"] == 42

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_multipoint_without_points_is_usage_error(self, capsys, points):
        code, out = run(
            capsys, "identity-gps", "--lambda", "10,7,7,6,6,4,4,3,2,2", "--mu", "4,3,3,1",
            "--strips", "2:(2,3);1:(6,2)", "--method", "multipoint", f"--points={points}",
        )
        assert code == 2 and out == ""

    def test_bad_strips(self, capsys):
        code, _ = run(capsys, "identity-gps", "--lambda", "3,1", "--strips", "nope")
        assert code == 2


class TestIdentityTheorem:
    def test_equal_length_example(self, capsys):
        code, out = run(
            capsys, "identity-theorem",
            "--white", "16,15,15,13,13,11,11,10,10,9,7,5/5,4,2,2,2,1,1,1",
            "--black", "14,14,12,12,11,11,11,9,8,7,7,5/5,4,2,2,2,1,1,1",
            "--s", "15,N", "--method", "multipoint", "--points", "4", "--seed", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["identity"]["rhs"]) == 2

    def test_not_alternating_is_usage_error(self, capsys):
        code, _ = run(capsys, "identity-theorem", "--white", "2,2/", "--black", "4,1/",
                      "--s", "1,N")
        assert code == 2


class TestRecolourAndRender:
    def test_recolour_start_points(self, capsys, overlay_file):
        code, out = run(capsys, "recolour", "--overlay", overlay_file,
                        "--start", "7,N;-1,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["overlay"]["white"]["shape"]["outer"] == [9, 5, 5, 1, 1, 1]
        assert obj["overlay"]["white"]["shift"] == -1
        assert obj["overlay"]["black"]["shape"]["outer"] == [5, 3, 3, 2, 2, 1, 1, 1]

    def test_recolour_both_ends_of_one_path(self, capsys, overlay_file):
        code = main(["recolour", "--overlay", overlay_file, "--start", "7,N;6,N"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "start points 7,N and 6,N trace the same path" in captured.err

    def test_recolour_all(self, capsys, overlay_file):
        code, out = run(capsys, "recolour", "--overlay", overlay_file, "--all")
        assert code == 0
        assert len(json.loads(out)["traced"]) == 8

    def test_recolour_requires_start_or_all(self, capsys, overlay_file):
        code, _ = run(capsys, "recolour", "--overlay", overlay_file)
        assert code == 2

    def test_render_to_file(self, capsys, tmp_path, overlay_file):
        out_path = tmp_path / "picture.svg"
        code, _ = run(capsys, "render", "--overlay", overlay_file,
                      "--highlight", "7,N", "-o", str(out_path))
        assert code == 0
        import xml.etree.ElementTree as ET

        assert ET.parse(out_path).getroot().tag.endswith("svg")

    def test_missing_overlay_file(self, capsys):
        code, _ = run(capsys, "render", "--overlay", "/does/not/exist.json")
        assert code == 2


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and all(c["ok"] for c in obj["checks"])


class TestFailVerdictExitCode:
    def test_exit_one_on_fail(self, capsys):
        # a deliberately false identity run through the same reporting path
        lhs = (ProductTerm(SkewShape(Partition((1,))), SkewShape(Partition((1,)))),)
        broken = Identity(lhs, (), 2, "broken")
        report = verify_identity(broken, method="multipoint", points=3, seed=0)
        assert not report.passed and report.witness is not None
