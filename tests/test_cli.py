import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from schurpaths import cli, schur
from schurpaths.cli import main, parse_shape, parse_strips
from schurpaths.gallery import demo_overlay_large, demo_overlay_small
from schurpaths.identities import Identity, ProductTerm, verify_identity
from schurpaths.partitions import Partition, SkewShape, StripSpec
from schurpaths.schur import skew_schur


def write_overlay(tmp_path, name, make):
    """Write ``make(white, black)`` of the small demo overlay's JSON families."""
    ov = demo_overlay_small()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(make(ov.white.to_json(), ov.black.to_json())))
    return str(path)


@pytest.fixture
def overlay_file(tmp_path):
    return write_overlay(tmp_path, "overlay", lambda w, b: {"white": w, "black": b})


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

    # stdout of the expansions as the tuple-keyed engine printed them
    @pytest.mark.parametrize(
        "shape, n, sha256",
        [
            ("7,4,4,3,1,1,1/3,2,2,1", 6,
             "7c0bca1fbc06a3d19c9e44b90e9c81480dad6a7e3c09096a313fe27b08272f56"),
            ("1/", 300, "0d289f457ba7dd892f4a9af3ff8280760def43773f963662fe12f9f1123f564d"),
            ("3,2,1/1", 4, "1d53a57068f1bd8b8215ff07513479095e329ba12d6a21f94bff694109c2ce60"),
            # the README example, 68,272 terms
            ("7,4,4,3,1,1,1/3,2,2,1", 8,
             "571a8eeb2ee05e169a30890fd9cf5333a8e793a58cbc6ac43c70441727fffd65"),
        ],
        ids=["gallery-6-vars", "one-box-300-vars", "skew-3-2-1", "gallery-8-vars"],
    )
    def test_pinned_stdout(self, capsys, shape, n, sha256):
        code, out = run(capsys, "compute", "--shape", shape, "--vars", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_part_of_two_to_the_forty(self, capsys):
        code, out = run(capsys, "compute", "--shape", f"{2**40}/", "--vars", "1")
        assert code == 0
        assert json.loads(out)["polynomial"]["terms"] == [{"exp": [2**40], "coeff": "1"}]

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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_alphabet_is_usage_error(self, capsys, n):
        code = main(["endpoints", "--shape", "3,1/1", "--vars", n])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: alphabet must be positive: {n}\n"


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

    @pytest.mark.parametrize("command", [["identity-gps", "--lambda", "3,1", "--strips", "1:(2,1)"],
                                         ["selftest"]], ids=["identity-gps", "selftest"])
    def test_seed_environment_not_an_integer(self, capsys, monkeypatch, command):
        monkeypatch.setenv("SCHURPATHS_SEED", "abc")
        code = main(command)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: SCHURPATHS_SEED must be an integer: 'abc'\n"

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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_alphabet_is_usage_error(self, capsys, n):
        code = main(["identity-gps", "--lambda", "3,1", "--strips", "1:(2,1)",
                     "--vars", n, "--method", "multipoint"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: alphabet must be positive: {n}\n"

    def test_mu_not_fitting_a_peeled_shape_is_usage_error(self, capsys):
        # mu fits lambda and sigma = (2), but not the complete peel of lambda, which is empty
        code = main(["identity-gps", "--lambda", "5,1", "--mu", "1", "--strips", "2:(2,1)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: mu (1,) does not fit inside a peeled shape\n"

    # stdout of identity-gps, right side in recolouring order
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (["--lambda", "10,7,7,6,6,4,4,3,2,2", "--mu", "4,3,3,1", "--strips", "2:(2,3);1:(6,2)",
              "--vars", "11", "--points", "20", "--seed", "42"],
             "68f2ed52dac200478e557f8ba49ff148445f8dbaf3cfa98db34d45d32170ae54"),
            (["--lambda", "7,6,3", "--mu", "3,1", "--strips", "1:(3,1)", "--method", "full"],
             "6968661c8152bf0c6c6aed686050ffb2511505c01d95ba91541143a94a1977b3"),
        ],
        ids=["readme", "empty-leading-column"],
    )
    def test_pinned_stdout(self, capsys, argv, sha256):
        code, out = run(capsys, "identity-gps", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


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

    # 2k = 12 alternating coloured points, |S| = 3: C(6, 3) = 20 terms
    PINNED_ARGS = (
        "identity-theorem", "--white", "20,20,17,17,17,11/8,3,3,2,2,1",
        "--black", "22,20,19,18,17,10/6,5,4,4,4,1", "--shift=-2", "--s=-7,1;13,N;18,N",
        "--method", "multipoint", "--seed", "3",
    )
    PINNED_RHS = [
        ("21,19,18,17,16,12/9,4,4,3,3", "19,19,16,16,16,7/3,2,1,1,1"),
        ("21,19,18,17,16,12/9,4,2,2,1", "17,17,14,14,14,5/1"),
        ("21,19,18,17,16,12/3,3,2,2,1", "17,17,14,14,14,5/5,2,1"),
        ("20,18,17,16,15,11,9/8,3,3,2,2,1", "18,18,15,15,15/2,1"),
        ("21,19,18,17,11,9/9,4,4,3,3", "19,19,16,16,16,15/3,2,1,1,1"),
        ("21,19,18,17,11,9/9,4,2,2,1", "17,17,14,14,14,13/1"),
        ("21,19,18,17,11,9/3,3,2,2,1", "17,17,14,14,14,13/5,2,1"),
        ("22,20,19,18,12/10,5,3,3", "18,18,15,15,15,14,7/2,1,1,1,1,1"),
        ("22,20,19,18,12/4,4,3,3", "18,18,15,15,15,14,7/6,3,2,1,1,1"),
        ("22,20,19,18,12/4,2,2,1", "16,16,13,13,13,12,5/4,1"),
        ("21,17,16,15,11,9/9,4,4,3,3", "19,19,18,17,17,17/3,2,1,1,1"),
        ("21,17,16,15,11,9/9,4,2,2,1", "17,17,16,15,15,15/1"),
        ("21,17,16,15,11,9/3,3,2,2,1", "17,17,16,15,15,15/5,2,1"),
        ("22,18,17,16,12/10,5,3,3", "18,18,17,16,16,16,7/2,1,1,1,1,1"),
        ("22,18,17,11,9/10,5,3,3", "18,18,17,16,16,16,15/2,1,1,1,1,1"),
        ("22,18,17,16,12/4,4,3,3", "18,18,17,16,16,16,7/6,3,2,1,1,1"),
        ("22,18,17,16,12/4,2,2,1", "16,16,15,14,14,14,5/4,1"),
        ("22,18,17,11,9/4,4,3,3", "18,18,17,16,16,16,15/6,3,2,1,1,1"),
        ("22,18,17,11,9/4,2,2,1", "16,16,15,14,14,14,13/4,1"),
        ("23,19,18,12/5,3,3", "17,17,16,15,15,15,14,7/5,2,1,1,1,1,1"),
    ]
    PINNED_SHA256 = "65dc412418571d7eb6e3c122aee902a2a4b05fcf6e3a0f68afb5c00b110cf4d7"

    def test_pinned_term_order(self, capsys):
        code, out = run(capsys, *self.PINNED_ARGS)
        assert code == 0

        def text(shape):
            return ",".join(map(str, shape["outer"])) + "/" + ",".join(map(str, shape["inner"]))

        rhs = json.loads(out)["identity"]["rhs"]
        assert [(text(w), text(b)) for w, b in rhs] == self.PINNED_RHS
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256

    def test_negative_first_point_as_separate_argument(self, capsys):
        args = [a for a in self.PINNED_ARGS if not a.startswith("--s=")]
        code, out = run(capsys, *args, "--s", "-7,1;13,N;18,N")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256

    def test_nonpositive_alphabet_is_usage_error(self, capsys):
        code = main(["identity-theorem", "--white", "16,15,15,13,13,11,11,10,10,9,7,5/",
                     "--black", "14,14,12,12,11,11,11,9,8,7,7,5/", "--s", "15,N",
                     "--vars", "-2", "--method", "multipoint"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: alphabet must be positive: -2\n"

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

    def test_recolour_negative_start_as_separate_argument(self, capsys, overlay_file):
        joined = run(capsys, "recolour", "--overlay", overlay_file, "--start=-1,1;7,N")
        separate = run(capsys, "recolour", "--overlay", overlay_file, "--start", "-1,1;7,N")
        assert separate == joined and joined[0] == 0
        assert json.loads(joined[1])["traced"][0]["from"] == [-1, "1"]

    def test_render_negative_highlight_as_separate_argument(self, capsys, overlay_file):
        joined = run(capsys, "render", "--overlay", overlay_file, "--highlight=-1,1")
        separate = run(capsys, "render", "--overlay", overlay_file, "--highlight", "-1,1")
        plain = run(capsys, "render", "--overlay", overlay_file)
        assert separate == joined and joined[0] == 0 and joined != plain

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

    # stdout of recolour and render on the two gallery overlays, byte for byte
    @pytest.mark.parametrize(
        "make, argv, sha256",
        [
            (demo_overlay_large, ["recolour", "--all"],
             "aa1d09c789371b32842ff39d240bf6742cd5859b2464669647602cf01b65327a"),
            (demo_overlay_small, ["recolour", "--all"],
             "3f03a85217d493cbad831962922e563f35eaaaaffb721882b6a84cfd284612d6"),
            (demo_overlay_large, ["recolour", "--start", "15,N;5,1"],
             "9904fb1628d58c5479d7d3c0c5c885dcdbd31f4f58e55e7ea4cfb75f23142d75"),
            (demo_overlay_small, ["recolour", "--start", "7,N"],
             "9b7aa230a0a153303e4c10e2660c7c975d93e248cdd68629b618ce171e777552"),
            (demo_overlay_large, ["render", "--highlight", "15,N"],
             "df8e59365b101a40f499e60269e02c808cc71b033033c77022d2b8ea60c01f53"),
        ],
        ids=["large-all", "small-all", "large-start", "small-start", "large-render"],
    )
    def test_pinned_stdout(self, capsys, tmp_path, make, argv, sha256):
        ov = make()
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps({"white": ov.white.to_json(), "black": ov.black.to_json()}))
        code, out = run(capsys, argv[0], "--overlay", str(path), *argv[1:])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _white(**fields):
    """A maker whose white family has ``fields`` replaced."""
    return lambda w, b: {"white": dict(w, **fields), "black": b}


def _white_shape(**parts):
    return lambda w, b: {"white": dict(w, shape=dict(w["shape"], **parts)), "black": b}


def _first_entry(value):
    def make(w, b):
        first, *rest = w["tableau"]
        return {"white": dict(w, tableau=[[value, *first[1:]], *rest]), "black": b}

    return make


# Overlay files that parse as JSON but are no overlay, each with the stderr
# after "error: --overlay: cannot load <path>: ".  The demo families have
# shape 7,4,4,3,1,1,1/3,2,2,1, and the white tableau's first row is 3,4,7,7.
MALFORMED_OVERLAYS = {
    "top-level-list": (lambda w, b: [1, 2], "not a JSON object"),
    "family-int": (lambda w, b: {"white": 5, "black": b}, "white: not a JSON object"),
    "missing-black": (lambda w, b: {"white": w}, "missing field 'black'"),
    "missing-shape": (lambda w, b: {"white": {k: v for k, v in w.items() if k != "shape"},
                                    "black": b},
                      "white: missing field 'shape'"),
    "shift-str": (_white(shift="a"), 'white: shift must be an integer: "a"'),
    "outer-int": (_white_shape(outer=1), "white: shape.outer must be a list: 1"),
    "tableau-row-int": (lambda w, b: {"white": dict(w, tableau=[3] + w["tableau"][1:]), "black": b},
                        "white: tableau[0] must be a list: 3"),
    "rows-str": (_white(rows="x"), 'white: rows must be an integer: "x"'),
    # numbers the constructors used to truncate or parse
    "outer-float": (_white_shape(outer=[7.9, 4, 4, 3, 1, 1, 1]),
                    "white: shape.outer[0] must be an integer: 7.9"),
    "outer-str": (_white_shape(outer=["7", 4, 4, 3, 1, 1, 1]),
                  'white: shape.outer[0] must be an integer: "7"'),
    "entry-float": (_first_entry(3.5), "white: tableau[0][0] must be an integer: 3.5"),
    "entry-str": (_first_entry("3"), 'white: tableau[0][0] must be an integer: "3"'),
    "shift-bool": (_white(shift=True), "white: shift must be an integer: true"),
    "N-str": (_white(N="8"), 'white: N must be an integer: "8"'),
    "rows-float": (_white(rows=7.0), "white: rows must be an integer: 7.0"),
    "N-zero": (_white(N=0), "white: alphabet must be positive: 0"),
    "black-inner-float": (lambda w, b: {"white": w, "black": dict(
        b, shape=dict(b["shape"], inner=[3, 2, 2.0, 1]))},
        "black: shape.inner[2] must be an integer: 2.0"),
}


class TestMalformedOverlay:
    @pytest.mark.parametrize(
        "command", [["recolour", "--all"], ["render"]], ids=["recolour", "render"]
    )
    @pytest.mark.parametrize("make, err", MALFORMED_OVERLAYS.values(), ids=MALFORMED_OVERLAYS.keys())
    def test_usage_error_without_traceback(self, capsys, tmp_path, command, make, err):
        path = write_overlay(tmp_path, "malformed", make)
        code = main([command[0], "--overlay", path, *command[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --overlay: cannot load {path!r}: {err}\n"


def _row_decreases(w, b):
    return {"white": dict(w, tableau=[[4, 3, 7, 7]] + w["tableau"][1:]), "black": b}


BIG_WHITE = "16,15,15,13,13,11,11,10,10,9,7,5/"
BIG_BLACK = "14,14,12,12,11,11,11,9,8,7,7,5/"

# The stderr of each kind of refusal, as the library phrases it; "{overlay}"
# is the small demo overlay, "{cell}" the same with a decreasing row,
# "{huge}" the same with a black shift of 10**400, "{missing}" a path in a
# directory that does not exist and "{directory}" a directory.
REFUSALS = {
    "bad-partition": (
        ["compute", "--shape", "2,x/", "--vars", "2"],
        "error: bad shape '2,x/': bad partition '2,x': "
        "invalid literal for int() with base 10: 'x'",
    ),
    "not-weakly-decreasing": (
        ["compute", "--shape", "2,3/", "--vars", "2"],
        "error: bad shape '2,3/': bad partition '2,3': parts must weakly decrease: 2 before 3",
    ),
    "shape-not-nested": (
        ["compute", "--shape", "2,1/3", "--vars", "2"],
        "error: bad shape '2,1/3': inner (3,) does not fit inside outer (2, 1)",
    ),
    "strip-constraint": (
        ["identity-gps", "--lambda", "3,1", "--strips", "1:(1,1)"],
        "error: strip 1: row 1 outside 2..2",
    ),
    "strips-not-increasing": (
        ["identity-gps", "--lambda", "10,7,7,6,6,4,4,3,2,2", "--strips", "2:(2,3);1:(2,2)"],
        "error: strip 2: rows must strictly increase",
    ),
    "empty-strips": (
        ["identity-gps", "--lambda", "3,1", "--strips", ""],
        "error: at least one strip is required",
    ),
    "not-alternating": (
        ["identity-theorem", "--white", "2,2/", "--black", "4,1/", "--s", "1,N"],
        "error: coloured point orientations do not alternate",
    ),
    "s-not-inward": (
        ["identity-theorem", "--white", BIG_WHITE, "--black", BIG_BLACK, "--s", "13,N"],
        "error: not inward coloured points: 13,N",
    ),
    "start-not-coloured": (
        ["recolour", "--overlay", "{overlay}", "--start", "100,N"],
        "error: 100,N is not a coloured point",
    ),
    "start-no-points": (
        ["recolour", "--overlay", "{overlay}", "--start", ";"],
        "error: --start must name at least one point",
    ),
    "highlight-no-points": (
        ["render", "--overlay", "{overlay}", "--highlight", ";"],
        "error: --highlight must name at least one point",
    ),
    "starts-trace-one-path": (
        ["recolour", "--overlay", "{overlay}", "--start", "7,N;6,N"],
        "error: start points 7,N and 6,N trace the same path",
    ),
    # one point named twice is two copies of one path
    "start-named-twice": (
        ["recolour", "--overlay", "{overlay}", "--start", "7,N;7,N"],
        "error: start points 7,N and 7,N trace the same path",
    ),
    "start-or-all-required": (
        ["recolour", "--overlay", "{overlay}"],
        "error: --start or --all is required",
    ),
    "start-with-all": (
        ["recolour", "--overlay", "{overlay}", "--start", "7,N", "--all"],
        "error: --start and --all cannot be combined",
    ),
    "start-empty-with-all": (
        ["recolour", "--overlay", "{overlay}", "--all", "--start", ""],
        "error: --start and --all cannot be combined",
    ),
    "point-without-eval": (
        ["compute", "--shape", "2,1/", "--vars", "2", "--point", "1,2"],
        "error: --point is only read with --method eval",
    ),
    "points-zero-full": (
        ["identity-gps", "--lambda", "3,1", "--strips", "1:(2,1)", "--method", "full",
         "--points", "0"],
        "error: verification needs at least one point, got 0",
    ),
    # auto picks full for this small identity
    "points-negative-auto": (
        ["identity-gps", "--lambda", "3,1", "--strips", "1:(2,1)", "--points=-1"],
        "error: verification needs at least one point, got -1",
    ),
    "point-length": (
        ["compute", "--shape", "2,1/", "--vars", "2", "--method", "eval", "--point", "1"],
        "error: --point needs 2 values, got 1",
    ),
    "eval-vars-zero": (
        ["compute", "--shape", "2,1/", "--vars", "0", "--method", "eval", "--point", "1"],
        "error: alphabet must be positive: 0",
    ),
    "eval-vars-negative": (
        ["compute", "--shape", "2,1/", "--vars", "-2", "--method", "eval", "--point", "1"],
        "error: alphabet must be positive: -2",
    ),
    "eval-vars-zero-empty-point": (
        ["compute", "--shape", "2,1/", "--vars", "0", "--method", "eval", "--point", ""],
        "error: alphabet must be positive: 0",
    ),
    "output-missing-directory": (
        ["render", "--overlay", "{overlay}", "-o", "{missing}"],
        "error: --output: cannot write {missing!r}: "
        "[Errno 2] No such file or directory: {missing!r}",
    ),
    "output-is-directory": (
        ["render", "--overlay", "{overlay}", "-o", "{directory}"],
        "error: --output: cannot write {directory!r}: [Errno 21] Is a directory: {directory!r}",
    ),
    "overlay-cell-violation": (
        ["render", "--overlay", "{cell}"],
        "error: --overlay: cannot load {cell!r}: white: row 0 decreases at column 4",
    ),
    "render-scale-too-large": (
        ["render", "--overlay", "{overlay}", "--scale", str(10**400)],
        "error: resource limit: number too large: integer division result too large for a float",
    ),
    "render-shift-too-large": (
        ["render", "--overlay", "{huge}"],
        "error: resource limit: number too large: int too large to convert to float",
    ),
}


class TestRefusals:
    @pytest.mark.parametrize("argv, err", REFUSALS.values(), ids=REFUSALS.keys())
    def test_exact_stderr(self, capsys, tmp_path, overlay_file, argv, err):
        files = {
            "overlay": overlay_file,
            "cell": write_overlay(tmp_path, "cell", _row_decreases),
            "huge": write_overlay(
                tmp_path, "huge", lambda w, b: {"white": w, "black": dict(b, shift=10**400)}
            ),
            "missing": str(tmp_path / "missing" / "picture.svg"),
            "directory": str(tmp_path),
        }
        code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == err.format(**files) + "\n"


class TestClosedStdout:
    def test_exit_two_without_traceback(self):
        # 901 KB of output, far more than a pipe buffers, so the write after
        # the reader has gone fails whatever the timing
        argv = ["compute", "--shape", "7,4,4,3,1,1,1/3,2,2,1", "--vars", "6"]
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "schurpaths.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err and "Exception ignored" not in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and all(c["ok"] for c in obj["checks"])


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [AssertionError("traces disagree"), RecursionError("too deep")])
    def test_reported_without_traceback(self, capsys, monkeypatch, exc):
        def broken(seed):
            raise exc

        monkeypatch.setattr(cli, "run_selftest", broken)
        code = main(["selftest"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"

    def test_out_of_memory_reported_as_resource_limit(self, capsys, monkeypatch):
        def exhausted(shape, values):
            raise MemoryError

        monkeypatch.setattr(cli, "skew_schur_eval", exhausted)
        code = main(["compute", "--shape", "1099511627776/", "--vars", "2",
                     "--method", "eval", "--point", "1,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: resource limit: out of memory\n"


class TestFailVerdictExitCode:
    def test_exit_one_on_fail(self, capsys):
        # a deliberately false identity run through the same reporting path
        lhs = (ProductTerm(SkewShape(Partition((1,))), SkewShape(Partition((1,)))),)
        broken = Identity(lhs, (), 2, "broken")
        report = verify_identity(broken, method="multipoint", points=3, seed=0)
        assert not report.passed and report.witness is not None


class TestEmit:
    """Every command prints exactly ``json.dumps(payload, indent=2)``; only the
    polynomial of ``compute --method enum`` is laid out by ``_dumps_polynomial``."""

    GPS = ("identity-gps", "--lambda", "10,7,7,6,6,4,4,3,2,2", "--mu", "4,3,3,1",
           "--strips", "2:(2,3);1:(6,2)", "--vars", "11", "--points", "3", "--seed", "42")
    # one box and one shifted box: a zero term on the right
    THEOREM = ("identity-theorem", "--white", "1/", "--black", "1/", "--shift", "5",
               "--s", "0,N", "--vars", "3")
    COMMANDS = {
        "compute-enum": ("compute", "--shape", "3,2,1/1", "--vars", "4"),
        "compute-zero": ("compute", "--shape", "1,1,1/", "--vars", "2"),
        "compute-eval": ("compute", "--shape", "2,1/", "--vars", "2", "--method", "eval",
                         "--point", "-1,3"),
        "endpoints": ("endpoints", "--shape", "3,1/1", "--rows", "3", "--shift", "2",
                      "--vars", "4"),
        "recolour-all": ("recolour", "--overlay", "OVERLAY", "--all"),
        "identity-gps": GPS,
        "identity-gps-verbose": GPS + ("--verbose",),
        "identity-gps-full-verbose": ("identity-gps", "--lambda", "3,1", "--strips", "1:(2,1)",
                                      "--method", "full", "--verbose"),
        "identity-theorem": THEOREM,
        "identity-theorem-verbose": THEOREM + ("--verbose",),
        "selftest": ("selftest",),
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_command_payloads(self, capsys, monkeypatch, overlay_file, argv):
        payloads = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda p: (payloads.append(p), emit(p)))
        code, out = run(capsys, *(overlay_file if a == "OVERLAY" else a for a in argv))
        assert code in (0, 1)
        if argv[0] == "compute" and "eval" not in argv:
            # the enum payload is written without _emit
            shape, n = parse_shape(argv[2]), int(argv[4])
            payloads.append({"shape": shape.to_json(), "N": n,
                             "polynomial": skew_schur(shape, n).to_json()})
        assert len(payloads) == 1
        assert out == json.dumps(payloads[0], indent=2) + "\n"

    # a Polynomial stands for the payload {"polynomial": it}
    PAYLOADS = {
        "zero-polynomial": schur.Polynomial(3),
        "one-variable": skew_schur(SkewShape(Partition((2,))), 1),
        "one-box-300-vars": skew_schur(SkewShape(Partition((1,))), 300),
        "no-variables": schur.Polynomial(0, {(): 1}),
        "signed-big-coefficients": schur.Polynomial(2, {(1, 0): -3, (0, 2): 10**40, (0, 0): 7}),
        "tuples": {"t": (1, (2, -3), ("a", None)), "empty": ()},
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
        "strings": {"λ/μ": "café ☃ \U0001d54a \"q\" \\ \n\t\x00", "": ""},
        "ints": [-5, 0, 2**200, -(2**100)],
        "ints-and-bools": [1, True, 0, False],
        "floats": {"elapsed": 0.000468, "big": 1e300, "neg": -0.0, "list": [1.5, 2]},
        "scalar": "text",
    }

    @pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
    def test_values(self, capsys, payload):
        if isinstance(payload, schur.Polynomial):
            text = '{\n  "polynomial": ' + cli._dumps_polynomial(payload) + "\n}"
            assert text == json.dumps({"polynomial": payload.to_json()}, indent=2)
        else:
            cli._emit(payload)
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
