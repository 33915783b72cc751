"""The benchmark's tracer still finds every layer boundary it hooks.

``perfbench/tracing.py`` rebinds names inside the package's modules (such as
``cli.recolour`` and ``identities.to_points``).  Renaming one of them breaks
``perfbench/run.py --trace 1``; this test catches that in tier-1 instead of
in the slower benchmark tests.  It runs in a subprocess because installing
the tracer re-imports the package and patches its classes.

A hook on a name that nothing reads any more counts 0 without an error, so
the test reads every span of ``tracing.SPANS``: each must count calls,
except those in ``READ_ZERO``, which must count none.

The recolouring of the small gallery overlay also pins the work of the
trace: its count of traces and of the arcs they walk.  A faster walk that
visited different arcs would change them.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# span -> why the package no longer crosses the boundary that it hooks
READ_ZERO = {
    "tableaux.enumerate_ssyt": "skew_schur expands by the branching rule, not by tableaux",
    "overlay.enumerate_admissible_matchings":
        "recolouring_expansion reads admissible_flip_sets, not the matchings",
    "paths.family_from_paths":
        "recolour decodes through CircularConfiguration.shapes, so nothing reads "
        "overlay.family_from_paths",
    "schur.Polynomial.mul":
        "full reads the products at their dominant exponents (schur.dominant_products)",
    "schur.Polynomial.add": "full sums the sides' dominant coefficients, not polynomials",
    "schur.skew_schur_eval":
        "multipoint reads schur.skew_schur_evaluator, which lays each shape out once per "
        "verification; only the s command, which the script does not run, calls skew_schur_eval",
}

SCRIPT = """
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path("perfbench").resolve()))
import tracing
import workloads

prog = workloads.Program(Path("src").resolve())
tracer = tracing.Tracer()
tracing.install(prog, tracer)
tracer.enabled = True
argv = ["identity-gps", "--lambda", "3,1", "--strips", "1:(2,1)", "--method", "full"]
rc, _ = prog.cli_run(argv)
assert rc == 0, rc
rc, _ = prog.cli_run(argv[:-1] + ["multipoint", "--points", "2"])
assert rc == 0, rc
from schurpaths.gallery import demo_overlay_small
paths, _ = prog.overlay.all_bicoloured(demo_overlay_small())
prog.overlay.recolour(demo_overlay_small(), paths)
prog.paths.PathFamily.from_json(demo_overlay_small().white.to_json())
shape = prog.cli.parse_shape
prog.identities.recolouring_expansion(shape("1/"), shape("2/"), {(0, "N")})
calls = {name: tracer.counts[name + ".calls"] for name in tracing.SPANS}
trace = {key: tracer.counts["overlay.trace_bicoloured." + key] for key in ("calls", "arcs")}
print(json.dumps({"calls": calls, "trace": trace}))
"""


def test_tracer_installs_and_counts():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    calls = counts["calls"]
    assert set(READ_ZERO) <= set(calls), set(READ_ZERO) - set(calls)
    assert {name for name, n in calls.items() if n == 0} == set(READ_ZERO), calls
    # all_bicoloured traces the 16 coloured points, recolour retraces the 8 paths
    assert counts["trace"] == {"calls": 24, "arcs": 174}
