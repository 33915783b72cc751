"""The benchmark's tracer still finds every layer boundary it hooks.

``perfbench/tracing.py`` rebinds names inside the package's modules (such as
``overlay.family_from_paths`` and ``identities.to_points``).  Renaming one of
them breaks ``perfbench/run.py --trace 1``; this test catches that in tier-1
instead of in the slower benchmark tests.  It runs in a subprocess because
installing the tracer re-imports the package and patches its classes.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
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
for name in ("cli.main", "identities.verify_identity", "schur.skew_schur",
             "schur.Polynomial.mul", "overlay.trace_bicoloured", "paths.family_from_paths",
             "identities.recolouring_expansion", "partitions", "overlay.Overlay.init",
             "paths.tableau_to_paths", "paths.PathFamily.from_json", "schur.skew_schur_eval",
             "schur.complete_homogeneous_values", "schur.bareiss_determinant",
             "overlay.all_bicoloured", "overlay.recolour"):
    assert tracer.counts[name + ".calls"] > 0, name
"""


def test_tracer_installs_and_counts():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
