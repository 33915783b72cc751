"""Each command of the README's "Command line" block runs to completion."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from schurpaths.gallery import demo_overlay_large

ROOT = pathlib.Path(__file__).resolve().parent.parent

# README commands that are not run, by their argument list, each with its
# reason.  A change that makes the command finish or refuse deletes its entry.
NOT_RUN = {
    (
        "identity-theorem", "--white", "16,15,15,13,13,11,11,10,10,9,7,5/",
        "--black", "14,14,12,12,11,11,11,9,8,7,7,5/", "--s", "15,N", "--method", "full",
    ): "the full expansion of this pair neither finishes nor refuses (ROADMAP item 4)",
}


def readme_commands() -> list[tuple[str, ...]]:
    """The argument lists of the ``schurpaths`` lines in the fenced block
    under "## Command line", with ``\\`` continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [tuple(shlex.split(line)[1:]) for line in lines if line.startswith("schurpaths ")]


COMMANDS = readme_commands()


def test_every_command_not_run_is_in_the_readme():
    assert set(NOT_RUN) <= set(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [a for a in COMMANDS if a not in NOT_RUN],
    ids=[f"{i}-{a[0]}" for i, a in enumerate(COMMANDS) if a not in NOT_RUN],
)
def test_command_runs(argv, tmp_path):
    ov = demo_overlay_large()
    (tmp_path / "overlay.json").write_text(
        json.dumps({"white": ov.white.to_json(), "black": ov.black.to_json()})
    )
    proc = subprocess.run(
        [sys.executable, "-m", "schurpaths.cli", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if "-o" in argv:
        assert (tmp_path / argv[argv.index("-o") + 1]).read_text()
    else:
        assert proc.stdout
