"""The golden corpus of the command line, ``cli.json`` beside this file.

Each entry names one ``schurpaths`` command by its argv and pins what it
does: the exit code, the SHA-256 of standard output, the exact standard
error and, under ``files``, the SHA-256 of each file it writes.  An entry is
replayed in-process through ``cli.main``, with ``SCHURPATHS_SEED`` unset, in
a temporary working directory that holds the large gallery overlay as
``overlay.json``.  In argv and stderr, ``{overlay}`` stands for the small
gallery overlay, ``{cell}`` for it with a decreasing row, ``{huge}`` for it
with a black shift of 10**400, ``{missing}`` for a path in a directory that
does not exist and ``{directory}`` for a directory; ``{name!r}`` is the
repr of the path.  A name is ``group/id``; the tests select entries by it.

    PYTHONPATH=src python tests/golden/corpus.py

replays every entry, writes what it does now back into ``cli.json`` and
prints the name of each entry whose pins changed, or ``no entry changed``; a
new entry needs only its name and argv.  The rule: a rewritten entry is a
change of the command line's behaviour made by design, and ``CHANGES.md``
lists it with its reason.  Anything else that changes an entry is a fault.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import tempfile

from schurpaths import cli
from schurpaths.gallery import demo_overlay_large, demo_overlay_small

CORPUS = pathlib.Path(__file__).resolve().with_name("cli.json")
ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))

# README commands that are not entries, by their argument list, each with its
# reason.  A change that makes the command finish or refuse makes it an entry.
NOT_RUN = {
    (
        "identity-theorem", "--white", "16,15,15,13,13,11,11,10,10,9,7,5/",
        "--black", "14,14,12,12,11,11,11,9,8,7,7,5/", "--s", "15,N", "--method", "full",
    ): "the full expansion of this pair neither finishes nor refuses (ROADMAP item 4)",
}


def group(prefix: str) -> list[str]:
    """The ids of the entries named ``prefix/<id>``, in corpus order."""
    return [e["name"].split("/", 1)[1] for e in ENTRIES if e["name"].startswith(prefix + "/")]


def readme_commands() -> list[tuple[str, ...]]:
    """The argument lists of the ``schurpaths`` lines in the fenced block
    under "## Command line", with ``\\`` continuations joined."""
    readme = (CORPUS.parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [tuple(shlex.split(line)[1:]) for line in lines if line.startswith("schurpaths ")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def workdir():
    """Enter a temporary working directory holding the overlay files, with
    ``SCHURPATHS_SEED`` unset; yield the path of each placeholder."""
    cwd, seed = os.getcwd(), os.environ.pop("SCHURPATHS_SEED", None)
    large, small = demo_overlay_large(), demo_overlay_small()
    w, b = small.white.to_json(), small.black.to_json()
    files = {
        "overlay.json": {"white": large.white.to_json(), "black": large.black.to_json()},
        "small.json": {"white": w, "black": b},
        "cell.json": {"white": dict(w, tableau=[[4, 3, 7, 7]] + w["tableau"][1:]), "black": b},
        "huge.json": {"white": w, "black": dict(b, shift=10**400)},
    }
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for name, obj in files.items():
                pathlib.Path(name).write_text(json.dumps(obj), encoding="utf-8")
            yield {
                "overlay": os.path.join(tmp, "small.json"),
                "cell": os.path.join(tmp, "cell.json"),
                "huge": os.path.join(tmp, "huge.json"),
                "missing": os.path.join(tmp, "missing", "picture.svg"),
                "directory": tmp,
            }
        finally:
            os.chdir(cwd)
            if seed is not None:
                os.environ["SCHURPATHS_SEED"] = seed


def replay(argv: list[str], paths: dict[str, str]) -> dict:
    """What ``argv`` does now, in the working directory, as an entry's pinned
    fields; the files it writes there are hashed and removed."""
    for name, path in paths.items():
        argv = [a.replace(f"{{{name}!r}}", repr(path)).replace(f"{{{name}}}", path) for a in argv]
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    # the longest path first, as the directory is a prefix of the others
    for name, path in sorted(paths.items(), key=lambda item: -len(item[1])):
        stderr = stderr.replace(repr(path), f"{{{name}!r}}").replace(path, f"{{{name}}}")
    pinned = {"exit": code, "stdout_sha256": _sha256(out.getvalue().encode()), "stderr": stderr}
    written = {}
    for name in set(os.listdir()) - before:
        written[name] = _sha256(pathlib.Path(name).read_bytes())
        os.remove(name)
    return dict(pinned, files=dict(sorted(written.items()))) if written else pinned


def check(*names: str) -> None:
    """Replay the named entries and fail on each that differs from its pins."""
    by_name = {e["name"]: e for e in ENTRIES}
    found = []
    with workdir() as paths:
        for entry in map(by_name.__getitem__, names):
            pinned = {k: v for k, v in entry.items() if k not in ("name", "argv")}
            now = replay(entry["argv"], paths)
            if now != pinned:
                found.append(f"{entry['name']}: pinned {pinned}, now {now}")
    assert not found, "\n".join(found)


if __name__ == "__main__":
    with workdir() as paths:
        now = [{"name": e["name"], "argv": e["argv"], **replay(e["argv"], paths)} for e in ENTRIES]
    lines = [json.dumps(e, ensure_ascii=False) for e in now]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print("\n".join(e["name"] for e, was in zip(now, ENTRIES) if e != was) or "no entry changed")
