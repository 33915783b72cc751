"""Each command of the README's "Command line" block is an entry of the
golden corpus, which ``tests/test_golden.py`` and ``tests/test_cli.py``
replay, or is named in ``NOT_RUN``."""

import pytest

from golden import corpus

COMMANDS = corpus.readme_commands()


def test_every_command_not_run_is_in_the_readme():
    assert set(corpus.NOT_RUN) <= set(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [a for a in COMMANDS if a not in corpus.NOT_RUN],
    ids=[f"{i}-{a[0]}" for i, a in enumerate(COMMANDS) if a not in corpus.NOT_RUN],
)
def test_command_runs(argv):
    assert argv in {tuple(e["argv"]) for e in corpus.ENTRIES}, "not an entry of tests/golden/cli.json"
