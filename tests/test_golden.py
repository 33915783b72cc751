"""Every command of the golden corpus, ``tests/golden/cli.json``, does what
its entry pins, and every README command is an entry or is named in
``NOT_RUN`` with its reason.  ``tests/golden/corpus.py`` says how an entry
is replayed and when it may be rewritten."""

from golden import corpus


def test_every_entry_replays_as_pinned():
    names = [e["name"] for e in corpus.ENTRIES]
    argvs = {tuple(e["argv"]) for e in corpus.ENTRIES}
    assert len(set(names)) == len(names) == len(argvs)
    unpinned = [a for a in corpus.readme_commands() if a not in argvs and a not in corpus.NOT_RUN]
    assert not unpinned, f"README commands that are neither entries nor in NOT_RUN: {unpinned}"
    corpus.check(*names)
