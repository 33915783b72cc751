"""Every command of the golden corpus, ``tests/golden/cli.json``, does what
its entry pins, and every README command is an entry or is named in
``NOT_RUN`` with its reason.  ``tests/golden/corpus.py`` says how an entry
is replayed and when it may be rewritten.  Each entry is replayed once: the
groups in ``VIEWED`` by ``tests/test_cli.py``, one test id per entry, and
the others here."""

from golden import corpus

# the groups whose entries tests/test_cli.py replays, one test id per entry
VIEWED = ("compute", "identity-gps", "overlay", "refusal")


def test_every_entry_replays_as_pinned():
    names = [e["name"] for e in corpus.ENTRIES]
    argvs = {tuple(e["argv"]) for e in corpus.ENTRIES}
    assert len(set(names)) == len(names) == len(argvs)
    assert all(corpus.group(g) for g in VIEWED)
    unpinned = [a for a in corpus.readme_commands() if a not in argvs and a not in corpus.NOT_RUN]
    assert not unpinned, f"README commands that are neither entries nor in NOT_RUN: {unpinned}"
    corpus.check(*(n for n in names if n.split("/", 1)[0] not in VIEWED))
