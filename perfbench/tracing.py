"""Per-layer tracing of schurpaths, installed from outside the package.

``install`` rebinds, in each consuming module, the names through which one
layer calls another (``cli.skew_schur``, ``identities.skew_schur_eval``,
``schur.enumerate_ssyt``, ...) and wraps ``Polynomial.__mul__`` and a few
other methods on their classes. While ``Tracer.enabled`` is set, each wrapped
call records a span ``[name, start, end, parent, busy]`` in memory and adds
its counts; otherwise the wrapper calls straight through.

A span's self time is its busy time minus the busy time of its child spans.
For an ordinary call busy time is ``end - start``. For a generator it is the
time spent inside its ``next`` calls, so the consumer's work between items is
charged to the consumer.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# Every span name yields <name>.calls, <name>.self_s and <name>.errors.
SPANS = (
    "cli.main",
    "tableaux.enumerate_ssyt",
    "schur.skew_schur",
    "schur.Polynomial.mul",
    "schur.Polynomial.add",
    "schur.skew_schur_eval",
    "schur.complete_homogeneous_values",
    "schur.bareiss_determinant",
    "identities.verify_identity",
    "identities.recolouring_expansion",
    "overlay.enumerate_admissible_matchings",
    "overlay.Overlay.init",
    "overlay.trace_bicoloured",
    "overlay.all_bicoloured",
    "overlay.recolour",
    "paths.tableau_to_paths",
    "paths.family_from_paths",
    "paths.PathFamily.from_json",
    "partitions",
)

# Counts taken at the same boundaries, with their units.
COUNTERS = {
    "tableaux.enumerate_ssyt.yielded": "count",
    "schur.skew_schur.terms_out": "count",
    "schur.skew_schur.cache_hit_ratio": "ratio",
    "schur.Polynomial.mul.term_pairs": "count",
    "schur.Polynomial.mul.terms_out": "count",
    "cli.stdout_bytes": "B",
    "schur.bareiss_determinant.rows": "count",
    "schur.value_max_bits": "bit",
    "identities.verify_identity.points": "count",
    "overlay.enumerate_admissible_matchings.matchings": "count",
    "identities.recolouring_expansion.terms": "count",
    "identities.terms_per_matching": "ratio",
    "overlay.trace_bicoloured.arcs": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {}
    for name in SPANS:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
        out[name + ".errors"] = "count"
    out.update(COUNTERS)
    return out


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = span[2] - span[1]

    def wrap(self, name: str, fn, count=None):
        """``fn`` traced as span ``name``; ``count(counts, args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function traced as one span whose busy time sums its
        ``next`` calls; items are counted as ``<name>.yielded``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                yield from fn(*args, **kwargs)
                return
            tracer.counts[name + ".calls"] += 1
            idx = len(tracer.spans)
            span = [name, None, None, tracer._stack[-1] if tracer._stack else -1, 0.0]
            tracer.spans.append(span)
            it = fn(*args, **kwargs)
            while True:
                tracer._stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    break
                except BaseException:
                    tracer.counts[name + ".errors"] += 1
                    raise
                finally:
                    t1 = perf_counter()
                    tracer._stack.pop()
                    span[4] += t1 - t0
                    if span[1] is None:
                        span[1] = t0
                    span[2] = t1
                tracer.counts[name + ".yielded"] += 1
                yield item

        return traced

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _, _, _, parent, busy in self.spans:
            if parent >= 0:
                child[parent] += busy
        out: Counter = Counter()
        for i, (name, _, _, _, busy) in enumerate(self.spans):
            out[name] += busy - child[i]
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "busy"],
                       "spans": self.spans}, fh)


def _add(key: str, measure):
    def count(counts, args, result):
        counts[key] += measure(args, result)
    return count


def _mul_counts(counts, args, result) -> None:
    counts["schur.Polynomial.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["schur.Polynomial.mul.terms_out"] += len(result.terms)


def _max_bits(counts, args, result) -> None:
    key = "schur.value_max_bits"
    counts[key] = max(counts[key], abs(result).bit_length())


def install(prog, tracer: Tracer) -> None:
    """Route every layer boundary the workloads cross through ``tracer``."""
    cli, schur, ids, ov, paths = prog.cli, prog.schur, prog.identities, prog.overlay, prog.paths
    w = tracer.wrap

    cli.main = w("cli.main", cli.main)
    schur.enumerate_ssyt = tracer.wrap_generator("tableaux.enumerate_ssyt", schur.enumerate_ssyt)
    cli.skew_schur = ids.skew_schur = w(
        "schur.skew_schur", schur.skew_schur,
        _add("schur.skew_schur.terms_out", lambda a, r: len(r.terms)),
    )
    poly = schur.Polynomial
    poly.__mul__ = w("schur.Polynomial.mul", poly.__mul__, _mul_counts)
    poly.__add__ = w("schur.Polynomial.add", poly.__add__)
    cli.skew_schur_eval = ids.skew_schur_eval = w(
        "schur.skew_schur_eval", schur.skew_schur_eval, _max_bits
    )
    schur.complete_homogeneous_values = w(
        "schur.complete_homogeneous_values", schur.complete_homogeneous_values
    )
    schur.bareiss_determinant = w(
        "schur.bareiss_determinant", schur.bareiss_determinant,
        _add("schur.bareiss_determinant.rows", lambda a, r: len(a[0])),
    )
    cli.verify_identity = ids.verify_identity = w(
        "identities.verify_identity", ids.verify_identity,
        _add("identities.verify_identity.points", lambda a, r: r.points),
    )
    cli.recolouring_expansion = ids.recolouring_expansion = w(
        "identities.recolouring_expansion", ids.recolouring_expansion,
        _add("identities.recolouring_expansion.terms", lambda a, r: len(r)),
    )
    ids.enumerate_admissible_matchings = w(
        "overlay.enumerate_admissible_matchings", ov.enumerate_admissible_matchings,
        _add("overlay.enumerate_admissible_matchings.matchings", lambda a, r: len(r)),
    )
    ov.Overlay.__init__ = w("overlay.Overlay.init", ov.Overlay.__init__)
    cli.trace_bicoloured = ov.trace_bicoloured = w(
        "overlay.trace_bicoloured", ov.trace_bicoloured,
        _add("overlay.trace_bicoloured.arcs", lambda a, r: len(r.arcs)),
    )
    cli.all_bicoloured = ov.all_bicoloured = w("overlay.all_bicoloured", ov.all_bicoloured)
    cli.recolour = ov.recolour = w("overlay.recolour", ov.recolour)
    paths.tableau_to_paths = w("paths.tableau_to_paths", paths.tableau_to_paths)
    ov.family_from_paths = w("paths.family_from_paths", paths.family_from_paths)
    from_json = paths.PathFamily.__dict__["from_json"].__func__
    paths.PathFamily.from_json = classmethod(w("paths.PathFamily.from_json", from_json))
    # peels, strips and point sets, as one layer
    for name in ("build_nu", "peel_complete", "peel_down", "peel_up", "to_points"):
        setattr(ids, name, w("partitions", getattr(ids, name)))
    paths.to_points = w("partitions", paths.to_points)
    point_set = prog.partitions.PointSet
    point_set.partition = w("partitions", point_set.partition)


def layer_metrics(tracer: Tracer, prog, overhead_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass, zero where a layer did no work."""
    counts = tracer.counts
    self_s = tracer.self_times()
    values: dict[str, float] = {}
    for name in SPANS:
        values[name + ".calls"] = counts[name + ".calls"]
        values[name + ".self_s"] = self_s[name]
        values[name + ".errors"] = counts[name + ".errors"]
    for name in COUNTERS:
        values[name] = counts[name]
    info = getattr(prog.schur.skew_schur, "cache_info", None)
    if info is not None:
        ci = info()
        lookups = ci.hits + ci.misses
        values["schur.skew_schur.cache_hit_ratio"] = ci.hits / lookups if lookups else 0.0
    matchings = counts["overlay.enumerate_admissible_matchings.matchings"]
    terms = counts["identities.recolouring_expansion.terms"]
    values["identities.terms_per_matching"] = terms / matchings if matchings else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
