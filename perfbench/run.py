#!/usr/bin/env python3
"""Benchmark of the schurpaths engine.

    python3 perfbench/run.py --workload expand_full --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. One
client, one operation in flight, no threads (a closed loop). The workload's
operations form a pass that is generated once from ``--seed``; the run
repeats the pass, with the ``skew_schur`` cache emptied at its start, while
another pass is expected to end within ``--seconds`` of wall time, so that
every pass does the same work and a faster program only adds passes. Every
result is checked outside the timed region: in full the first time an op
runs, and against that first result on later passes. ``attempted`` counts the distinct ops of
the pass and ``failed`` those of them that failed in any pass.

Times are read against the host's speed of the moment: a fixed reference task
(``reference_work``) is timed before every op and after the last, and each
op's wall time is scaled by ``REF_S`` over the mean of the two reference
times beside it. On a shared machine the speed of one vCPU drifts by half
and more, in spells from a tenth of a second to many minutes; the scaled
times, and medians of them, move far less with it.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the run makes a warm-up pass, an
untraced pass and a traced pass, and reports the per-layer metrics of the
traced one; the spans are written to ``.perfbench_out/`` under the checkout
root. A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # set-ups before the first pass; one more follows each pass
REF_S = 3e-3  # the time to which the reference task's time is scaled

_REF_TERMS = {(i, j, i * j % 5): i + j + 1 for i in range(5) for j in range(5)}
_REF_WIDE = [((i, j, k), i + j + k + 1) for i in range(5) for j in range(4) for k in range(2)]


def _noncrossing(points: tuple[int, ...]):
    """Every non-crossing perfect matching of ``points``, as tuples of pairs."""
    if not points:
        yield ()
        return
    for j in range(1, len(points), 2):
        for inner in _noncrossing(points[1:j]):
            for outer in _noncrossing(points[j + 1 :]):
                yield ((points[0], points[j]),) + inner + outer


def reference_work() -> int:
    """A fixed piece of pure-Python work of the program's own kinds: products
    of sparse polynomials kept as dicts keyed by exponent tuples, bigint
    products, JSON emission, and a recursive generator that enumerates the
    132 non-crossing matchings of 12 points. Each kind tracks the host's
    speed best for one workload; their sum tracks it well for all three. It
    takes 2 to 4 ms on a 2 GHz Xeon vCPU, as the load on the host varies."""
    prod: dict[tuple[int, ...], int] = {}
    for ea, ca in _REF_TERMS.items():
        for eb, cb in _REF_TERMS.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod[e] = prod.get(e, 0) + ca * cb
    wide: dict[tuple[int, ...], int] = {}
    for (a, b, c), ca in _REF_WIDE:
        for (x, y, z), cb in _REF_WIDE:
            e = (a + x, b + 3 * y, c + 7 * z)
            wide[e] = wide.get(e, 0) + ca * cb
    text = json.dumps([[list(e), v] for e, v in wide.items()])
    big = 3**300
    for _ in range(10):
        big = big * big % 7**300
    matchings = sum(1 for _ in _noncrossing(tuple(range(12))))
    return len(prod) + len(text) + matchings + big % 2


def reference_time() -> float:
    """Wall time of one ``reference_work``, with the cyclic collector held off
    so that it reads the host's speed rather than the program's heap."""
    gc.disable()
    t0 = perf_counter()
    reference_work()
    dt = perf_counter() - t0
    gc.enable()
    return dt


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs passes of ``ops`` in order, one op at a time, and judges results."""

    def __init__(self, prog, ops) -> None:
        self.prog = prog
        self.ops = ops
        self.first: list[tuple[bool, object] | None] = [None] * len(ops)
        self.samples: list[list[float]] = [[] for _ in ops]  # per op, one scaled time per pass
        self.wall: list[list[float]] = [[] for _ in ops]  # the same, unscaled
        self.pass_times: list[float] = []
        self.failed: set[int] = set()  # indices of ops that failed in some pass
        self.unexpected: set[int] = set()  # failures other than a negative control passing

    def run_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """One pass over every op; returns the wall time spent inside the ops."""
        self.prog.clear_cache()
        busy = 0.0
        ref = reference_time()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.enabled = True
            error = None
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as a failed op
                error = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            busy += dt
            ref_after = reference_time()
            self.samples[i].append(dt * 2 * REF_S / (ref + ref_after))
            self.wall[i].append(dt)
            ref = ref_after
            if error is not None:
                if not self.unexpected:
                    traceback.print_exception(error, file=sys.stderr)
                self.failed.add(i)
                self.unexpected.add(i)
            elif not self._judge(i, op, result):
                self.failed.add(i)
                if not op.negative_control:
                    self.unexpected.add(i)
        self.pass_times.append(busy)
        return busy

    def _judge(self, i: int, op, result) -> bool:
        fingerprint = op.fingerprint(result)
        if self.first[i] is None:
            try:
                ok = bool(op.check(result))
            except Exception:  # an output the check cannot read is wrong
                ok = False
            self.first[i] = (ok, fingerprint)
            if not ok and not op.negative_control:
                print(f"op {i} ({op.kind}): wrong result", file=sys.stderr)
            return ok
        ok, expected = self.first[i]
        return ok and fingerprint == expected


def set_up(build, spec: dict, workdir: Path):
    """A fresh import of the package plus the program-side set-up: building
    the ops from the generated inputs. Returns the program, the ops and the
    time taken, scaled like an op's time."""
    gc.collect()  # garbage of an earlier copy is not collected inside the timing
    ref = reference_time()
    t0 = perf_counter()
    prog = workloads.Program(ROOT / "src")
    ops = build(prog, spec, workdir)
    dt = perf_counter() - t0
    return prog, ops, dt * 2 * REF_S / (ref + reference_time())


def latencies(samples: list[list[float]]) -> dict[str, float]:
    lat = [statistics.median(s) for s in samples]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    """Each op's latency is the median of its scaled times over the passes.
    Latency quantiles are taken over the ops of a pass; throughput is the
    number of ops over the sum of their latencies."""
    return {
        **latencies(runner.samples),
        "pass_ratio": 1.0 - len(runner.failed) / len(runner.ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; the result line plus what the summary and tests need."""
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp))
    try:
        generate, build = workloads.WORKLOADS[workload]
        # the inputs are generated once, untimed, with a first copy of the program
        spec = generate(workloads.Program(ROOT / "src"), random.Random(seed), workdir)
        digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
        setup_times = []
        for _ in range(SETUP_REPS):
            prog, ops, elapsed = set_up(build, spec, workdir)
            setup_times.append(elapsed)
        runner = Runner(prog, ops)
        if trace:
            runner.run_pass()  # the first pass in a process is slower: the heap still grows
            plain = runner.run_pass()
            tracer = tracing.Tracer()
            tracing.install(prog, tracer)
            prog.tracer = tracer
            traced = runner.run_pass(tracer)
            values = tracing.layer_metrics(tracer, prog, traced - plain)
            units = tracing.metric_units()
            tracer.write(
                ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.json",
                {"workload": workload, "seed": seed, "inputs_sha256": digest},
            )
        else:
            start = perf_counter()
            last = 0.0  # wall time of the latest pass and its set-up
            while perf_counter() - start + last <= seconds or not runner.pass_times:
                t0 = perf_counter()
                runner.run_pass()
                # one more set-up after each pass, so that the median spans the
                # run; its copy of the program is discarded
                setup_times.append(set_up(build, spec, workdir)[2])
                last = perf_counter() - t0
            values = end_to_end(runner, statistics.median(setup_times))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not runner.unexpected,
        "attempted": len(ops),
        "failed": len(runner.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "inputs_sha256": digest,
        "passes": len(runner.pass_times),
        "unscaled": latencies(runner.wall),
        "ops_per_pass": len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schurpaths" / "__init__.py").is_file():
        print(f"error: no schurpaths package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['passes']} passes "
        f"of {result['ops_per_pass']} ops, {result['attempted']} attempted, "
        f"{result['failed']} failed, inputs {result['inputs_sha256'][:12]}",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if not args.trace:
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items())
        print(f"  wall times, unscaled: {unscaled}", file=sys.stderr)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
