"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _deterministic(metrics: dict) -> dict:
    """Every per-layer value that is a count or a ratio of counts, not a time."""
    return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = bench.run(workload, seed=7, seconds=0.01, trace=False)
    assert result["correct"]
    assert result["attempted"] == result["ops_per_pass"] >= 104
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_inputs(workload):
    a = bench.run(workload, seed=11, seconds=0.01, trace=True)
    b = bench.run(workload, seed=11, seconds=0.01, trace=True)
    assert {k: m["unit"] for k, m in a["metrics"].items()} == _units("per_layer")
    assert a["inputs_sha256"] == b["inputs_sha256"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert _deterministic(a["metrics"]) == _deterministic(b["metrics"])
    counts = a["metrics"]
    tableau_work = counts["tableaux.enumerate_ssyt.yielded"]["value"]
    mul_work = counts["schur.Polynomial.mul.term_pairs"]["value"]
    bareiss_work = counts["schur.bareiss_determinant.calls"]["value"]
    if workload == "expand_full":
        assert tableau_work > 0 and mul_work > 0 and bareiss_work == 0
    else:
        assert tableau_work == 0 and mul_work == 0


def test_other_seed_gives_other_inputs():
    prog = workloads.Program(BENCH.parent / "src")
    generate, _ = workloads.WORKLOADS["verify_points"]
    specs = [generate(prog, random.Random(seed), BENCH) for seed in (1, 2)]
    assert specs[0] != specs[1]


def _runner(workload: str, ops_spec: list) -> "bench.Runner":
    prog = workloads.Program(BENCH.parent / "src")
    _, build = workloads.WORKLOADS[workload]
    return bench.Runner(prog, build(prog, {"ops": ops_spec}, BENCH))


def test_wrong_result_is_a_failure():
    runner = _runner("expand_full", [["compute", "2,1/", 2, [3, 5]], ["compute", "2/", 2, [1, 2]]])

    def wrong_run():
        rc, out = runner.prog.cli_run(["compute", "--shape", "2,1/", "--vars", "2"])
        obj = json.loads(out)
        obj["polynomial"]["terms"][0]["coeff"] = "2"
        return rc, json.dumps(obj)

    runner.ops[0].run = wrong_run
    runner.run_pass()
    runner.run_pass()
    metrics = bench.end_to_end(runner, setup_s=1.0)
    assert (runner.failed, runner.unexpected) == ({0}, {0})
    assert metrics["pass_ratio"] == 0.5


def test_result_differing_from_the_first_pass_is_a_failure():
    runner = _runner("expand_full", [["compute", "2,1/", 2, [3, 5]]])
    runner.run_pass()
    runner.ops[0].run = lambda: runner.prog.cli_run(["compute", "--shape", "2/", "--vars", "2"])
    runner.run_pass()
    assert (runner.failed, runner.unexpected) == ({0}, {0})


def test_false_pass_of_negative_control_is_counted_but_expected():
    runner = _runner("verify_points", [["false", 3]])
    ids = runner.prog.identities

    def verify_that_always_passes(identity, method, points, seed):
        return ids.VerificationReport(method, points, seed, "pass", None, 0, 0.0)

    ids.verify_identity = verify_that_always_passes
    runner.run_pass()
    assert (runner.failed, runner.unexpected) == ({0}, set())


def test_failures_of_verify_points_do_not_depend_on_the_seed():
    a = bench.run("verify_points", seed=1, seconds=0.01, trace=False)
    b = bench.run("verify_points", seed=2, seconds=0.01, trace=False)
    assert a["inputs_sha256"] != b["inputs_sha256"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert a["correct"] and a["failed"] > 0


def test_without_package_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--workload", "recolour", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
