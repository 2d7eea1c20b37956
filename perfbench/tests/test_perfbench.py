"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((HERE / "expected_sha256.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as path:
        os.chdir(path)
        try:
            yield path
        finally:
            os.chdir(here)


def traced_pass(workload: str, seed: int = 1) -> spans.Tracer:
    jobs = workloads.build(workload, seed, tiny=True)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = run.run_pass(jobs, EXPECTED, tracer)
    assert result.failed == 0, result.problems
    return tracer


def test_benchmark_json_lists_every_metric():
    assert [m["name"] for m in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCH["per_layer"]] == [*spans.LAYER_UNITS, "trace.overhead_s"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_tiny(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCH[kind]]


def test_seed_fixes_the_inputs(workdir):
    keys = [job.key for job in workloads.build("audit", 7)]
    assert keys == [job.key for job in workloads.build("audit", 7)]
    assert any(keys != [job.key for job in workloads.build("audit", s)] for s in range(8, 12))


def test_every_drawable_job_has_a_recorded_hash(workdir):
    for workload in workloads.WORKLOADS:
        for seed in range(1, 6):
            for job in workloads.build(workload, seed):
                assert job.key in EXPECTED


def test_oracle_rejects_an_altered_document(workdir):
    job = next(j for j in workloads.build("enumerate", 1, tiny=True) if "--with-c6" in j.key)
    code, text = job.run()
    assert workloads.verify(job, code, text, EXPECTED) == []
    assert workloads.verify(job, 1, text, EXPECTED)
    assert workloads.verify(job, code, text.replace('"a"', '"_"', 1), EXPECTED)
    assert workloads.verify(job, code, text.replace("\n", "\n ", 1), EXPECTED) == [
        "output differs from the recorded sha256"]
    assert workloads.verify(job, code, "", EXPECTED)


def test_oracle_rejects_a_wrong_verdict(workdir):
    job = next(j for j in workloads.build("arrow", 1, tiny=True) if j.key == "check_a3 borda")
    code, text = job.run()
    assert workloads.verify(job, code, text, EXPECTED) == []
    job.run()
    assert workloads.verify(job, code, text.replace('"fail"', '"pass"'), EXPECTED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest_with_nonnegative_self_times(workload, workdir):
    tracer = traced_pass(workload)
    start, end, parent, job = tracer.start, tracer.end, tracer.parent, tracer.job
    assert len(start) > len(tracer.jobs)
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p < 0:
            assert tracer.names[tracer.name[i]] == "job"
        else:
            assert p < i and start[p] <= start[i] and end[i] <= end[p]
            assert job[i] == job[p]
    assert min(tracer.self_times()) >= -1e-9


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload, workdir):
    first, second = (traced_pass(workload).layer_metrics() for _ in range(2))
    counts = [n for n, unit in spans.LAYER_UNITS.items() if unit != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert any(first[n] for n in counts)


def test_instrumentation_is_removed_afterwards(workdir):
    from votelab import axioms, cli, core, rules

    before = (cli.main, axioms.check_c2, rules.signatures_up_to, core.profiles_of_size,
              rules.PureMajorityRule.evaluate, rules.TabulatedFamily.__init__)
    traced_pass("crosscheck")
    assert before == (cli.main, axioms.check_c2, rules.signatures_up_to, core.profiles_of_size,
                      rules.PureMajorityRule.evaluate, rules.TabulatedFamily.__init__)


def test_layers_that_do_no_work_read_zero(workdir):
    metrics = traced_pass("arrow").layer_metrics()
    assert metrics["arrow.survivors"] == 136
    assert metrics["rules.evaluate.calls"] == metrics["core.profiles_generated"] == 0
    metrics = traced_pass("audit").layer_metrics()
    assert metrics["rules.evaluate.calls"] > metrics["axioms.profiles_checked"] > 0
    assert metrics["arrow.sorted_profiles.calls"] == metrics["core.signatures_up_to.calls"] == 0


def test_arrow_checkers_are_traced(workdir):
    tracer = traced_pass("arrow")
    stats = tracer.by_name()
    for checker in spans.ARROW_CHECKERS:
        assert stats[f"arrow.{checker}"][0] > 0
    assert tracer.layer_metrics()["arrow.checkers.self_s"] > stats["arrow.find_dictator"][2]


def test_wall_ref_does_not_move_with_machine_speed():
    passes = [run.Pass(walls=[0.2, 0.4], refs=[0.001, 0.001, 0.001]),
              run.Pass(walls=[0.3, 0.5], refs=[0.001, 0.002, 0.003]),
              run.Pass(walls=[0.25, 0.4], refs=[0.002, 0.002, 0.002])]
    slowed = [run.Pass(walls=[2 * w for w in p.walls], refs=[2 * r for r in p.refs])
              for p in passes]
    # 0.8 s against 0.0015 s over the first job and 0.0025 s over the second
    assert run.wall_ref(passes) == pytest.approx(0.8 / ((0.3 * 0.0015 + 0.5 * 0.0025) / 0.8))
    assert run.wall_ref(slowed) == pytest.approx(run.wall_ref(passes))
    assert run.pass_seconds(slowed, "walls") == pytest.approx(2 * run.pass_seconds(passes, "walls"))
