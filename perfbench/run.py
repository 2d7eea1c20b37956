"""Run one benchmark workload against the votelab sources of this checkout.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

One process, one closed-loop client: the jobs of a workload run one after
another, each an in-process ``votelab.cli.main([...])`` call or a public
library call.  A pass is one run through the job list; passes repeat until
``--seconds`` is used up, the first of them a warm-up.  Every job's output is
checked by the oracle in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics; ``peak_rss_mb`` comes from a
fresh process that runs one pass alone, without the oracle, its output sent
to ``os.devnull``.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones; the spans of the last traced pass are written to
``.perfbench/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give every metric as ``name value unit``, and
also the raw ``wall_s`` and ``cpu_s`` of a pass, which are not gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A fresh interpreter imports the package and the CLI and builds the
# argument parser, then prints the monotonic clock, which is system-wide.
SETUP_PROBE = (
    "import time, votelab, votelab.cli; votelab.cli.build_parser(); "
    "print(time.monotonic(), votelab.__file__)"
)
SETUP_REPEATS = 25
# Reference timings taken in one pass, at least this many.
REFERENCE_SAMPLES = 24

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    """Per-job wall and CPU seconds of one pass, the reference's wall seconds
    before each job and after the last, and the oracle's verdicts."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def reference() -> int:
    """A fixed pure-Python computation that shares no code with votelab:
    tuples, a dict, a sort with a key function and a JSON dump, 0.25-0.35 ms
    on a 2-vCPU Xeon VM.  Its wall time measures how
    fast the machine runs Python at that moment."""
    table: dict[tuple[int, int, int], int] = {}
    for i in range(400):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
    rows = sorted(table.items(), key=lambda item: (item[0][1], item[1]))
    return len(json.dumps(rows[:50]))


def time_reference(samples: int) -> float:
    """The median wall seconds of ``samples`` back-to-back reference runs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def wall_ref(passes: list[Pass]) -> float:
    """One pass's wall time in units of the reference's wall time, the
    median over the passes.  Each job is set against the mean of the
    reference timings just before and after it, weighted by its own time.
    Neighbours on a shared host slow the machine by up to twice for tens of
    seconds at a time, longer than a run lasts; they slow the jobs and the
    reference alike, so the ratio moves far less than the seconds do."""

    def ratio(p: Pass) -> float:
        around = [(before + after) / 2 for before, after in zip(p.refs, p.refs[1:])]
        wall = sum(p.walls)
        return wall * wall / sum(w * r for w, r in zip(p.walls, around))

    return statistics.median(ratio(p) for p in passes)


def pass_seconds(passes: list[Pass], attr: str) -> float:
    """One pass's seconds: the sum over jobs of each job's fastest time in
    the run."""
    per_job = zip(*(getattr(p, attr) for p in passes))
    return sum(min(times) for times in per_job)


def setup_sample() -> float:
    """Seconds from the start of a fresh interpreter to an imported CLI with
    its parser.  ``setup_s`` is the fastest of ``SETUP_REPEATS`` samples
    spread over the run: the program is deterministic and other tenants of
    the machine only ever add time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    ready, module_file = out.stdout.split(maxsplit=1)
    if Path(module_file.strip()).resolve().parent.parent != SRC:
        raise RuntimeError(f"set-up probe imported votelab from {module_file.strip()}")
    return float(ready) - started


def measure_peak_rss(workload: str, seed: int, tiny: bool) -> float:
    """Peak resident MB of a fresh process that builds the workload's jobs
    and runs one pass of them alone: no oracle, output to ``os.devnull``.
    Run in the directory that holds the family files."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--peak-rss-probe"] + (["--tiny"] if tiny else [])
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"peak-rss probe exited with status {status}")
    return usage.ru_maxrss / 1024


def probe_pass(workload: str, seed: int, tiny: bool) -> None:
    """The body of the peak-rss probe: one pass of the jobs, nothing kept."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for job in workloads.build(workload, seed, tiny):
            job.run(sink)


def run_pass(jobs, expected, tracer=None) -> Pass:
    gc.collect()
    result = Pass()
    refs_per_gap = -(-REFERENCE_SAMPLES // (len(jobs) + 1))
    for job in jobs:
        result.refs.append(time_reference(refs_per_gap))
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                code, text = job.run()
            else:
                with tracer.job_span(job.key):
                    code, text = job.run()
        except Exception:  # a crashing job is a failed job; the run goes on
            code, text, crash = None, "", traceback.format_exc(limit=3)
        else:
            crash = None
        result.walls.append(time.perf_counter() - wall0)
        result.cpus.append(time.process_time() - cpu0)
        problems = [crash] if crash else workloads.verify(job, code, text, expected)
        if problems:
            result.failed += 1
            result.problems += [f"{job.key}: {p}" for p in problems]
    result.refs.append(time_reference(refs_per_gap))
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    expected = json.loads((HERE / "expected_sha256.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        os.chdir(work)  # family files are written here and named relative to it
        try:
            jobs = workloads.build(workload, seed, tiny)
            plain: list[Pass] = []
            traced: list[tuple[Pass, spans.Tracer]] = []
            setups: list[float] = []
            started = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                plain.append(run_pass(jobs, expected))
                if trace:
                    tracer = spans.Tracer()
                    with spans.instrument(tracer):
                        traced.append((run_pass(jobs, expected, tracer), tracer))
                elif len(setups) * seconds < SETUP_REPEATS * (time.perf_counter() - started):
                    setups.append(setup_sample())
                now = time.perf_counter()
                if now - started + (now - round_start) > seconds:
                    break
            if not trace:
                setups += [setup_sample() for _ in range(SETUP_REPEATS - len(setups))]
                peak_rss_mb = measure_peak_rss(workload, seed, tiny)
        finally:
            os.chdir(here)

    passes = plain + [p for p, _ in traced]
    attempted = sum(len(p.walls) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    timed = plain[1:] or plain  # the first pass warms caches and lazy imports
    wall = pass_seconds(timed, "walls")
    print(f"workload {workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes of {len(jobs)} jobs")
    print(f"failed_share {failed / attempted} ({failed} of {attempted} jobs)")
    if trace:
        metrics, unstable = layer_summary([t for _, t in traced])
        metrics["trace.overhead_s"] = pass_seconds([p for p, _ in traced], "walls") - wall
        units = {**spans.LAYER_UNITS, "trace.overhead_s": "s"}
        problems += [f"count {name} differs between traced passes" for name in unstable]
        traced[-1][1].dump(str(out_dir / f"trace-{workload}-{seed}.json"),
                           {"workload": workload, "seed": seed})
    else:
        metrics = {
            "wall_ref": wall_ref(timed),
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"wall_s {wall} s")
        print(f"cpu_s {pass_seconds(timed, 'cpus')} s")
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def layer_summary(tracers) -> tuple[dict, list[str]]:
    """The per-layer times, each its least value over the traced passes, and
    the counts, which must be the same in every pass."""
    per_pass = [t.layer_metrics() for t in tracers]
    metrics, unstable = {}, []
    for name, unit in spans.LAYER_UNITS.items():
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = min(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    return metrics, unstable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="only the cheap jobs, for the benchmark's own tests")
    parser.add_argument("--peak-rss-probe", action="store_true",
                        help="run one unchecked, unmeasured pass and print nothing")
    args = parser.parse_args(argv)
    if not (SRC / "votelab" / "__init__.py").is_file():
        print(f"error: no votelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.peak_rss_probe:
        probe_pass(args.workload, args.seed, args.tiny)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
