"""Run workloads in fresh processes and print every metric by name, per workload.

    python3 perfbench/table.py                      # all workloads, one seed
    python3 perfbench/table.py --seeds 10 --workloads audit,arrow
    python3 perfbench/table.py --trace 1            # per-layer metrics

Besides the metrics of the result line, it shows every other ``name value
unit`` line a run prints, such as the raw ``wall_s`` and ``cpu_s``.
For each metric it prints the median over the seeds, the first and third
quartile (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median: the run-to-run spread that must stay within the
metric's bound in ``BENCHMARK.json``.  ``failed_share`` is failed jobs over
attempted jobs, summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT
from workloads import WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result object of one run, its metrics joined by every other
    ``name value unit`` line the run printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.stderr:
        sys.stderr.write(out.stderr)
    *lines, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    for line in lines:
        fields = line.split()
        if len(fields) != 3 or fields[0] in result["metrics"]:
            continue
        try:
            result["metrics"][fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
        except ValueError:
            continue
    return result


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in range(args.first_seed, args.first_seed + args.seeds)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        print(f"== {workload}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.seeds - 1}")
        print(f"  {'failed_share':34} {failed / attempted:>14.6g} share"
              f"   ({failed} of {attempted} jobs)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name:34} {median:>14.6g} {first['unit']:6}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
                line += f" q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:.4f}"
                if bounds.get(name) is not None:
                    line += f" (bound {bounds[name]})"
                line += "\n    runs: " + " ".join(f"{v:.6g}" for v in values)
            print(line, flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
