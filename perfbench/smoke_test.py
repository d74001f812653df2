#!/usr/bin/env python3
"""Smoke test of the campaign benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at minimum size (see MIN_REPS; a 1-second window),
untraced and traced, and checks that every metric BENCHMARK.json
names is printed with its unit, that no episode failed, and that the
traced run confirms the predictions the benchmark is built on. Exits 1
if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Episodes per ledger at minimum size. xplat-fanout needs more episodes
# than worker threads per ledger, or its episodes never fan out.
MIN_REPS = {"mine-matrix": 1, "xplat-fanout": 16, "store-resume": 1}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1000", "--seconds", "1", "--trace",
           str(trace), "--reps", str(MIN_REPS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            problems = []
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"failed {result['failed']} of "
                                f"{result['attempted']}")
            if not any(l.startswith("[result] failed_frac = 0 ")
                       for l in lines):
                problems.append("failed_frac is not printed as 0")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"missing {m['name']}")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{m['name']} unit {got['unit']} != "
                                    f"{m['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"unlisted metrics {sorted(extra)}")
            if trace:
                mx = result["metrics"]
                queued = mx["batched_queue.requests"]["value"]
                if (queued > 0) != (workload == "xplat-fanout"):
                    problems.append(f"batched_queue.requests = {queued}")
                if mx["sweep.resume_episodes_executed"]["value"] != 0:
                    problems.append("resumed pass executed episodes")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload:14s} trace={trace} {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
