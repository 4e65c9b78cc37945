"""Self-test of the benchmark on tiny cohorts (n=300); takes about a minute.

Usage (from the root of a checkout):

    python3 bench/selftest.py

For every workload it runs bench/run.py once with --trace 0 and twice
with --trace 1, and checks that each run is correct, that the metrics
are exactly those BENCHMARK.json names, each with its unit, and that the
traced counts repeat exactly between the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    if names != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} != "
                        f"{sorted(WORKLOADS)}")
    for workload in sorted(names):
        results = [run(workload, 0), run(workload, 1), run(workload, 1)]
        for i, res in enumerate(results):
            trace = min(i, 1)
            where = f"{workload} trace={trace}"
            if not res["correct"] or res["failed"]:
                problems.append(f"{where}: correct={res['correct']} "
                                f"failed={res['failed']}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{where}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(units[trace]))}"
                                f" or units")
        counts = [{k: m["value"] for k, m in res["metrics"].items()
                   if m["unit"] == "count"} for res in results[1:]]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ: {counts}")
        print(f"{workload}: checked {len(results)} runs, "
              f"{len(counts[0])} counts repeat", flush=True)
    for problem in problems:
        print("FAILED " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
