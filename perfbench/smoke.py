"""Reduced-size run of every workload, traced and untraced.

Checks that each run exits 0, that its last stdout line has exactly the keys
correct, attempted, failed and metrics, that every run is correct with no
failed operation, and that every metric BENCHMARK.json names for that mode
is present with its unit. From the repository root:

    python3 perfbench/smoke.py

Takes about a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [*spec["command"], "--workload", workload["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload['name']} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{label}: {metric['name']} = {got}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
