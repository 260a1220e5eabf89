"""Run-to-run spread of the end-to-end metrics over several workload seeds.

For each workload, runs the benchmark once per seed (one after another) and
prints, per end-to-end metric, the median, the quartile spread (Q3 - Q1) as a
share of the median, and whether that spread is below a third of the
metric's bound in BENCHMARK.json. From the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload mc-short ...]

Exits 1 if any run is incorrect or any spread (setup_s excepted) is not below
a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                  flush=True)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3
            ok &= steady or metric["name"] == "setup_s"
            print(f"{workload} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"spread {spread:.4f} (bound/3 = {metric['bound'] / 3:.4f}) "
                  f"{'steady' if steady else 'NOT STEADY'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
