#!/usr/bin/env python3
"""entdist benchmark: sweep throughput, set-up time and memory, with every row checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-presets --seed 1 --seconds 30 --trace 0

One caller runs the workload's scenarios one after another through the public
library API (a closed loop, one thread), then emits each scenario's rows as
CSV and JSON. Passes over the whole workload repeat until --seconds is spent.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
tracing. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see spans.py).

Every row of the first pass is checked (check.py); later passes must repeat
its rows and emitted bytes exactly. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Run details and
provenance go to .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 7


@dataclass
class Pass:
    traced: bool
    wall_s: float
    scenario_s: list[float]
    points: int
    swap_s: float
    # Per scenario: (rows, csv, json) or the exception raised. Per (J, i):
    # (J, i, perfect budget, imperfect budget, chain factor) or the exception.
    # Only the first pass keeps them; later passes are compared with it and
    # keep the number of points that did not repeat.
    outputs: list[Any] | None
    swaps: list[Any] | None
    unrepeated: int = 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced size: {workloads.SMOKE_ROUNDS} rounds per Monte Carlo point, "
                             "one set-up sample")
    return parser.parse_args(argv)


def import_entdist() -> Any:
    """Import entdist from this checkout's src/ and nowhere else."""
    if not (SRC / "entdist" / "__init__.py").is_file():
        sys.exit(f"run.py: no entdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entdist

    if SRC not in Path(entdist.__file__).resolve().parents:
        sys.exit(f"run.py: imported entdist from {entdist.__file__}, not from {SRC}")
    return entdist


def measure_setup(args: argparse.Namespace) -> float:
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
               "1" if args.smoke else "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_pass(entdist: Any, workload: workloads.Workload, traced: bool) -> Pass:
    harness, swapping = entdist.harness, entdist.swapping
    outputs: list[Any] = []
    scenario_s: list[float] = []
    swaps: list[Any] = []
    start = time.perf_counter()
    for spec in workload.scenarios:
        began = time.perf_counter()
        try:
            rows = harness.run_scenario(spec.source, overrides=spec.overrides, seed=spec.seed,
                                        rounds=spec.rounds, with_mc=spec.with_mc)
            out: Any = (rows, harness.rows_to_csv(rows), harness.rows_to_json(rows))
        except Exception as exc:  # noqa: BLE001 - a failed scenario is counted, not fatal
            out = exc
        scenario_s.append(time.perf_counter() - began)
        outputs.append(out)
    began = time.perf_counter()
    for J, links in workload.swap_grid:
        try:
            params = swapping.SwapParams(J=J, p_BSA=workloads.SWAP_P_BSA,
                                         p_pass=workloads.SWAP_P_PASS,
                                         p_AFC=workloads.SWAP_P_AFC, i=links)
            swaps.append((J, links, swapping.swap_budget(params, "perfect"),
                          swapping.swap_budget(params, "imperfect"),
                          swapping.chain_factor(params)))
        except Exception as exc:  # noqa: BLE001
            swaps.append(exc)
    end = time.perf_counter()
    points = sum(len(out[0]) for out in outputs if isinstance(out, tuple))
    return Pass(traced, end - start, scenario_s, points, end - began, outputs, swaps)


def forget_repeated(done: Pass, first: Pass, built: list[Any]) -> None:
    """Count what `done` failed to repeat from `first`, then drop its outputs."""
    for scenario, out, reference in zip(built, done.outputs, first.outputs):
        if not (isinstance(out, tuple) and isinstance(reference, tuple) and out == reference):
            done.unrepeated += len(scenario.points)
    done.unrepeated += sum(a != b for a, b in zip(done.swaps, first.swaps))
    done.outputs = done.swaps = None


def measure(entdist: Any, workload: workloads.Workload, built: list[Any], seconds: float,
            tracer: Tracer | None, setup: Callable[[], float], setup_repeats: int,
            ) -> tuple[list[Pass], list[dict[str, float]], list[float]]:
    """Passes until `seconds` is spent; with a tracer, untraced and traced alternate.

    The set-up samples are spread evenly over the run, between passes, so
    that their median sees the same drift in the host's speed as the passes.
    """
    passes: list[Pass] = []
    layer_samples: list[dict[str, float]] = []
    setup_samples: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        while (len(setup_samples) < setup_repeats
               and time.perf_counter() - start >= len(setup_samples) * seconds / setup_repeats):
            setup_samples.append(setup())
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                done = run_pass(entdist, workload, traced=True)
            finally:
                tracer.remove()
            layer_samples.append(layer_metrics(tracer.summarize(), tracer.counts, done.wall_s,
                                               done.points, tracer.absent))
        else:
            done = run_pass(entdist, workload, traced=False)
        if passes:
            forget_repeated(done, passes[0], built)
        passes.append(done)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() + done.wall_s > deadline:
            while len(setup_samples) < setup_repeats:
                setup_samples.append(setup())
            return passes, layer_samples, setup_samples


def check_passes(workload: workloads.Workload, passes: list[Pass],
                 built: list[Any]) -> tuple[int, int, dict[str, Any]]:
    """(attempted, failed, details) over every pass of the run."""
    import check

    first = passes[0]
    n_mc = sum(
        1 for spec, out in zip(workload.scenarios, first.outputs)
        if spec.with_mc and isinstance(out, tuple) for row in out[0] if row.feasible
    )
    checker = check.Checker(workload.name, n_mc)
    failed_first = 0
    for spec, scenario, out in zip(workload.scenarios, built, first.outputs):
        if not isinstance(out, tuple):
            checker.fail(f"{spec.name}: {type(out).__name__}: {out}")
            failed_first += len(scenario.points)
            continue
        rows, csv_text, json_text = out
        failed_first += checker.scenario(spec.name, spec.seed, scenario.points, rows,
                                         scenario.mc.n_rounds, spec.with_mc, csv_text, json_text)
    swap_ok = [s for s in first.swaps if isinstance(s, tuple)]
    failed_swaps = len(first.swaps) - len(swap_ok) + check.check_swaps(swap_ok)
    if failed_swaps:
        checker.fail(f"{failed_swaps} swapping evaluations differ from the closed forms")
    unrepeated = sum(p.unrepeated for p in passes)
    if unrepeated:
        checker.fail(f"{unrepeated} points or swapping evaluations did not repeat the first pass")

    per_pass = sum(len(s.points) for s in built) + len(workload.swap_grid)
    details = {
        "failed_first_pass": failed_first + failed_swaps,
        "monte_carlo_points": n_mc,
        "worst_z_true_variance": checker.worst_z,
        "min_chernoff_pvalue": checker.min_pvalue,
        "pvalue_threshold": checker.threshold,
        "notes": checker.notes,
    }
    return per_pass * len(passes), failed_first + failed_swaps + unrepeated, details


def run_probes(entdist: Any, workload: workloads.Workload) -> tuple[int, list[str]]:
    """Failed L = 0 probes: anything but a named error or a finite rate >= 0."""
    named = (entdist.ConfigError, entdist.ParameterError)
    failed, outcomes = 0, []
    for spec in workload.probes:
        try:
            rows = entdist.harness.run_scenario(spec.source, overrides=spec.overrides,
                                                seed=spec.seed, with_mc=spec.with_mc)
        except named as exc:
            outcomes.append(f"{spec.name}: {type(exc).__name__}")
            continue
        except Exception as exc:  # noqa: BLE001 - the probe reports it
            outcomes.append(f"{spec.name}: {type(exc).__name__}")
            failed += 1
            continue
        ok = all(isinstance(r.analytic_rate, float) and 0.0 <= r.analytic_rate < float("inf")
                 for r in rows)
        outcomes.append(f"{spec.name}: {'finite' if ok else 'bad rate'}")
        failed += not ok
    return failed, outcomes


def provenance(args: argparse.Namespace, workload: workloads.Workload, built: list[Any],
               first: Pass) -> dict[str, Any]:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "entdist").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "points_per_pass": first.points,
        "rounds_per_pass": sum(
            scenario.mc.n_rounds for scenario, out in zip(built, first.outputs)
            if isinstance(out, tuple) for row in out[0] if row.mc_rate is not None
        ),
        "swap_evaluations_per_pass": len(workload.swap_grid),
        "l0_probes": len(workload.probes),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.build(args.workload, args.seed, args.smoke)
    entdist = import_entdist()

    built = [
        entdist.harness.build_scenario(spec.source, overrides=spec.overrides,
                                       seed=spec.seed, rounds=spec.rounds)
        for spec in workload.scenarios
    ]
    tracer = Tracer() if args.trace else None
    setup_repeats = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    passes, layer_samples, setup_samples = measure(
        entdist, workload, built, args.seconds, tracer,
        functools.partial(measure_setup, args), setup_repeats)
    # Read before the checks, whose parse of the emitted JSON would count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, details = check_passes(workload, passes, built)
    probe_failed, probe_outcomes = run_probes(entdist, workload)

    plain = [p for p in passes if not p.traced]
    measured: dict[str, float] = {}
    if args.trace:
        for name in layer_samples[0]:
            measured[name] = statistics.median(sample[name] for sample in layer_samples)
        traced_wall = min(p.wall_s for p in passes if p.traced)
        measured["trace.overhead_frac"] = traced_wall / min(p.wall_s for p in plain) - 1
        first_rows = [row for out in passes[0].outputs if isinstance(out, tuple) for row in out[0]]
        measured["harness.points"] = len(first_rows)
        measured["harness.infeasible_points"] = sum(not row.feasible for row in first_rows)
        points_and_probes = len(first_rows) + len(workload.probes)
        measured["failed_frac"] = (details["failed_first_pass"] + probe_failed) / points_and_probes
        wanted = spec_doc["per_layer"]
    else:
        # Best of the passes, scenario by scenario: the host's speed drifts
        # by up to 1.8x in phases of ten seconds or more, and the best time
        # is the one least disturbed by that drift.
        best = [min(times) for times in zip(*(p.scenario_s for p in plain))]
        best_swaps = min(p.swap_s for p in plain)
        measured["points_per_s"] = plain[0].points / (sum(best) + best_swaps)
        measured["slowest_scenario_s"] = max(best)
        measured["setup_s"] = statistics.median(setup_samples)
        measured["peak_rss_mb"] = peak_rss_mb
        wanted = spec_doc["end_to_end"]

    metrics = {}
    for entry in wanted:
        if entry["name"] in measured:
            metrics[entry["name"]] = {"value": measured[entry["name"]], "unit": entry["unit"]}
        else:
            print(f"run.py: metric {entry['name']} is absent "
                  f"(library names not found: {tracer.absent if tracer else []})", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")
    record = {
        "provenance": provenance(args, workload, built, passes[0]),
        "metrics": metrics,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "points": p.points, "swap_s": p.swap_s,
             "scenario_s": dict(zip((spec.name for spec in workload.scenarios), p.scenario_s))}
            for p in passes
        ],
        "setup_s_samples": setup_samples,
        "check": details,
        "l0_probes": {"failed": probe_failed, "outcomes": probe_outcomes},
        "layer_samples": layer_samples,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} passes {len(passes)}, attempted {attempted}, failed {failed}, "
          f"L=0 probes failed {probe_failed}/{len(workload.probes)}")
    for note in details["notes"]:
        print(f"{args.workload} check: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
