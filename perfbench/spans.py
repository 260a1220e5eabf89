"""Spans and counts recorded from outside the library, around calls into it.

The tracer replaces public functions of the entdist modules with wrappers
that record a span (name, start, end, parent) or bump a counter. A function
is replaced under every module attribute bound to it, so calls between
modules (harness -> montecarlo -> analytic -> params) are seen wherever they
go through a module global. Spans stay in memory; the benchmark summarises
them after each traced pass and writes the last pass out at the end.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Layer boundaries that get a span. Only names the library keeps are listed.
SPANS = (
    ("harness", "build_scenario"),
    ("harness", "run_scenario"),
    ("harness", "rows_to_csv"),
    ("harness", "rows_to_json"),
    ("montecarlo", "estimate_rate"),
    ("montecarlo", "simulate_rounds"),
    ("montecarlo", "subseed"),
    ("montecarlo", "rng_for_seed"),
    ("analytic", "analytic_rate"),
    ("analytic", "trials_per_round"),
    ("analytic", "round_time"),
    ("analytic", "feasibility_check"),
    ("swapping", "swap_budget"),
    ("swapping", "chain_factor"),
)
# Called too often for a span to be cheap; counted only.
COUNTS = (("params", "derive_probs"),)

ANALYTIC_SPANS = tuple(f"analytic.{attr}" for module, attr in SPANS if module == "analytic")
EMIT_SPANS = ("harness.rows_to_csv", "harness.rows_to_json")


class Tracer:
    """Installs and removes the wrappers; holds the spans of the current pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[Any] = []      # (name index, start ns, end ns, parent span index)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        for module, attr in SPANS:
            self._patch(module, attr, self._span_wrapper)
        for module, attr in COUNTS:
            self._patch(module, attr, self._count_wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make: Callable[[str, Any], Any]) -> None:
        name = f"{module}.{attr}"
        home = sys.modules.get(f"entdist.{module}")
        original = getattr(home, attr, None)
        if not callable(original):
            if name not in self.absent:
                self.absent.append(name)
            return
        wrapper = make(name, original)
        for mod_name, owner in list(sys.modules.items()):
            if mod_name != "entdist" and not mod_name.startswith("entdist."):
                continue
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def _span_wrapper(self, name: str, fn: Any) -> Any:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts
        # Rounds are read off the estimate, so the count holds whichever
        # sampler estimate_rate uses internally.
        count_rounds = name == "montecarlo.estimate_rate"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count_rounds:
                counts["montecarlo.rounds_simulated"] += result.n_rounds
            return result

        return traced

    def _count_wrapper(self, name: str, fn: Any) -> Any:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self nanoseconds; plus root time."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in self.names
        }
        root_ns = 0
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["incl_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
            if parent < 0:
                root_ns += end - start
        stats["<root>"] = {"calls": 0, "incl_ns": root_ns, "self_ns": 0}
        return stats

    def write_spans(self, path: Path) -> None:
        """The current pass's spans as gzipped CSV: name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for name_id, start, end, parent in self.spans:
                handle.write(f"{self.names[name_id]},{start},{end},{parent}\n")


def layer_metrics(
    stats: dict[str, dict[str, float]],
    counts: dict[str, int],
    wall_s: float,
    points: int,
    absent: list[str],
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (absent names are left out)."""
    wall_ns = wall_s * 1e9
    metrics: dict[str, float] = {}

    def self_ms(name: str) -> None:
        if name in stats:
            metrics[f"{name}.self_ms"] = stats[name]["self_ns"] / 1e6

    def us_per_call(name: str) -> None:
        if name in stats:
            calls = stats[name]["calls"]
            metrics[f"{name}.us_per_call"] = stats[name]["incl_ns"] / calls / 1e3 if calls else 0.0

    for name in ("montecarlo.simulate_rounds", "montecarlo.estimate_rate",
                 "montecarlo.subseed", "montecarlo.rng_for_seed", *ANALYTIC_SPANS,
                 "harness.build_scenario", "harness.run_scenario", *EMIT_SPANS):
        self_ms(name)
    us_per_call("swapping.swap_budget")
    us_per_call("swapping.chain_factor")

    rounds = counts.get("montecarlo.rounds_simulated", 0)
    if "montecarlo.estimate_rate" in stats:
        estimate_ns = stats["montecarlo.estimate_rate"]["incl_ns"]
        metrics["montecarlo.rounds_simulated"] = rounds
        metrics["montecarlo.rounds_per_s"] = rounds / (estimate_ns / 1e9) if estimate_ns else 0.0
        metrics["montecarlo.self_frac"] = sum(
            entry["self_ns"] for name, entry in stats.items() if name.startswith("montecarlo.")
        ) / wall_ns
    present = [name for name in ANALYTIC_SPANS if name in stats]
    if present:
        analytic_ns = sum(stats[name]["self_ns"] for name in present)
        metrics["analytic.point_us"] = analytic_ns / points / 1e3
        metrics["analytic.self_frac"] = analytic_ns / wall_ns
    if all(name in stats for name in EMIT_SPANS):
        metrics["harness.emit_frac"] = sum(stats[name]["self_ns"] for name in EMIT_SPANS) / wall_ns
    if "params.derive_probs" not in absent:
        calls = counts.get("params.derive_probs", 0)
        metrics["params.derive_probs.calls"] = calls
        metrics["params.derive_probs.calls_per_point"] = calls / points
    metrics["trace.coverage_frac"] = stats["<root>"]["incl_ns"] / wall_ns
    return metrics
