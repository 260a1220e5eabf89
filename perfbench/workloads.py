"""The benchmark's workloads, generated from the workload seed alone.

Each workload is a list of scenarios that the benchmark passes to
`entdist.harness.run_scenario` one after another (a closed loop with a single
caller). The workload seed only chooses the Monte Carlo master seed of each
scenario; the sweep grids are fixed, so the analytic columns can be pinned.

* mc-presets: the nine figure presets at their default round counts. Almost
  all the time is Monte Carlo sampling.
* mc-short: all five schemes over L = 1..200 km at 2,000 rounds per point.
  Sampling is cheap, so per-point costs (seeding, generator construction,
  statistics, emission) dominate. Includes 66 infeasible AFC points.
* analytic-dense: all five schemes over L = 0.5..200 km at nine p_m values,
  closed forms only, plus a swapping grid. No sampling happens here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

PRESETS = ("fig2a", "fig2b", "fig2c", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b")
SCHEMES = ("mm", "sr", "ms", "afc-mm", "afc-ms")

SHORT_L_KM = [float(km) for km in range(1, 201)]
SHORT_P_M = [0.02, 0.5, 1.0]
SHORT_ROUNDS = 2_000
# The optimistic comb: 1060 temporal modes with unit absorption.
SHORT_AFC = {"afc.N_AFC": 1060, "afc.p_AFC": 1.0}

DENSE_L_KM = [0.5 * step for step in range(1, 401)]
# p_m >= 0.05 keeps every L = 0 AFC budget below the rephasing cap, so all 45
# L = 0 probes reach the uncapped closed forms.
DENSE_P_M = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0]
SWAP_J = range(1, 201)
SWAP_LINKS = range(1, 11)
# Swapping inputs; the re-emission probability is left to default to p_AFC.
SWAP_P_BSA, SWAP_P_PASS, SWAP_P_AFC = 0.32, 0.9, 0.53

# Rounds per point for every Monte Carlo scenario of a reduced-size run.
SMOKE_ROUNDS = 1_000

WORKLOADS = ("mc-presets", "mc-short", "analytic-dense")


@dataclass(frozen=True)
class ScenarioSpec:
    """Arguments of one run_scenario call."""

    name: str
    source: str
    overrides: dict[str, Any] | None
    seed: int
    rounds: int | None
    with_mc: bool


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[ScenarioSpec, ...]
    # (J, i) pairs evaluated with swap_budget under both heraldings and chain_factor.
    swap_grid: tuple[tuple[int, int], ...] = ()
    # One-point L = 0 scenarios, run once outside the timed passes.
    probes: tuple[ScenarioSpec, ...] = ()


def _series(scheme: str, L_km: Any, p_m: Any, afc: dict[str, Any]) -> dict[str, Any]:
    series: dict[str, Any] = {"scheme": scheme, "L_km": L_km, "p_m": p_m}
    if scheme.startswith("afc"):
        series.update(afc)
    else:
        series.update({"memory.kind": "quantum-dot", "memory.N": 3})
    if scheme == "sr":
        series.update({"N_A": 3, "N_B": 3})
    return series


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload `name` for workload seed `seed`; smoke cuts the round counts."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    master = random.Random(f"{name}/{seed}")

    def spec(label: str, source: str, overrides: dict[str, Any] | None,
             rounds: int | None, with_mc: bool) -> ScenarioSpec:
        if smoke and with_mc:
            rounds = SMOKE_ROUNDS
        return ScenarioSpec(label, source, overrides, master.getrandbits(64), rounds, with_mc)

    if name == "mc-presets":
        return Workload(name, tuple(spec(p, p, None, None, True) for p in PRESETS))
    if name == "mc-short":
        return Workload(name, tuple(
            spec(s, "custom", _series(s, SHORT_L_KM, SHORT_P_M, SHORT_AFC), SHORT_ROUNDS, True)
            for s in SCHEMES
        ))
    scenarios = tuple(
        spec(s, "custom", _series(s, DENSE_L_KM, DENSE_P_M, {}), None, False) for s in SCHEMES
    )
    probes = tuple(
        spec(f"{s}@p_m={p_m},L=0", "custom", _series(s, 0.0, p_m, {}), None, False)
        for s in SCHEMES for p_m in DENSE_P_M
    )
    grid = tuple((J, i) for J in SWAP_J for i in SWAP_LINKS)
    return Workload(name, scenarios, swap_grid=grid, probes=probes)
