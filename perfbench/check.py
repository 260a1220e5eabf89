"""Correctness checks on every sweep row, independent of the library's own code.

Three checks, applied to the first pass of a run (later passes must repeat
its rows and emitted bytes exactly):

* Pins: the analytic columns (analytic_rate, K, t_round_s, feasible, with the
  row's scheme, L_km and p_m) must equal, bit for bit, those recorded at a
  trusted commit. pins.json holds one SHA-256 per scenario, so a mismatch
  fails every row of that scenario.
* Seeds: the seed column must be the documented sub-seed, the first state
  word of numpy's SeedSequence((master_seed, point_index)).
* Monte Carlo: the successes behind each mc_rate must be a plausible draw of
  S = sum of n_rounds independent min(Binomial(K, p), cap) counts, with p and
  cap worked out here from the point's parameters. The test uses the
  Chernoff bound 2 exp(-n I(s/n)), where I is the rate function of one
  round's count computed from its exact pmf. The bound holds for any n and
  any count, so Bonferroni over the run's points keeps the family-wise false
  failure rate of a correct sampler below FAMILY_ALPHA. A normal-theory z
  would not: at a few expected successes per point, a correct sampler reads
  z = 8 now and then, even with the true variance.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from workloads import SWAP_P_AFC, SWAP_P_BSA, SWAP_P_PASS

PINS_PATH = Path(__file__).with_name("pins.json")
FAMILY_ALPHA = 1e-3
CSV_HEADER = "scheme,L_km,p_m,analytic_rate,mc_rate,mc_stderr,K,t_round_s,feasible,seed"
FIELDS = CSV_HEADER.split(",")


def analytic_digest(rows: Sequence[Any]) -> str:
    """SHA-256 over the seed-independent analytic columns, floats in hex."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(
            f"{row.scheme},{float(row.L_km).hex()},{float(row.p_m).hex()},"
            f"{float(row.analytic_rate).hex()},{row.K},{float(row.t_round_s).hex()},"
            f"{row.feasible}\n".encode()
        )
    return digest.hexdigest()


def load_pins(workload: str) -> dict[str, dict[str, Any]]:
    return json.loads(PINS_PATH.read_text())[workload]


def expected_subseed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def single_trial_success(cfg: Any) -> float:
    """p of one trial, from the scheme definitions (not the library's code)."""
    link, mem, kind = cfg.link, cfg.memory, cfg.kind.value
    transmission = math.exp(-link.L / (2.0 * link.L_att))
    p_bsa = link.p_d**2 / 2.0
    if kind in ("mm", "sr", "ms"):
        p_optical = mem.emission_fraction * mem.collection_efficiency * transmission
        if kind == "ms":
            return cfg.p_m * (p_bsa * p_optical) ** 2
        return p_bsa * p_optical**2
    p_optical = mem.p_AFC * transmission
    if kind == "afc-mm":
        return p_bsa * (cfg.p_m * p_optical) ** 2
    return cfg.p_m * (mem.p_pass * p_optical) ** 2


def capacity(cfg: Any) -> int:
    kind = cfg.kind.value
    if kind.startswith("afc"):
        return cfg.memory.N_AFC
    return cfg.N_A if kind == "sr" else cfg.memory.N


def capped_log_pmf(K: int, p: float, cap: int) -> Any:
    """log pmf of min(Binomial(K, p), cap) over 0..min(K, cap)."""
    top = min(K, cap)
    if p == 0.0 or p == 1.0:
        log_q = np.full(top + 1, -np.inf)
        log_q[0 if p == 0.0 else top] = 0.0
        return log_q
    # Terms beyond 40 standard deviations (and 40 counts) above the mean are
    # below exp(-800) and do not change the tail mass.
    hi = min(K, max(cap, math.ceil(K * p + 40.0 * math.sqrt(K * p * (1.0 - p)) + 40.0)))
    j = np.arange(hi + 1, dtype=float)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((K - j[1:] + 1.0) / j[1:]))))
    log_pmf = log_choose + j * math.log(p) + (K - j) * math.log1p(-p)
    if top == K:
        return log_pmf
    return np.append(log_pmf[:cap], _logsumexp(log_pmf[cap:]))


def _logsumexp(values: Any) -> float:
    peak = float(np.max(values))
    if peak == -math.inf:
        return peak
    return peak + math.log(float(np.sum(np.exp(values - peak))))


def chernoff_pvalue(log_q: Any, n: int, s: int) -> tuple[float, float]:
    """(two-sided Chernoff p-value bound, z with the true variance) for S = s.

    P(S >= s) <= exp(n (log M(theta) - theta s/n)) for every theta >= 0, and
    the mirror bound holds for theta <= 0, where M is the moment generating
    function of one round's count. Newton's method finds the theta that makes
    the bound tightest; a theta short of the optimum still gives a valid bound.
    """
    j = np.arange(len(log_q), dtype=float)
    q = np.exp(log_q)
    mean = float(j @ q)
    var = float((j * j) @ q) - mean**2
    z = (s - n * mean) / math.sqrt(n * var) if var > 0 else (0.0 if s == n * mean else math.inf)
    support = np.flatnonzero(np.isfinite(log_q))
    lo, hi = int(support[0]), int(support[-1])
    x = s / n
    if x < lo or x > hi:
        return 0.0, z
    if x == lo or x == hi:
        # Every round took the extreme value: P = q_extreme ** n exactly.
        return min(1.0, 2.0 * math.exp(n * float(log_q[lo if x == lo else hi]))), z

    theta, below, above = 0.0, -math.inf, math.inf
    for _ in range(200):
        weights = log_q + theta * j
        peak = float(np.max(weights))
        e = np.exp(weights - peak)
        total = float(e.sum())
        log_mgf = peak + math.log(total)
        t_mean = float(e @ j) / total
        t_var = float(e @ (j * j)) / total - t_mean**2
        gap = t_mean - x
        if abs(gap) <= 1e-12 * max(1.0, x):
            break
        if gap > 0:
            above = theta
        else:
            below = theta
        step = theta - gap / t_var if t_var > 0 else math.nan
        if below < step < above:
            theta = step
        elif math.isfinite(below) and math.isfinite(above):
            theta = 0.5 * (below + above)
        elif math.isinf(below):
            theta = above - max(1.0, 2.0 * abs(above))
        else:
            theta = below + max(1.0, 2.0 * abs(below))
    log_bound = n * (log_mgf - theta * x)
    return min(1.0, 2.0 * math.exp(min(log_bound, 0.0))), z


class Checker:
    """Checks the rows of one workload pass; failures are counted per point."""

    def __init__(self, workload: str, n_mc_points: int) -> None:
        self.pins = load_pins(workload)
        self.threshold = FAMILY_ALPHA / max(1, n_mc_points)
        self.worst_z = 0.0
        self.min_pvalue = 1.0
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    def scenario(self, name: str, master_seed: int, points: Sequence[Any], rows: Sequence[Any],
                 n_rounds: int, with_mc: bool, csv_text: str, json_text: str) -> int:
        """Number of failed points among `rows` of scenario `name`."""
        pin = self.pins.get(name)
        if pin is None or len(rows) != pin["rows"] or len(rows) != len(points):
            self.fail(f"{name}: {len(rows)} rows, pinned {pin and pin['rows']}")
            return max(len(points), len(rows))
        if analytic_digest(rows) != pin["sha256"]:
            self.fail(f"{name}: analytic columns differ from the pinned values")
            return len(rows)
        if not self._emitted(rows, csv_text, json_text):
            self.fail(f"{name}: emitted CSV/JSON does not match the rows")
            return len(rows)
        failed = 0
        for index, (cfg, row) in enumerate(zip(points, rows)):
            if not self._row(name, master_seed, index, cfg, row, n_rounds, with_mc):
                failed += 1
        return failed

    def _row(self, name: str, master_seed: int, index: int, cfg: Any, row: Any,
             n_rounds: int, with_mc: bool) -> bool:
        where = f"{name}[{index}] L={row.L_km} p_m={row.p_m}"
        if (row.scheme, row.L_km, row.p_m) != (cfg.kind.value, cfg.link.L, cfg.p_m):
            self.fail(f"{where}: row is for another point")
            return False
        if not (math.isfinite(row.analytic_rate) and row.analytic_rate >= 0.0):
            self.fail(f"{where}: analytic_rate {row.analytic_rate!r}")
            return False
        if row.seed != expected_subseed(master_seed, index):
            self.fail(f"{where}: seed {row.seed} is not the documented sub-seed")
            return False
        if not (with_mc and row.feasible):
            if row.mc_rate is not None or row.mc_stderr is not None:
                self.fail(f"{where}: Monte Carlo fields on a point without a simulation")
                return False
            return True
        return self._monte_carlo(where, cfg, row, n_rounds)

    def _monte_carlo(self, where: str, cfg: Any, row: Any, n_rounds: int) -> bool:
        rate, stderr = row.mc_rate, row.mc_stderr
        if rate is None or stderr is None or not (math.isfinite(rate) and rate >= 0.0
                                                  and math.isfinite(stderr) and stderr >= 0.0):
            self.fail(f"{where}: mc_rate {rate!r}, mc_stderr {stderr!r}")
            return False
        cap = capacity(cfg)
        successes = rate * n_rounds * row.t_round_s
        s = round(successes)
        if abs(successes - s) > 1e-6 * max(1.0, s) or s > n_rounds * min(cap, row.K):
            self.fail(f"{where}: mc_rate implies {successes!r} successes")
            return False
        pvalue, z = chernoff_pvalue(capped_log_pmf(row.K, single_trial_success(cfg), cap),
                                    n_rounds, s)
        self.min_pvalue = min(self.min_pvalue, pvalue)
        if abs(z) > abs(self.worst_z):
            self.worst_z = z
        if pvalue < self.threshold:
            self.fail(f"{where}: {s} successes in {n_rounds} rounds, z = {z:.2f}, p <= {pvalue:.2e}")
            return False
        return True

    @staticmethod
    def _emitted(rows: Sequence[Any], csv_text: str, json_text: str) -> bool:
        lines = csv_text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != len(rows) + 2:
            return False
        objects = json.loads(json_text)
        if len(objects) != len(rows):
            return False
        for row, line, obj in zip(rows, lines[1:], objects):
            values = [getattr(row, key) for key in FIELDS]
            if [obj.get(key) for key in FIELDS] != values or list(obj) != FIELDS:
                return False
            cells = line.split(",")
            for value, cell in zip(values, cells):
                if value is None:
                    ok = cell == ""
                elif isinstance(value, bool):
                    ok = cell == ("true" if value else "false")
                elif isinstance(value, float):
                    ok = float(cell) == value
                else:
                    ok = cell == str(value)
                if not ok:
                    return False
            if len(cells) != len(values):
                return False
        return True


def check_swaps(results: Sequence[tuple[int, int, Any, Any, float]]) -> int:
    """Failed swapping evaluations against the closed forms (relative 1e-12)."""
    base = SWAP_P_AFC**2 * SWAP_P_BSA
    confirm = SWAP_P_PASS * SWAP_P_AFC
    failed = 0
    for J, links, perfect, imperfect, chain in results:
        expected = (
            (J, base, J * base),
            (J / confirm, confirm**2 * base, J * confirm * base),
        )
        got = (
            (perfect.K_swap, perfect.p_swap, perfect.expected_successes),
            (imperfect.K_swap, imperfect.p_swap, imperfect.expected_successes),
        )
        ok = all(
            math.isclose(a, b, rel_tol=1e-12)
            for want, have in zip(expected, got) for a, b in zip(want, have)
        ) and math.isclose(chain, confirm ** (links - 1), rel_tol=1e-12)
        failed += not ok
    return failed
