"""Seeded stochastic simulation of each scheme's rounds.

Rounds are the atomic time unit: one round performs the scheme's trial budget
K, counts latched pairs (never more than the memory capacity), and advances
simulated time by t_round. Rounds are statistically independent; latched but
unconsumed memories do not carry over.

Reproducibility contract
------------------------
All randomness comes from numpy's PCG64 (128-bit state) seeded through
SeedSequence, so identical (config, controls) inputs give bit-identical
outputs on any platform running the same numpy release. Sweep points draw
from independent streams whose sub-seeds are a pure function of
(master seed, point index); see subseed().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .analytic import (
    NotApplicableError,
    SchemeConfig,
    capacity,
    feasibility_check,
    round_time,
    single_trial_success,
    trials_per_round,
)
from .params import LinkParams, ParameterError

__all__ = [
    "DEFAULT_SEED",
    "GRANULARITIES",
    "FeasibilityError",
    "McControls",
    "RateEstimate",
    "SweepRow",
    "LatchCounts",
    "rng_for_seed",
    "subseed",
    "simulate_round",
    "simulate_rounds",
    "estimate_rate",
    "sweep",
    "simulate_latches",
]

DEFAULT_SEED = 42
GRANULARITIES = ("binomial", "per-trial")

# Per-trial mode materializes a rounds x K boolean block; chunk it so memory
# stays bounded. A round wider than the block is refused.
_PER_TRIAL_CHUNK_CELLS = 4_000_000


class FeasibilityError(RuntimeError):
    """An AFC config whose round cannot fit its spin coherence time."""


@dataclass(frozen=True, slots=True)
class McControls:
    """Simulation controls: round count, RNG seed and sampling granularity.

    Both granularities produce the histogram of latched pairs per round.
    "binomial" (the default) draws it in one multinomial step from the law
    of min(Binomial(K, p), capacity), at a cost set by the capacity and not
    by n_rounds; "per-trial" draws every trial individually for
    auditability. Both sample the same distribution.
    """

    n_rounds: int
    seed: int = DEFAULT_SEED
    trial_granularity: str = "binomial"

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ParameterError(f"n_rounds must be >= 1, got {self.n_rounds!r}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.trial_granularity not in GRANULARITIES:
            raise ParameterError(
                f"trial_granularity must be one of {GRANULARITIES}, got {self.trial_granularity!r}"
            )


@dataclass(frozen=True, slots=True)
class RateEstimate:
    """Monte Carlo outcome: elapsed = n_rounds * t_round, rate = successes / elapsed."""

    successes: int
    elapsed: float
    rate: float
    stderr: float      # standard error of the rate over per-round success counts
    n_rounds: int
    seed: int


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sweep point; estimate is None when the point is infeasible."""

    cfg: SchemeConfig
    estimate: RateEstimate | None
    feasible: bool


@dataclass(frozen=True, slots=True)
class LatchCounts:
    """Side-resolved latch tallies from the explicit midpoint-source sampler."""

    trials: int
    left: int
    right: int
    both: int


def rng_for_seed(seed: int) -> np.random.Generator:
    """PCG64 generator seeded through SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def subseed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point `index`.

    Splitting function: first state word of SeedSequence((master_seed, index)).
    Feeding the result back through rng_for_seed reproduces the point's stream.
    """
    seq = np.random.SeedSequence((master_seed, index))
    return int(seq.generate_state(1, np.uint64)[0])


def _check_afc_feasible(cfg: SchemeConfig) -> None:
    if cfg.kind.is_afc:
        report = feasibility_check(cfg)
        if not report.ok:
            raise FeasibilityError(
                f"round budget {report.used_s:.6g} s exceeds spin coherence "
                f"{report.limit_s:.6g} s at L = {cfg.link.L} km"
            )


def _capped_binomial_law(k: int, p: float, cap: int) -> np.ndarray:
    """Law of min(Binomial(k, p), cap) over 0..min(k, cap), summing to 1.

    Only the window mean +- (40 sd + 40) is evaluated: by Bernstein's
    inequality the mass outside it is below 2e-26 for any k and p, which is
    under double-precision resolution, so the work is O(min(k, cap)) even for
    k in the tens of billions or k * p far above cap.
    """
    top = min(k, cap)
    q = np.zeros(top + 1)
    if p == 0.0 or p == 1.0:
        q[0 if p == 0.0 else top] = 1.0
        return q
    mean = k * p
    spread = 40.0 * math.sqrt(mean * (1.0 - p)) + 40.0
    lo = max(0, math.floor(mean - spread))
    hi = min(k, math.ceil(mean + spread))
    if lo >= top:
        q[top] = 1.0
        return q
    # log of pmf(j) / pmf(lo) by the ratio recursion; the constant log pmf(lo)
    # cancels when the window is normalised.
    j = np.arange(lo + 1, hi + 1, dtype=float)
    steps = np.log((k - j + 1.0) / j) + (math.log(p) - math.log1p(-p))
    log_w = np.concatenate(([0.0], np.cumsum(steps)))
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    below = min(hi + 1, top) - lo
    q[lo:lo + below] = w[:below]
    q[top] = w[below:].sum()
    return q


def simulate_rounds(
    cfg: SchemeConfig,
    rng: np.random.Generator,
    n_rounds: int,
    granularity: str = "binomial",
) -> np.ndarray:
    """Histogram of latched pairs over n_rounds independent rounds.

    Cell j of the returned int64 array counts the rounds that latched j
    pairs; it has min(K, capacity) + 1 cells and sums to n_rounds.
    "binomial" draws the whole histogram at once as Multinomial(n_rounds, q)
    with q the law of min(Binomial(K, p), capacity), in O(capacity) work
    whatever K and n_rounds are. "per-trial" draws every trial of every round
    and tallies the capped counts: the literal audit oracle, limited to
    K <= _PER_TRIAL_CHUNK_CELLS trials per round.
    """
    k = trials_per_round(cfg)
    p = single_trial_success(cfg)
    cap = capacity(cfg)
    if granularity == "binomial":
        return rng.multinomial(n_rounds, _capped_binomial_law(k, p, cap)).astype(np.int64, copy=False)
    if granularity != "per-trial":
        raise ParameterError(f"trial_granularity must be one of {GRANULARITIES}, got {granularity!r}")
    if k > _PER_TRIAL_CHUNK_CELLS:
        raise ParameterError(
            f"per-trial sampling holds at most {_PER_TRIAL_CHUNK_CELLS} trials per round, "
            f"got K = {k}; use trial_granularity 'binomial'"
        )
    top = min(k, cap)
    hist = np.zeros(top + 1, dtype=np.int64)
    chunk = _PER_TRIAL_CHUNK_CELLS // max(k, 1)
    for start in range(0, n_rounds, chunk):
        trials = rng.random((min(chunk, n_rounds - start), k)) < p
        hist += np.bincount(np.minimum(trials.sum(axis=1), cap), minlength=top + 1)
    return hist


def simulate_round(cfg: SchemeConfig, rng: np.random.Generator,
                   granularity: str = "binomial") -> int:
    """Latched-pair count of a single round."""
    _check_afc_feasible(cfg)
    return int(np.argmax(simulate_rounds(cfg, rng, 1, granularity)))


def estimate_rate(cfg: SchemeConfig, mc: McControls) -> RateEstimate:
    """Simulate mc.n_rounds rounds and estimate the distribution rate.

    Raises FeasibilityError before simulating when an AFC round cannot fit the
    spin coherence time. stderr is the ddof=1 standard deviation of the
    per-round counts (read off the histogram) over sqrt(n_rounds), per
    t_round; it is 0 for a single round.
    """
    _check_afc_feasible(cfg)
    rng = rng_for_seed(mc.seed)
    hist = simulate_rounds(cfg, rng, mc.n_rounds, mc.trial_granularity)
    latched = np.arange(len(hist))
    tr = round_time(cfg)
    elapsed = mc.n_rounds * tr
    successes = int(hist @ latched)
    if mc.n_rounds > 1:
        mean = successes / mc.n_rounds
        variance = float(hist @ (latched - mean) ** 2) / (mc.n_rounds - 1)
        stderr = math.sqrt(variance / mc.n_rounds) / tr
    else:
        stderr = 0.0
    return RateEstimate(
        successes=successes,
        elapsed=elapsed,
        rate=successes / elapsed,
        stderr=stderr,
        n_rounds=mc.n_rounds,
        seed=mc.seed,
    )


def sweep(
    template: SchemeConfig,
    L_values: Sequence[float],
    p_m_values: Sequence[float],
    mc: McControls,
) -> list[SweepRow]:
    """Estimate every (L, p_m) point of the Cartesian product sweep.

    Each point runs on an independent stream seeded by subseed(mc.seed, index)
    with index enumerating the product in order, so reruns reproduce the table
    bit for bit and points could be evaluated concurrently without changing
    any result. Infeasible AFC points come back flagged instead of raising.
    """
    if not L_values or not p_m_values:
        raise ParameterError("sweep requires non-empty L and p_m value lists")
    rows: list[SweepRow] = []
    for index, (L, p_m) in enumerate(product(L_values, p_m_values)):
        cfg = replace(template, link=replace(template.link, L=L), p_m=p_m)
        point_mc = replace(mc, seed=subseed(mc.seed, index))
        try:
            estimate = estimate_rate(cfg, point_mc)
        except FeasibilityError:
            rows.append(SweepRow(cfg=cfg, estimate=None, feasible=False))
        else:
            rows.append(SweepRow(cfg=cfg, estimate=estimate, feasible=True))
    return rows


def simulate_latches(cfg: SchemeConfig, rng: np.random.Generator, n_trials: int) -> LatchCounts:
    """Explicit left/right latch sampling for the midpoint-source schemes.

    Draws the shared pair emission once per trial and then each side's
    latch independently, instead of the joint single-trial probability the
    round samplers use. The `both` tally therefore validates that the joint
    probability factorizes as p_m times the two one-sided terms.
    """
    if not cfg.kind.is_midpoint_source:
        raise NotApplicableError(
            f"{cfg.kind.display} has no left/right latch decomposition"
        )
    d = cfg.derived()
    if cfg.kind.is_afc:
        p_side = cfg.memory.p_pass * d.p_optical_prime
    else:
        p_side = d.p_BSA * d.p_optical
    emitted = rng.random(n_trials) < cfg.p_m
    left = emitted & (rng.random(n_trials) < p_side)
    right = emitted & (rng.random(n_trials) < p_side)
    return LatchCounts(
        trials=n_trials,
        left=int(left.sum()),
        right=int(right.sum()),
        both=int((left & right).sum()),
    )
