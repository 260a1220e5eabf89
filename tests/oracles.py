"""Independent formula sets that tests check the library against.

They restate published closed forms and sampling schemes without the
library's evaluator, so agreement between the two is evidence for both.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from entdist.analytic import PointSummary, SchemeConfig, SchemeKind, SeriesColumns
from entdist.params import ParameterError, derive_probs, fiber_transmission


class NotApplicableError(ValueError):
    """An oracle was asked of a scheme it is not defined for."""


def _chain(cfg: SchemeConfig) -> tuple[float, float, float]:
    """(p_BSA, p_optical, t_link): the Bell measurement, one photon over half the link, flight time."""
    link, mem = cfg.link, cfg.memory
    transmission = math.exp(-link.L / (2.0 * link.L_att))
    base = mem.p_AFC if cfg.kind.is_afc else mem.emission_fraction * mem.collection_efficiency
    return link.p_d**2 / 2.0, base * transmission, link.n * link.L / 2.998e5


def single_trial_success(cfg: SchemeConfig) -> float:
    """p of one trial: both photons meet at a BSA, or both sides latch one source pair."""
    p_bsa, p_optical, _ = _chain(cfg)
    if cfg.kind in (SchemeKind.MM, SchemeKind.SR):
        return p_bsa * p_optical**2
    if cfg.kind is SchemeKind.MS:
        return cfg.p_m * (p_bsa * p_optical) ** 2
    if cfg.kind is SchemeKind.AFC_MM:
        return p_bsa * (cfg.p_m * p_optical) ** 2
    return cfg.p_m * (cfg.memory.p_pass * p_optical) ** 2


def latch_probability(cfg: SchemeConfig) -> float:
    """Per-trial probability that one side of a waiting scheme (MS, AFC-MM, AFC-MS) latches."""
    p_bsa, p_optical, _ = _chain(cfg)
    if cfg.kind is SchemeKind.MS:
        return cfg.p_m * p_bsa * p_optical
    if cfg.kind is SchemeKind.AFC_MM:
        return cfg.p_m * cfg.memory.p_AFC  # the local source's photon is absorbed
    if cfg.kind is SchemeKind.AFC_MS:
        return cfg.p_m * cfg.memory.p_pass * p_optical
    raise NotApplicableError(f"{cfg.kind.value.upper()} fires each memory once per round")


def _finite_rate(rate: float) -> float:
    if not math.isfinite(rate):
        raise ParameterError(f"rate is {rate!r}")
    return rate


@dataclass(frozen=True)
class SchemePoint:
    """A point's quantities from the scheme definitions; rate and exact_rate raise like PointSummary's."""

    cfg: SchemeConfig
    K: int
    p_single: float
    capacity: int
    t_round: float
    capped: bool
    feasible: bool

    @property
    def exact_rate(self) -> float:
        return _finite_rate(self.K * self.p_single / self.t_round)

    @property
    def rate(self) -> float:
        """The published closed form, or exact_rate where the rephasing cap binds."""
        cfg, mem, (p_bsa, p_optical, t_link) = self.cfg, self.cfg.memory, _chain(self.cfg)
        if t_link == 0.0:
            raise ParameterError("the closed forms divide by t_link")
        if self.capped:
            return self.exact_rate
        if cfg.kind is SchemeKind.MM:
            rate = mem.N * p_bsa * p_optical**2 / t_link
        elif cfg.kind is SchemeKind.SR:
            rate = cfg.N_A * p_bsa * p_optical**2 / (2.0 * t_link)
        elif cfg.kind is SchemeKind.MS:
            rate = mem.N * p_bsa * p_optical / (2.0 * t_link)
        elif cfg.kind is SchemeKind.AFC_MM:
            whole_link = math.exp(-cfg.link.L / cfg.link.L_att)
            rate = mem.N_AFC * p_bsa * cfg.p_m * mem.p_AFC * whole_link / t_link
        else:
            half_link = math.exp(-cfg.link.L / (2.0 * cfg.link.L_att))
            rate = mem.N_AFC * mem.p_pass * mem.p_AFC * half_link / (2.0 * t_link)
        return _finite_rate(rate)


def scheme_point(cfg: SchemeConfig) -> SchemePoint:
    """Budget, round time and the rest of one point; ParameterError where K or t_round is not finite.

    MM fires each of its N memories once per round and SR each of the N_A
    receiving ones. MS fires until the expected latch count fills its N
    memories. An AFC scheme fills its N_AFC modes the same way, but a photon
    re-emits t_rephase after it is stored, so a budget whose trials would
    outlast t_rephase falls back to ceil(t_rephase / t_clock'). A round is the
    flight time (there and back for SR) plus K trial clocks.
    """
    kind, mem = cfg.kind, cfg.memory
    _, _, t_link = _chain(cfg)
    capacity = mem.N_AFC if kind.is_afc else cfg.N_A if kind is SchemeKind.SR else mem.N
    k, capped = capacity, False
    if kind not in (SchemeKind.MM, SchemeKind.SR):
        p_latch = latch_probability(cfg)
        fill = capacity / p_latch if p_latch > 0.0 else math.inf
        if fill < math.inf:
            k = math.ceil(fill)
        elif not kind.is_afc:
            raise ParameterError("unbounded trial budget")
        if kind.is_afc and (fill == math.inf or k * mem.t_clock_prime > mem.t_rephase):
            if mem.t_rephase / mem.t_clock_prime == math.inf:
                raise ParameterError("t_clock_prime is too short for a finite budget")
            k, capped = math.ceil(mem.t_rephase / mem.t_clock_prime), True
    flight = 2.0 * t_link if kind is SchemeKind.SR else t_link
    t_round = flight + k * (mem.t_clock_prime if kind.is_afc else mem.t_clock)
    if not math.isfinite(t_round):
        raise ParameterError(f"t_round is {t_round!r} s")
    feasible = not kind.is_afc or mem.t_rephase + t_link <= mem.t_spin_coherence
    return SchemePoint(cfg, k, single_trial_success(cfg), capacity, t_round, capped, feasible)


def closed_form_ratio(a: SchemeConfig, b: SchemeConfig) -> float:
    """Specialized closed-form rate ratio for the documented scheme pairs.

    Supported (numerator, denominator) pairs: (MS, MM), (AFC-MS, AFC-MM),
    (AFC-MM, MS), (AFC-MS, MS). In the uncapped regime each expression equals
    evaluate(a).rate / evaluate(b).rate to floating-point accuracy, provided the
    shared quantities (link, and memory or p_m where they cancel) match.
    """
    if a.link != b.link:
        raise ParameterError("closed_form_ratio requires both configs to share the same link")
    trans = fiber_transmission(a.link.L, a.link.L_att)
    pair = (a.kind, b.kind)
    if pair == (SchemeKind.MS, SchemeKind.MM):
        if a.memory != b.memory:
            raise ParameterError("MS/MM ratio assumes both schemes use the same memory")
        p_memory = derive_probs(a.link, a.memory).p_memory
        return 1.0 / (2.0 * p_memory * trans)
    if pair == (SchemeKind.AFC_MS, SchemeKind.AFC_MM):
        if a.memory != b.memory:
            raise ParameterError("AFC-MS/AFC-MM ratio assumes both schemes use the same memory")
        p_bsa = derive_probs(a.link, a.memory).p_BSA
        return a.memory.p_pass / (2.0 * p_bsa * b.p_m * trans)
    if pair == (SchemeKind.AFC_MM, SchemeKind.MS):
        afc, spin = a.memory, b.memory
        p_memory = derive_probs(b.link, b.memory).p_memory
        return (2.0 * afc.N_AFC * a.p_m * afc.p_AFC * trans) / (spin.N * p_memory)
    if pair == (SchemeKind.AFC_MS, SchemeKind.MS):
        afc, spin = a.memory, b.memory
        db = derive_probs(b.link, b.memory)
        return (afc.N_AFC * afc.p_AFC * afc.p_pass) / (spin.N * db.p_BSA * db.p_memory)
    raise NotApplicableError(
        f"no specialized ratio for ({a.kind.value.upper()}, {b.kind.value.upper()})"
    )


def series_columns(points: Sequence[PointSummary]) -> SeriesColumns:
    """Evaluated points as the evaluate_series columns that estimate_series and _law_windows read."""
    return SeriesColumns(*([point[i] for point in points] for i in range(len(SeriesColumns._fields))))


_BLOCK_CELLS = 4_000_000  # booleans in one chunk of rounds x K trials


def per_trial_histogram(point: PointSummary, rng: np.random.Generator, n_rounds: int) -> np.ndarray:
    """Histogram of latched pairs over n_rounds rounds, drawing every trial of every round.

    Each of a round's K trials succeeds with probability p_single and the
    round latches min(successes, capacity) pairs; cell j counts the rounds
    that latched j, over min(K, capacity) + 1 cells. The literal reading of
    the law that montecarlo.simulate_rounds samples, for K up to
    _BLOCK_CELLS trials per round.
    """
    k, p, cap = point.K, point.p_single, point.capacity
    if k > _BLOCK_CELLS:
        raise ParameterError(f"per-trial sampling holds at most {_BLOCK_CELLS} trials per round, got K = {k}")
    top = min(k, cap)
    hist = np.zeros(top + 1, dtype=np.int64)
    chunk = _BLOCK_CELLS // max(k, 1)
    for start in range(0, n_rounds, chunk):
        trials = rng.random((min(chunk, n_rounds - start), k)) < p
        hist += np.bincount(np.minimum(trials.sum(axis=1), cap), minlength=top + 1)
    return hist


@dataclass(frozen=True, slots=True)
class LatchCounts:
    """Side-resolved latch tallies from the explicit midpoint-source sampler."""

    trials: int
    left: int
    right: int
    both: int


def simulate_latches(cfg: SchemeConfig, rng: np.random.Generator, n_trials: int) -> LatchCounts:
    """Explicit left/right latch sampling for the midpoint-source schemes.

    Draws the shared pair emission once per trial and then each side's
    latch independently, instead of the joint single-trial probability the
    round samplers use. The `both` tally therefore validates that the joint
    probability factorizes as p_m times the two one-sided terms.
    """
    if cfg.kind not in (SchemeKind.MS, SchemeKind.AFC_MS):
        raise NotApplicableError(
            f"{cfg.kind.value.upper()} has no left/right latch decomposition"
        )
    d = derive_probs(cfg.link, cfg.memory)
    if cfg.kind.is_afc:
        p_side = cfg.memory.p_pass * d.p_optical
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
