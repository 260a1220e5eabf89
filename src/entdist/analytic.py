"""Closed-form single-trial probabilities, round times, trial budgets and rates.

Five arrangements are covered:

* MM: Bell-state analyzer at the fiber midpoint, both nodes emit
  memory-entangled photons toward it.
* SR: Bell-state analyzer inside the receiving node.
* MS: entangled-photon source at the midpoint, a Bell-state analyzer inside
  each node.
* AFC-MM / AFC-MS: the same two midpoint layouts with absorptive multimode
  memories; AFC-MS heralds arrivals with a non-destructive photon detector
  instead of a Bell-state analyzer.

All functions are pure over immutable configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .params import (
    AfcSpec,
    DerivedProbs,
    LinkParams,
    MemorySpec,
    ParameterError,
    derive_probs,
    fiber_transmission,
    t_link,
)

__all__ = [
    "SchemeKind",
    "SchemeConfig",
    "FeasibilityReport",
    "PointSummary",
    "NotApplicableError",
    "single_trial_success",
    "latch_probability",
    "trials_per_round",
    "rephasing_cap_trials",
    "is_rephasing_capped",
    "capacity",
    "round_time",
    "analytic_rate",
    "exact_rate",
    "evaluate",
    "rate_ratio",
    "closed_form_ratio",
    "feasibility_check",
]


class NotApplicableError(ValueError):
    """An operation was asked of a scheme it is not defined for."""


class SchemeKind(str, Enum):
    MM = "mm"
    SR = "sr"
    MS = "ms"
    AFC_MM = "afc-mm"
    AFC_MS = "afc-ms"

    @property
    def is_afc(self) -> bool:
        return self in (SchemeKind.AFC_MM, SchemeKind.AFC_MS)

    @property
    def is_midpoint_source(self) -> bool:
        return self in (SchemeKind.MS, SchemeKind.AFC_MS)

    @property
    def display(self) -> str:
        return self.value.upper()


@dataclass(frozen=True, slots=True)
class SchemeConfig:
    """One fully specified arrangement: scheme, link, memory and source.

    N_A / N_B split the 2N memories between sender and receiver and are only
    meaningful (and required) for SR.

    ms_sync_factor selects the classical-synchronization convention for the
    midpoint-source rate denominators: 2 reproduces the published closed
    forms, 1 the naive trials-times-probability-per-round derivation. The two
    differ by exactly that factor; see analytic_rate.
    """

    kind: SchemeKind
    link: LinkParams
    memory: MemorySpec | AfcSpec
    p_m: float = 1.0
    N_A: int | None = None
    N_B: int | None = None
    ms_sync_factor: int = 2

    def __post_init__(self) -> None:
        if self.kind.is_afc:
            if not isinstance(self.memory, AfcSpec):
                raise ParameterError(f"memory must be an AfcSpec for {self.kind.display}")
        else:
            if not isinstance(self.memory, MemorySpec):
                raise ParameterError(f"memory must be a MemorySpec for {self.kind.display}")
        if not 0.0 <= self.p_m <= 1.0:
            raise ParameterError(f"p_m must be in [0, 1], got {self.p_m!r}")
        if self.ms_sync_factor not in (1, 2):
            raise ParameterError(f"ms_sync_factor must be 1 or 2, got {self.ms_sync_factor!r}")
        if self.kind is SchemeKind.SR:
            if self.N_A is None or self.N_B is None:
                raise ParameterError("N_A and N_B are required for SR")
            if self.N_A < 1 or self.N_B < 1:
                raise ParameterError(f"N_A and N_B must be >= 1, got {self.N_A!r}, {self.N_B!r}")
            if self.N_A + self.N_B != 2 * self.memory.N:
                raise ParameterError(
                    f"N_A + N_B must equal 2N = {2 * self.memory.N}, "
                    f"got {self.N_A + self.N_B}"
                )
        elif self.N_A is not None or self.N_B is not None:
            raise ParameterError("N_A / N_B are only meaningful for SR")

    def derived(self) -> DerivedProbs:
        return derive_probs(self.link, self.memory, self.p_m)


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    """Round-time budget of an AFC config against its spin coherence time."""

    ok: bool
    used_s: float    # t_rephase + t_link
    limit_s: float   # t_spin_coherence


@dataclass(frozen=True, slots=True)
class PointSummary:
    """Every analytic quantity of one sweep point, built by evaluate().

    The Monte Carlo sampler reads it too, so a point is evaluated once.
    rate and exact_rate are computed on access and raise ParameterError
    rather than return a value that is not finite.
    """

    cfg: SchemeConfig
    probs: DerivedProbs   # the point's probability chain
    p_single: float       # success probability of one trial
    K: int                # trials per round
    capacity: int         # pairs one round can latch at most
    t_round: float        # full synchronization window, s
    capped: bool          # AFC budget limited by the rephasing period
    feasible: bool        # the round fits the spin coherence time

    @property
    def exact_rate(self) -> float:
        """K * p_single / t_round, what a per-round tally converges to.

        No approximation, before the capacity cap (negligible whenever
        K * p_single is well below the memory count).
        """
        return _finite(self.K * self.p_single / self.t_round)

    @property
    def rate(self) -> float:
        """Closed-form entanglement distribution rate in pairs per second.

        The closed forms assume the trial window is short against the photon
        flight time (K t_clock << t_link). For SR the value is the standard
        upper bound used as the scheme's rate. When the rephasing cap limits
        an AFC budget the closed form no longer applies and exact_rate is
        returned instead.

        Raises ParameterError when t_link is 0 (L = 0): the closed forms
        divide by it. exact_rate, t_round and Monte Carlo work there.
        """
        cfg, d, mem = self.cfg, self.probs, self.cfg.memory
        tl = t_link(cfg.link)
        if tl == 0.0:
            raise ParameterError("analytic_rate needs L > 0 km: the closed forms divide by t_link")
        if self.capped:
            return self.exact_rate
        if cfg.kind is SchemeKind.MM:
            rate = mem.N * d.p_BSA * d.p_optical**2 / tl
        elif cfg.kind is SchemeKind.SR:
            rate = cfg.N_A * d.p_BSA * d.p_optical**2 / (2.0 * tl)
        elif cfg.kind is SchemeKind.MS:
            rate = mem.N * d.p_BSA * d.p_optical / (cfg.ms_sync_factor * tl)
        elif cfg.kind is SchemeKind.AFC_MM:
            rate = (mem.N_AFC * d.p_BSA * cfg.p_m * mem.p_AFC
                    * math.exp(-cfg.link.L / cfg.link.L_att) / tl)
        else:
            rate = (mem.N_AFC * mem.p_pass * mem.p_AFC
                    * fiber_transmission(cfg.link.L, cfg.link.L_att)
                    / (cfg.ms_sync_factor * tl))
        return _finite(rate)


def _finite(rate: float) -> float:
    if not math.isfinite(rate):
        raise ParameterError(f"rate is {rate!r}: the inputs exceed double precision")
    return rate


def capacity(cfg: SchemeConfig) -> int:
    """Entangled pairs one round can latch at most (memory or mode count)."""
    if cfg.kind.is_afc:
        return cfg.memory.N_AFC
    if cfg.kind is SchemeKind.SR:
        return cfg.N_A
    return cfg.memory.N


def _single_trial_success(cfg: SchemeConfig, d: DerivedProbs) -> float:
    if cfg.kind in (SchemeKind.MM, SchemeKind.SR):
        return d.p_BSA * d.p_optical**2
    if cfg.kind is SchemeKind.MS:
        return cfg.p_m * (d.p_BSA * d.p_optical) ** 2
    if cfg.kind is SchemeKind.AFC_MM:
        return d.p_BSA * (cfg.p_m * d.p_optical) ** 2
    # AFC-MS: both halves must pass the non-destructive detectors and latch.
    return cfg.p_m * (cfg.memory.p_pass * d.p_optical) ** 2


def _latch_probability(cfg: SchemeConfig, d: DerivedProbs) -> float:
    if cfg.kind is SchemeKind.MS:
        return cfg.p_m * d.p_BSA * d.p_optical
    if cfg.kind is SchemeKind.AFC_MM:
        # Source sits next to the memory, so only emission and absorption count.
        return cfg.p_m * cfg.memory.p_AFC
    if cfg.kind is SchemeKind.AFC_MS:
        return cfg.p_m * cfg.memory.p_pass * d.p_optical
    raise NotApplicableError(f"{cfg.kind.display} has no per-trial latch probability")


def _ceil_ratio(numerator: float, denominator: float) -> int | None:
    """ceil(numerator / denominator), or None when that is unbounded in double precision."""
    ratio = numerator / denominator if denominator > 0.0 else math.inf
    return None if ratio == math.inf else math.ceil(ratio)


def _afc_budget(cfg: SchemeConfig, d: DerivedProbs) -> tuple[int, bool]:
    """(trials per round, rephasing-capped) of an AFC config."""
    k = _ceil_ratio(cfg.memory.N_AFC, _latch_probability(cfg, d))
    if k is None or k * cfg.memory.t_clock_prime > cfg.memory.t_rephase:
        return rephasing_cap_trials(cfg.memory), True
    return k, False


def evaluate(cfg: SchemeConfig) -> PointSummary:
    """Evaluate one sweep point, deriving its probability chain exactly once.

    Trials per round K: MM and SR fire each available memory once. MS sizes
    the budget so the expected latch count fills the memories. AFC budgets
    fill the temporal modes but are capped once the budget would outlast
    the rephasing period. t_round is t_link (twice for SR, whose photons
    cross the whole link and whose reply returns) plus K trial clocks.

    Raises ParameterError for an MS config whose latch probability is zero
    or too small for a finite budget (no rephasing cap exists there), and
    for a round time that is not finite in double precision.
    """
    d = cfg.derived()
    kind, mem, afc = cfg.kind, cfg.memory, cfg.kind.is_afc
    capped = False
    if kind is SchemeKind.MM:
        k = mem.N
    elif kind is SchemeKind.SR:
        k = cfg.N_A
    elif kind is SchemeKind.MS:
        p_latch = _latch_probability(cfg, d)
        k = _ceil_ratio(mem.N, p_latch)
        if k is None:
            raise ParameterError(f"unbounded trial budget: MS latch probability is {p_latch!r}")
    else:
        k, capped = _afc_budget(cfg, d)
    tl = t_link(cfg.link)
    if kind is SchemeKind.SR:
        t_round = 2.0 * tl + k * mem.t_clock
    else:
        t_round = tl + k * (mem.t_clock_prime if afc else mem.t_clock)
    if not math.isfinite(t_round):
        raise ParameterError(f"t_round is {t_round!r} s: the inputs exceed double precision")
    return PointSummary(
        cfg=cfg,
        probs=d,
        p_single=_single_trial_success(cfg, d),
        K=k,
        capacity=capacity(cfg),
        t_round=t_round,
        capped=capped,
        feasible=not afc or feasibility_check(cfg).ok,
    )


def single_trial_success(cfg: SchemeConfig) -> float:
    """Probability that a single trial shares one entangled pair."""
    return _single_trial_success(cfg, cfg.derived())


def latch_probability(cfg: SchemeConfig) -> float:
    """Per-trial probability that one side latches a qubit.

    Defined for the waiting schemes (MS, AFC-MM, AFC-MS) whose trial budgets
    are sized from it; MM and SR fire each memory exactly once per round.
    """
    return _latch_probability(cfg, cfg.derived())


def rephasing_cap_trials(mem: AfcSpec) -> int:
    """Largest trial budget before the first stored photon rephases out."""
    cap = _ceil_ratio(mem.t_rephase, mem.t_clock_prime)
    if cap is None:
        raise ParameterError(f"t_clock_prime {mem.t_clock_prime!r} s is too short for a finite budget")
    return cap


def is_rephasing_capped(cfg: SchemeConfig) -> bool:
    """True when the AFC trial budget is limited by the rephasing period."""
    return cfg.kind.is_afc and _afc_budget(cfg, cfg.derived())[1]


def trials_per_round(cfg: SchemeConfig) -> int:
    """Number of trials performed during one synchronization round; see evaluate."""
    return evaluate(cfg).K


def round_time(cfg: SchemeConfig) -> float:
    """Total synchronization time of one round in seconds; see evaluate."""
    return evaluate(cfg).t_round


def analytic_rate(cfg: SchemeConfig) -> float:
    """Closed-form rate in pairs per second; see PointSummary.rate."""
    return evaluate(cfg).rate


def exact_rate(cfg: SchemeConfig) -> float:
    """K * p_single / t_round with no approximation; see PointSummary.exact_rate.

    Gauges the closed forms' K t_clock << t_link approximation point by point.
    """
    return evaluate(cfg).exact_rate


def rate_ratio(a: SchemeConfig, b: SchemeConfig) -> float:
    """analytic_rate(a) / analytic_rate(b) for two configs on the same link."""
    if a.link != b.link:
        raise ParameterError("rate_ratio requires both configs to share the same link")
    denominator = analytic_rate(b)
    if denominator == 0.0:
        raise ParameterError("rate_ratio: denominator scheme has zero rate")
    return analytic_rate(a) / denominator


def closed_form_ratio(a: SchemeConfig, b: SchemeConfig) -> float:
    """Specialized closed-form rate ratio for the documented scheme pairs.

    Supported (numerator, denominator) pairs: (MS, MM), (AFC-MS, AFC-MM),
    (AFC-MM, MS), (AFC-MS, MS). In the uncapped regime each expression equals
    rate_ratio of the same configs to floating-point accuracy, provided the
    shared quantities (link, and memory or p_m where they cancel) match.
    """
    if a.link != b.link:
        raise ParameterError("closed_form_ratio requires both configs to share the same link")
    trans = fiber_transmission(a.link.L, a.link.L_att)
    pair = (a.kind, b.kind)
    if pair == (SchemeKind.MS, SchemeKind.MM):
        if a.memory != b.memory:
            raise ParameterError("MS/MM ratio assumes both schemes use the same memory")
        p_memory = a.derived().p_memory
        return 1.0 / (2.0 * p_memory * trans)
    if pair == (SchemeKind.AFC_MS, SchemeKind.AFC_MM):
        if a.memory != b.memory:
            raise ParameterError("AFC-MS/AFC-MM ratio assumes both schemes use the same memory")
        p_bsa = a.derived().p_BSA
        return a.memory.p_pass / (2.0 * p_bsa * b.p_m * trans)
    if pair == (SchemeKind.AFC_MM, SchemeKind.MS):
        afc, spin = a.memory, b.memory
        p_memory = b.derived().p_memory
        return (2.0 * afc.N_AFC * a.p_m * afc.p_AFC * trans) / (spin.N * p_memory)
    if pair == (SchemeKind.AFC_MS, SchemeKind.MS):
        afc, spin = a.memory, b.memory
        db = b.derived()
        return (afc.N_AFC * afc.p_AFC * afc.p_pass) / (spin.N * db.p_BSA * db.p_memory)
    raise NotApplicableError(
        f"no specialized ratio for ({a.kind.display}, {b.kind.display})"
    )


def feasibility_check(cfg: SchemeConfig) -> FeasibilityReport:
    """Check that one AFC round fits inside the spin coherence time.

    The budget is t_rephase + t_link (storage until the classical confirmation
    arrives) against t_spin_coherence. Raises NotApplicableError for non-AFC
    configs.
    """
    if not cfg.kind.is_afc:
        raise NotApplicableError(f"feasibility_check does not apply to {cfg.kind.display}")
    used = cfg.memory.t_rephase + t_link(cfg.link)
    limit = cfg.memory.t_spin_coherence
    return FeasibilityReport(ok=used <= limit, used_s=used, limit_s=limit)
