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
from typing import Callable, NamedTuple, Sequence

from .params import (
    AfcSpec,
    DerivedProbs,
    LinkParams,
    MemorySpec,
    ParameterError,
    _is_integer,
    _require_L,
    _require_count,
    _require_probability,
    _require_real,
    derive_probs,
    fiber_transmission,
    t_link,
)

__all__ = [
    "SchemeKind",
    "SchemeConfig",
    "PointSummary",
    "SeriesColumns",
    "evaluate",
    "evaluate_series",
]


class SchemeKind(str, Enum):
    MM = "mm"
    SR = "sr"
    MS = "ms"
    AFC_MM = "afc-mm"
    AFC_MS = "afc-ms"

    @property
    def is_afc(self) -> bool:
        return self in (SchemeKind.AFC_MM, SchemeKind.AFC_MS)


@dataclass(frozen=True, slots=True)
class SchemeConfig:
    """One fully specified arrangement: scheme, link, memory and source.

    evaluate(cfg) gives every quantity of the point: K, p_single, capacity,
    t_round, capped, feasible, rate and exact_rate.

    N_A / N_B split the 2N memories between sender and receiver and are only
    meaningful (and required) for SR.

    ms_sync_factor selects the classical-synchronization convention for the
    midpoint-source rate denominators: 2 reproduces the published closed
    forms, 1 the naive trials-times-probability-per-round derivation. The two
    rates differ by exactly that factor.
    """

    kind: SchemeKind
    link: LinkParams
    memory: MemorySpec | AfcSpec
    p_m: float = 1.0
    N_A: int | None = None
    N_B: int | None = None
    ms_sync_factor: int = 2

    def __post_init__(self) -> None:
        spec = AfcSpec if self.kind.is_afc else MemorySpec
        if not isinstance(self.memory, spec):
            raise ParameterError(f"memory must be of type {spec.__name__} for {self.kind.value.upper()}")
        _require_probability("p_m", self.p_m)
        if not (_is_integer(self.ms_sync_factor) and self.ms_sync_factor in (1, 2)):
            _require_real("ms_sync_factor", self.ms_sync_factor)
            raise ParameterError(f"ms_sync_factor must be 1 or 2, got {self.ms_sync_factor!r}")
        if self.kind is SchemeKind.SR:
            if self.N_A is None or self.N_B is None:
                raise ParameterError("N_A and N_B are required for SR")
            _require_count("N_A", self.N_A)
            _require_count("N_B", self.N_B)
            if self.N_A + self.N_B != 2 * self.memory.N:
                raise ParameterError(f"N_A + N_B must equal 2N = {2 * self.memory.N}, got {self.N_A + self.N_B}")
        elif self.N_A is not None or self.N_B is not None:
            raise ParameterError("N_A / N_B are only meaningful for SR")


class FeasibilityReport(NamedTuple):
    """Round-time budget of an AFC config against its spin coherence time."""

    ok: bool
    used_s: float    # t_rephase + t_link
    limit_s: float   # t_spin_coherence


class PointSummary(NamedTuple):
    """One sweep point: its entry of each evaluate_series column, and its config from evaluate().

    rate and exact_rate raise ParameterError rather than return a value that
    is not finite.
    """

    K: int                # trials per round
    p_single: float       # success probability of one trial
    capacity: int         # pairs one round can latch at most
    t_round: float        # full synchronization window, s
    capped: bool          # AFC budget limited by the rephasing period
    feasible: bool        # the round fits the spin coherence time
    rate_or_error: float | ParameterError  # what rate returns, or the error it raises
    cfg: SchemeConfig | None = None

    @property
    def exact_rate(self) -> float:
        """K * p_single / t_round, what a per-round tally converges to.

        No approximation, before the capacity cap (negligible whenever
        K * p_single is well below the memory count).
        """
        return _exact_rate(self.K, self.p_single, self.t_round)

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
        if isinstance(self.rate_or_error, ParameterError):
            raise self.rate_or_error
        return self.rate_or_error


class SeriesColumns(NamedTuple):
    """evaluate_series' result: one entry per (L, p_m) point, L major, in PointSummary's order.

    A point that fails holds its ParameterError in rate, and None in every
    other column if it could not be evaluated at all.
    """

    K: list[int | None]
    p_single: list[float | None]
    capacity: list[int | None]
    t_round: list[float | None]
    capped: list[bool | None]
    feasible: list[bool | None]
    rate: list[float | ParameterError]


def _finite(rate: float) -> float:
    if not math.isfinite(rate):
        raise ParameterError(f"rate is {rate!r}: the inputs exceed double precision")
    return rate


def _exact_rate(k: int, p_single: float, t_round: float) -> float:
    return _finite(k * p_single / t_round)


# Each scheme's formulas, over cfg's memory, the probability chain d at one
# L and the source probability p_m, which need not be cfg's own:
# evaluate_series runs one cfg over a whole series. tl is t_link, half and
# full the fiber transmissions over L / 2 and L.
_SINGLE_TRIAL_SUCCESS: dict[SchemeKind, Callable[..., float]] = {
    SchemeKind.MM: lambda cfg, d, p_m: d.p_BSA * d.p_optical**2,
    SchemeKind.SR: lambda cfg, d, p_m: d.p_BSA * d.p_optical**2,
    SchemeKind.MS: lambda cfg, d, p_m: p_m * (d.p_BSA * d.p_optical) ** 2,
    SchemeKind.AFC_MM: lambda cfg, d, p_m: d.p_BSA * (p_m * d.p_optical) ** 2,
    # Both halves must pass the non-destructive detectors and latch.
    SchemeKind.AFC_MS: lambda cfg, d, p_m: p_m * (cfg.memory.p_pass * d.p_optical) ** 2,
}
# Per-trial latch probability of one side, for the schemes that wait for it.
_LATCH_PROBABILITY: dict[SchemeKind, Callable[..., float]] = {
    SchemeKind.MS: lambda cfg, d, p_m: p_m * d.p_BSA * d.p_optical,
    # The source sits next to the memory, so only emission and absorption count.
    SchemeKind.AFC_MM: lambda cfg, d, p_m: p_m * cfg.memory.p_AFC,
    SchemeKind.AFC_MS: lambda cfg, d, p_m: p_m * cfg.memory.p_pass * d.p_optical,
}
_CLOSED_FORM_RATE: dict[SchemeKind, Callable[..., float]] = {
    SchemeKind.MM: lambda cfg, d, p_m, tl, half, full: cfg.memory.N * d.p_BSA * d.p_optical**2 / tl,
    SchemeKind.SR: lambda cfg, d, p_m, tl, half, full: (
        cfg.N_A * d.p_BSA * d.p_optical**2 / (2.0 * tl)),
    SchemeKind.MS: lambda cfg, d, p_m, tl, half, full: (
        cfg.memory.N * d.p_BSA * d.p_optical / (cfg.ms_sync_factor * tl)),
    SchemeKind.AFC_MM: lambda cfg, d, p_m, tl, half, full: (
        cfg.memory.N_AFC * d.p_BSA * p_m * cfg.memory.p_AFC * full / tl),
    SchemeKind.AFC_MS: lambda cfg, d, p_m, tl, half, full: (
        cfg.memory.N_AFC * cfg.memory.p_pass * cfg.memory.p_AFC * half / (cfg.ms_sync_factor * tl)),
}


def _ceil_ratio(numerator: float, denominator: float) -> int | None:
    """ceil(numerator / denominator), or None when that is unbounded in double precision."""
    ratio = numerator / denominator if denominator > 0.0 else math.inf
    return None if ratio == math.inf else math.ceil(ratio)


def _unbounded_ms_budget(link: LinkParams, L: float, d: DerivedProbs, p_m: float, p_latch: float) -> ParameterError:
    """The refusal of an MS budget memory.N / p_latch past double range, naming the factor of p_latch that is 0."""
    factors = {"p_m": p_m, f"p_BSA = p_d**2 / 2 (p_d = {link.p_d!r})": d.p_BSA,
               "memory.emission_fraction * memory.collection_efficiency": d.p_memory,
               f"the fiber transmission (L_km = {L!r}, L_att_km = {link.L_att!r})":
                   fiber_transmission(L, link.L_att)}
    why = next((f"MS latch probability is 0 because {name} is 0" for name, value in factors.items() if value == 0.0),
               f"memory.N / MS latch probability {p_latch!r} exceeds double precision")
    return ParameterError(f"unbounded trial budget: {why}")


def _rate(tl: float, rate_of: Callable[..., float], *args: object) -> float | ParameterError:
    """rate_of(*args), or the ParameterError PointSummary.rate raises for it: at t_link = 0 or past double range."""
    try:
        if tl == 0.0:
            raise ParameterError("analytic_rate needs L > 0 km and t_link = n L / c > 0 s: the closed forms divide "
                                 "by t_link")
        return _finite(rate_of(*args))
    except ParameterError as exc:
        return exc


def evaluate_series(cfg: SchemeConfig, L_values: Sequence[float], p_m_values: Sequence[float]) -> SeriesColumns:
    """Evaluate cfg's scheme and memory at every point of L_values x p_m_values.

    cfg's own L and p_m are not read, and a p_m or L that SchemeConfig or
    LinkParams refuses raises its error. Points come L major, in the order
    given. The probability chain is derived once per series, and t_link, the
    fiber transmissions and each MM or SR point once per L.

    Trials per round K: MM and SR fire each available memory once. MS and AFC
    fire ceil(capacity / p_latch), so that the expected latches fill the memories
    or modes; an AFC budget that is unbounded or outlasts the rephasing period
    is capped at ceil(t_rephase / t_clock_prime). t_round is t_link (twice for
    SR, whose photons cross the link and whose reply returns) plus K clocks.

    A point fails where its trial budget or round time is not finite (an MS
    latch probability of 0 has no rephasing cap to fall back on); its rate
    alone fails where t_link = 0 (L = 0) and where the rate is not finite.
    """
    for p_m in p_m_values:
        _require_probability("p_m", p_m)
    kind, link, mem, is_afc = cfg.kind, cfg.link, cfg.memory, cfg.kind.is_afc
    single_trial_success, closed_form_rate = _SINGLE_TRIAL_SUCCESS[kind], _CLOSED_FORM_RATE[kind]
    latch_probability = _LATCH_PROBABILITY.get(kind)
    t_clock = mem.t_clock_prime if is_afc else mem.t_clock
    # Pairs one round can latch at most: the mode count, or the (receiving) memories.
    point_capacity = mem.N_AFC if is_afc else cfg.N_A if kind is SchemeKind.SR else mem.N
    # The largest AFC budget before the first stored photon rephases out.
    cap = _ceil_ratio(mem.t_rephase, mem.t_clock_prime) if is_afc else None
    p_m_loop = p_m_values[:1] if latch_probability is None else p_m_values
    p_bsa, p_memory, _ = derive_probs(link, mem)
    points = []
    for L in L_values:
        _require_L(L)
        tl = link.n * L / link.c  # t_link at L, in its operations
        flight = 2.0 * tl if kind is SchemeKind.SR else tl
        half = fiber_transmission(L, link.L_att)
        full = math.exp(-L / link.L_att)
        d = DerivedProbs(p_bsa, p_memory, p_memory * half)  # derive_probs at L, in its operations
        fits = not is_afc or mem.t_rephase + tl <= mem.t_spin_coherence  # feasibility_check's rule
        uncapped = None if kind is SchemeKind.AFC_MM else _rate(tl, closed_form_rate, cfg, d, None, tl, half, full)
        for p_m in p_m_loop:
            try:
                k, capped = point_capacity, False
                if latch_probability is not None:
                    p_latch = latch_probability(cfg, d, p_m)
                    k = _ceil_ratio(point_capacity, p_latch)
                    if is_afc and (k is None or k * t_clock > mem.t_rephase):
                        if cap is None:
                            raise ParameterError(f"t_clock_prime {t_clock!r} s is too short for a finite budget")
                        k, capped = cap, True
                    elif k is None:
                        raise _unbounded_ms_budget(link, L, d, p_m, p_latch)
                t_round = flight + k * t_clock
                if not math.isfinite(t_round):
                    raise ParameterError(f"t_round is {t_round!r} s: the inputs exceed double precision")
            except ParameterError as exc:
                points.append((None,) * 6 + (exc,))
                continue
            p_single = single_trial_success(cfg, d, p_m)
            rate = (_rate(tl, _exact_rate, k, p_single, t_round) if capped else uncapped if uncapped is not None
                    else _rate(tl, closed_form_rate, cfg, d, p_m, tl, half, full))
            points.append((k, p_single, point_capacity, t_round, capped, fits, rate))
        if latch_probability is None:
            points += points[-1:] * (len(p_m_values) - 1)
    return SeriesColumns(*map(list, zip(*points))) if points else SeriesColumns([], [], [], [], [], [], [])


def evaluate(cfg: SchemeConfig) -> PointSummary:
    """The one-point case of evaluate_series; raises where the point fails, or from .rate."""
    point = [column[0] for column in evaluate_series(cfg, (cfg.link.L,), (cfg.p_m,))]
    if point[0] is None:
        raise point[-1]
    return PointSummary(*point, cfg=cfg)


def trials_per_round(cfg: SchemeConfig) -> int:
    """Number of trials performed during one synchronization round; see evaluate_series."""
    return evaluate(cfg).K


def round_time(cfg: SchemeConfig) -> float:
    """Total synchronization time of one round in seconds; see evaluate_series."""
    return evaluate(cfg).t_round


def analytic_rate(cfg: SchemeConfig) -> float:
    """Closed-form rate in pairs per second; see PointSummary.rate."""
    return evaluate(cfg).rate


def feasibility_check(cfg: SchemeConfig) -> FeasibilityReport:
    """Check that one AFC round fits inside the spin coherence time.

    The budget is t_rephase + t_link (storage until the classical confirmation
    arrives) against t_spin_coherence. Raises ParameterError for non-AFC configs.
    """
    if not cfg.kind.is_afc:
        raise ParameterError(f"feasibility_check does not apply to {cfg.kind.value.upper()}")
    used, limit = cfg.memory.t_rephase + t_link(cfg.link), cfg.memory.t_spin_coherence
    return FeasibilityReport(ok=used <= limit, used_s=used, limit_s=limit)
