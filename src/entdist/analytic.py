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
from typing import NamedTuple, Sequence

from .params import (
    AfcSpec,
    LinkParams,
    MemorySpec,
    ParameterError,
    _require_L,
    _require_count,
    _require_probability,
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
    """

    kind: SchemeKind
    link: LinkParams
    memory: MemorySpec | AfcSpec
    p_m: float = 1.0
    N_A: int | None = None
    N_B: int | None = None

    def __post_init__(self) -> None:
        spec = AfcSpec if self.kind.is_afc else MemorySpec
        if not isinstance(self.memory, spec):
            raise ParameterError(f"memory must be of type {spec.__name__} for {self.kind.value.upper()}")
        _require_probability("p_m", self.p_m)
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
        rate = self.K * self.p_single / self.t_round
        if not math.isfinite(rate):
            raise _refusal(rate)
        return rate

    @property
    def rate(self) -> float:
        """Closed-form entanglement distribution rate in pairs per second.

        The closed forms assume the trial window is short against the photon
        flight time (K t_clock << t_link). For SR the value is the standard
        upper bound used as the scheme's rate. When the rephasing cap limits
        an AFC budget the closed form no longer applies and exact_rate is
        returned instead.

        Raises ParameterError when t_link is 0 (L = 0): the closed forms
        divide by it. exact_rate, t_round and Monte Carlo work there. Each
        read raises a fresh copy of the stored error, so that no traceback
        grows with the reads or keeps their frames alive.
        """
        if isinstance(error := self.rate_or_error, ParameterError):
            raise type(error)(*error.args)
        return error


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


def _refusal(rate: float, t_link_is_zero: bool = False) -> ParameterError:
    """What PointSummary.rate raises for a rate that is not finite, or for any rate where t_link is 0."""
    if t_link_is_zero:
        return ParameterError("analytic_rate needs L > 0 km and t_link = n L / c > 0 s: the closed forms divide "
                              "by t_link")
    return ParameterError(f"rate is {rate!r}: the inputs exceed double precision")


def _rates(t_links: list[float], numerators: list[float], denominators: list[float]) -> list[float | ParameterError]:
    """Each numerator / denominator, or the ParameterError PointSummary.rate raises for it.

    The closed forms divide by t_link, so where it is 0 (L = 0, or n L / c
    underflows) that refusal wins; elsewhere a rate that is not finite fails.
    """
    return [rate if math.isfinite(rate := n / d if tl else math.inf) else _refusal(rate, not tl)
            for tl, n, d in zip(t_links, numerators, denominators)]


def _ceil_ratios(numerator: float, denominators: list[float]) -> list[int | float]:
    """ceil(numerator / denominator) for each denominator, or inf where that is unbounded in double precision."""
    return [ratio if (ratio := numerator / d if d > 0.0 else math.inf) == math.inf else math.ceil(ratio)
            for d in denominators]


def _unbounded_ms_budget(link: LinkParams, L: float, p_m: float, p_bsa: float, p_memory: float) -> ParameterError:
    """The refusal of an MS budget memory.N / p_latch past double range, naming the factor of p_latch that is 0."""
    half = fiber_transmission(L, link.L_att)
    factors = {"p_m": p_m, f"p_BSA = p_d**2 / 2 (p_d = {link.p_d!r})": p_bsa,
               "memory.emission_fraction * memory.collection_efficiency": p_memory,
               f"the fiber transmission (L_km = {L!r}, L_att_km = {link.L_att!r})": half}
    why = next((f"MS latch probability is 0 because {name} is 0" for name, value in factors.items() if value == 0.0),
               f"memory.N / MS latch probability {p_m * p_bsa * (p_memory * half)!r} exceeds double precision")
    return ParameterError(f"unbounded trial budget: {why}")


def evaluate_series(cfg: SchemeConfig, L_values: Sequence[float], p_m_values: Sequence[float]) -> SeriesColumns:
    """Evaluate cfg's scheme and memory at every point of L_values x p_m_values.

    cfg's own L and p_m are not read, and a p_m or L that SchemeConfig or
    LinkParams refuses raises its error. Points come L major, in the order
    given. Each column is built whole, each factor at the level it depends on
    and in the operations of the one-point formulas: the probability chain
    once per series; t_link, the fiber transmissions, p_optical, feasibility,
    the closed forms that read no p_m and all of an MM or SR point once per L;
    AFC-MM's budget, whose latch probability p_m p_AFC reads no L, once per
    p_m; p_single, t_round, the MS and AFC-MS budgets, AFC-MM's rate and the
    capped exact rates once per point.

    Trials per round K: MM and SR fire each available memory once. MS and AFC
    fire ceil(capacity / p_latch), so that the expected latches fill the memories
    or modes; an AFC budget that is unbounded or outlasts the rephasing period
    is capped at ceil(t_rephase / t_clock_prime), unless t_rephase is inf.
    t_round is t_link (twice for SR, whose photons cross the link and whose
    reply returns) plus K clocks.

    A point fails where its trial budget or round time is not finite (an MS
    latch probability of 0 has no rephasing cap to fall back on); its rate
    alone fails where t_link = 0 (L = 0, or n L / c underflows) and where the
    rate is not finite.
    """
    for p_m in p_m_values:
        _require_probability("p_m", p_m)
    kind, link, mem, is_afc = cfg.kind, cfg.link, cfg.memory, cfg.kind.is_afc
    p_bsa, p_memory, _ = derive_probs(link, mem)
    for L in L_values:
        _require_L(L)
    t_clock = mem.t_clock_prime if is_afc else mem.t_clock
    # Pairs one round can latch at most: the mode count, or the (receiving) memories.
    capacity = mem.N_AFC if is_afc else cfg.N_A if kind is SchemeKind.SR else mem.N
    n = len(L_values) * len(p_m_values)
    capacities = [capacity] * n

    def each_p_m(column: list) -> list:
        """A column of one entry per L, repeated over p_m: one entry per point, L major."""
        return [value for value in column for _ in p_m_values]

    # t_link, and derive_probs at L from the fiber transmission over L / 2, in their operations.
    tls = [link.n * L / link.c for L in L_values]
    halves = [fiber_transmission(L, link.L_att) for L in L_values]
    p_opts = [p_memory * half for half in halves]
    feasible = each_p_m([mem.t_rephase + tl <= mem.t_spin_coherence for tl in tls]) if is_afc else [True] * n
    if kind is SchemeKind.MM or kind is SchemeKind.SR:
        flights = [2.0 * tl for tl in tls] if kind is SchemeKind.SR else tls
        K, capped = [capacity] * n, [False] * n
        t_round = each_p_m([flight + capacity * t_clock for flight in flights])
        p_single = each_p_m([p_bsa * p**2 for p in p_opts])
        rate = each_p_m(_rates(tls, [capacity * p_bsa * p**2 for p in p_opts], flights))
    else:  # MS and AFC, whose flight is t_link
        point_tls = each_p_m(tls)
        if kind is SchemeKind.AFC_MM:
            # The source sits next to the memory, so only emission and absorption count.
            K = _ceil_ratios(capacity, [p_m * mem.p_AFC for p_m in p_m_values])
            p_single = [p_bsa * (p_m * p) ** 2 for p in p_opts for p_m in p_m_values]
            factors = [capacity * p_bsa * p_m * mem.p_AFC for p_m in p_m_values]
            fulls = [math.exp(-L / link.L_att) for L in L_values]
            rate = _rates(point_tls, [x * full for full in fulls for x in factors], point_tls)
        else:
            # MS latches at p_m p_BSA p_optical; AFC-MS, whose halves must pass the non-destructive
            # detectors, at p_m p_pass p_optical. Both rates keep the published denominator 2 t_link.
            a = p_bsa if kind is SchemeKind.MS else mem.p_pass
            factors = [p_m * a for p_m in p_m_values]
            K = _ceil_ratios(capacity, [x * p for p in p_opts for x in factors])
            p_single = [p_m * q for q in [(a * p) ** 2 for p in p_opts] for p_m in p_m_values]
            numerators = ([capacity * p_bsa * p for p in p_opts] if kind is SchemeKind.MS
                          else [capacity * mem.p_pass * mem.p_AFC * half for half in halves])
            rate = each_p_m(_rates(tls, numerators, [2 * tl for tl in tls]))
        capped = [False] * n
        if is_afc:
            capped = [k * t_clock > mem.t_rephase for k in K]
            (cap,) = _ceil_ratios(mem.t_rephase, [mem.t_clock_prime])
            K = [cap if c else k for k, c in zip(K, capped)]
        if kind is SchemeKind.AFC_MM:
            K, capped = K * len(L_values), capped * len(L_values)
        t_round = [tl + k * t_clock for tl, k in zip(point_tls, K)]
        if True in capped:  # a capped budget's rate is exact_rate's K p_single / t_round
            rate = [r if not c else exact if math.isfinite(exact := cap * p / t if tl else math.inf)
                    else _refusal(exact, not tl) for p, t, tl, c, r in zip(p_single, t_round, point_tls, capped, rate)]
    if math.inf in t_round:  # a budget or round time past double range: the refusal in rate, None elsewhere
        for j in [j for j, t in enumerate(t_round) if t == math.inf]:
            L, p_m = L_values[j // len(p_m_values)], p_m_values[j % len(p_m_values)]
            rate[j] = (ParameterError(f"t_round is {t_round[j]!r} s: the inputs exceed double precision")
                       if K[j] != math.inf else _unbounded_ms_budget(link, L, p_m, p_bsa, p_memory) if not is_afc
                       else ParameterError(f"t_clock_prime {t_clock!r} s is too short for a finite budget"
                                           if mem.t_rephase < math.inf
                                           else "unbounded trial budget: t_rephase inf s sets no rephasing cap"))
            for column in (K, p_single, capacities, t_round, capped, feasible):
                column[j] = None
    return SeriesColumns(K, p_single, capacities, t_round, capped, feasible, rate)


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
