"""Entanglement-swapping throughput under perfect or imperfect heralding.

With weak heralding an announced pair may in fact be missing (the photon was
detected in flight but never absorbed), so a fraction of swap trials burn a
Bell measurement on nothing. The module gives the trial budget, per-trial
success probability and expected success count for both regimes, plus the
multiplicative rate penalty over a chain of elementary links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .params import ParameterError, _require_count, _require_probability

__all__ = [
    "SwapParams",
    "SwapBudget",
    "swap_budget",
    "chain_factor",
]

Heralding = Literal["perfect", "imperfect"]


@dataclass(frozen=True, slots=True)
class SwapParams:
    """Inputs of the swapping analysis.

    p_emit defaults to p_AFC when omitted: absorb-then-reemit efficiency is
    pessimistically folded into the absorption figure.
    """

    J: int                      # entangled pairs shared per elementary link
    p_emit: float | None = None  # re-emission probability from the memory
    p_BSA: float = 0.32         # Bell measurement success probability
    p_pass: float = 0.9         # non-destructive detector transmission
    p_AFC: float = 0.53         # memory absorption efficiency
    i: int = 1                  # number of elementary links in the chain

    def __post_init__(self) -> None:
        _require_count("J", self.J)
        _require_count("i", self.i)
        _require_probability("p_BSA", self.p_BSA)
        _require_probability("p_pass", self.p_pass)
        _require_probability("p_AFC", self.p_AFC)
        if self.p_emit is not None:
            _require_probability("p_emit", self.p_emit)

    @property
    def emit(self) -> float:
        return self.p_AFC if self.p_emit is None else self.p_emit


class SwapBudget(NamedTuple):
    K_swap: float               # trial count, real-valued by convention
    p_swap: float               # success probability of one swap trial
    expected_successes: float   # J-pair expectation after K_swap trials


def swap_budget(p: SwapParams, heralding: Heralding = "perfect") -> SwapBudget:
    """Swap trial budget and expectations for one pair of adjacent links.

    Perfect heralding consumes exactly one announced pair per trial; imperfect
    heralding inflates the trial count by 1 / (p_pass * p_AFC) and squares the
    same factor into the per-trial success. K_swap stays real-valued;
    math.ceil(budget.K_swap) is the integer schedule. Raises ParameterError
    for a K_swap past double precision.
    """
    base = p.emit**2 * p.p_BSA
    if heralding == "perfect":
        return SwapBudget(float(p.J), base, p.J * base)  # K_swap, p_swap, expected_successes
    if heralding != "imperfect":
        raise ParameterError(f"heralding must be 'perfect' or 'imperfect', got {heralding!r}")
    confirm = p.p_pass * p.p_AFC
    if confirm == 0.0:
        raise ParameterError("imperfect heralding requires p_pass * p_AFC > 0")
    k_swap = p.J / confirm
    # p_swap <= 1 and expected_successes <= J: only K_swap can leave double range.
    if not math.isfinite(k_swap):
        raise ParameterError(f"K_swap is {k_swap!r}: the inputs exceed double precision")
    return SwapBudget(k_swap, confirm**2 * base, p.J * confirm * base)


def chain_factor(p: SwapParams) -> float:
    """Rate penalty of imperfect heralding after swapping over i links."""
    return (p.p_pass * p.p_AFC) ** (p.i - 1)
