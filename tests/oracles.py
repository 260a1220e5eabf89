"""Independent formula sets that tests check the library against.

They restate published closed forms and sampling schemes without the
library's evaluator, so agreement between the two is evidence for both.
"""

from dataclasses import dataclass

import numpy as np

from entdist.analytic import NotApplicableError, SchemeConfig, SchemeKind
from entdist.params import ParameterError, fiber_transmission


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
    if not cfg.kind.is_midpoint_source:
        raise NotApplicableError(
            f"{cfg.kind.display} has no left/right latch decomposition"
        )
    d = cfg.derived()
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
