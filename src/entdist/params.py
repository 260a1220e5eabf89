"""Physical parameters, the derived probability chain shared by all schemes, and Monte Carlo controls.

Canonical units: kilometres for distances, seconds for times, probabilities
as plain floats in [0, 1]. No other units appear at API boundaries.

In every module, inputs that check themselves are frozen dataclasses, results
are NamedTuples and operations pure functions, all safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

__all__ = [
    "ParameterError",
    "LinkParams",
    "MemorySpec",
    "AfcSpec",
    "McControls",
    "DerivedProbs",
    "derive_probs",
    "t_link",
    "fiber_transmission",
    "TRAPPED_ION",
    "DIAMOND_NV",
    "QUANTUM_DOT",
    "AFC_REALISTIC",
    "AFC_OPTIMISTIC",
    "MEMORY_PRESETS",
]

_MAX = sys.float_info.max
_PLAIN = frozenset({float, int})  # passed in range by one comparison; a bool or numpy scalar takes every check
_DEFAULT_SEED = 42
_MAX_ROUNDS = 2**63 - 1  # numpy's multinomial takes the round count as a C long


class ParameterError(ValueError):
    """A physical parameter violated its invariant; the message names the field."""


def _require(condition: bool, field: str, template: str, *args: object) -> None:
    """Raise ParameterError("<field> <template % args>") unless condition; the message is built only then."""
    if not condition:
        raise ParameterError(f"{field} {template % args}")


def _require_real(field: str, value: float) -> None:
    """No integer past double range: float() overflows on one, and formatting one can pass the 4,300-digit limit."""
    if not (type(value) in _PLAIN and -_MAX <= value <= _MAX):
        _require(not isinstance(value, int) or abs(value) <= _MAX, field,
                 "must be at most %r in magnitude, got a larger integer", _MAX)


def _require_probability(field: str, value: float) -> None:
    if not (type(value) in _PLAIN and 0.0 <= value <= 1.0):
        _require_real(field, value)
        _require(0.0 <= value <= 1.0, field, "must be in [0, 1], got %r", value)


def _require_positive(field: str, value: float) -> None:
    if not (type(value) in _PLAIN and 0.0 < value <= _MAX):
        _require_real(field, value)
        _require(value > 0.0, field, "must be > 0, got %r", value)


def _require_finite(field: str, value: float) -> None:
    """value < inf; called after a lower bound, which has refused nan and -inf."""
    _require(value < math.inf, field, "must be finite, got %r", value)


def _is_integer(value: object) -> bool:
    """A Python or numpy integer; a bool or a float, even an integral one, is not."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def _require_L(L: float) -> None:
    if not (type(L) in _PLAIN and 0.0 <= L <= _MAX):
        _require_real("L", L)
        _require(L >= 0.0, "L", "must be >= 0 km, got %r", L)
        _require_finite("L", L)


def _require_count(field: str, value: int) -> None:
    """An integer >= 1 that converts to a finite float, so rates and budgets stay finite."""
    if not (type(value) is int and 1 <= value <= _MAX):
        _require(_is_integer(value), field, "must be an integer, got %r", value)
        _require_real(field, value)
        _require(value >= 1, field, "must be >= 1, got %r", value)


@dataclass(frozen=True, slots=True)
class LinkParams:
    """Fiber link between two adjacent repeater nodes; the defaults are every preset's.

    L may be zero (co-located nodes) for degenerate boundary cases, where the
    closed-form analytic_rate raises ParameterError; all other parameters
    must be strictly physical.
    """

    L: float              # node separation, km
    L_att: float = 22.0   # attenuation length of standard fiber, km
    n: float = 1.5        # refractive index of the fiber core
    c: float = 2.998e5    # vacuum light speed, km/s
    p_d: float = 0.8      # single-photon detector efficiency

    def __post_init__(self) -> None:
        _require_L(self.L)
        _require_positive("L_att", self.L_att)
        if not (type(self.n) in _PLAIN and 1.0 <= self.n <= _MAX):
            _require_real("n", self.n)
            _require(self.n >= 1.0, "n", "must be >= 1, got %r", self.n)
            _require_finite("n", self.n)
        _require_positive("c", self.c)
        _require_probability("p_d", self.p_d)


@dataclass(frozen=True, slots=True)
class MemorySpec:
    """Spin-photon entanglement type quantum memory (one node holds N of them)."""

    t_clock: float               # cycle time of one emission trial, s
    emission_fraction: float     # probability a cycle emits the photon
    collection_efficiency: float  # probability the photon couples into the fiber
    N: int = 1                   # memories per node

    def __post_init__(self) -> None:
        _require_positive("t_clock", self.t_clock)
        _require_finite("t_clock", self.t_clock)
        _require_probability("emission_fraction", self.emission_fraction)
        _require_probability("collection_efficiency", self.collection_efficiency)
        _require_count("N", self.N)


@dataclass(frozen=True, slots=True)
class AfcSpec:
    """Atomic-frequency-comb memory: one crystal, N_AFC temporal modes.

    A stored photon is re-emitted after t_rephase unless transferred to the
    spin level, where it survives up to t_spin_coherence.
    """

    N_AFC: int                   # temporal mode count
    t_rephase: float             # rephasing period, s
    t_spin_coherence: float      # coherence time at the spin level, s
    p_AFC: float                 # absorption efficiency
    p_pass: float                # non-destructive detector transmission
    t_clock_prime: float         # time used for one trial, s

    def __post_init__(self) -> None:
        _require_count("N_AFC", self.N_AFC)
        _require_positive("t_rephase", self.t_rephase)
        _require_real("t_spin_coherence", self.t_spin_coherence)
        _require(self.t_spin_coherence >= self.t_rephase, "t_spin_coherence",
                 "must be >= t_rephase (%r), got %r", self.t_rephase, self.t_spin_coherence)
        _require_probability("p_AFC", self.p_AFC)
        _require_probability("p_pass", self.p_pass)
        _require_positive("t_clock_prime", self.t_clock_prime)
        _require_finite("t_clock_prime", self.t_clock_prime)


def _require_seed(seed: int, name: str = "seed") -> None:
    if not ((type(seed) is int or _is_integer(seed)) and 0 <= seed < 2**64):  # int first: it is fast
        _require_real(name, seed)
        raise ParameterError(f"{name} must be a 64-bit unsigned integer, got {seed!r}")


@dataclass(frozen=True, slots=True)
class McControls:
    """Simulation controls: the round count and RNG seed of every point's estimate."""

    n_rounds: int
    seed: int = _DEFAULT_SEED

    def __post_init__(self) -> None:
        if not (_is_integer(self.n_rounds) and 1 <= self.n_rounds <= _MAX_ROUNDS):
            _require_real("n_rounds", self.n_rounds)
            raise ParameterError(f"n_rounds must be an integer in [1, 2**63 - 1], got {self.n_rounds!r}")
        _require_seed(self.seed)


class DerivedProbs(NamedTuple):
    """Probability chain derived from a link plus a memory description.

    p_optical is the base probability times the fiber transmission over half
    the link. For spin-photon memories the base is p_memory =
    emission_fraction * collection_efficiency, for AFC memories it is the
    absorption efficiency p_AFC.
    """

    p_BSA: float             # linear-optics Bell measurement success, p_d^2 / 2
    p_memory: float          # photon emitted (or absorbed) and coupled
    p_optical: float         # end-to-end photon success over half the link


def fiber_transmission(L: float, L_att: float) -> float:
    """Survival probability of a photon crossing half the link: exp(-L / 2 L_att)."""
    return math.exp(-L / (2.0 * L_att))


def t_link(link: LinkParams) -> float:
    """One-way fiber traversal time n L / c in seconds."""
    return link.n * link.L / link.c


def derive_probs(link: LinkParams, mem: MemorySpec | AfcSpec) -> DerivedProbs:
    """Derive the full probability chain for one link/memory combination.

    Pure and deterministic; the validated link and memory need no checks.
    """
    trans = fiber_transmission(link.L, link.L_att)
    p_bsa = link.p_d**2 / 2.0
    if isinstance(mem, AfcSpec):
        base = mem.p_AFC
    else:
        base = mem.emission_fraction * mem.collection_efficiency
    return DerivedProbs(p_bsa, base, base * trans)  # p_BSA, p_memory, p_optical


# Memory performance presets (cycle time, emission fraction, collection
# efficiency). N defaults to 3 memories per node for all three kinds.
TRAPPED_ION = MemorySpec(t_clock=1e-6, emission_fraction=1.00,
                         collection_efficiency=0.05, N=3)
DIAMOND_NV = MemorySpec(t_clock=100e-9, emission_fraction=0.50,
                        collection_efficiency=0.50, N=3)
QUANTUM_DOT = MemorySpec(t_clock=10e-9, emission_fraction=0.90,
                         collection_efficiency=0.50, N=3)

MEMORY_PRESETS: dict[str, MemorySpec] = {
    "trapped-ion": TRAPPED_ION,
    "nv": DIAMOND_NV,
    "quantum-dot": QUANTUM_DOT,
}

# AFC presets: "realistic" uses demonstrated Eu:YSO-class numbers, "optimistic"
# a high-mode-count crystal with unit absorption. Both share the 51 us
# rephasing period, 1 ms spin coherence and a 10 ns trial clock.
AFC_REALISTIC = AfcSpec(N_AFC=100, t_rephase=51e-6, t_spin_coherence=1e-3,
                        p_AFC=0.53, p_pass=0.9, t_clock_prime=10e-9)
AFC_OPTIMISTIC = AfcSpec(N_AFC=1060, t_rephase=51e-6, t_spin_coherence=1e-3,
                         p_AFC=1.0, p_pass=0.9, t_clock_prime=10e-9)
