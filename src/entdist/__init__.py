"""Entanglement distribution rate models for adjacent quantum repeater nodes.

Closed-form rates, a reproducible Monte Carlo simulator and a swapping
degradation model for five arrangements: MM, SR, MS, AFC-MM and AFC-MS.
"""

from .analytic import (
    FeasibilityReport,
    NotApplicableError,
    PointSummary,
    SchemeConfig,
    SchemeKind,
    analytic_rate,
    evaluate,
    evaluate_series,
    feasibility_check,
    round_time,
    trials_per_round,
)
from .harness import (
    ConfigError,
    ResultRow,
    Scenario,
    build_scenario,
    emit,
    preset_names,
    run_scenario,
    rows_to_csv,
    rows_to_json,
)
from .montecarlo import (
    FeasibilityError,
    McControls,
    RateEstimate,
    estimate_rate,
    rng_for_seed,
    simulate_rounds,
    subseed,
    subseeds,
)
from .params import (
    AFC_OPTIMISTIC,
    AFC_REALISTIC,
    AfcSpec,
    DIAMOND_NV,
    DerivedProbs,
    LinkParams,
    MEMORY_PRESETS,
    MemorySpec,
    ParameterError,
    QUANTUM_DOT,
    TRAPPED_ION,
    derive_probs,
    fiber_transmission,
    t_link,
)
from .swapping import SwapBudget, SwapParams, chain_factor, swap_budget

__version__ = "0.1.0"
