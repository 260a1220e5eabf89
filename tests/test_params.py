import dataclasses
import math
import re

import numpy as np
import pytest

from entdist.analytic import SchemeConfig, SchemeKind
from entdist.montecarlo import McControls, rng_for_seed, subseed, subseeds
from entdist.params import (
    AFC_OPTIMISTIC,
    AFC_REALISTIC,
    AfcSpec,
    DIAMOND_NV,
    LinkParams,
    MemorySpec,
    ParameterError,
    QUANTUM_DOT,
    TRAPPED_ION,
    derive_probs,
    fiber_transmission,
    t_link,
)
from entdist.swapping import SwapParams

# Frozen expected values, evaluated at 40-digit precision from the defining
# expressions (n L / c, base * exp(-L / 2 L_att)) and rounded to nearest double.
T_LINK_10 = 5.0033355570380255e-05
T_LINK_50 = 0.0002501667778519013
P_OPT_PRIME_L10 = 0.42225283904353467


def test_bell_measurement_probability_from_detector_efficiency():
    probs = derive_probs(LinkParams(L=10.0), QUANTUM_DOT)
    assert probs.p_BSA == pytest.approx(0.32, rel=1e-15)


@pytest.mark.parametrize(
    "mem, expected",
    [(TRAPPED_ION, 0.05), (DIAMOND_NV, 0.25), (QUANTUM_DOT, 0.45)],
)
def test_memory_presets_emit_and_couple_products(mem, expected):
    probs = derive_probs(LinkParams(L=10.0), mem)
    assert probs.p_memory == expected


def test_zero_distance_has_unit_attenuation():
    probs = derive_probs(LinkParams(L=0.0), QUANTUM_DOT)
    assert probs.p_optical == 0.45


def test_afc_end_to_end_probability():
    probs = derive_probs(LinkParams(L=10.0), AFC_REALISTIC)
    assert probs.p_optical == pytest.approx(P_OPT_PRIME_L10, rel=1e-12)
    assert probs.p_memory == 0.53


def test_derived_probability_ordering():
    for mem in (TRAPPED_ION, DIAMOND_NV, QUANTUM_DOT, AFC_REALISTIC, AFC_OPTIMISTIC):
        probs = derive_probs(LinkParams(L=37.0), mem)
        assert 0.0 <= probs.p_optical <= probs.p_memory <= 1.0
        assert probs.p_BSA <= 0.5


def test_optical_probability_monotone_decreasing_in_distance():
    previous = None
    for L in [0.0, 1.0, 5.0, 20.0, 50.0, 120.0]:
        value = derive_probs(LinkParams(L=L), QUANTUM_DOT).p_optical
        if previous is not None:
            assert value < previous
        previous = value


def test_half_attenuation_identity():
    # Transmission halves after one absorption half-length 2 L_att ln 2.
    L_half = 2.0 * 22.0 * math.log(2.0)
    probs = derive_probs(LinkParams(L=L_half), QUANTUM_DOT)
    assert probs.p_optical == pytest.approx(0.45 / 2.0, rel=1e-12)


def test_travel_time_values():
    assert t_link(LinkParams(L=10.0)) == pytest.approx(T_LINK_10, rel=1e-12)
    assert t_link(LinkParams(L=50.0)) == pytest.approx(T_LINK_50, rel=1e-12)
    assert t_link(LinkParams(L=0.0)) == 0.0


def test_travel_time_is_half_millisecond_scale_at_50km():
    # 50 km of fiber is roughly a quarter millisecond one way.
    assert t_link(LinkParams(L=50.0)) == pytest.approx(250e-6, rel=0.01)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(L=-1.0), "L"),
        (dict(L=10.0, L_att=0.0), "L_att"),
        (dict(L=10.0, n=0.8), "n"),
        (dict(L=10.0, p_d=1.5), "p_d"),
        # Integers past double range: float() overflows, and repr() fails past 4,300 digits.
        (dict(L=10**400), "L"),
        (dict(L=-10**5000), "L"),
        (dict(L=10.0, L_att=10**400), "L_att"),
        (dict(L=10.0, n=-10**5000), "n"),
        (dict(L=1, p_d=10**5000), "p_d"),
    ],
)
def test_link_validation_names_offending_field(kwargs, field):
    with pytest.raises(ParameterError, match=field):
        LinkParams(**kwargs)


def test_light_speed_is_no_longer_a_field():
    # c is the vacuum light speed; the fiber enters only through n.
    with pytest.raises(TypeError, match="'c'"):
        LinkParams(L=10.0, c=3e5)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(t_clock=0.0, emission_fraction=0.9, collection_efficiency=0.5), "t_clock"),
        (dict(t_clock=1e-8, emission_fraction=1.2, collection_efficiency=0.5), "emission_fraction"),
        (dict(t_clock=1e-8, emission_fraction=0.9, collection_efficiency=-0.1), "collection_efficiency"),
        (dict(t_clock=1e-8, emission_fraction=0.9, collection_efficiency=0.5, N=0), "N"),
        (dict(t_clock=10**400, emission_fraction=0.9, collection_efficiency=0.5), "t_clock"),
        (dict(t_clock=1e-8, emission_fraction=-10**5000, collection_efficiency=0.5), "emission_fraction"),
        (dict(t_clock=1e-8, emission_fraction=0.9, collection_efficiency=10**5000), "collection_efficiency"),
        (dict(t_clock=1e-8, emission_fraction=0.9, collection_efficiency=0.5, N=-10**5000), "N"),
    ],
)
def test_memory_validation_names_offending_field(kwargs, field):
    with pytest.raises(ParameterError, match=field):
        MemorySpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(N_AFC=0, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=0.9, t_clock_prime=1e-8), "N_AFC"),
        (dict(N_AFC=10, t_rephase=0.0, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=0.9, t_clock_prime=1e-8), "t_rephase"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-6, p_AFC=0.5, p_pass=0.9, t_clock_prime=1e-8), "t_spin_coherence"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=1.5, p_pass=0.9, t_clock_prime=1e-8), "p_AFC"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=2.0, t_clock_prime=1e-8), "p_pass"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=0.9, t_clock_prime=0.0), "t_clock_prime"),
        (dict(N_AFC=-10**5000, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=0.9, t_clock_prime=1e-8), "N_AFC"),
        (dict(N_AFC=10, t_rephase=10**400, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=0.9, t_clock_prime=1e-8), "t_rephase"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=-10**5000, p_AFC=0.5, p_pass=0.9, t_clock_prime=1e-8), "t_spin_coherence"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=10**5000, p_pass=0.9, t_clock_prime=1e-8), "p_AFC"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=-10**400, t_clock_prime=1e-8), "p_pass"),
        (dict(N_AFC=10, t_rephase=51e-6, t_spin_coherence=1e-3, p_AFC=0.5, p_pass=0.9, t_clock_prime=10**400), "t_clock_prime"),
    ],
)
def test_afc_validation_names_offending_field(kwargs, field):
    with pytest.raises(ParameterError, match=field):
        AfcSpec(**kwargs)


def test_pair_source_probability_validated():
    # A config validates p_m; the probability chain does not depend on it.
    with pytest.raises(ParameterError, match="p_m"):
        SchemeConfig(SchemeKind.MS, LinkParams(L=10.0), QUANTUM_DOT, p_m=1.1)


@pytest.mark.parametrize("build, field", [
    (lambda: SchemeConfig(SchemeKind.MS, LinkParams(L=10.0), QUANTUM_DOT, p_m=10**5000), "p_m"),
    (lambda: SchemeConfig(SchemeKind.MS, LinkParams(L=10.0), QUANTUM_DOT, p_m=-10**400), "p_m"),
    (lambda: SwapParams(J=-10**5000), "J"),
    (lambda: SwapParams(J=10, i=10**400), "i"),
    (lambda: SwapParams(J=10, p_emit=10**5000), "p_emit"),
    (lambda: SwapParams(J=10, p_BSA=-10**5000), "p_BSA"),
    (lambda: SwapParams(J=10, p_pass=10**400), "p_pass"),
    (lambda: SwapParams(J=10, p_AFC=10**5000), "p_AFC"),
    (lambda: McControls(10**5000), "n_rounds"),
    (lambda: McControls(10, seed=-10**5000), "seed"),
])
def test_integers_past_double_range_are_refused_without_formatting_them(build, field):
    with pytest.raises(ParameterError, match=f"^{field} must be at most .* in magnitude, got a larger integer$"):
        build()


def test_parameter_types_are_immutable():
    link = LinkParams(L=10.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.L = 20.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        QUANTUM_DOT.N = 5


def test_fiber_transmission_basic_points():
    assert fiber_transmission(0.0, 22.0) == 1.0
    assert fiber_transmission(44.0, 22.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


LINK10 = LinkParams(L=10.0)


@pytest.mark.parametrize("build, field", [
    (lambda: dataclasses.replace(QUANTUM_DOT, N=2.5), "N"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=3.0), "N"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=True), "N"),
    (lambda: dataclasses.replace(AFC_REALISTIC, N_AFC=100.5), "N_AFC"),
    (lambda: SchemeConfig(SchemeKind.SR, LINK10, QUANTUM_DOT, N_A=2.5, N_B=3.5), "N_A"),
    (lambda: SchemeConfig(SchemeKind.SR, LINK10, QUANTUM_DOT, N_A=5, N_B=True), "N_B"),
    (lambda: SwapParams(J=2.5), "J"),
    (lambda: SwapParams(J=10, i=1.5), "i"),
    (lambda: McControls(1000.5), "n_rounds"),
    (lambda: McControls(True), "n_rounds"),
    (lambda: McControls(1000, seed=1.5), "seed"),
    (lambda: McControls(1000, seed=False), "seed"),
    (lambda: rng_for_seed(1.5), "seed"),
    (lambda: subseed(1, 0.5), "sub-seed indices"),
    (lambda: subseeds(1, [True, False]), "sub-seed indices"),
    (lambda: subseeds(1.5, [0]), "master seed"),
])
def test_counts_and_controls_must_be_integers(build, field):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        build()


def test_numpy_integers_are_counts_and_controls():
    assert dataclasses.replace(QUANTUM_DOT, N=np.int64(3)).N == 3
    assert dataclasses.replace(AFC_REALISTIC, N_AFC=np.uint32(100)).N_AFC == 100
    assert SwapParams(J=np.int32(10), i=np.int64(2)).J == 10
    assert McControls(np.int64(1000), seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert rng_for_seed(np.uint64(7)).random() == rng_for_seed(7).random()
    assert subseed(np.uint64(5), np.int64(3)) == subseed(5, 3)
    assert subseeds(5, np.arange(4, dtype=np.uint32)).tolist() == subseeds(5, [0, 1, 2, 3]).tolist()


HUGE = "must be at most 1.7976931348623157e+308 in magnitude, got a larger integer"


# Inputs that a check passing built-in numbers by type first could let
# through: numpy scalars, bools, integral floats, integers past double range,
# nan and -0.0. Each keeps its field, order of checks and text.
@pytest.mark.parametrize("build, message", [
    (lambda: LinkParams(L=1.0, p_d=np.float64("nan")), "p_d must be in [0, 1], got np.float64(nan)"),
    (lambda: LinkParams(L=1.0, p_d=np.float64(1.5)), "p_d must be in [0, 1], got np.float64(1.5)"),
    (lambda: SwapParams(J=1, p_AFC=np.float64("nan")), "p_AFC must be in [0, 1], got np.float64(nan)"),
    (lambda: SchemeConfig(SchemeKind.MS, LINK10, QUANTUM_DOT, p_m=np.float64(1.5)),
     "p_m must be in [0, 1], got np.float64(1.5)"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=True), "N must be an integer, got True"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=np.bool_(True)), "N must be an integer, got np.True_"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=2.0), "N must be an integer, got 2.0"),
    (lambda: SwapParams(J=True), "J must be an integer, got True"),
    (lambda: SwapParams(J=np.bool_(True)), "J must be an integer, got np.True_"),
    (lambda: SwapParams(J=2.0), "J must be an integer, got 2.0"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=2**1024), f"N {HUGE}"),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=-(10**400)), f"N {HUGE}"),
    (lambda: SwapParams(J=2**1024), f"J {HUGE}"),
    (lambda: dataclasses.replace(AFC_REALISTIC, N_AFC=-(10**400)), f"N_AFC {HUGE}"),
    (lambda: LinkParams(L=1.0, L_att=2**1024), f"L_att {HUGE}"),
    (lambda: dataclasses.replace(QUANTUM_DOT, t_clock=2**1024), f"t_clock {HUGE}"),
    (lambda: LinkParams(L=2**1024), f"L {HUGE}"),
    (lambda: LinkParams(L=1.0, n=2**1024), f"n {HUGE}"),
    (lambda: LinkParams(L=1.0, p_d=2**1024), f"p_d {HUGE}"),
    (lambda: SwapParams(J=1, p_pass=-(10**400)), f"p_pass {HUGE}"),
    (lambda: LinkParams(L=1.0, L_att=math.nan), "L_att must be > 0, got nan"),
    (lambda: LinkParams(L=1.0, L_att=-0.0), "L_att must be > 0, got -0.0"),
    (lambda: dataclasses.replace(QUANTUM_DOT, t_clock=-0.0), "t_clock must be > 0, got -0.0"),
    (lambda: dataclasses.replace(AFC_REALISTIC, t_rephase=math.nan), "t_rephase must be > 0, got nan"),
    (lambda: LinkParams(L=math.nan), "L must be >= 0 km, got nan"),
    (lambda: LinkParams(L=np.float64(-1.0)), "L must be >= 0 km, got np.float64(-1.0)"),
    (lambda: LinkParams(L=1.0, n=math.nan), "n must be >= 1, got nan"),
    (lambda: dataclasses.replace(QUANTUM_DOT, t_clock=math.inf), "t_clock must be finite, got inf"),
    (lambda: dataclasses.replace(AFC_REALISTIC, t_clock_prime=math.inf), "t_clock_prime must be finite, got inf"),
    (lambda: LinkParams(L=1.0, n=math.inf), "n must be finite, got inf"),
])
def test_edge_inputs_are_refused_with_the_checks_text(build, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, field, value", [
    (lambda: LinkParams(L=np.float64(0.5), L_att=np.float64(0.5), p_d=np.float64(0.5)), "p_d", 0.5),
    (lambda: dataclasses.replace(QUANTUM_DOT, N=np.int64(3)), "N", 3),
    (lambda: SwapParams(J=np.int64(3), i=np.int64(3), p_BSA=np.float64(0.5)), "J", 3),
    (lambda: LinkParams(L=1.0, L_att=5e-324), "L_att", 5e-324),
    (lambda: dataclasses.replace(QUANTUM_DOT, t_clock=5e-324), "t_clock", 5e-324),
    (lambda: dataclasses.replace(AFC_REALISTIC, t_rephase=5e-324, t_clock_prime=5e-324), "t_rephase", 5e-324),
    (lambda: LinkParams(L=1.0, L_att=math.inf), "L_att", math.inf),
    (lambda: dataclasses.replace(AFC_REALISTIC, t_spin_coherence=math.inf), "t_spin_coherence", math.inf),
    (lambda: LinkParams(L=-0.0, n=True), "L", -0.0),
])
def test_edge_inputs_that_the_checks_accept(build, field, value):
    assert getattr(build(), field) == value
