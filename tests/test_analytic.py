import math
import re
from dataclasses import replace

import numpy as np
import pytest

from entdist import analytic
from entdist.analytic import (
    SchemeConfig,
    SchemeKind,
    analytic_rate,
    evaluate,
    evaluate_series,
    feasibility_check,
    round_time,
    trials_per_round,
)
from entdist.montecarlo import McControls, estimate_rate
from entdist.params import (
    AFC_OPTIMISTIC,
    AFC_REALISTIC,
    AfcSpec,
    LinkParams,
    MemorySpec,
    ParameterError,
    QUANTUM_DOT,
    derive_probs,
)

from oracles import NotApplicableError, closed_form_ratio, latch_probability, scheme_point

# Frozen expected values (40-digit evaluation of the defining formulas,
# rounded to nearest double).
P_SINGLE_MM_QD_L10 = 0.041130919947330265
P_SINGLE_AFCMS_L10 = 0.0722104713325317
T_ROUND_MM_QD_L10 = 5.006335557038025e-05
T_ROUND_SR_QD_L10 = 0.00010009671114076051
RATIO_MS_MM_QD_L10 = 1.394635712154854
RATIO_AFCMS_AFCMM_PM05_L10 = 3.5301716463919743
RATIO_AFCMM_MS_PM05_L10 = 31.27798807729886
RATIO_AFCMS_MS = 110.41666666666667
BUDGET_USED_L50 = 0.0003011667778519013
BUDGET_USED_L190 = 0.0010016337558372249

LINK10 = LinkParams(L=10.0)
LINK50 = LinkParams(L=50.0)


def mm(link=LINK10, memory=QUANTUM_DOT, **kw):
    return SchemeConfig(SchemeKind.MM, link, memory, **kw)


def sr(link=LINK10, memory=QUANTUM_DOT, N_A=3, N_B=3, **kw):
    return SchemeConfig(SchemeKind.SR, link, memory, N_A=N_A, N_B=N_B, **kw)


def ms(link=LINK10, memory=QUANTUM_DOT, p_m=0.5, **kw):
    return SchemeConfig(SchemeKind.MS, link, memory, p_m=p_m, **kw)


def afc_mm(link=LINK10, memory=AFC_REALISTIC, p_m=0.5, **kw):
    return SchemeConfig(SchemeKind.AFC_MM, link, memory, p_m=p_m, **kw)


def afc_ms(link=LINK10, memory=AFC_REALISTIC, p_m=0.5, **kw):
    return SchemeConfig(SchemeKind.AFC_MS, link, memory, p_m=p_m, **kw)


class TestConfigValidation:
    def test_afc_scheme_requires_afc_memory(self):
        with pytest.raises(ParameterError, match="AfcSpec"):
            SchemeConfig(SchemeKind.AFC_MM, LINK10, QUANTUM_DOT)
        with pytest.raises(ParameterError, match="MemorySpec"):
            SchemeConfig(SchemeKind.MM, LINK10, AFC_REALISTIC)

    def test_sr_memory_split(self):
        with pytest.raises(ParameterError, match="N_A"):
            SchemeConfig(SchemeKind.SR, LINK10, QUANTUM_DOT)
        with pytest.raises(ParameterError, match="2N"):
            sr(N_A=4, N_B=4)
        with pytest.raises(ParameterError, match=">= 1"):
            sr(N_A=6, N_B=0)
        assert sr(N_A=5, N_B=1).N_A == 5

    def test_sr_split_of_text_is_refused_by_name(self):
        # Not compared with 1 first, which raised a TypeError.
        with pytest.raises(ParameterError, match="^N_A must be an integer"):
            sr(N_A="3", N_B=3)

    def test_split_rejected_outside_sr(self):
        with pytest.raises(ParameterError, match="N_A"):
            SchemeConfig(SchemeKind.MM, LINK10, QUANTUM_DOT, N_A=3, N_B=3)

    def test_sync_factor_is_no_longer_a_field(self):
        # MS and AFC-MS keep the published factor-2 denominator; there is no other convention to pick.
        for build in (ms, afc_ms):
            with pytest.raises(TypeError, match="ms_sync_factor"):
                build(ms_sync_factor=2)


class TestSingleTrialSuccess:
    def test_mm_value(self):
        assert evaluate(mm()).p_single == pytest.approx(P_SINGLE_MM_QD_L10, rel=1e-12)

    def test_sr_equals_mm(self):
        assert evaluate(sr()).p_single == evaluate(mm()).p_single

    def test_ms_joint_probability(self):
        # p_m (p_BSA p_optical)^2 with both sides latching on the same trial.
        probs = derive_probs(LINK10, QUANTUM_DOT)
        expected = 0.5 * (probs.p_BSA * probs.p_optical) ** 2
        assert evaluate(ms()).p_single == pytest.approx(expected, rel=1e-15)

    def test_afc_ms_value(self):
        assert evaluate(afc_ms()).p_single == pytest.approx(P_SINGLE_AFCMS_L10, rel=1e-12)

    def test_zero_detector_kills_bsa_schemes(self):
        dead = replace(LINK10, p_d=0.0)
        assert evaluate(mm(link=dead)).p_single == 0.0
        assert evaluate(sr(link=dead)).p_single == 0.0
        assert evaluate(afc_mm(link=dead)).p_single == 0.0

    def test_zero_pair_source_kills_source_schemes(self):
        # MS has no finite budget at p_m = 0 (see TestTrialBudgets), so its
        # p_single is shown to vanish linearly with p_m instead.
        assert evaluate(ms(p_m=1e-300)).p_single == pytest.approx(
            1e-300 * evaluate(ms(p_m=1.0)).p_single, rel=1e-12)
        assert evaluate(afc_mm(p_m=0.0)).p_single == 0.0
        assert evaluate(afc_ms(p_m=0.0)).p_single == 0.0


class TestTrialBudgets:
    def test_mm_and_sr_fire_each_memory_once(self):
        assert trials_per_round(mm()) == 3
        assert trials_per_round(sr(N_A=5, N_B=1)) == 5

    def test_ms_budget(self):
        assert trials_per_round(ms()) == 53

    def test_afc_mm_budget(self):
        cfg = afc_mm()
        assert trials_per_round(cfg) == 378
        assert not evaluate(cfg).capped

    def test_afc_ms_budget(self):
        assert trials_per_round(afc_ms()) == 527

    def test_rephasing_cap(self):
        # ceil(t_rephase / t_clock_prime) = 5100 trials, for either AFC scheme.
        assert evaluate(afc_ms(p_m=0.02)).K == 5100
        cfg = afc_mm(p_m=0.02)  # uncapped budget would be 9434 trials
        assert evaluate(cfg).capped
        assert trials_per_round(cfg) == 5100

    def test_budget_ending_as_the_first_photon_rephases_is_uncapped(self):
        # K t_clock' == t_rephase exactly; one ulp less rephasing time caps it.
        k = evaluate(afc_mm()).K
        tick = 2.0**-27  # a power of two, so that k * tick is exact
        memory = replace(AFC_REALISTIC, t_clock_prime=tick, t_rephase=k * tick)
        point = evaluate(afc_mm(memory=memory))
        assert (point.K, point.capped) == (k, False)
        assert evaluate(afc_mm(memory=replace(memory, t_rephase=math.nextafter(k * tick, 0.0)))).capped

    def test_zero_latch_probability_is_unbounded_for_ms(self):
        # 1e-320 is a nonzero latch probability whose budget N / p overflows.
        for p_m in (0.0, 1e-320):
            with pytest.raises(ParameterError, match="unbounded trial budget"):
                trials_per_round(ms(p_m=p_m))
            with pytest.raises(ParameterError, match="unbounded trial budget"):
                analytic_rate(ms(p_m=p_m))

    def test_overflowing_inputs_raise_parameter_errors(self):
        with pytest.raises(ParameterError, match="t_clock_prime"):
            evaluate(afc_mm(memory=replace(AFC_REALISTIC, t_clock_prime=5e-324), p_m=0.0))
        # t_link underflows to 0 at L = 5e-324 km; at 1e-310 km the rates overflow.
        with pytest.raises(ParameterError, match="L > 0"):
            analytic_rate(mm(link=LinkParams(L=5e-324)))
        with pytest.raises(ParameterError, match="double precision"):
            analytic_rate(mm(link=LinkParams(L=1e-310)))
        with pytest.raises(ParameterError, match="double precision"):
            evaluate(mm(memory=replace(QUANTUM_DOT, t_clock=5e-324), link=LinkParams(L=0.0))).exact_rate

    def test_zero_latch_probability_hits_cap_for_afc(self):
        # The rephasing period bounds the budget even when nothing latches.
        assert trials_per_round(afc_mm(p_m=0.0)) == 5100


class TestRoundTime:
    def test_mm(self):
        assert round_time(mm()) == pytest.approx(T_ROUND_MM_QD_L10, rel=1e-12)

    def test_sr_waits_for_the_echo(self):
        assert round_time(sr()) == pytest.approx(T_ROUND_SR_QD_L10, rel=1e-12)

    def test_ms_counts_the_full_budget(self):
        cfg = ms()
        expected = 5.0033355570380255e-05 + 53 * 1e-8
        assert round_time(cfg) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_clock_leaves_flight_time(self):
        tiny = replace(QUANTUM_DOT, t_clock=1e-300)
        assert round_time(mm(memory=tiny)) == 5.0033355570380255e-05


class TestRates:
    def test_capped_rate_equals_exact_rate(self):
        point = evaluate(afc_mm(p_m=0.02))
        assert point.capped
        assert point.rate == point.exact_rate

    def test_uncapped_afc_mm_budget_times_probability_matches_closed_form(self):
        # Without the ceiling, K p_single collapses to the closed-form numerator.
        cfg = afc_mm()
        k_real = cfg.memory.N_AFC / latch_probability(cfg)
        per_round = k_real * evaluate(cfg).p_single
        closed_numerator = analytic_rate(cfg) * (cfg.link.n * cfg.link.L / cfg.link.c)
        assert per_round == pytest.approx(closed_numerator, rel=1e-12)

    def test_exact_rate_tracks_budget_and_round_time(self):
        cfg = ms()
        expected = trials_per_round(cfg) * evaluate(cfg).p_single / round_time(cfg)
        assert evaluate(cfg).exact_rate == expected

    @pytest.mark.parametrize("build", [mm, sr, ms, afc_mm, afc_ms])
    def test_closed_form_needs_positive_length(self, build):
        cfg = build(link=LinkParams(L=0.0))
        with pytest.raises(ParameterError, match="L > 0"):
            analytic_rate(cfg)
        assert math.isfinite(round_time(cfg)) and round_time(cfg) > 0.0
        exact = evaluate(cfg).exact_rate
        assert math.isfinite(exact) and exact >= 0.0
        estimate = estimate_rate(evaluate(cfg), McControls(n_rounds=100, seed=1))
        assert math.isfinite(estimate.rate) and estimate.rate >= 0.0

    def test_summary_bundles_the_quantities(self):
        cfg = afc_ms()
        summary = evaluate(cfg)
        assert summary.K == 527
        assert summary.rate == analytic_rate(cfg)
        assert summary.p_single == pytest.approx(P_SINGLE_AFCMS_L10, rel=1e-12)
        assert summary.t_round == round_time(cfg)
        assert summary.capacity == AFC_REALISTIC.N_AFC
        assert not summary.capped
        assert summary.feasible == feasibility_check(cfg).ok
        assert summary.exact_rate == 527 * summary.p_single / summary.t_round


def rate_ratio(a, b):
    """The generic ratio of two closed-form rates, each evaluated on its own."""
    return evaluate(a).rate / evaluate(b).rate


class TestRateRatios:
    def test_identical_configs_give_unity(self):
        assert rate_ratio(mm(), mm()) == 1.0

    def test_ms_over_mm(self):
        a, b = ms(p_m=1.0), mm()
        value = closed_form_ratio(a, b)
        assert value == pytest.approx(RATIO_MS_MM_QD_L10, rel=1e-12)
        assert value == pytest.approx(rate_ratio(a, b), rel=1e-12)

    def test_afc_ms_over_afc_mm(self):
        a, b = afc_ms(), afc_mm()
        value = closed_form_ratio(a, b)
        assert value == pytest.approx(RATIO_AFCMS_AFCMM_PM05_L10, rel=1e-12)
        assert value == pytest.approx(rate_ratio(a, b), rel=1e-12)

    def test_afc_mm_over_ms(self):
        a, b = afc_mm(), ms()
        value = closed_form_ratio(a, b)
        assert value == pytest.approx(RATIO_AFCMM_MS_PM05_L10, rel=1e-12)
        assert value == pytest.approx(rate_ratio(a, b), rel=1e-12)

    def test_afc_ms_over_ms_is_distance_free(self):
        for link in (LINK10, LINK50):
            a = afc_ms(link=link)
            b = ms(link=link)
            value = closed_form_ratio(a, b)
            assert value == pytest.approx(RATIO_AFCMS_MS, rel=1e-12)
            assert value == pytest.approx(rate_ratio(a, b), rel=1e-12)

    def test_unsupported_pair(self):
        with pytest.raises(NotApplicableError):
            closed_form_ratio(mm(), ms())

    def test_mismatched_memories_rejected(self):
        other = replace(QUANTUM_DOT, collection_efficiency=0.4)
        with pytest.raises(ParameterError, match="same memory"):
            closed_form_ratio(ms(), mm(memory=other))


class TestFeasibility:
    def test_within_budget_at_50km(self):
        report = feasibility_check(afc_mm(link=LINK50))
        assert report.ok
        assert report.used_s == pytest.approx(BUDGET_USED_L50, rel=1e-12)
        assert abs(report.used_s - 301e-6) <= 1e-6
        assert report.limit_s == 1e-3

    def test_violation_at_190km(self):
        report = feasibility_check(afc_mm(link=LinkParams(L=190.0)))
        assert not report.ok
        assert report.used_s == pytest.approx(BUDGET_USED_L190, rel=1e-12)

    def test_zero_distance_boundary(self):
        report = feasibility_check(afc_mm(link=LinkParams(L=0.0)))
        assert report.ok
        assert report.used_s == AFC_REALISTIC.t_rephase

    def test_not_applicable_for_spin_photon_schemes(self):
        with pytest.raises(ParameterError, match="^feasibility_check does not apply to MM$"):
            feasibility_check(mm())


class TestCapacity:
    def test_per_scheme_capacity(self):
        assert evaluate(mm()).capacity == 3
        assert evaluate(sr(N_A=5, N_B=1)).capacity == 5
        assert evaluate(ms()).capacity == 3
        assert evaluate(afc_mm()).capacity == 100
        assert evaluate(afc_ms(memory=AFC_OPTIMISTIC)).capacity == 1060


def _random_spin_config(rng):
    emission = rng.uniform(0.05, 1.0)
    collection = rng.uniform(0.05, 1.0)
    n_mem = int(rng.integers(1, 9))
    memory = MemorySpec(t_clock=10 ** rng.uniform(-9, -5),
                        emission_fraction=emission, collection_efficiency=collection,
                        N=n_mem)
    link = LinkParams(
        L=rng.uniform(0.5, 120.0),
        L_att=rng.uniform(5.0, 50.0),
        n=rng.uniform(1.0, 2.0),
        c=2.998e5,
        p_d=rng.uniform(0.05, 1.0),
    )
    return link, memory


def test_sr_is_always_slower_than_mm():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        link, memory = _random_spin_config(rng)
        n_a = int(rng.integers(1, 2 * memory.N))
        cfg_sr = SchemeConfig(SchemeKind.SR, link, memory, N_A=n_a, N_B=2 * memory.N - n_a)
        cfg_mm = SchemeConfig(SchemeKind.MM, link, memory)
        assert analytic_rate(cfg_sr) < analytic_rate(cfg_mm)


def test_rates_monotone_in_distance_for_uncapped_schemes():
    distances = [1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]
    configs = [
        lambda L: mm(link=LinkParams(L=L)),
        lambda L: sr(link=LinkParams(L=L)),
        lambda L: ms(link=LinkParams(L=L)),
        lambda L: afc_mm(link=LinkParams(L=L), p_m=1.0),
        lambda L: afc_ms(link=LinkParams(L=L), p_m=1.0),
    ]
    for make in configs:
        rates = [analytic_rate(make(L)) for L in distances]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


# L = 0 (the closed forms fail), lengths at and past the AFC spin-coherence
# budget (190 km), p_m = 0 and -0.0 (MS has no finite budget; AFC-MS p_single
# is -0.0), and p_m of 1e-3 and 0.02, whose AFC budgets the rephasing cap binds.
SERIES_L_KM = [0.0, 0.5, 10.0, 37.5, 150.0, 189.5, 190.0, 200.0]
SERIES_P_M = [0.0, 1e-3, 0.02, 0.05, 0.5, 1.0, -0.0]
# Memories whose products round differently when regrouped, unlike the presets'.
ODD_SPIN = MemorySpec(t_clock=7.3e-9, emission_fraction=0.71, collection_efficiency=0.43, N=7)
ODD_AFC = AfcSpec(N_AFC=37, t_rephase=37e-6, t_spin_coherence=1e-3, p_AFC=0.37, p_pass=0.83, t_clock_prime=7.3e-9)
SERIES_CONFIGS = {
    "mm": mm(), "sr": sr(), "ms": ms(), "afc_mm": afc_mm(), "afc_ms": afc_ms(),
    "mm_odd": mm(memory=ODD_SPIN), "sr_odd": sr(memory=ODD_SPIN, N_A=9, N_B=5), "ms_odd": ms(memory=ODD_SPIN),
    "afc_mm_odd": afc_mm(memory=ODD_AFC), "afc_ms_odd": afc_ms(memory=ODD_AFC),
}


def _same_bits(a, b):
    if isinstance(a, ParameterError):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, float):
        return type(b) is float and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", SERIES_CONFIGS)
def test_series_equals_point_by_point_evaluation(name):
    cfg = SERIES_CONFIGS[name]
    series = evaluate_series(cfg, SERIES_L_KM, SERIES_P_M)
    assert None in series.K if cfg.kind is SchemeKind.MS else None not in series.K
    if cfg.kind.is_afc:  # the grid reaches the rephasing cap and the spin-coherence limit
        assert True in series.capped and False in series.feasible
    points = [evaluate_series(cfg, [L], [p_m]) for L in SERIES_L_KM for p_m in SERIES_P_M]
    for name, column in zip(series._fields, series):
        alone = [getattr(point, name) for point in points]
        assert all(len(value) == 1 for value in alone) and len(column) == len(alone)
        for value, (expected,) in zip(column, alone):
            assert _same_bits(value, expected), (name, value, expected)
    # The formulas as the scheme definitions write them, so that neither side
    # may reorder an operation: every value bit for bit, every failure by class.
    configs = (replace(cfg, link=LinkParams(L=L), p_m=p_m) for L in SERIES_L_KM for p_m in SERIES_P_M)
    for j, point_cfg in enumerate(configs):
        try:
            expected = scheme_point(point_cfg)
        except ParameterError:
            assert series.K[j] is None and isinstance(series.rate[j], ParameterError)
            continue
        for name in ("K", "p_single", "capacity", "t_round", "capped", "feasible"):
            assert _same_bits(getattr(series, name)[j], getattr(expected, name)), (name, point_cfg)
        try:
            rate = expected.rate
        except ParameterError:
            assert isinstance(series.rate[j], ParameterError)
        else:
            assert _same_bits(series.rate[j], rate), point_cfg


@pytest.mark.parametrize("name", ["mm", "sr", "ms", "afc_mm", "afc_ms"])
@pytest.mark.parametrize("field, value", [("p_m", 2.0), ("p_m", math.nan), ("p_m", -1.0),
                                          ("L", -1.0), ("L", math.nan), ("L", math.inf)])
def test_series_refuses_what_a_point_config_refuses(monkeypatch, name, field, value):
    cfg = SERIES_CONFIGS[name]
    with pytest.raises(ParameterError) as refused:
        replace(cfg, p_m=value) if field == "p_m" else replace(cfg.link, L=value)
    if field == "p_m":  # refused before any point is evaluated
        monkeypatch.setattr(analytic, "derive_probs", None)
    L_values, p_m_values = ([10.0, value], [0.5]) if field == "L" else ([10.0], [0.5, value])
    with pytest.raises(ParameterError, match=f"^{re.escape(str(refused.value))}$"):
        evaluate_series(cfg, L_values, p_m_values)


@pytest.mark.parametrize("name", ["mm", "sr", "ms", "afc_mm", "afc_ms"])
def test_series_over_no_points_gives_empty_columns(name):
    cfg = SERIES_CONFIGS[name]
    for L_values, p_m_values in (([], SERIES_P_M), (SERIES_L_KM, []), ([], []), ((), tuple(SERIES_P_M))):
        assert evaluate_series(cfg, L_values, p_m_values) == ([],) * 7


@pytest.mark.parametrize("name", SERIES_CONFIGS)
def test_tuple_and_list_inputs_give_the_same_columns(name):
    # The evaluator walks its inputs more than once, column by column.
    cfg = SERIES_CONFIGS[name]
    as_lists = evaluate_series(cfg, SERIES_L_KM, SERIES_P_M)
    as_tuples = evaluate_series(cfg, tuple(SERIES_L_KM), tuple(SERIES_P_M))
    for column, other in zip(as_lists, as_tuples):
        assert type(column) is list and all(map(_same_bits, column, other))


# t_link = n L / c underflows to 0 at 5e-324 and 1e-320 km; at 1e-310 km it is
# subnormal, and the closed forms overflow where no rephasing cap applies.
TINY_L_KM = [10.0, 5e-324, 0.5, 1e-320, 1e-310, 150.0, 1e-320]


@pytest.mark.parametrize("name", SERIES_CONFIGS)
def test_series_through_underflow_and_overflow_equals_point_by_point_evaluation(name):
    cfg = SERIES_CONFIGS[name]
    series = evaluate_series(cfg, TINY_L_KM, SERIES_P_M)
    points = [evaluate_series(cfg, [L], [p_m]) for L in TINY_L_KM for p_m in SERIES_P_M]
    for name, column in zip(series._fields, series):
        assert len(column) == len(points)
        for value, point in zip(column, points):
            (expected,) = getattr(point, name)
            assert _same_bits(value, expected), (name, value, expected)
    point_L = [L for L in TINY_L_KM for _ in SERIES_P_M]
    for L, K, rate in zip(point_L, series.K, series.rate):
        if L < 1e-310 and K is not None:  # capped or not, no rate where t_link is 0
            assert str(rate).startswith("analytic_rate needs L > 0 km and t_link = n L / c > 0 s"), (L, rate)
    assert any(str(rate).startswith("rate is inf") for rate in series.rate)
    if cfg.kind.is_afc:  # the rephasing cap gives an exact, finite rate where t_link is subnormal
        assert any(c and type(r) is float for L, c, r in zip(point_L, series.capped, series.rate) if L == 1e-310)


def test_a_stored_rate_error_is_raised_with_a_fresh_traceback_on_every_read():
    point = evaluate(mm(link=LinkParams(L=0.0)))

    def read():
        with pytest.raises(ParameterError) as refused:
            point.rate
        error = refused.value
        assert type(error) is type(point.rate_or_error) and str(error) == str(point.rate_or_error)
        depth, tb = 0, error.__traceback__
        while tb is not None:
            depth, tb = depth + 1, tb.tb_next
        return depth

    first = read()
    assert [read() for _ in range(4)] == [first] * 4
    assert point.rate_or_error.__traceback__ is None
