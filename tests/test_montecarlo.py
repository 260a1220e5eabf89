import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from entdist.analytic import (
    PointSummary,
    SchemeConfig,
    SchemeKind,
    evaluate,
    evaluate_series,
    round_time,
    trials_per_round,
)
from entdist import montecarlo
from entdist.montecarlo import (
    McControls,
    _capped_binomial_laws,
    _law_windows,
    _streams,
    _window_histograms,
    estimate_rate,
    estimate_series,
    rng_for_seed,
    simulate_rounds,
    subseed,
    subseeds,
)
from entdist.harness import PRESETS, ConfigError, build_scenario, run_scenario
from entdist.params import (
    AFC_OPTIMISTIC,
    AFC_REALISTIC,
    AfcSpec,
    LinkParams,
    ParameterError,
    QUANTUM_DOT,
)

from oracles import NotApplicableError, latch_probability, per_trial_histogram, series_columns, simulate_latches

LINK10 = LinkParams(L=10.0)

MM_QD = SchemeConfig(SchemeKind.MM, LINK10, QUANTUM_DOT)
MS_QD = SchemeConfig(SchemeKind.MS, LINK10, QUANTUM_DOT, p_m=0.5)
AFC_MS = SchemeConfig(SchemeKind.AFC_MS, LINK10, AFC_REALISTIC, p_m=0.5)

def mm_qd_series(L_km, p_m):
    """Flat-config overrides sweeping MM_QD's scheme and memory over L and p_m."""
    return {"scheme": "mm", "memory.kind": "quantum-dot", "memory.N": 3, "L_km": L_km, "p_m": p_m}


# Frozen closed-form reference for the MM quantum-dot point at L = 10 km.
MM_QD_RATE = 2466.209960041923


def histogram_mean_and_stderr(hist):
    """Mean per-round count and its standard error, read off a histogram."""
    latched = np.arange(len(hist))
    n = hist.sum()
    mean = (hist @ latched) / n
    variance = (hist @ (latched - mean) ** 2) / (n - 1)
    return mean, math.sqrt(variance / n)


def brute_force_mean_successes(n_trials, p):
    """Expectation of the per-round success count by enumerating all outcomes."""
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=n_trials):
        weight = 1.0
        for bit in outcome:
            weight *= p if bit else (1.0 - p)
        total += weight * sum(outcome)
    return total


class TestDeterminism:
    def test_estimates_are_bit_identical(self):
        mc = McControls(n_rounds=5000, seed=11)
        assert estimate_rate(evaluate(MM_QD), mc) == estimate_rate(evaluate(MM_QD), mc)

    def test_single_round_reproducible(self):
        mc = McControls(n_rounds=1, seed=3)
        first = estimate_rate(evaluate(AFC_MS), mc)
        second = estimate_rate(evaluate(AFC_MS), mc)
        assert first == second
        assert first.stderr == 0.0

    def test_different_seeds_differ(self):
        a = estimate_rate(evaluate(MM_QD), McControls(n_rounds=5000, seed=1))
        b = estimate_rate(evaluate(MM_QD), McControls(n_rounds=5000, seed=2))
        assert a.successes != b.successes

    def test_sweep_tables_match_across_reruns(self):
        series = mm_qd_series([5.0, 10.0, 15.0], [0.5, 1.0])
        first = run_scenario("custom", overrides=series, seed=9, rounds=2000)
        second = run_scenario("custom", overrides=series, seed=9, rounds=2000)
        assert first == second

    def test_subseed_streams_are_uncorrelated(self):
        n = 20000
        draws_a = rng_for_seed(subseed(5, 0)).random(n)
        draws_b = rng_for_seed(subseed(5, 1)).random(n)
        r = np.corrcoef(draws_a, draws_b)[0, 1]
        assert abs(r) < 4.0 / math.sqrt(n)


_DRAWN = random.Random(20)
SUBSEED_MASTERS = ([0, 1, 2**32 - 1, 2**32, 2**64 - 1]
                   + [_DRAWN.getrandbits(64) for _ in range(8)]
                   + [_DRAWN.getrandbits(32) for _ in range(3)])
SUBSEED_INDICES = [0, 1, 2**32 - 1] + [_DRAWN.getrandbits(32) for _ in range(64)] + list(range(2, 40))


def seed_sequence_subseed(master_seed, index):
    """The documented splitting function, evaluated by numpy itself."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


class TestSubseeds:
    @pytest.mark.parametrize("master", SUBSEED_MASTERS)
    def test_match_seed_sequence(self, master):
        got = subseeds(master, SUBSEED_INDICES)
        assert got.dtype == np.uint64
        assert got.tolist() == [seed_sequence_subseed(master, i) for i in SUBSEED_INDICES]
        assert subseed(master, SUBSEED_INDICES[-1]) == seed_sequence_subseed(master, SUBSEED_INDICES[-1])

    def test_shape_follows_indices(self):
        assert subseeds(7, np.arange(0)).shape == (0,)
        assert subseeds(7, np.arange(6).reshape(2, 3)).tolist()[1] == [
            seed_sequence_subseed(7, i) for i in (3, 4, 5)
        ]

    @pytest.mark.parametrize("index", [2**32, -1])
    def test_index_outside_32_bits_rejected(self, index):
        with pytest.raises(ParameterError, match="indices"):
            subseeds(1, [0, index])
        with pytest.raises(ParameterError, match="indices"):
            subseed(1, index)

    def test_master_outside_64_bits_rejected(self):
        with pytest.raises(ParameterError, match="master seed"):
            subseeds(2**64, [0])

    @pytest.mark.parametrize("size", [1, 37, 3600])
    @pytest.mark.parametrize("master", [3_141_592_653, 2**64 - 59, np.uint64(5), np.uint64(2**64 - 1)],
                             ids=["32-bit", "64-bit", "numpy-32-bit", "numpy-64-bit"])
    def test_whole_index_arrays_match_seed_sequence(self, master, size):
        # Indices spread over all 32 bits, 0 first.
        indices = np.arange(size, dtype=np.int64) * 2_654_435_761 % 2**32
        expected = [seed_sequence_subseed(int(master), i) for i in indices.tolist()]
        assert subseeds(master, indices).tolist() == expected


RNG_SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**64 - 1]
             + [_DRAWN.getrandbits(32) for _ in range(4)] + [_DRAWN.getrandbits(64) for _ in range(8)])


# The 64-bit edges first, so that short arrays hold them too.
_STREAM_DRAWN = random.Random(13)
STREAM_SEEDS = [2**64 - 1, 2**32, 0, 2**32 - 1, 1] + [_STREAM_DRAWN.getrandbits(64) for _ in range(295)]


class TestRngForSeed:
    """rng_for_seed derives PCG64's state by hand; numpy's SeedSequence is the oracle."""

    @pytest.mark.parametrize("size", [0, 1, 2, 37, 300])
    def test_streams_over_one_seed_array_match_pcg64_of_seed_sequence(self, size):
        seeds = np.array(STREAM_SEEDS[:size], dtype=np.uint64)
        states = [rng.bit_generator.state for rng in _streams(seeds)]
        assert states == [np.random.PCG64(np.random.SeedSequence(seed)).state for seed in STREAM_SEEDS[:size]]

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_matches_pcg64_of_seed_sequence(self, seed):
        reference = np.random.PCG64(np.random.SeedSequence(seed))
        rng = rng_for_seed(seed)
        assert rng.bit_generator.state == reference.state
        assert np.array_equal(rng.random(1000), np.random.Generator(reference).random(1000))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ParameterError, match="64-bit"):
            rng_for_seed(seed)


class TestRoundOutcomes:
    def test_impossible_success_yields_zero(self):
        cfg = replace(MM_QD, link=replace(LINK10, p_d=0.0))
        counts = simulate_rounds(evaluate(cfg), rng_for_seed(0), 1000)
        assert counts[0] == 1000
        assert not counts[1:].any()

    def test_certain_success_fills_capacity_every_round(self):
        perfect = AfcSpec(N_AFC=3, t_rephase=51e-6, t_spin_coherence=1e-3,
                          p_AFC=1.0, p_pass=1.0, t_clock_prime=1e-8)
        cfg = SchemeConfig(SchemeKind.AFC_MS, LinkParams(L=0.0), perfect, p_m=1.0)
        assert evaluate(cfg).p_single == 1.0
        counts = simulate_rounds(evaluate(cfg), rng_for_seed(0), 500)
        assert counts.tolist() == [0, 0, 0, 500]

    def test_mean_matches_brute_force_enumeration(self):
        # Independent oracle: enumerate the 2^3 outcome space of an MM round.
        p = evaluate(MM_QD).p_single
        expected = brute_force_mean_successes(3, p)
        assert expected == pytest.approx(3 * p, rel=1e-12)
        counts = simulate_rounds(evaluate(MM_QD), rng_for_seed(17), 200_000)
        mean, stderr = histogram_mean_and_stderr(counts)
        assert abs(mean - expected) <= 3.0 * stderr

    def test_counts_never_exceed_capacity(self):
        tight = SchemeConfig(SchemeKind.MS, LinkParams(L=5.0),
                             replace(QUANTUM_DOT, N=1), p_m=1.0)
        counts = simulate_rounds(evaluate(tight), rng_for_seed(23), 50_000)
        assert len(counts) - 1 <= evaluate(tight).capacity == 1
        assert counts.sum() == 50_000
        # The cap must actually bind somewhere for this config.
        k, p = trials_per_round(tight), evaluate(tight).p_single
        uncapped_mean = k * p
        assert histogram_mean_and_stderr(counts)[0] < uncapped_mean

    def test_single_round_histogram_holds_one_round(self):
        counts = simulate_rounds(evaluate(MM_QD), rng_for_seed(1), 1)
        assert len(counts) == 4
        assert counts.sum() == 1


class TestGranularities:
    """The window sampler against the per-trial oracle, which draws every trial."""

    def test_per_trial_and_binomial_agree_in_distribution(self):
        n = 20000
        binomial = simulate_rounds(evaluate(MM_QD), rng_for_seed(31), n)
        per_trial = per_trial_histogram(evaluate(MM_QD), rng_for_seed(32), n)
        # Flaky-tolerant statistical check, pinned by the fixed seeds above:
        # a contingency test across the success-count histogram at p > 0.01.
        support = np.arange(4)
        table = np.array([binomial, per_trial])
        occupied = table.sum(axis=0) > 0
        result = stats.chi2_contingency(table[:, occupied])
        assert result.pvalue > 0.01
        # Each mode also matches the exact capped-binomial law.
        k, p = trials_per_round(MM_QD), evaluate(MM_QD).p_single
        pmf = stats.binom.pmf(support, k, p)
        for observed in table:
            merged_obs = np.array([observed[0], observed[1], observed[2:].sum()])
            merged_exp = np.array([pmf[0], pmf[1], pmf[2:].sum()]) * n
            gof = stats.chisquare(merged_obs, merged_exp)
            assert gof.pvalue > 0.01

    def test_per_trial_chunking_handles_large_budgets(self):
        counts = per_trial_histogram(evaluate(AFC_MS), rng_for_seed(41), 9000)
        assert counts.sum() == 9000
        k, p = trials_per_round(AFC_MS), evaluate(AFC_MS).p_single
        mean, stderr = histogram_mean_and_stderr(counts)
        assert abs(mean - k * p) <= 4.0 * stderr


def capped_binomial_pmf(k, p, cap):
    """scipy reference for the law of min(Binomial(k, p), cap)."""
    top = min(k, cap)
    return np.append(stats.binom.pmf(np.arange(top), k, p), stats.binom.sf(top - 1, k, p))


def law_point(k, p, cap):
    """A feasible point with only the fields the law reads set."""
    return PointSummary(k, p, cap, 1.0, False, True, 0.0)


def padded_laws(points):
    """Each point's law of min(Binomial(K, p), capacity), its window zero-padded to all cells."""
    windows = (law for block in _capped_binomial_laws(*_law_windows(*series_columns(points)[:3]))
               for law in zip(*block))
    for point, (lo, cells, row) in zip(points, windows, strict=True):
        q = np.zeros(min(point.K, point.capacity) + 1)
        q[lo:lo + cells] = row[:cells]
        yield q


def capped_law(k, p, cap):
    """The law of min(Binomial(k, p), cap), built alone."""
    return next(padded_laws([law_point(k, p, cap)]))


SCIPY_LAW_CASES = [
    (1060, 0.73, 1060),           # K == capacity
    (2640, 0.5, 1060),            # capacity 10 sd below the mean
    (5000, 0.2, 1000),            # capacity at the mean
    (10**9, 0.5, 100),            # K p far above capacity
    (64_904_561_380, 1e-10, 3),   # K of the MS budget at p_m = 1e-9
]


class TestHistogramSampler:
    @pytest.mark.parametrize("sample", [simulate_rounds, per_trial_histogram], ids=["binomial", "per-trial"])
    @pytest.mark.parametrize("p_m, cell", [(0.0, 0), (1.0, 3)])
    def test_certain_outcomes_give_one_hot_histograms(self, sample, p_m, cell):
        perfect = AfcSpec(N_AFC=3, t_rephase=51e-6, t_spin_coherence=1e-3,
                          p_AFC=1.0, p_pass=1.0, t_clock_prime=1e-8)
        cfg = SchemeConfig(SchemeKind.AFC_MS, LinkParams(L=0.0), perfect, p_m=p_m)
        assert evaluate(cfg).p_single == p_m
        counts = sample(evaluate(cfg), rng_for_seed(0), 700)
        expected = np.zeros(evaluate(cfg).capacity + 1, dtype=np.int64)
        expected[cell] = 700
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("kind, L", [
        (SchemeKind.AFC_MM, 5.0),     # fig6a: K == capacity == 1060
        (SchemeKind.AFC_MS, 50.0),    # fig6b: K > capacity
    ])
    def test_optimistic_comb_points_match_exact_expectation(self, kind, L):
        cfg = SchemeConfig(kind, LinkParams(L=L), AFC_OPTIMISTIC, p_m=1.0)
        point = evaluate(cfg)
        k, cap = point.K, point.capacity
        assert k >= cap == 1060
        counts = simulate_rounds(point, rng_for_seed(71), 500_000)
        assert len(counts) == cap + 1
        assert counts.sum() == 500_000
        mean, stderr = histogram_mean_and_stderr(counts)
        assert abs(mean - k * point.p_single) <= 4.0 * stderr

    def test_cap_binding_point_fits_scipy_law(self):
        # Flaky-tolerant goodness of fit at p > 0.01, pinned by the seed.
        tight = SchemeConfig(SchemeKind.MS, LinkParams(L=5.0),
                             replace(QUANTUM_DOT, N=1), p_m=1.0)
        point = evaluate(tight)
        k, p, cap = point.K, point.p_single, point.capacity
        assert k > cap
        n = 50_000
        counts = simulate_rounds(point, rng_for_seed(73), n)
        expected = capped_binomial_pmf(k, p, cap) * n
        assert stats.binom.sf(cap - 1, k, p) > 0.1   # the cap cell folds a real tail
        assert stats.chisquare(counts, expected).pvalue > 0.01

    @pytest.mark.parametrize("k, p, cap", SCIPY_LAW_CASES)
    def test_capped_law_matches_scipy(self, k, p, cap):
        q = capped_law(k, p, cap)
        assert len(q) == min(k, cap) + 1
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(q, capped_binomial_pmf(k, p, cap), rtol=0, atol=1e-12)

    def test_huge_budget_stays_capacity_sized(self):
        # MS at p_m = 1e-9 needs K ~ 6.5e10 trials per round; any sampler that
        # touched K cells would exhaust memory here.
        cfg = SchemeConfig(SchemeKind.MS, LinkParams(L=50.0), QUANTUM_DOT, p_m=1e-9)
        assert trials_per_round(cfg) > 6e10
        counts = simulate_rounds(evaluate(cfg), rng_for_seed(79), 500_000)
        assert len(counts) <= evaluate(cfg).capacity + 1
        assert counts.sum() == 500_000
        estimate = estimate_rate(evaluate(cfg), McControls(n_rounds=500_000, seed=79))
        assert abs(estimate.rate - evaluate(cfg).exact_rate) <= 4.0 * estimate.stderr

    def test_oversized_histogram_is_refused_before_allocating(self, monkeypatch):
        # MS with 1e12 memories per node: a law window of about 7.4M cells
        # would need gigabytes, so the sampler refuses it before building the law.
        def never_called(*args):
            raise AssertionError("the histogram law was built")

        monkeypatch.setattr(montecarlo, "_capped_binomial_laws", never_called)
        huge = {"scheme": "ms", "memory.N": 10**12, "L_km": 10.0, "p_m": 1.0}
        with pytest.raises(ParameterError, match="4000000 cells"):
            run_scenario("custom", overrides=huge, rounds=100)
        (row,) = run_scenario("custom", overrides=huge, with_mc=False)
        assert row.K > 10**12 and row.analytic_rate > 0.0 and row.mc_rate is None

    def test_window_below_the_cell_limit_runs_past_it_in_capacity(self):
        # MS with 1e9 memories per node: min(K, capacity) + 1 is far past
        # _MAX_CELLS, but the law window (about 235k cells) is not.
        huge = {"scheme": "ms", "memory.N": 10**9, "L_km": 10.0, "p_m": 1.0}
        point = evaluate(build_scenario("custom", overrides=huge).points[0])
        assert min(point.K, point.capacity) + 1 > montecarlo._MAX_CELLS
        (row,) = run_scenario("custom", overrides=huge, rounds=100)
        assert row.mc_rate > 0.0 and math.isfinite(row.mc_rate) and math.isfinite(row.mc_stderr)
        expected = point.K * point.p_single / point.t_round
        assert abs(row.mc_rate - expected) <= 5.0 * row.mc_stderr

    def test_one_point_sampler_refuses_the_cells_of_a_window_that_runs(self, monkeypatch):
        # The sweep point of the test above: estimate_series samples its law
        # window, but simulate_rounds returns all min(K, capacity) + 1 cells,
        # so it refuses before it allocates the histogram or builds the law.
        def never_called(*args):
            raise AssertionError("the histogram law was built")

        huge = {"scheme": "ms", "memory.N": 10**9, "L_km": 10.0, "p_m": 1.0}
        point = evaluate(build_scenario("custom", overrides=huge).points[0])
        monkeypatch.setattr(montecarlo, "_law_windows", never_called)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="4000000 cells"):
                simulate_rounds(point, rng_for_seed(1), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_laws_have_the_same_bits_alone_and_in_any_batch(self):
        # K = 3 (the MM and SR budgets), certain outcomes, a window wholly
        # above the capacity, the scipy cases and AFC windows, shuffled into
        # mixed batches; each law must not see its neighbours.
        afc = [evaluate(cfg) for cfg in build_scenario("fig6b").points[::3]]
        afc += [evaluate(SchemeConfig(SchemeKind.AFC_MM, LinkParams(L=L), AFC_REALISTIC, p_m=p_m))
                for L in (5.0, 50.0, 150.0) for p_m in (0.02, 0.5, 1.0)]
        cases = [(3, 0.01, 3), (3, 0.6, 3), (3, 0.0, 3), (3, 1.0, 3), (40, 0.0, 7), (40, 1.0, 7),
                 (10**6, 0.5, 20), (2**60 + 1, 0.0, 3), (2**60 + 1, 1e-17, 3),  # K + 1 == K in floats
                 *SCIPY_LAW_CASES, *((p.K, p.p_single, p.capacity) for p in afc)]
        alone = [capped_law(*case) for case in cases]
        for case, q in zip(cases, alone):
            assert len(q) == min(case[0], case[2]) + 1
            assert np.allclose(q, capped_binomial_pmf(*case), rtol=0, atol=1e-12)
        for shuffle_seed in range(3):
            order = list(range(len(cases))) * 2
            random.Random(shuffle_seed).shuffle(order)
            batch = padded_laws([law_point(*cases[i]) for i in order])
            for i, q in zip(order, batch, strict=True):
                assert q.tobytes() == alone[i].tobytes(), cases[i]

    def test_fig6b_rows_reproduce_one_point_at_a_time(self):
        # Sweeps build the laws of a whole scenario in batches; estimate_rate
        # builds one. The Monte Carlo bytes must not tell the two apart.
        scenario = build_scenario("fig6b")
        assert scenario.mc.n_rounds == 500_000
        rows = run_scenario("fig6b")
        for cfg, row in zip(scenario.points, rows, strict=True):
            estimate = estimate_rate(evaluate(cfg), replace(scenario.mc, seed=row.seed))
            assert (row.mc_rate.hex(), row.mc_stderr.hex()) == (estimate.rate.hex(), estimate.stderr.hex())


class TestLatchDiagnostics:
    def test_joint_probability_factorizes_for_ms(self):
        n = 400_000
        counts = simulate_latches(MS_QD, rng_for_seed(51), n)
        p_side = latch_probability(MS_QD)
        p_joint = evaluate(MS_QD).p_single
        for observed, p in ((counts.left, p_side), (counts.right, p_side), (counts.both, p_joint)):
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(observed / n - p) <= 4.0 * sigma

    def test_joint_probability_factorizes_for_afc_ms(self):
        n = 200_000
        counts = simulate_latches(AFC_MS, rng_for_seed(53), n)
        p_joint = evaluate(AFC_MS).p_single
        sigma = math.sqrt(p_joint * (1.0 - p_joint) / n)
        assert abs(counts.both / n - p_joint) <= 4.0 * sigma

    def test_not_applicable_to_mm(self):
        with pytest.raises(NotApplicableError):
            simulate_latches(MM_QD, rng_for_seed(0), 10)


class TestEstimateRate:
    def test_mm_quantum_dot_matches_closed_form(self):
        # The closed form drops N t_clock against t_link; allow that 0.1%
        # systematic on top of the statistical tolerance.
        estimate = estimate_rate(evaluate(MM_QD), McControls(n_rounds=50_000, seed=61))
        tolerance = 3.0 * estimate.stderr + 1e-3 * MM_QD_RATE
        assert abs(estimate.rate - MM_QD_RATE) <= tolerance

    def test_estimate_matches_exact_expectation(self):
        estimate = estimate_rate(evaluate(AFC_MS), McControls(n_rounds=50_000, seed=67))
        assert abs(estimate.rate - evaluate(AFC_MS).exact_rate) <= 3.0 * estimate.stderr

    def test_elapsed_accounting(self):
        mc = McControls(n_rounds=1234, seed=5)
        estimate = estimate_rate(evaluate(MS_QD), mc)
        assert estimate.elapsed == 1234 * round_time(MS_QD)
        assert estimate.rate == estimate.successes / estimate.elapsed
        assert estimate.n_rounds == 1234
        assert estimate.seed == 5

    def test_infeasible_afc_config_raises_before_simulating(self):
        far = SchemeConfig(SchemeKind.AFC_MM, LinkParams(L=190.0), AFC_REALISTIC, p_m=0.5)
        with pytest.raises(ParameterError, match="spin coherence"):
            estimate_rate(evaluate(far), McControls(n_rounds=10))

    def test_round_count_validated(self):
        with pytest.raises(ParameterError, match="n_rounds"):
            McControls(n_rounds=0)
        # numpy's multinomial takes the round count as a C long.
        with pytest.raises(ParameterError, match="n_rounds"):
            McControls(n_rounds=2**63)
        assert McControls(n_rounds=2**63 - 1).n_rounds == 2**63 - 1

    def test_largest_round_count_counts_every_pair(self):
        # 3 pairs in each of 2**63 - 1 rounds overflow int64 successes.
        perfect = AfcSpec(N_AFC=3, t_rephase=51e-6, t_spin_coherence=1e-3,
                          p_AFC=1.0, p_pass=1.0, t_clock_prime=1e-8)
        point = evaluate(SchemeConfig(SchemeKind.AFC_MS, LinkParams(L=0.0), perfect, p_m=1.0))
        estimate = estimate_rate(point, McControls(n_rounds=2**63 - 1))
        assert estimate.successes == 3 * (2**63 - 1)
        assert estimate.rate == pytest.approx(3 / point.t_round, rel=1e-12)
        assert estimate.stderr == 0.0


class TestSweep:
    """run_scenario as the sweep engine: rows, sub-seeds and infeasible points."""

    def test_cartesian_product_row_count(self):
        rows = run_scenario("custom", overrides=mm_qd_series([5.0, 10.0, 15.0], [0.02, 0.5, 1.0]),
                            seed=7, rounds=200)
        assert len(rows) == 9
        seen = {(row.L_km, row.p_m) for row in rows}
        assert len(seen) == 9

    def test_singleton_sweep_equals_point_estimate(self):
        mc = McControls(n_rounds=1000, seed=77)
        rows = run_scenario("custom", overrides=mm_qd_series([10.0], [1.0]), seed=77, rounds=1000)
        direct = estimate_rate(evaluate(MM_QD), replace(mc, seed=subseed(77, 0)))
        assert (rows[0].mc_rate, rows[0].mc_stderr) == (direct.rate, direct.stderr)
        assert rows[0].seed == direct.seed

    def test_infeasible_points_are_flagged_not_raised(self):
        series = {"scheme": "afc-mm", "L_km": [50.0, 190.0], "p_m": [0.5]}
        rows = run_scenario("custom", overrides=series, seed=1, rounds=100)
        assert [row.feasible for row in rows] == [True, False]
        assert rows[1].mc_rate is None and rows[1].mc_stderr is None
        assert rows[1].L_km == 190.0

    def test_empty_value_lists_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            run_scenario("custom", overrides=mm_qd_series([10.0], []), rounds=10)


@pytest.mark.parametrize("seed", [1.5, -1, 2**64, True])
def test_estimate_series_refuses_seeds_rng_for_seed_refuses(seed):
    point = evaluate(MM_QD)
    columns = series_columns([point, point])
    for call in (lambda: rng_for_seed(seed), lambda: estimate_series(columns, [7, seed], McControls(10))):
        with pytest.raises(ParameterError, match=r"^seed must be a 64-bit unsigned integer, got "):
            call()


MULTI_SERIES = json.loads((Path(__file__).resolve().parent / "data" / "multi_series_scenario.json").read_text())


@pytest.mark.parametrize("source", ["multi_series", "fig5c"])
def test_each_row_reproduces_from_its_seed(monkeypatch, source):
    # The README's promise: a row's seed alone reproduces its Monte Carlo
    # columns, whatever the series around it.
    monkeypatch.setitem(PRESETS, "multi_series", MULTI_SERIES)
    settings = dict(source=source, seed=3, rounds=300)
    rows = run_scenario(**settings)
    configs = build_scenario(**settings).points
    feasible = [(row, cfg) for row, cfg in zip(rows, configs, strict=True) if row.feasible]
    assert feasible
    for row, cfg in feasible:
        mc = McControls(300, seed=row.seed)
        estimate = estimate_rate(evaluate(cfg), mc)
        assert (row.mc_rate, row.mc_stderr) == (estimate.rate, estimate.stderr)
        # The recipe of README "Output schema".
        columns = estimate_series(evaluate_series(cfg, [row.L_km], [row.p_m]), [row.seed], mc)
        assert (row.mc_rate, row.mc_stderr) == (columns.mc_rate[0], columns.mc_stderr[0])


def exact_moments(hist, t_round):
    """successes and mc_stderr of a full histogram, from Python-int sums and one Fraction."""
    n, s1, s2 = int(hist.sum()), 0, 0
    for j in np.flatnonzero(hist).tolist():
        s1 += int(hist[j]) * j
        s2 += int(hist[j]) * j * j
    return s1, math.sqrt(float(Fraction(n * s2 - s1 * s1, n * n * (n - 1)))) / t_round


# The optimistic comb at mc-short's grid, and MS with one memory per node,
# whose capacity binds at every p_m.
OPTIMISTIC_AFC = {"afc.N_AFC": 1060, "afc.p_AFC": 1.0, "L_km": [1.0, 20.0, 75.0, 150.0],
                  "p_m": [0.02, 0.5, 1.0]}
CAP_BINDING_MS = {"scheme": "ms", "memory.kind": "quantum-dot", "memory.N": 1,
                  "L_km": [1.0, 5.0, 30.0], "p_m": [0.02, 0.5, 1.0]}


@pytest.mark.parametrize("source, overrides", [
    ("fig5c", None),
    ("custom", {"scheme": "afc-mm", **OPTIMISTIC_AFC}),
    ("custom", {"scheme": "afc-ms", **OPTIMISTIC_AFC}),
    ("custom", CAP_BINDING_MS),
])
def test_mc_stderr_is_the_exactly_rounded_deviation_of_each_rows_histogram(source, overrides):
    # Rebuild each row's histogram from its seed; successes and the variance
    # fraction are exact integers, so mc_rate and mc_stderr have one right value.
    settings = dict(source=source, overrides=overrides, seed=3, rounds=2000)
    rows = run_scenario(**settings)
    points = [evaluate(cfg) for cfg in build_scenario(**settings).points]
    feasible = [(row, point) for row, point in zip(rows, points, strict=True) if row.feasible]
    assert feasible
    if source == "custom" and overrides["scheme"] != "afc-mm":
        assert all(point.K > point.capacity for _, point in feasible)
    for row, point in feasible:
        successes, stderr = exact_moments(simulate_rounds(point, rng_for_seed(row.seed), 2000), point.t_round)
        assert row.mc_rate == successes / (2000 * point.t_round)
        assert row.mc_stderr == stderr


def test_mc_stderr_is_exact_where_int64_sums_would_wrap():
    # n (w - 1)^2 passes 2**63 - 1 for this window, so the sums go through Python ints.
    point = law_point(10**6, 0.5, 10**6)
    n = 10**13
    lo, hi = _law_windows(*series_columns([point])[:3])[3:5]
    assert n * int(hi[0, 0] - lo[0, 0]) ** 2 > 2**63 - 1
    (successes,), (rate,), (stderr,) = estimate_series(series_columns([point]), [11], McControls(n))
    assert (successes, stderr) == exact_moments(simulate_rounds(point, rng_for_seed(11), n), 1.0)
    assert rate == successes / (n * point.t_round)


def test_sampled_cell_limit_counts_the_window_of_each_feasible_point(monkeypatch):
    # Windows of 1 cell (p = 0), 1 cell (p = 1) and 11 cells (0..10, as 11 sd + 40 > 10); the
    # infeasible point, whose window alone would pass the limit, is not sampled and counts nothing.
    points = [law_point(10, 0.0, 10), law_point(10, 1.0, 10), law_point(10, 0.5, 10),
              law_point(10**6, 0.5, 10**6)._replace(feasible=False)]
    monkeypatch.setattr(montecarlo, "_MAX_SAMPLED_CELLS", 13)
    successes, _, _ = estimate_series(series_columns(points), [1, 2, 3, 4], McControls(10))
    assert successes[:2] == [0, 100] and successes[3] is None
    monkeypatch.setattr(montecarlo, "_MAX_SAMPLED_CELLS", 12)
    with pytest.raises(ParameterError, match="^the law windows of latched pairs hold 13 cells over the sampled "
                                             "points; at most 12 are allowed"):
        estimate_series(series_columns(points), [1, 2, 3, 4], McControls(10))


def test_permuted_points_and_seeds_permute_the_columns():
    # Points draw in window-width order, in blocks that depend on the whole
    # series; a point's estimate must depend on its own point and seed only.
    configs = [cfg for preset in ("fig5c", "fig6a", "fig6b") for cfg in build_scenario(preset).points]
    configs += build_scenario("custom", overrides=CAP_BINDING_MS).points
    configs += build_scenario("custom", overrides={"scheme": "afc-ms", **OPTIMISTIC_AFC,
                                                   "L_km": [1.0, 75.0, 190.0, 200.0]}).points
    points = [evaluate(cfg) for cfg in configs]
    assert not all(point.feasible for point in points)
    seeds = [1_000 + i for i in range(len(points))]
    order = list(range(len(points)))
    random.Random(5).shuffle(order)
    mc = McControls(2000)
    columns = estimate_series(series_columns(points), seeds, mc)
    permuted = estimate_series(series_columns([points[i] for i in order]), [seeds[i] for i in order], mc)
    for column, permuted_column in zip(columns, permuted, strict=True):
        assert list(map(repr, permuted_column)) == [repr(column[i]) for i in order]


def test_estimate_series_takes_the_sub_seed_array_as_its_integers():
    # The sub-seed array passes by its dtype; the same seeds as Python ints
    # are checked one by one and draw the same streams.
    overrides = {"scheme": "afc-ms", **OPTIMISTIC_AFC, "L_km": [1.0, 75.0, 190.0, 200.0]}
    points = [evaluate(cfg) for cfg in build_scenario("custom", overrides=overrides).points]
    assert not all(point.feasible for point in points)
    seeds = subseeds(3, np.arange(len(points)))
    assert seeds.dtype == np.uint64
    columns = estimate_series(series_columns(points), seeds, McControls(2000))
    assert list(map(repr, columns)) == list(map(repr, estimate_series(series_columns(points), seeds.tolist(),
                                                                      McControls(2000))))
    assert columns._fields == ("successes", "mc_rate", "mc_stderr")
    for point, *estimate in zip(points, *columns, strict=True):
        assert (None in estimate) is not point.feasible


@pytest.mark.parametrize("seeds", [np.array([7, -1], dtype=np.int64), np.array([7.0, 8.0])],
                         ids=["int64-holding-minus-1", "float64"])
def test_estimate_series_refuses_seed_arrays_of_other_dtypes_by_value(seeds):
    point = evaluate(MM_QD)
    with pytest.raises(ParameterError, match=r"^seed must be a 64-bit unsigned integer, got "):
        estimate_series(series_columns([point, point]), seeds, McControls(10))


@pytest.mark.parametrize("seeds", [[7], [7, 8, 9], np.array([7, 8, 9], dtype=np.uint64)],
                         ids=["short-list", "long-list", "long-array"])
def test_estimate_series_refuses_a_seed_count_other_than_the_point_count(seeds):
    point = evaluate(MM_QD)
    with pytest.raises(ParameterError, match=rf"^seeds must hold one seed per point: got {len(seeds)} for 2 "):
        estimate_series(series_columns([point, point]), seeds, McControls(10))


def test_law_blocks_and_estimates_keep_the_callers_floating_point_settings():
    # The law arithmetic ignores log 0 within its own np.errstate: a block's
    # consumer, and the caller of estimate_series, see their own settings.
    points = [law_point(3, 0.0, 3), law_point(3, 1.0, 3), law_point(40, 0.5, 7), law_point(10**6, 0.5, 10**6),
              *(law_point(1060, p_m, 1060) for p_m in (0.02, 0.5, 1.0))]
    with np.errstate(divide="raise", over="raise", under="ignore", invalid="raise"):
        caller = np.geterr()
        blocks = 0
        for _ in _capped_binomial_laws(*_law_windows(*series_columns(points)[:3])):
            assert np.geterr() == caller
            blocks += 1
        assert blocks > 1
        estimate_series(series_columns(points), list(range(len(points))), McControls(100))
        assert np.geterr() == caller


def test_law_blocks_end_where_the_next_window_would_pass_the_cell_limit():
    # A block takes the next windows, in the order given, while its rows times
    # its widest window fit _LAW_BATCH_CELLS; a wider window is a block alone.
    points = [evaluate(cfg) for preset in ("fig5c", "fig6a", "fig6b") for cfg in build_scenario(preset).points]
    points += [law_point(3, 0.5, 3), law_point(10**6, 0.5, 10**6), law_point(40, 0.0, 7)]
    for shuffle_seed in range(4):
        order = list(range(len(points)))
        random.Random(shuffle_seed).shuffle(order)
        windows = _law_windows(*series_columns([points[i] for i in order])[:3])
        widths = (windows[4] - windows[3])[:, 0].astype(int).tolist()
        expected, start = [], 0
        while start < len(widths):
            stop = start + 1
            while stop < len(widths) and (stop - start + 1) * (max(widths[start:stop + 1]) + 1) <= 4096:
                stop += 1
            expected.append((stop - start, max(widths[start:stop]) + 1))
            start = stop
        assert [w.shape for _, _, w in _capped_binomial_laws(*windows)] == expected
        assert montecarlo._LAW_BATCH_CELLS == 4096 and any(rows > 1 for rows, _ in expected)


MC_SHORT_LIKE = [
    {"scheme": "ms", "memory.kind": "quantum-dot", "memory.N": 3},
    {"scheme": "afc-mm", "afc.N_AFC": 1060, "afc.p_AFC": 1.0},
    {"scheme": "afc-ms", "afc.N_AFC": 1060, "afc.p_AFC": 1.0},
]


@pytest.mark.parametrize("n_rounds", [1, 2000, 500_000])
def test_window_draws_equal_draws_over_the_zero_filled_law(n_rounds):
    # A draw over the window only must give the histogram, bit for bit, that
    # the law over all min(K, capacity) + 1 cells gives at the same seed.
    configs = [cfg for preset in sorted(set(PRESETS) - {"custom"}) for cfg in build_scenario(preset).points]
    configs += [cfg for series in MC_SHORT_LIKE for cfg in build_scenario(
        "custom", overrides={**series, "L_km": [float(km) for km in range(1, 201, 3)],
                             "p_m": [0.02, 0.5, 1.0]}).points]
    points = [point for point in map(evaluate, configs) if point.feasible]
    assert len(points) > 900
    seeds = [1_000 + i for i in range(len(points))]
    windows = _law_windows(*series_columns(points)[:3])
    rows = (row for lo, hist in _window_histograms(windows, _streams(seeds), n_rounds)
            for row in zip(lo, hist))
    for point, seed, law, (lo, row) in zip(points, seeds, padded_laws(points), rows, strict=True):
        window, cells = np.zeros(len(law), dtype=np.int64), row[:len(law) - lo]
        window[lo:lo + len(cells)] = cells
        expected = rng_for_seed(seed).multinomial(n_rounds, law)
        assert np.array_equal(window, expected), (point.K, point.p_single, point.capacity)
        assert np.array_equal(simulate_rounds(point, rng_for_seed(seed), n_rounds), expected)
