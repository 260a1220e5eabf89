import math

import pytest

from entdist.params import ParameterError
from entdist.swapping import SwapParams, chain_factor, swap_budget

# Frozen expected values at the reference operating point
# (J=1000, p_emit=0.53, p_BSA=0.32, p_pass=0.9, p_AFC=0.53).
K_SWAP_IMPERFECT = 2096.4360587002097
P_SWAP_IMPERFECT = 0.020452126752
EXPECTED_IMPERFECT = 42.876576
CHAIN_FACTOR_I10 = 0.0012783960243203788

REFERENCE = SwapParams(J=1000, p_emit=0.53, p_BSA=0.32, p_pass=0.9, p_AFC=0.53, i=10)


def test_perfect_heralding_budget():
    budget = swap_budget(REFERENCE, "perfect")
    assert budget.K_swap == 1000.0
    assert budget.p_swap == pytest.approx(0.089888, rel=1e-12)
    assert budget.expected_successes == pytest.approx(89.888, rel=1e-12)


def test_imperfect_heralding_budget():
    budget = swap_budget(REFERENCE, "imperfect")
    assert budget.K_swap == pytest.approx(K_SWAP_IMPERFECT, rel=1e-12)
    assert budget.p_swap == pytest.approx(P_SWAP_IMPERFECT, rel=1e-12)
    assert budget.expected_successes == pytest.approx(EXPECTED_IMPERFECT, rel=1e-12)


def test_imperfect_reduces_to_perfect_at_unit_transmission():
    lossless = SwapParams(J=500, p_emit=0.6, p_BSA=0.4, p_pass=1.0, p_AFC=1.0)
    assert swap_budget(lossless, "imperfect") == swap_budget(lossless, "perfect")


def test_expected_successes_ratio_is_the_heralding_transmission():
    perfect = swap_budget(REFERENCE, "perfect").expected_successes
    imperfect = swap_budget(REFERENCE, "imperfect").expected_successes
    assert imperfect / perfect == pytest.approx(0.9 * 0.53, rel=1e-12)


def test_imperfect_needs_at_least_as_many_trials():
    for p_pass, p_afc in [(0.9, 0.53), (1.0, 1.0), (0.5, 0.2)]:
        params = SwapParams(J=100, p_pass=p_pass, p_AFC=p_afc)
        perfect = swap_budget(params, "perfect").K_swap
        imperfect = swap_budget(params, "imperfect").K_swap
        assert imperfect >= perfect
        if p_pass * p_afc == 1.0:
            assert imperfect == perfect


def test_chain_factor_reference_point():
    value = chain_factor(REFERENCE)
    assert value == pytest.approx(CHAIN_FACTOR_I10, rel=1e-12)
    assert 1.0e-3 <= value <= 1.6e-3


def test_chain_factor_boundaries():
    assert chain_factor(SwapParams(J=1, i=1)) == 1.0
    two_links = SwapParams(J=1, p_pass=0.9, p_AFC=0.53, i=2)
    assert chain_factor(two_links) == pytest.approx(0.477, rel=1e-12)


def test_chain_factor_is_multiplicative_in_link_count():
    for i1, i2 in [(2, 3), (4, 7), (1, 10)]:
        combined = chain_factor(SwapParams(J=1, i=i1 + i2 - 1))
        split = chain_factor(SwapParams(J=1, i=i1)) * chain_factor(SwapParams(J=1, i=i2))
        assert combined == pytest.approx(split, rel=1e-12)


def test_emit_probability_defaults_to_absorption():
    params = SwapParams(J=10, p_AFC=0.53)
    assert params.emit == 0.53
    assert SwapParams(J=10, p_emit=0.8, p_AFC=0.53).emit == 0.8


def test_zero_heralding_transmission_rejected():
    params = SwapParams(J=10, p_pass=0.0, p_AFC=0.53)
    with pytest.raises(ParameterError, match="p_pass"):
        swap_budget(params, "imperfect")
    # Perfect heralding does not involve the transmission chain at all.
    assert swap_budget(params, "perfect").K_swap == 10.0


def test_validation():
    with pytest.raises(ParameterError, match="J"):
        SwapParams(J=0)
    with pytest.raises(ParameterError, match="i"):
        SwapParams(J=1, i=0)
    with pytest.raises(ParameterError, match="p_emit"):
        SwapParams(J=1, p_emit=1.2)
    with pytest.raises(ParameterError, match="heralding"):
        swap_budget(REFERENCE, "sometimes")


def test_integer_trials_helper_rounds_up():
    # The integer schedule of a real-valued budget is math.ceil(K_swap).
    budget = swap_budget(REFERENCE, "imperfect")
    assert math.ceil(budget.K_swap) == 2097
    assert math.ceil(swap_budget(REFERENCE, "perfect").K_swap) == 1000
