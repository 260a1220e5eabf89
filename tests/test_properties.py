"""Property tests over randomly drawn valid configs of all five schemes,
of the CSV/JSON emitters over drawn result rows, and of the command line
over drawn arguments.

Examples are derandomized, so every run checks the same inputs.
"""

import csv
import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist import analytic, harness
from entdist.cli import main
from entdist.analytic import SchemeConfig, SchemeKind, evaluate
from entdist.harness import (
    CSV_HEADER,
    ConfigError,
    ResultRow,
    _CONFIG_KEYS,
    build_scenario,
    rows_to_csv,
    rows_to_json,
    run_scenario,
)
from entdist.montecarlo import _MAX_CELLS, _hash_subseeds, _streams, rng_for_seed, simulate_rounds, subseeds
from entdist.params import (
    AFC_REALISTIC,
    AfcSpec,
    LinkParams,
    MemorySpec,
    ParameterError,
    QUANTUM_DOT,
)

from oracles import scheme_point

NAMED_ERRORS = (ParameterError,)
COLUMNS = list(ResultRow._fields)

probability = st.floats(0.0, 1.0)
duration_s = st.floats(0.0, 1.0, exclude_min=True)

links = st.builds(
    LinkParams,
    L=st.floats(0.0, 1e5),
    L_att=st.floats(0.0, 1e5, exclude_min=True),
    n=st.floats(1.0, 1e3),
    c=st.floats(0.0, 1e9, exclude_min=True),
    p_d=probability,
)


def spin_memories(max_n):
    return st.builds(
        MemorySpec,
        t_clock=duration_s,
        emission_fraction=probability,
        collection_efficiency=probability,
        N=st.integers(1, max_n),
    )


@st.composite
def afc_memories(draw, max_modes):
    t_rephase = draw(duration_s)
    return AfcSpec(
        N_AFC=draw(st.integers(1, max_modes)),
        t_rephase=t_rephase,
        t_spin_coherence=t_rephase * draw(st.floats(1.0, 1e3)),
        p_AFC=draw(probability),
        p_pass=draw(probability),
        t_clock_prime=draw(duration_s),
    )


@st.composite
def configs(draw, max_memories=10**6):
    """A valid config: up to max_memories spin memories, or a tenth as many AFC modes."""
    kind = draw(st.sampled_from(list(SchemeKind)))
    memory = draw(afc_memories(max_memories // 10) if kind.is_afc else spin_memories(max_memories))
    extra = {}
    if kind is SchemeKind.SR:
        n_a = draw(st.integers(1, 2 * memory.N - 1))
        extra = {"N_A": n_a, "N_B": 2 * memory.N - n_a}
    return SchemeConfig(kind, draw(links), memory, p_m=draw(probability), **extra)


def outcome(compute):
    """('value', result) or ('error', exception type) for a named error."""
    try:
        return "value", compute()
    except NAMED_ERRORS as exc:
        return "error", type(exc)


def close(got, expected):
    """Outcomes of the same kind whose values agree within 1e-12 relative error."""
    if got[0] == "error" or expected[0] == "error":
        return got == expected
    return math.isclose(got[1], expected[1], rel_tol=1e-12)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cfg=configs())
def test_evaluate_matches_the_public_functions(cfg):
    calls = 0
    derive = analytic.derive_probs

    def counting_derive(*args, **kwargs):
        nonlocal calls
        calls += 1
        return derive(*args, **kwargs)

    # evaluate is the one-point case of evaluate_series, which derives the
    # probability chain once per series.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "derive_probs", counting_derive)
        evaluated = outcome(lambda: evaluate(cfg))
        if evaluated[0] == "value":
            point = evaluated[1]
            rate, exact = outcome(lambda: point.rate), outcome(lambda: point.exact_rate)
            assert calls == 1
    # The oracle restates the scheme definitions without the library's tables.
    expected = outcome(lambda: scheme_point(cfg))
    if evaluated[0] == "error":
        assert expected == evaluated
        return
    assert expected[0] == "value"
    oracle = expected[1]
    assert (point.K, point.capacity, point.capped, point.feasible) == (
        oracle.K, oracle.capacity, oracle.capped, oracle.feasible)
    assert math.isclose(point.p_single, oracle.p_single, rel_tol=1e-12)
    assert math.isclose(point.t_round, oracle.t_round, rel_tol=1e-12) and math.isfinite(point.t_round)
    assert close(rate, outcome(lambda: oracle.rate))
    assert close(exact, outcome(lambda: oracle.exact_rate))
    for kind, value in (rate, exact):
        if kind == "value":
            assert math.isfinite(value) and value >= 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=configs(max_memories=10**7), n_rounds=st.integers(1, 10**4), seed=st.integers(0, 2**64 - 1))
def test_histograms_have_one_cell_per_latch_count(cfg, n_rounds, seed):
    # Capacities up to 1e7 reach past the sampler's cell limit, so both
    # outcomes are drawn.
    evaluated = outcome(lambda: evaluate(cfg))
    if evaluated[0] == "error":
        return
    point = evaluated[1]
    cells = min(point.K, point.capacity) + 1
    if cells > _MAX_CELLS:
        with pytest.raises(ParameterError, match="cells"):
            simulate_rounds(point, rng_for_seed(seed), n_rounds)
        return
    hist = simulate_rounds(point, rng_for_seed(seed), n_rounds)
    assert len(hist) == cells <= point.capacity + 1
    assert (hist >= 0).all() and hist.sum() == n_rounds


def seed_sequence_subseed(master_seed, index):
    """The documented splitting function, evaluated by numpy itself."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(master=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
       indices=st.lists(st.integers(0, 2**32 - 1), max_size=70))
def test_packed_subseeds_match_seed_sequence(master, indices):
    # Masters of one and of two 32-bit words put the index word at pool word 1 or 2.
    expected = [seed_sequence_subseed(master, i) for i in indices]
    assert _hash_subseeds(master, indices) == expected
    # The 4-word hash and the 128-bit setseq step of _streams, on the drawn sub-seeds.
    assert [rng.bit_generator.state for rng in _streams(expected)] == [
        np.random.PCG64(np.random.SeedSequence(seed)).state for seed in expected]
    grid = np.array(indices[:len(indices) // 2 * 2], dtype=np.int64).reshape(-1, 2)
    got = subseeds(master, grid)
    assert got.dtype == np.uint64 and got.shape == grid.shape
    assert got.ravel().tolist() == expected[:grid.size]


VALID_L_KM, EDGE_L_KM = [0.5, 5.0, 10.0, 12.5, 30.0, 190.0], [0.0, -0.0, 1e-310, 1e308, math.inf, -1.0]
VALID_P_M, EDGE_P_M = [0.02, 0.5, 1.0], [0.0, -0.0, 1e-300, 1.5]


@st.composite
def rarely(draw, common, edges):
    """A value of common, or about one time in eight a value of edges."""
    return draw(st.sampled_from(edges if draw(st.integers(0, 7)) == 0 else common))


@st.composite
def axis(draw, common, edges):
    """An unsorted list with duplicates, holding an edge value about one time in eight."""
    values = draw(st.lists(st.sampled_from(common), min_size=1, max_size=5))
    if draw(st.integers(0, 7)) == 0:
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(edges)))
    return values


@st.composite
def series_documents(draw, kind):
    """One series of a flat config, mostly valid, with edge values now and then."""
    series = {
        "scheme": kind.value,
        "L_km": draw(axis(VALID_L_KM, EDGE_L_KM)),
        "p_m": draw(axis(VALID_P_M, EDGE_P_M)),
        "p_d": draw(rarely([0.8], [0.0, 1.5])),
    }
    if kind.is_afc:
        series.update({
            "afc.N_AFC": draw(st.sampled_from([1, 100, 10**6])),
            "afc.p_AFC": draw(rarely([0.53, 1.0], [0.0])),
            "afc.t_clock_prime_s": draw(rarely([10e-9], [1e-320])),
        })
    else:
        n = draw(st.sampled_from([1, 3, 10**9]))
        series.update({"memory.N": n, "memory.t_clock_s": draw(rarely([10e-9], [1e308]))})
        if kind is SchemeKind.SR:
            n_a = draw(st.integers(1, 2 * n - 1))
            series.update({"N_A": n_a, "N_B": 2 * n - n_a})
    return series


def point_by_point(document, master_seed):
    """Rows of a scenario built, validated and evaluated one point at a time."""
    configs = []
    for series in document["series"]:
        scheme = harness._spec_fields(series, "scheme")
        p_m_values = scheme.pop("p_m")
        if scheme["kind"].is_afc:
            memory = replace(AFC_REALISTIC, **harness._spec_fields(series, "afc"))
        else:
            memory = replace(QUANTUM_DOT, **harness._spec_fields(series, "memory"))
        link = harness._spec_fields(series, "link")
        configs += [SchemeConfig(link=LinkParams(L=L, **link), memory=memory, p_m=p_m, **scheme)
                    for L in link.pop("L") for p_m in p_m_values]
    configs.sort(key=lambda cfg: (cfg.kind.value, cfg.link.L, cfg.p_m))
    seeds = [seed_sequence_subseed(master_seed, i) for i in range(len(configs))]
    rows = []
    for cfg, seed in zip(configs, seeds):
        point = evaluate(cfg)
        rows.append(ResultRow(cfg.kind.value, cfg.link.L, cfg.p_m, point.rate, None, None,
                              point.K, point.t_round, point.feasible, seed))
    return configs, rows


def refusal(compute):
    """The value, or the class and message of a named refusal."""
    try:
        return compute()
    except (ConfigError, ParameterError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kinds=st.lists(st.sampled_from(list(SchemeKind)), min_size=1, max_size=3))
def test_series_path_equals_the_one_point_path(data, kinds):
    # Few distinct kinds and L values, so series of one scheme often interleave and tie.
    document = {"series": [data.draw(series_documents(kind)) for kind in kinds]}
    calls = 0
    derive = analytic.derive_probs

    def counting_derive(*args, **kwargs):
        nonlocal calls
        calls += 1
        return derive(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(harness.PRESETS, "drawn", document)
        patch.setattr(analytic, "derive_probs", counting_derive)
        rows = refusal(lambda: run_scenario("drawn", with_mc=False))
        patch.setattr(analytic, "derive_probs", derive)
        expected = refusal(lambda: point_by_point(document, build_scenario("drawn").mc.seed))
        points = refusal(lambda: build_scenario("drawn").points)
    ran = not isinstance(rows, tuple)  # refusal gives a (class, message) tuple
    if ran:
        # The chain is derived once per series, not once per L or point.
        assert calls == len(document["series"])
    if isinstance(expected, tuple) and isinstance(expected[0], list):
        configs, expected = expected
        assert points == tuple(configs)
    assert (list(rows) if ran else rows) == expected
    if ran:
        assert rows_to_csv(rows) == rows_to_csv(expected)


FLOAT_COLUMNS = ("L_km", "p_m", "analytic_rate", "mc_rate", "mc_stderr", "t_round_s")
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e22]
)
result_rows = st.builds(
    ResultRow,
    scheme=st.sampled_from([kind.value for kind in SchemeKind]),
    L_km=finite,
    p_m=finite,
    analytic_rate=finite,
    mc_rate=st.none() | finite,
    mc_stderr=st.none() | finite,
    K=st.integers(0, 2**64 - 1),
    t_round_s=finite,
    feasible=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)


def readme_csv_cell(value):
    """The README's CSV rule: repr floats, empty None, true/false, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)  # also for a subclass: np.float64(0.5) is 0.5
    return str(value)


def as_values(row):
    return [getattr(row, column) for column in COLUMNS]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(result_rows, max_size=8))
def test_emitters_match_the_stdlib_reference(rows):
    objects = [dict(zip(COLUMNS, as_values(row))) for row in rows]
    assert rows_to_json(rows) == json.dumps(objects, indent=2, allow_nan=False) + "\n"
    lines = [",".join(map(readme_csv_cell, as_values(row))) for row in rows]
    assert rows_to_csv(rows) == "\n".join([CSV_HEADER, *lines]) + "\n"


def test_emitters_match_the_stdlib_reference_across_row_blocks():
    # Longer than two blocks of harness._ENCODE_ROWS rows; mc_rate is a float
    # column in the first blocks and a mixed one in the last.
    block = harness._ENCODE_ROWS
    row = ResultRow("mm", 10.0, 0.5, 1.0, 2.0, 0.1, 3, 1e-4, True, 7)
    rows = [row._replace(L_km=i / 7, mc_rate=None if i > 2 * block else i / 3, seed=2**64 - 1 - i)
            for i in range(2 * block + 5)]
    # Columns whose type changes only after the first block: L_km turns to
    # numpy's float64, p_m to int and, in the last block, K to bool. Each
    # column's types are read over all its blocks, not from the first.
    retyped = [r if i < block else r._replace(L_km=np.float64(r.L_km), p_m=i % 3, K=True if i > 2 * block else 3)
               for i, r in enumerate(rows)]
    for emitted in (rows, retyped):
        objects = [dict(zip(COLUMNS, as_values(r))) for r in emitted]
        assert rows_to_json(emitted) == json.dumps(objects, indent=2, allow_nan=False) + "\n"
        lines = [",".join(map(readme_csv_cell, as_values(r))) for r in emitted]
        assert rows_to_csv(emitted) == "\n".join([CSV_HEADER, *lines]) + "\n"
    rows[-1] = rows[-1]._replace(t_round_s=math.inf)
    rows[block + 1] = rows[block + 1]._replace(L_km=math.nan)
    with pytest.raises(ValueError, match="compliant: nan$"):
        rows_to_json(rows)


# Cells that compare equal across sign or type (0.0 == -0.0, True == 1 == 1.0),
# the extremes of float text, a float subclass, None and strings.
COLLIDING_CELLS = [0.0, -0.0, 1.0, 5e-324, 1e16, np.float64(0.5), None, 1, True, "mm", "afc-ms"]
NON_FINITE = [math.nan, math.inf, -math.inf]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    n_rows=st.integers(0, 2100) | st.sampled_from([1023, 1024, 1025, 2048, 2049]),
    non_finite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_emitters_match_the_stdlib_reference_on_colliding_cells(data, n_rows, non_finite, seed):
    # Each column draws from a few cells, so values repeat within and across
    # blocks of harness._ENCODE_ROWS rows; a seeded stream fills the rows.
    # One-value pools make constant columns, which are spelt once.
    cells = COLLIDING_CELLS + NON_FINITE * non_finite
    pool = st.lists(st.sampled_from(cells), min_size=1, max_size=4) | st.sampled_from(
        [[1, True, 1.0], [0.0, -0.0], [0.0, -0.0, None], [1.0, None],
         [-0.0], [0.0], [None], [True], [1], [2**64 - 1, None]]
        + [[math.nan], [math.inf]] * non_finite
    )
    pools = [data.draw(pool, label=column) for column in COLUMNS]
    choose = random.Random(seed).choice
    rows = [ResultRow(*map(choose, pools)) for _ in range(n_rows)]
    lines = [",".join(map(readme_csv_cell, as_values(row))) for row in rows]
    assert rows_to_csv(rows) == "\n".join([CSV_HEADER, *lines]) + "\n"
    objects = [dict(zip(COLUMNS, as_values(row))) for row in rows]
    try:
        expected = json.dumps(objects, indent=2, allow_nan=False) + "\n"
    except ValueError as refusal:
        with pytest.raises(ValueError) as emitted:
            rows_to_json(rows)
        assert str(emitted.value) == str(refusal)
    else:
        assert rows_to_json(rows) == expected


def test_constant_signed_zero_columns_keep_their_sign_across_blocks():
    # p_m and mc_rate are constant -0.0 in the first block of harness._ENCODE_ROWS
    # rows and 0.0 after it; -0.0 == 0.0, so neither may be spelt as the other.
    # mc_stderr is 0.0 but for a -0.0 closing each block: equal to its first
    # cell throughout, yet not one value.
    block = harness._ENCODE_ROWS
    row = ResultRow("mm", 10.0, 0.5, 1.0, None, None, 3, 1e-4, True, 7)
    rows = [row._replace(p_m=-0.0 if i < block else 0.0, mc_rate=-0.0 if i < block else 0.0,
                         mc_stderr=-0.0 if i % block == block - 1 else 0.0)
            for i in range(2 * block + 1)]
    objects = [dict(zip(COLUMNS, as_values(r))) for r in rows]
    assert rows_to_json(rows) == json.dumps(objects, indent=2, allow_nan=False) + "\n"
    lines = [",".join(map(readme_csv_cell, as_values(r))) for r in rows]
    assert rows_to_csv(rows) == "\n".join([CSV_HEADER, *lines]) + "\n"
    assert rows_to_csv(rows).count("mm,10.0,-0.0,1.0,-0.0,") == block


def test_emitters_of_no_rows():
    assert rows_to_json([]) == json.dumps([], indent=2) + "\n" == "[]\n"
    assert rows_to_csv([]) == CSV_HEADER + "\n"


@pytest.mark.parametrize("column", FLOAT_COLUMNS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_refuses_non_finite_floats_like_the_stdlib(column, value):
    row = ResultRow("mm", 10.0, 0.5, 1.0, 2.0, 0.1, 3, 1e-4, True, 7)
    rows = [row, row._replace(**{column: value})]
    objects = [dict(zip(COLUMNS, as_values(r))) for r in rows]
    with pytest.raises(ValueError) as reference:
        json.dumps(objects, indent=2, allow_nan=False)
    assert str(reference.value) == f"Out of range float values are not JSON compliant: {value!r}"
    with pytest.raises(ValueError) as emitted:
        rows_to_json(rows)
    assert str(emitted.value) == str(reference.value)


@pytest.mark.parametrize("value", [1j, b"mm", np.int64(3), {1.0}, object()])
def test_json_refuses_unsupported_cells_like_the_stdlib(value):
    row = ResultRow("mm", 10.0, 0.5, 1.0, 2.0, 0.1, 3, 1e-4, True, 7)
    rows = [row, row._replace(mc_rate=value)]
    objects = [dict(zip(COLUMNS, as_values(r))) for r in rows]
    with pytest.raises(TypeError) as reference:
        json.dumps(objects, indent=2, allow_nan=False)
    with pytest.raises(TypeError) as emitted:
        rows_to_json(rows)
    assert str(emitted.value) == str(reference.value)


@pytest.mark.parametrize("column", FLOAT_COLUMNS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", ["one row", "among finite rows", "beside None"])
def test_csv_writes_non_finite_floats_by_the_readme_rule(column, value, shape):
    row = ResultRow("mm", 10.0, 0.5, 1.0, 2.0, 0.1, 3, 1e-4, True, 7)
    broken = row._replace(**{column: value})
    rows = {
        "one row": [broken],
        "among finite rows": [row, broken, row],
        "beside None": [broken, row._replace(mc_rate=None, mc_stderr=None)],
    }[shape]
    lines = [",".join(map(readme_csv_cell, as_values(r))) for r in rows]
    assert rows_to_csv(rows) == "\n".join([CSV_HEADER, *lines]) + "\n"


def test_json_reports_the_first_non_finite_value_in_row_order():
    row = ResultRow("mm", 10.0, 0.5, 1.0, 2.0, 0.1, 3, 1e-4, True, 7)
    rows = [row._replace(t_round_s=math.nan), row._replace(L_km=math.inf)]
    with pytest.raises(ValueError, match="compliant: nan$"):
        rows_to_json(rows)
    # t_round_s holds inf in every row, after L_km's nan in row order.
    rows = [row._replace(L_km=math.nan, t_round_s=math.inf), row._replace(t_round_s=math.inf)]
    with pytest.raises(ValueError, match="compliant: nan$"):
        rows_to_json(rows)


# Each coercion's edges: zeros, the smallest and largest doubles, inf, nan,
# integers past 2**64, past double range and past the 4,300-digit limit of
# int-to-text conversion, bools, text, null and the empty list.
EDGES = [0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 2**64 + 1, 2**1024, -(2**1024),
         10**5000, True, False, "", "x", "1.5", "mm", "nv", None, []]
edge = st.sampled_from(EDGES)
small_counts = st.integers(1, 6) | st.integers(1, 10**4)  # small ones often split SR's 2N exactly


def sweeps(values):
    """One value, or a list of 1 to 30 of them."""
    return values | st.integers(1, 30).flatmap(lambda n: st.lists(values, min_size=n, max_size=n))


# Each key's domain; the other keys take a count, a time in s or a probability.
KEY_DOMAINS = {
    "scheme": st.sampled_from([kind.value for kind in SchemeKind] + ["AFC-MS"]),
    "memory.kind": st.sampled_from(["trapped-ion", "nv", "quantum-dot"]),
    "L_km": sweeps(st.floats(0.0, 250.0)),
    "p_m": sweeps(probability),
    "L_att_km": st.floats(1.0, 100.0),
    "n": st.floats(1.0, 2.0),
    "c_km_per_s": st.floats(1e5, 3e5),
    "mc.seed": st.integers(0, 2**64 - 1),
}


def key_domain(key):
    if key in KEY_DOMAINS:
        return KEY_DOMAINS[key]
    if _CONFIG_KEYS[key][2] is harness._as_int:
        return small_counts
    return st.floats(1e-10, 1e-3) if key.endswith("_s") else probability


@st.composite
def override_documents(draw):
    """A flat override document drawn key by key from _CONFIG_KEYS.

    scheme and L_km come almost always, N_A and N_B mostly with SR, every
    other key one time in four. A value is one of the key's domain, or one
    time in eight an edge or a list of up to 30 edges and domain values.
    """
    scheme = draw(key_domain("scheme") if draw(st.integers(0, 9)) else edge)
    document = {"scheme": scheme} if draw(st.integers(0, 19)) else {}
    for key in _CONFIG_KEYS:
        if key == "L_km":
            wanted = draw(st.integers(0, 19)) > 0
        elif key in ("N_A", "N_B"):
            wanted = draw(st.integers(0, 19)) < (18 if scheme == "sr" else 1)
        else:
            wanted = key != "scheme" and draw(st.integers(0, 3)) == 0
        if wanted:
            choice = draw(st.integers(0, 23))
            document[key] = (draw(key_domain(key)) if choice < 21 else draw(edge) if choice < 23
                             else draw(st.lists(key_domain(key) | edge, max_size=30)))
    return document


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(overrides=override_documents(), with_mc=st.booleans(), rounds=st.integers(1, 1_000))
def test_library_overrides_give_rows_or_named_errors(overrides, with_mc, rounds):
    try:
        rows = run_scenario("custom", overrides, rounds=rounds, with_mc=with_mc)
    except (ConfigError, ParameterError):
        return
    assert rows and all(type(row) is ResultRow for row in rows)


# Command lines that argparse accepts: --rounds and --seed take int texts, the
# swap flags int or float texts, from each type's edges.
INT_TEXTS = ["0", "1", "3", "-1", str(2**63), str(2**64 - 1), str(2**64 + 1), str(10**400)]
FLOAT_TEXTS = ["0", "-0.0", "5e-324", "0.5", "1", "1.5", "1e308", "inf", "-inf", "nan", str(10**400)]
SWAP_FLAGS = {"--pairs": INT_TEXTS, "--links": INT_TEXTS, "--p-emit": FLOAT_TEXTS, "--p-bsa": FLOAT_TEXTS,
              "--p-pass": FLOAT_TEXTS, "--p-afc": FLOAT_TEXTS, "--heralding": ["perfect", "imperfect"]}
# What a refusal may name: a config key, the field it sets, a swap flag's field,
# or a quantity derived from them (a point's columns, the trial budget, the
# sampler's law window, the swap budget).
NAMES = {*_CONFIG_KEYS, *(field for _, field, _ in _CONFIG_KEYS.values()), "J", "i", "p_emit", "p_BSA",
         "p_AFC", "analytic_rate", "rate", "t_round", "trial budget", "law window", "K_swap"}


def json_text(value):
    """value as JSON text; 10**5000 as its digits, which json.dumps refuses to write."""
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return "1" + "0" * 5000 if value == 10**5000 else json.dumps(value)


@st.composite
def cli_configs(draw):
    """An override document; one time in eight an MS series either side of
    the law-window limit, one in sixteen 3,000 MS points past the sampled-cell
    limit, one in sixteen a sweep past the point limit."""
    document = draw(override_documents())
    if draw(st.integers(0, 7)) == 0:
        document = {"scheme": "ms", "L_km": draw(key_domain("L_km")),
                    "memory.N": draw(st.sampled_from([10**9, 10**12]))}
    if draw(st.integers(0, 15)) == 0:  # at least 234,168 cells each: a run is refused before any draw
        document = {"scheme": "ms", "memory.N": 10**9, "L_km": [float(v) for v in range(1, 11)],
                    "p_m": [v / 300 for v in range(1, 301)]}
    if draw(st.integers(0, 15)) == 0:  # 1,001 x 1,000 points: refused before any is built
        document.update({"L_km": [float(v) for v in range(1, 1002)], "p_m": [v / 1000 for v in range(1000)]})
    return document


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), command=st.sampled_from(["run", "analytic", "swap"]), fmt=st.sampled_from(["csv", "json"]))
def test_cli_exits_0_or_1_over_the_whole_input_space(tmp_path_factory, data, command, fmt):
    if command == "swap":
        argv, names = ["swap"], NAMES
        for flag, texts in SWAP_FLAGS.items():
            if flag == "--pairs" or data.draw(st.booleans()):
                argv.append(f"{flag}={data.draw(st.sampled_from(texts), label=flag)}")  # "-inf" is no flag
    else:
        document = data.draw(cli_configs(), label="config")
        if data.draw(st.booleans(), label="from a file"):
            path = tmp_path_factory.mktemp("cli") / "config.json"
            path.write_text("{" + ", ".join(f"{json.dumps(k)}: {json_text(v)}" for k, v in document.items()) + "}")
            argv, names = [command, str(path)], NAMES | {repr(str(path))}  # a file JSON cannot read
        else:
            argv, names = [command, "custom", *(f"--set={k}={json_text(v)}" for k, v in document.items())], NAMES
        argv += ["--format", fmt]
        if command == "run":
            rounds = st.sampled_from(INT_TEXTS[:4]) if data.draw(st.integers(0, 7)) == 0 else st.integers(1, 1_000)
            argv.append(f"--rounds={data.draw(rounds, label='rounds')}")
            if data.draw(st.booleans()):
                argv.append(f"--seed={data.draw(st.sampled_from(INT_TEXTS), label='seed')}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith("entdist: config error: ")
        assert any(re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", message) for name in names), message
    elif command == "swap":
        assert set(json.loads(out.getvalue())) >= {"K_swap", "p_swap", "expected_successes"}
    elif fmt == "json":
        rows = json.loads(out.getvalue())
        assert rows and all(list(row) == COLUMNS for row in rows)
    else:
        lines = list(csv.reader(io.StringIO(out.getvalue())))
        assert lines[0] == COLUMNS and len(lines) > 1 and all(len(line) == len(COLUMNS) for line in lines)
