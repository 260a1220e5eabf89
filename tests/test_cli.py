import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entdist
from entdist.cli import main
from entdist.harness import CSV_HEADER, PRESETS
from entdist.swapping import SwapParams, chain_factor, swap_budget

DATA = Path(__file__).resolve().parent / "data"
AFC_MM_SCAN = ["analytic", "custom", "--set", "scheme=afc-mm",
               "--set", "L_km=[10,20,30,40,50,60,70,80,90,100,110,120,130,140,150,160,170,180,190]",
               "--set", "p_m=[0.02,0.5,1]"]


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2a", "fig2b", "fig2c", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b"):
        assert name in out


def test_run_preset_to_csv_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["run", "fig2c", "--rounds", "200", "--seed", "9",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 31


def test_run_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "fig2a", "--rounds", "150", "--format", "csv"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analytic_json_to_stdout(capsys):
    assert main(["analytic", "fig6b", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 30
    assert all(row["mc_rate"] is None for row in rows)


def test_run_config_file_with_overrides(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"scheme": "ms", "L_km": [10], "p_m": [0.5], "mc.n_rounds": 100}))
    code = main(["run", str(config), "--set", "p_m=1.0", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["p_m"] for row in rows] == [1.0]


def test_unknown_preset_is_config_error(capsys):
    assert main(["run", "fig99"]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_set_flag(capsys):
    assert main(["run", "fig2c", "--set", "oops"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_unknown_override_key(capsys):
    assert main(["run", "fig2c", "--set", "warp_speed=9"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_parameter_value(capsys):
    assert main(["run", "fig2c", "--set", "p_d=1.5", "--rounds", "10"]) == 1
    assert "p_d" in capsys.readouterr().err


def test_zero_length_link_is_config_error(capsys):
    assert main(["run", "custom", "--set", "scheme=mm", "--set", "L_km=0", "--rounds", "10"]) == 1
    assert "L > 0" in capsys.readouterr().err


HUGE = str(10**400)  # past the largest double, 1.8e308


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, message", [
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
      "--set", "memory.t_clock_s=1e308"], "t_round"),
    (["run", "custom", "--set", "scheme=ms", "--set", "L_km=10",
      "--set", "memory.N=1e12", "--rounds", "10"], "cells"),
    (["run", "custom", "--set", "scheme=mm", "--set", "L_km=10",
      "--set", "mc.n_rounds=1e19"], "n_rounds"),
    (["run", "fig2a", "--rounds", "9223372036854775808"], "n_rounds"),
    (["swap", "--pairs", "10", "--p-pass", "5e-324", "--p-afc", "1"], "K_swap"),
    (["swap", "--pairs", HUGE], "J must be at most"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
      "--set", f"memory.N={HUGE}"], "N must be at most"),
    (["analytic", "custom", "--set", "scheme=ms", "--set", "L_km=10",
      "--set", f"memory.N={HUGE}"], "N must be at most"),
    (["analytic", "custom", "--set", "scheme=afc-mm", "--set", "L_km=10",
      "--set", f"afc.N_AFC={HUGE}"], "N_AFC must be at most"),
    (["analytic", "custom", "--set", "scheme=sr", "--set", "L_km=10",
      "--set", f"memory.N={15 * 10**307}", "--set", f"N_A={25 * 10**307}",
      "--set", f"N_B={5 * 10**307}"], "N_A must be at most"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", f"L_km={HUGE}"], "L_km must be at most"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
      "--set", f"L_att_km={HUGE}"], "L_att_km must be at most"),
    (["analytic", "custom", "--set", "scheme=ms", "--set", "L_km=10",
      "--set", f"p_m=[0.5, {HUGE}]"], "p_m must be at most"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
      "--set", "L_km=1e400"], "L must be finite"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=Infinity"], "L must be finite"),
    # L > 0 whose t_link = n L / c underflows to 0 s: the refusal names t_link, not L.
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=1e-320"], "t_link = n L / c > 0 s"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
      "--set", "memory.t_clock_s=1e400"], "t_clock must be finite"),
    (["analytic", "custom", "--set", "scheme=afc-mm", "--set", "L_km=10",
      "--set", "afc.t_clock_prime_s=1e400"], "t_clock_prime must be finite"),
    (["run", {"preset": ["fig5a"]}], "unknown preset a value of type list"),
    # Past the sweep limit of 1,000,000 points, alone and summed over fig5c's two series.
    (["analytic", "custom", "--set", "scheme=mm", "--set", f"L_km={list(range(1, 1002))}",
      "--set", f"p_m={[k / 1000 for k in range(1000)]}"], "L_km x p_m gives 1001000 points"),
    (["run", "fig5c", "--rounds", "10", "--set", f"L_km={list(range(1, 1001))}",
      "--set", f"p_m={[k / 1000 for k in range(501)]}"], "L_km x p_m gives 1002000 points"),
    # An MS latch probability of 0 names the factor that is 0.
    *((["analytic", "custom", "--set", "scheme=ms", "--set", "L_km=10", "--set", setting],
       f"latch probability is 0 because {factor}")
      for setting, factor in [
          ("p_m=0", "p_m is 0"),
          ("p_d=0", "p_BSA = p_d**2 / 2 (p_d = 0.0) is 0"),
          ("memory.emission_fraction=0", "memory.emission_fraction * memory.collection_efficiency is 0"),
          ("L_km=1e5", "the fiber transmission (L_km = 100000.0, L_att_km = 22.0) is 0"),
      ]),
    # 3,986,506 cells, under the limit, whose law sums to 1 + 1.08e-12: past numpy's 1e-12.
    (["run", "custom", "--set", "scheme=ms", "--set", "L_km=65",
      "--set", "memory.N=1e12", "--rounds", "1"], "law window of latched pairs sums past 1"),
    # SchemeConfig's memory-split rule, and the AFC budget with no finite rephasing cap.
    (["analytic", "custom", "--set", "scheme=sr", "--set", "L_km=10"], "N_A and N_B are required for SR"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10", "--set", "N_B=3"],
     "N_A / N_B are only meaningful for SR"),
    # A memory split on a preset without SR is refused, not ignored like other keys it does not use.
    (["analytic", "fig2a", "--set", "N_A=3", "--set", "N_B=3"], "N_A / N_B are only meaningful for SR"),
    # The removed midpoint-source convention key: MS and AFC-MS keep the published factor 2.
    (["analytic", "custom", "--set", "scheme=ms", "--set", "L_km=10", "--set", "ms_sync_factor=2"],
     "unknown config key 'ms_sync_factor'"),
    (["analytic", "custom", "--set", "scheme=afc-mm", "--set", "L_km=10", "--set", "p_m=0",
      "--set", "afc.t_clock_prime_s=5e-324"], "t_clock_prime 5e-324 s is too short for a finite budget"),
    (["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10", "--set", "n=Infinity"],
     "n must be finite, got inf"),
    # With no rephasing period, nothing caps the budget that p_m = 0 leaves unbounded.
    (["analytic", "custom", "--set", "scheme=afc-mm", "--set", "L_km=10", "--set", "p_m=0",
      "--set", "afc.t_rephase_s=Infinity", "--set", "afc.t_spin_coherence_s=Infinity"],
     "unbounded trial budget: t_rephase inf s sets no rephasing cap"),
])
def test_out_of_range_inputs_are_config_errors(capsys, tmp_path, argv, message, fmt):
    if isinstance(argv[1], dict):  # a config document, given by its file's path
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv[1]))
        argv = [argv[0], str(config), *argv[2:]]
    # swap has no --format: it always writes JSON.
    assert main(argv if argv[0] == "swap" else argv + ["--format", fmt]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("scheme, key", [("mm", "L_att_km"), ("afc-mm", "afc.t_spin_coherence_s")])
def test_infinite_attenuation_length_and_spin_coherence_run(capsys, scheme, key):
    # A lossless fiber and a spin level that never dephases are limits, not errors.
    assert main(["analytic", "custom", "--set", f"scheme={scheme}", "--set", "L_km=10",
                 "--set", f"{key}=Infinity", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert math.isfinite(row["analytic_rate"]) and math.isfinite(row["t_round_s"])


@pytest.mark.parametrize("scheme", ["afc-mm", "afc-ms"])
def test_infinite_rephasing_period_runs_where_p_m_bounds_the_budget(capsys, scheme):
    # A memory that never re-emits needs no rephasing cap while the latch probability is above 0.
    assert main(["analytic", "custom", "--set", f"scheme={scheme}", "--set", "L_km=10", "--set", "p_m=[0.5, 1.0]",
                 "--set", "afc.t_rephase_s=Infinity", "--set", "afc.t_spin_coherence_s=Infinity",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    for row in rows:
        assert math.isfinite(row["analytic_rate"]) and math.isfinite(row["t_round_s"]) and row["feasible"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_signed_zeros_keep_their_sign(capsys, fmt):
    # -0.0 == 0.0, so the two must not share one spelling in the output.
    assert main(["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
                 "--set", "p_m=[0.0,-0.0,0.0]", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        p_m = [line.split(",")[2] for line in out.splitlines()[1:]]
    else:
        p_m = [line.split(": ")[1].rstrip(",") for line in out.splitlines() if '"p_m"' in line]
    assert p_m == ["0.0", "-0.0", "0.0"]


LONG_INT = "9" * 5000  # past the int-to-string limit of 4,300 digits


@pytest.mark.parametrize("route", ["--set", "config file"])
def test_oversized_integer_literal_is_config_error(tmp_path, capsys, route):
    argv = ["analytic", "custom", "--set", "scheme=mm", "--set", "L_km=10",
            "--set", f"memory.N={LONG_INT}"]
    named = "--set memory.N"
    if route == "config file":
        path = tmp_path / "long_int.json"
        path.write_text(f'{{"scheme": "mm", "L_km": 10, "memory.N": {LONG_INT}}}')
        argv, named = ["analytic", str(path)], repr(str(path))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "4300 digits" in captured.err


def test_unwritable_destination_is_runtime_error(tmp_path, capsys):
    missing_dir = tmp_path / "not" / "here" / "rows.csv"
    code = main(["run", "fig2c", "--rounds", "10", "--out", str(missing_dir)])
    assert code == 2
    assert main(["swap", "--pairs", "10", "--out", str(missing_dir)]) == 2


def test_swap_subcommand_matches_library(capsys):
    code = main(["swap", "--pairs", "1000", "--p-emit", "0.53", "--p-bsa", "0.32",
                 "--p-pass", "0.9", "--p-afc", "0.53", "--links", "10",
                 "--heralding", "imperfect"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    params = SwapParams(J=1000, p_emit=0.53, p_BSA=0.32, p_pass=0.9, p_AFC=0.53, i=10)
    budget = swap_budget(params, "imperfect")
    assert payload["K_swap"] == budget.K_swap
    assert payload["p_swap"] == budget.p_swap
    assert payload["expected_successes"] == budget.expected_successes
    assert payload["chain_factor"] == chain_factor(params)


def test_swap_validation_error(capsys):
    assert main(["swap", "--pairs", "0"]) == 1


def _swap_text(params, heralding="imperfect"):
    budget = swap_budget(params, heralding)
    payload = {"heralding": heralding, "K_swap": budget.K_swap, "p_swap": budget.p_swap,
               "expected_successes": budget.expected_successes,
               "chain_factor": chain_factor(params), "links": params.i}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("flag, field, value", [
    (None, None, None),
    ("--p-bsa", "p_BSA", 0.5),
    ("--p-pass", "p_pass", 0.7),
    ("--p-afc", "p_AFC", 0.6),
    ("--links", "i", 4),
])
def test_swap_flags_left_out_take_the_swap_params_defaults(capsys, flag, field, value):
    # Only the flags given reach SwapParams; heralding is the CLI's own default.
    argv = ["swap", "--pairs", "7"] + ([flag, str(value)] if flag else [])
    assert main(argv) == 0
    expected = SwapParams(J=7, **({field: value} if flag else {}))
    assert capsys.readouterr().out == _swap_text(expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, argv", [
    ("fig5c_analytic", ["analytic", "fig5c"]),
    # Includes feasible=false rows: the AFC round outlasts the spin coherence.
    ("afc_mm_scan_analytic", AFC_MM_SCAN),
    *((f"{preset}_analytic", ["analytic", preset])
      for preset in ("fig2a", "fig2b", "fig2c", "fig5a", "fig5b", "fig5d", "fig6a", "fig6b")),
    # An SR series and two AFC-MM series whose unsorted L lists interleave and
    # tie: the seed column pins the order the three series merge in.
    ("multi_series_analytic", ["analytic", "multi_series"]),
])
def test_stdout_matches_golden_bytes(capsysbinary, monkeypatch, name, argv, fmt):
    # Analytic output only: seeded Monte Carlo bytes are promised per numpy release.
    scenario = json.loads((DATA / "multi_series_scenario.json").read_text())
    monkeypatch.setitem(PRESETS, "multi_series", scenario)
    assert main(argv + ["--format", fmt]) == 0
    assert capsysbinary.readouterr().out == (DATA / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_path_dash_and_stdout_write_the_same_bytes(capsysbinary, tmp_path, fmt):
    golden = (DATA / f"fig5c_analytic.{fmt}").read_bytes()
    argv = ["analytic", "fig5c", "--format", fmt]
    path = tmp_path / f"rows.{fmt}"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b"" and path.read_bytes() == golden
    for out in (["--out", "-"], []):
        assert main(argv + out) == 0
        assert capsysbinary.readouterr().out == golden


# SHA-256 of `entdist analytic tests/data/dense_sweep.json`: AFC-MS at 400 L over
# 0.5..200 km and three p_m, 1,200 rows over two blocks of harness._ENCODE_ROWS, with
# feasible=false from 190 km. The golden files above hold at most 60 rows, one block.
DENSE_SWEEP_SHA256 = {
    "csv": "2ab8506d31bfb9cdfddd0c15c00bb1fab6f4f22739dec35dfd1f824dfddca2b0",
    "json": "455829b35505fc1688ab92d6bf0d068cf334153a4140d9489da77f982f8b9983",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dense_sweep_matches_pinned_hash(capsysbinary, fmt):
    assert main(["analytic", str(DATA / "dense_sweep.json"), "--format", fmt]) == 0
    out = capsysbinary.readouterr().out
    assert out.count(b"\n") == {"csv": 1201, "json": 1200 * 12 + 2}[fmt]
    assert hashlib.sha256(out).hexdigest() == DENSE_SWEEP_SHA256[fmt]


@pytest.mark.parametrize("heralding", ["perfect", "imperfect"])
def test_swap_matches_golden_bytes(capsysbinary, heralding):
    assert main(["swap", "--pairs", "1000", "--links", "10", "--heralding", heralding]) == 0
    assert capsysbinary.readouterr().out == (DATA / f"swap_{heralding}.json").read_bytes()


# numpy release that wrote fig5c_run.* and fig6b_run.*; seeded Monte Carlo bytes are promised per release.
GOLDEN_MC_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != GOLDEN_MC_NUMPY,
                    reason=f"seeded golden bytes were written with numpy {GOLDEN_MC_NUMPY}")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_seeded_run_matches_golden_bytes(capsysbinary, fmt):
    # fig5c's 60 points fit one block of laws; fig6b's 30 span four, up to 611 cells wide.
    for preset in ("fig5c", "fig6b"):
        assert main(["run", preset, "--seed", "3", "--rounds", "2000", "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == (DATA / f"{preset}_run.{fmt}").read_bytes()


# SHA-256 of `entdist run tests/data/dense_sweep.json --seed S --rounds 200`: 1,200 rows
# whose mc_rate holds floats in both encoding blocks and None from 190 km, in the second.
# Master seed 2**64 - 1 has two 32-bit words, so each row's index is the third pool word.
DENSE_SWEEP_RUN_SHA256 = {
    (3, "csv"): "bda3c2955eb50261dea5c612cf070eeeaec11c007095ed4d3bc9025c3b41a589",
    (3, "json"): "c5cd0f893eb6efa0445f2c26a457370e51d278ad623988a519eecbfed84844a6",
    (2**64 - 1, "csv"): "c71ce2340268e082ad0738db57aaec15e4d207cb32e7f77f7e6c0c8d5bfd0647",
    (2**64 - 1, "json"): "179647b6c9e20b539d8741b10af73fb34e9c95a608cdc369829d5dab575bebf0",
}


@pytest.mark.skipif(np.__version__ != GOLDEN_MC_NUMPY,
                    reason=f"seeded golden bytes were written with numpy {GOLDEN_MC_NUMPY}")
@pytest.mark.parametrize("seed, fmt", list(DENSE_SWEEP_RUN_SHA256),
                         ids=[fmt if seed == 3 else f"{seed}-{fmt}" for seed, fmt in DENSE_SWEEP_RUN_SHA256])
def test_seeded_dense_sweep_matches_pinned_hash(capsysbinary, seed, fmt):
    argv = ["run", str(DATA / "dense_sweep.json"), "--seed", str(seed), "--rounds", "200", "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == DENSE_SWEEP_RUN_SHA256[seed, fmt]


# Run in a fresh interpreter, with the src directory of the entdist under test first on sys.path.
NUMPY_ON_DEMAND = """
import sys
sys.path.insert(0, sys.argv[1])

def unloaded(step, modules=("numpy", "entdist.montecarlo")):
    for module in modules:
        assert module not in sys.modules, f"{step} loaded {module}"

import entdist
unloaded("import entdist")
from entdist import cli
unloaded("from entdist import cli")
assert not hasattr(entdist, "nope")
unloaded("an unknown name")
from entdist import ParameterError, build_scenario, run_scenario
from entdist.cli import main
build_scenario("fig5a")
unloaded("build_scenario")
assert main(["list-presets"]) == 0
unloaded("list-presets")
assert main(["swap", "--pairs", "10"]) == 0
unloaded("swap")
assert main(["run", "custom", "--set", "scheme=bogus"]) == 1
unloaded("a config error")
try:
    build_scenario("custom", {"scheme": "mm", "L_km": 10, "p_d": 1.4})
except ParameterError:
    unloaded("a parameter error")
else:
    raise AssertionError("p_d = 1.4 was accepted")
try:
    run_scenario("custom", {"scheme": "mm", "L_km": 0})
except ParameterError:
    unloaded("a point that fails")
else:
    raise AssertionError("the rate at L = 0 was accepted")
run_scenario("fig5a", with_mc=False)
unloaded("an analytic run, seed column included", ["numpy"])
assert "entdist.montecarlo" in sys.modules  # it seeds the rows; perfbench's tracer wraps the modules a run loaded
for fmt in ("csv", "json"):
    assert main(["analytic", "fig5a", "--format", fmt]) == 0
    unloaded(f"analytic fig5a --format {fmt}", ["numpy"])
run_scenario("fig5a", rounds=10)
assert "numpy" in sys.modules, "a seeded run_scenario did not load numpy"
assert not hasattr(entdist, "estimate_series")  # montecarlo's names are montecarlo's alone
from entdist.montecarlo import estimate_series
star = {}
exec("from entdist import *", star)
modules = [entdist.analytic, entdist.harness, entdist.params, entdist.swapping]
assert sorted(star) == sorted(["__builtins__", *(name for module in modules for name in module.__all__)])
for module in modules:
    for name in module.__all__:
        assert star[name] is getattr(module, name), name
"""


def test_numpy_loads_only_when_a_run_samples():
    src = str(Path(entdist.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", NUMPY_ON_DEMAND, src], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
