import ast
import copy
import dataclasses
import importlib
import json
import math
import pkgutil
import re
import shlex
import tracemalloc
import types
import typing
from dataclasses import replace
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import entdist
from entdist.analytic import SchemeConfig, SchemeKind, analytic_rate
from entdist import analytic, harness, montecarlo
from entdist.cli import main
from entdist.harness import (
    CSV_HEADER,
    ConfigError,
    PRESETS,
    ResultRow,
    ResultTable,
    _CONFIG_KEYS,
    _ENCODE_ROWS,
    build_scenario,
    preset_names,
    rows_to_csv,
    rows_to_json,
    run_scenario,
)
from entdist.montecarlo import McControls
from entdist.params import AFC_REALISTIC, AfcSpec, LinkParams, MemorySpec, ParameterError, QUANTUM_DOT

SWEEP_L = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
SWEEP_PM = [0.02, 0.5, 1.0]
README = Path(__file__).resolve().parents[1] / "README.md"
SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
DENSE_SWEEP = Path(__file__).resolve().parent / "data" / "dense_sweep.json"


def _series_params(scenario):
    """Set of (scheme, memory identity) pairs a scenario resolves to."""
    out = set()
    for cfg in scenario.points:
        out.add((cfg.kind, cfg.memory))
    return out


class TestPresetTable:
    @pytest.mark.parametrize(
        "name, scheme, t_clock, p_memory, n",
        [
            ("fig2a", SchemeKind.MM, 1e-6, 0.05, 3),
            ("fig2b", SchemeKind.MM, 100e-9, 0.25, 3),
            ("fig2c", SchemeKind.MM, 10e-9, 0.45, 3),
        ],
    )
    def test_spin_photon_presets(self, name, scheme, t_clock, p_memory, n):
        scenario = build_scenario(name)
        assert len(scenario.points) == 30
        assert scenario.mc.n_rounds == 100_000
        for cfg in scenario.points:
            assert cfg.kind is scheme
            assert cfg.memory.t_clock == t_clock
            assert cfg.memory.emission_fraction * cfg.memory.collection_efficiency == p_memory
            assert cfg.memory.N == n
            assert (cfg.link.L_att, cfg.link.n, cfg.link.p_d) == (22.0, 1.5, 0.8)
        assert sorted({cfg.link.L for cfg in scenario.points}) == SWEEP_L
        assert sorted({cfg.p_m for cfg in scenario.points}) == SWEEP_PM

    @pytest.mark.parametrize(
        "name, scheme, n_afc, p_afc",
        [
            ("fig5a", SchemeKind.AFC_MM, 100, 0.53),
            ("fig5b", SchemeKind.AFC_MS, 100, 0.53),
            ("fig6a", SchemeKind.AFC_MM, 1060, 1.0),
            ("fig6b", SchemeKind.AFC_MS, 1060, 1.0),
        ],
    )
    def test_afc_presets(self, name, scheme, n_afc, p_afc):
        scenario = build_scenario(name)
        assert len(scenario.points) == 30
        assert scenario.mc.n_rounds == 500_000
        for cfg in scenario.points:
            assert cfg.kind is scheme
            mem = cfg.memory
            assert isinstance(mem, AfcSpec)
            assert (mem.N_AFC, mem.p_AFC, mem.p_pass) == (n_afc, p_afc, 0.9)
            assert (mem.t_rephase, mem.t_spin_coherence, mem.t_clock_prime) == (51e-6, 1e-3, 10e-9)

    @pytest.mark.parametrize(
        "name, afc_scheme, baseline_scheme",
        [("fig5c", SchemeKind.AFC_MM, SchemeKind.MM), ("fig5d", SchemeKind.AFC_MS, SchemeKind.MS)],
    )
    def test_single_mode_presets_carry_baseline_series(self, name, afc_scheme, baseline_scheme):
        scenario = build_scenario(name)
        assert len(scenario.points) == 60
        afc_points = [c for c in scenario.points if c.kind is afc_scheme]
        baseline = [c for c in scenario.points if c.kind is baseline_scheme]
        assert len(afc_points) == len(baseline) == 30
        assert all(c.memory.N_AFC == 1 for c in afc_points)
        assert all(c.memory == replace(QUANTUM_DOT, N=1) for c in baseline)

    def test_preset_names_listing(self):
        assert preset_names() == sorted(PRESETS)
        assert "fig2a" in preset_names() and "fig6b" in preset_names()


class TestRunScenario:
    def test_rows_are_sorted_and_deterministic(self):
        rows = run_scenario("fig5c", rounds=300)
        keys = [(r.scheme, r.L_km, r.p_m) for r in rows]
        assert keys == sorted(keys)
        assert rows == run_scenario("fig5c", rounds=300)

    def test_analytic_only_leaves_mc_fields_empty(self):
        rows = run_scenario("fig6b", with_mc=False)
        assert len(rows) == 30
        assert all(r.mc_rate is None and r.mc_stderr is None for r in rows)
        assert all(r.analytic_rate > 0 for r in rows)

    def test_infeasible_points_flagged_with_empty_mc_fields(self):
        rows = run_scenario(
            "custom",
            overrides={"scheme": "afc-mm", "L_km": [50, 190], "p_m": 0.5,
                       "mc.n_rounds": 100},
        )
        by_L = {r.L_km: r for r in rows}
        assert by_L[50.0].feasible and by_L[50.0].mc_rate is not None
        assert not by_L[190.0].feasible
        assert by_L[190.0].mc_rate is None and by_L[190.0].mc_stderr is None
        assert by_L[190.0].analytic_rate > 0

    def test_rows_are_immutable_and_their_fields_are_the_csv_columns(self):
        row = run_scenario("fig2c", rounds=200)[0]
        with pytest.raises(AttributeError):
            row.mc_rate = 0.0
        assert ResultRow._fields == tuple(CSV_HEADER.split(","))

    def test_seed_and_rounds_arguments(self):
        a = run_scenario("fig2c", rounds=200, seed=5)
        b = run_scenario("fig2c", rounds=200, seed=6)
        assert a != b
        assert all(r.seed != s.seed for r, s in zip(a, b))

    def test_a_sweep_builds_one_link_and_one_chain_per_series(self, monkeypatch):
        L_km = [float(km) for km in range(400, 0, -1)]
        schemes = ("mm", "ms", "afc-ms")
        monkeypatch.setitem(PRESETS, "wide", {"series": [{"scheme": scheme, "L_km": L_km, "p_m": SWEEP_PM}
                                                         for scheme in schemes]})
        counts = {"links": 0, "chains": 0}
        post_init, derive = LinkParams.__post_init__, analytic.derive_probs

        def counting_post_init(link):
            counts["links"] += 1
            post_init(link)

        def counting_derive(*args):
            counts["chains"] += 1
            return derive(*args)

        monkeypatch.setattr(LinkParams, "__post_init__", counting_post_init)
        monkeypatch.setattr(analytic, "derive_probs", counting_derive)
        scenario = build_scenario("wide")
        assert counts == {"links": 3, "chains": 0}
        assert [s.L_km for s in scenario.series] == [tuple(sorted(L_km))] * 3
        assert [s.cfg.link.L for s in scenario.series] == [400.0] * 3  # the template: the first L given
        rows = run_scenario("wide", with_mc=False)
        assert counts == {"links": 6, "chains": 3}
        assert len(rows) == 3 * 400 * 3 and [row.L_km for row in rows[:4]] == [1.0, 1.0, 1.0, 2.0]

    def test_a_failing_sweep_samples_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a point was seeded or sampled")

        # run_scenario looks its seed column's hash and estimate_series up in montecarlo.
        for name in ("_hash_subseeds", "subseeds", "estimate_series"):
            monkeypatch.setattr(montecarlo, name, forbidden)
        # The L = 0 point comes last in row order; the points before it are not sampled.
        with pytest.raises(ParameterError, match="^analytic_rate needs L > 0 km"):
            run_scenario("custom", {"scheme": "afc-ms", "L_km": [10, 20, 0], "p_m": [0.5, 1.0]})
        # Every point is evaluated before any is sampled, so a sampling refusal comes second.
        monkeypatch.setattr(montecarlo, "_MAX_SAMPLED_CELLS", 0)
        with pytest.raises(ParameterError, match="^unbounded trial budget: MS latch probability is 0 because p_m"):
            run_scenario("custom", {"scheme": "ms", "L_km": 10, "p_m": [0.5, 0.0]})

    def test_scheme_rate_relationship_between_presets(self):
        # The multimode arrangement beats its single-pair twin at every point.
        afc = {(r.L_km, r.p_m): r for r in run_scenario("fig5b", with_mc=False)}
        single = {(r.L_km, r.p_m): r for r in run_scenario("fig5d", with_mc=False)
                  if r.scheme == "afc-ms"}
        for key, row in afc.items():
            assert row.analytic_rate > single[key].analytic_rate


class TestConfigHandling:
    def test_config_file(self, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({
            "scheme": "mm",
            "memory.kind": "nv",
            "L_km": [10, 20],
            "p_m": 0.5,
            "mc.n_rounds": 200,
        }))
        rows = run_scenario(str(path))
        assert len(rows) == 2
        assert {r.L_km for r in rows} == {10.0, 20.0}

    def test_config_file_over_preset_base(self, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"preset": "fig2c", "L_km": 10}))
        scenario = build_scenario(str(path))
        assert len(scenario.points) == 3  # three p_m values survive
        assert all(cfg.link.L == 10.0 for cfg in scenario.points)

    def test_overrides_apply_to_every_series(self):
        scenario = build_scenario("fig5c", overrides={"L_km": [10], "p_m": [1.0]})
        assert len(scenario.points) == 2  # one afc point, one baseline point
        kinds = {cfg.kind for cfg in scenario.points}
        assert kinds == {SchemeKind.AFC_MM, SchemeKind.MM}

    def test_sr_requires_memory_split(self):
        # SchemeConfig's rule, reached through the config like its other rules.
        with pytest.raises(ParameterError, match="N_A"):
            run_scenario("custom", overrides={"scheme": "sr", "L_km": 10})
        with pytest.raises(ParameterError, match="^N_A / N_B are only meaningful for SR"):
            run_scenario("custom", overrides={"scheme": "mm", "L_km": 10, "N_A": 3})
        rows = run_scenario(
            "custom",
            overrides={"scheme": "sr", "L_km": 10, "N_A": 3, "N_B": 3,
                       "mc.n_rounds": 100},
        )
        assert rows[0].K == 3

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({}, "scheme is required"),
            ({"scheme": "teleport", "L_km": 10}, "scheme must be one of"),
            ({"scheme": "mm"}, "L_km is required"),
            ({"scheme": "mm", "L_km": []}, "empty list"),
            ({"scheme": "mm", "L_km": 10, "memory.kind": "ruby"}, "memory.kind"),
            ({"scheme": "mm", "L_km": 10, "bogus_key": 1}, "unknown config key"),
            ({"scheme": "mm", "L_km": "far"}, "must be a number"),
            ({"scheme": "mm", "L_km": 10, "mc.trial_granularity": "per-trial"}, "unknown config key"),
            ({"scheme": "mm", "L_km": 10, "memory.label": "my-memory"}, "unknown config key"),
            ({"scheme": "ms", "L_km": 10, "ms_sync_factor": 2}, "unknown config key"),
            ({"scheme": "mm", "L_km": 10, "c_km_per_s": 3e5}, "unknown config key"),
            # A refused value holding an integer past the int-to-string digit limit.
            ({"scheme": "mm", "L_km": 10, "memory.N": [10**5000]}, "^memory.N must be an integer, got a value"),
            ({"scheme": "mm", "L_km": 10, "L_att_km": [10**5000]}, "^L_att_km must be a number, got a value"),
            ({"scheme": "mm", "L_km": [[10**5000]]}, "^L_km must be a number, got a value"),
            ({"scheme": "mm", "L_km": 10, "memory.N": {"a": 10**5000}}, "^memory.N must be an integer, got a value"),
            ({"scheme": [10**5000], "L_km": 10}, "^scheme must be one of"),
            ({"scheme": "mm", "L_km": 10, "memory.kind": [10**5000]}, "^memory.kind must be one of"),
            ({10**5000: 1}, "^unknown config key a value of type int"),
            # numpy's bools are refused as Python's are; a value past double range by its magnitude.
            ({"scheme": "mm", "L_km": 10, "memory.N": np.True_}, "^memory.N must be an integer, got a value of type bool$"),
            ({"scheme": "mm", "L_km": 10, "p_m": np.False_}, "^p_m must be a number, got a value of type bool$"),
            ({"scheme": "mm", "L_km": 10, "memory.N": np.float32(2.5)},
             "^memory.N must be an integer, got a value of type float32$"),
            ({"scheme": "mm", "L_km": 10, "L_att_km": Fraction(10**400)}, "^L_att_km must be at most .* a larger number$"),
            pytest.param({"scheme": "mm", "L_km": 10, "L_att_km": np.longdouble(10) ** 400},
                         "^L_att_km must be at most .* a larger number$",
                         marks=pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                                                  reason="numpy's long double is a double on this platform")),
        ],
    )
    def test_config_validation_errors(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            run_scenario("custom", overrides=overrides)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            run_scenario("fig99")

    def test_numpy_scalars_give_the_rows_of_python_numbers(self):
        numpy_overrides = {"scheme": "mm", "L_km": [np.float32(5.0), np.float64(10.0)], "p_m": np.float32(0.5),
                           "memory.N": np.int64(3)}
        overrides = {"scheme": "mm", "L_km": [5.0, 10.0], "p_m": 0.5, "memory.N": 3}
        assert (run_scenario("custom", numpy_overrides, seed=np.uint64(3), rounds=np.int32(200))
                == run_scenario("custom", overrides, seed=3, rounds=200))
        assert (run_scenario("fig5a", seed=np.uint64(3), rounds=np.int64(200))
                == run_scenario("fig5a", seed=3, rounds=200))
        assert build_scenario("fig5a", seed=np.uint64(2**64 - 1)).mc.seed == 2**64 - 1
        # An integral numpy real is read as its integer, as 3.0 and np.float64(3.0) are.
        for integral in (np.float16(3.0), np.float32(3.0), np.float64(3.0), np.longdouble(3.0)):
            assert (run_scenario("custom", {**numpy_overrides, "memory.N": integral}, seed=integral, rounds=200)
                    == run_scenario("custom", overrides, seed=3, rounds=200))
            assert build_scenario("fig5a", seed=integral).mc.seed == 3

    @pytest.mark.parametrize("document, match", [
        (None, "^cannot read config file"),  # the path is a directory
        ([{"preset": "fig5a"}], "must contain a JSON object$"),
        ({"preset": "fig99", "L_km": 10}, "^unknown preset 'fig99'"),
    ])
    def test_config_file_errors(self, tmp_path, document, match):
        path = tmp_path / "config.json"
        if document is None:
            path.mkdir()
        else:
            path.write_text(json.dumps(document))
        with pytest.raises(ConfigError, match=match):
            build_scenario(str(path))

    def test_sources_layer_without_changing_the_presets(self, tmp_path, capsys):
        presets = copy.deepcopy(PRESETS)
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"preset": "fig5c", "L_km": [10, 20], "afc.N_AFC": 7,
                                    "mc.n_rounds": 300, "mc.seed": 1}))
        overrides = {"L_km": [30], "memory.N": 2, "mc.n_rounds": 400, "mc.seed": 2}
        from_file = build_scenario(str(path))
        overridden = build_scenario(str(path), overrides)
        pinned = build_scenario(str(path), overrides, seed=5, rounds=50)
        build_scenario("fig5c", overrides, seed=5, rounds=50)
        assert PRESETS == presets
        # preset < config file < overrides < seed and rounds.
        assert from_file.mc == McControls(300, seed=1)
        assert {cfg.link.L for cfg in from_file.points} == {10.0, 20.0}
        assert overridden.mc == McControls(400, seed=2)
        assert {cfg.link.L for cfg in overridden.points} == {30.0}
        assert pinned.mc == McControls(50, seed=5)
        assert pinned.points == overridden.points
        # Each series takes every series key; the preset fills what no layer sets.
        assert {(cfg.kind, cfg.memory) for cfg in overridden.points} == {
            (SchemeKind.AFC_MM, replace(AFC_REALISTIC, N_AFC=7)), (SchemeKind.MM, replace(QUANTUM_DOT, N=2))}
        # preset is read only from a config file.
        assert main(["analytic", "fig5a", "--set", "preset=fig5a"]) == 1
        assert "unknown config key 'preset'" in capsys.readouterr().err

    def test_oversized_sweep_is_refused_before_any_point(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a point was built")

        for name in ("LinkParams", "SchemeConfig", "evaluate_series"):
            monkeypatch.setattr(harness, name, forbidden)
        for name in ("_hash_subseeds", "subseeds", "estimate_series"):  # run_scenario looks them up in montecarlo
            monkeypatch.setattr(montecarlo, name, forbidden)
        overrides = {"scheme": "mm", "L_km": [float(km) for km in range(1, 1002)],
                     "p_m": [k / 1000 for k in range(1000)]}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^L_km x p_m gives 1001000 points over the series; "
                                                  "at most 1000000 are allowed$"):
                run_scenario("custom", overrides)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The rows alone of a 1,001,000-point sweep would take about 0.8 GB.
        assert peak < 64 * 1024

    def test_sweep_limit_counts_every_series_and_admits_the_limit(self, monkeypatch):
        monkeypatch.setattr(harness, "_MAX_POINTS", 12)
        assert len(run_scenario("fig5c", {"L_km": [10, 20], "p_m": [0.1, 0.2, 0.3]}, with_mc=False)) == 12
        assert len(run_scenario("custom", {"scheme": "mm", "L_km": 10, "p_m": [0.5] * 12}, with_mc=False)) == 12
        with pytest.raises(ConfigError, match="^L_km x p_m gives 14 points"):
            run_scenario("fig5c", {"L_km": [10, 20, 30, 40, 50, 60, 70], "p_m": 0.5}, with_mc=False)
        with pytest.raises(ConfigError, match="^L_km x p_m gives 13 points"):
            run_scenario("custom", {"scheme": "mm", "L_km": [10], "p_m": [0.5] * 13}, with_mc=False)

    @staticmethod
    def sampled_cells(monkeypatch, source, overrides):
        """The law-window cells a 10-round run samples, read off its refusal at a limit of 0."""
        monkeypatch.setattr(montecarlo, "_MAX_SAMPLED_CELLS", 0)
        with pytest.raises(ParameterError, match=r"^the law windows of latched pairs hold (\d+) cells") as refused:
            run_scenario(source, overrides, rounds=10)
        return int(re.search(r"hold (\d+) cells", str(refused.value))[1])

    def test_work_limit_counts_every_sampled_window_and_admits_the_limit(self, monkeypatch, capsys):
        afc = {"scheme": "afc-mm", "afc.N_AFC": 1, "L_km": [10, 190], "p_m": [0.1, 0.2]}
        mm = {"scheme": "mm", "memory.kind": "quantum-dot", "memory.N": 1, "L_km": [10, 190], "p_m": [0.1, 0.2]}
        total = self.sampled_cells(monkeypatch, "fig5c", {"L_km": [10, 190], "p_m": [0.1, 0.2]})
        assert total == self.sampled_cells(monkeypatch, "custom", afc) + self.sampled_cells(monkeypatch, "custom", mm)
        # AFC-MM at 190 km cannot fit its spin coherence time: it is not sampled, so it counts nothing.
        assert self.sampled_cells(monkeypatch, "custom", afc) == self.sampled_cells(monkeypatch, "custom",
                                                                                    {**afc, "L_km": 10})
        monkeypatch.setattr(montecarlo, "_MAX_SAMPLED_CELLS", total)
        rows = run_scenario("fig5c", {"L_km": [10, 190], "p_m": [0.1, 0.2]}, rounds=10)
        assert len(rows) == 8 and sum(row.mc_rate is not None for row in rows) == 6

        def forbidden(*args, **kwargs):
            raise AssertionError("a point was sampled")

        monkeypatch.setattr(montecarlo, "_MAX_SAMPLED_CELLS", total - 1)
        monkeypatch.setattr(montecarlo, "_streams", forbidden)
        with pytest.raises(ParameterError, match=rf"^the law windows of latched pairs hold {total} cells over the "
                                                 rf"sampled points; at most {total - 1} are allowed: lower memory\.N, "
                                                 r"N_A or afc\.N_AFC, or sweep fewer L_km x p_m points$"):
            run_scenario("fig5c", {"L_km": [10, 190], "p_m": [0.1, 0.2]}, rounds=10)
        assert main(["run", "fig5c", "--set", "L_km=[10, 190]", "--set", "p_m=[0.1, 0.2]", "--rounds", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"entdist: config error: the law windows of latched pairs hold {total} ")

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            run_scenario(str(path))

    def test_invalid_physical_value_surfaces_field_name(self):
        with pytest.raises(Exception, match="p_d"):
            run_scenario("custom", overrides={"scheme": "mm", "L_km": 10, "p_d": 1.4})


class TestEmission:
    @pytest.fixture()
    def rows(self):
        return run_scenario("fig2c", rounds=200)

    def test_csv_shape(self, rows):
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert len(lines) == 31
        assert lines[0] == CSV_HEADER
        assert text.endswith("\n") and "\r" not in text

    def test_csv_bytes_are_reproducible(self, rows):
        assert rows_to_csv(rows) == rows_to_csv(list(rows))

    def test_csv_boolean_and_empty_cells(self):
        rows = run_scenario(
            "custom",
            overrides={"scheme": "afc-mm", "L_km": 190, "mc.n_rounds": 10},
        )
        line = rows_to_csv(rows).splitlines()[1]
        cells = line.split(",")
        assert cells[0] == "afc-mm"
        assert cells[4] == "" and cells[5] == ""   # mc_rate, mc_stderr
        assert cells[8] == "false"

    def test_json_round_trip_preserves_floats(self, rows):
        parsed = json.loads(rows_to_json(rows))
        assert len(parsed) == len(rows)
        for row, obj in zip(rows, parsed):
            assert obj["analytic_rate"] == row.analytic_rate
            assert obj["mc_rate"] == row.mc_rate
            assert obj["t_round_s"] == row.t_round_s
            assert obj["feasible"] is row.feasible

    def test_numpy_float_cells_read_the_same_in_csv_and_json(self):
        # A hand-built row may hold numpy scalars; both formats spell the float.
        row = ResultRow("mm", np.float64(10.0), 0.5, np.float64(1234.5), np.float64(1e-300), None,
                        3, np.float64(1e-4), True, 7)
        cells = rows_to_csv([row]).splitlines()[1].split(",")
        assert cells == ["mm", "10.0", "0.5", "1234.5", "1e-300", "", "3", "0.0001", "true", "7"]
        (obj,) = json.loads(rows_to_json([row]))
        for name, cell in zip(ResultRow._fields, cells):
            if isinstance(obj[name], float):
                assert float(cell) == obj[name] and cell == repr(obj[name])

    def test_json_refuses_non_finite_values(self, rows):
        broken = [rows[0]._replace(mc_rate=float("nan"))]
        with pytest.raises(ValueError):
            rows_to_json(broken)


class TestResultTable:
    @pytest.fixture(scope="class")
    def table(self):
        return run_scenario("fig5c", rounds=200)

    def test_reads_as_a_sequence_of_rows(self, table):
        rows = list(table)
        assert len(table) == len(rows) == 60
        assert type(table[0]) is ResultRow and table[0] == rows[0]
        assert type(table[-1]) is ResultRow and table[-1] == rows[-1] == table[59]
        with pytest.raises(IndexError):
            table[60]
        for cut in (slice(5, 17), slice(None, None, -7), slice(70, 80)):
            assert isinstance(table[cut], ResultTable) and list(table[cut]) == rows[cut]
        assert [row for row in table] == rows

    def test_equal_by_columns_unhashable_and_read_only(self, table):
        assert table == run_scenario("fig5c", rounds=200)
        assert table != run_scenario("fig5c", rounds=200, seed=1)
        assert table[:30] == table[:30] and table[:30] != table[30:]
        with pytest.raises(TypeError):
            hash(table)
        with pytest.raises(TypeError):
            table[0] = table[1]

    @staticmethod
    def assert_same_text(table, rows):
        # Compared line by line ("\n" only, so the texts are equal exactly when the
        # lists are): pytest reports the first differing line instead of diffing the texts.
        for emit in (rows_to_csv, rows_to_json):
            assert emit(table).split("\n") == emit(rows).split("\n")

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_emitters_spell_a_table_as_its_rows(self, preset):
        table = run_scenario(preset, with_mc=False)
        self.assert_same_text(table, list(table))

    def test_emitters_spell_a_seeded_dense_table_as_its_rows(self):
        table = run_scenario(str(DENSE_SWEEP), seed=3, rounds=200)
        rows = list(table)
        # mc_rate holds floats in both blocks and None (infeasible, from 190 km) in the second.
        assert len(rows) == 1200 > _ENCODE_ROWS
        assert {type(row.mc_rate) for row in rows[:_ENCODE_ROWS]} == {float}
        assert {type(row.mc_rate) for row in rows[_ENCODE_ROWS:]} == {float, type(None)}
        self.assert_same_text(table, rows)

    # The emitters spell a table's columns by ResultRow's annotations without
    # reading the cells' types, so every cell must be of exactly one of its
    # column's annotated types (a bool is no int, numpy's float64 no float),
    # and JSON can hold every float only when each is finite.
    @pytest.mark.parametrize("source, seed, rounds, with_mc", [
        *((preset, None, None, False) for preset in sorted(PRESETS)),
        ("fig5c", 3, 2000, True),
        ("fig6b", 3, 2000, True),
        (str(DENSE_SWEEP), 3, 200, True),  # None in mc_rate's second block
    ])
    def test_every_cell_is_of_an_annotated_type_and_every_float_is_finite(self, source, seed, rounds, with_mc):
        annotated = [set(typing.get_args(kind) or (kind,)) for kind in typing.get_type_hints(ResultRow).values()]
        table = run_scenario(source, seed=seed, rounds=rounds, with_mc=with_mc)
        # By name, ResultRow's columns and no others: keeping more raised analytic-dense's peak RSS.
        assert tuple(table._columns) == tuple(table[5:17]._columns) == ResultRow._fields
        for name, kinds, column in zip(ResultRow._fields, annotated, zip(*table), strict=True):
            assert {type(value) for value in column} <= kinds, name
            assert all(math.isfinite(value) for value in column if type(value) is float), name


def test_multimode_to_single_pair_ratio_band():
    # AFC-MS with 100 modes against the quantum-dot midpoint-source scheme at
    # matching (L, p_m): about two orders of magnitude, here the closed forms.
    afc_rows = run_scenario("fig5b", with_mc=False)
    for row in afc_rows:
        if row.p_m not in (0.5, 1.0):
            continue
        ms_cfg = SchemeConfig(SchemeKind.MS, LinkParams(L=row.L_km), QUANTUM_DOT, p_m=row.p_m)
        ratio = row.analytic_rate / analytic_rate(ms_cfg)
        assert 50.0 <= ratio <= 200.0


def readme_section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


class TestReadme:
    def test_config_schema_table_lists_every_key_once(self):
        key_cells = [line.split("|")[1] for line in readme_section("Config schema").splitlines()
                     if line.startswith("|")]
        documented = [key for cell in key_cells for key in re.findall(r"`([^`]+)`", cell)]
        assert sorted(documented) == sorted([*_CONFIG_KEYS, "preset"])

    def test_output_schema_header_is_the_csv_header(self):
        assert readme_section("Output schema").split("```")[1].strip() == CSV_HEADER

    def test_library_api_lists_every_name_that_entdist_binds(self):
        listed = []  # (name, module) per "* module: `name`, ..." line
        for line in readme_section("Library API").splitlines():
            if line.startswith("* "):
                module, names = line[2:].split(":", 1)
                listed += [(name, module) for name in re.findall(r"`([^`]+)`", names)]
        bound = [name for name in dir(entdist)
                 if not name.startswith("_") and not isinstance(getattr(entdist, name), types.ModuleType)]
        assert sorted(name for name, module in listed if module != "montecarlo") == sorted(bound)
        assert sorted(name for name, module in listed if module == "montecarlo") == sorted(montecarlo.__all__)
        for name, module in listed:  # each is its module's name, and the same object in entdist if bound there
            value = getattr(importlib.import_module(f"entdist.{module}"), name)
            assert module == "montecarlo" or value is getattr(entdist, name)

    def test_library_quick_start_runs_on_the_exported_names(self, capsys):
        code = readme_section("Quick start (library)").split("```python\n")[1].split("```")[0]
        exec(code, {})  # an import of a name that entdist does not export fails here
        rate, exact_rate, mc_rate, mc_stderr = map(float, capsys.readouterr().out.split())
        assert rate > 0.0 and abs(mc_rate - exact_rate) <= 4.0 * mc_stderr

    def test_cli_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        block = readme_section("Quick start (CLI)").split("```sh\n")[1].split("```")[0]
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("entdist ")]
        assert len(commands) == 6
        monkeypatch.chdir(tmp_path)  # --out writes here, and scan.json is read from here
        (tmp_path / "scan.json").write_text(json.dumps({"scheme": "afc-ms", "L_km": [10, 20], "p_m": 0.5,
                                                        "mc.n_rounds": 2000}))
        for argv in commands:
            assert main(argv[1:]) == 0, argv
            assert capsys.readouterr().err == "", argv
        assert (tmp_path / "fig5b.csv").read_text().startswith(CSV_HEADER)


def test_every_library_class_is_an_enum_a_record_a_checked_input_or_a_named_error():
    # Inputs that check themselves are frozen dataclasses, results NamedTuples, refusals one of two errors.
    modules = [importlib.import_module(f"entdist.{info.name}") for info in pkgutil.iter_modules(entdist.__path__)]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__]
    assert {cls for cls in classes if issubclass(cls, BaseException)} == {ConfigError, ParameterError}
    for cls in classes:
        named_tuple = issubclass(cls, tuple) and hasattr(cls, "_fields")
        checked_input = (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
                         and "__post_init__" in vars(cls))
        row_sequence = cls is harness.ResultTable  # run_scenario's rows, held as columns
        assert (issubclass(cls, Enum) or named_tuple or checked_input or row_sequence
                or cls in (ConfigError, ParameterError)), cls


def test_benchmark_span_names_are_library_functions():
    # The benchmark's tracer skips a missing name; only its smoke run would notice.
    tables = {target.id: ast.literal_eval(node.value)
              for node in ast.parse(SPANS_PY.read_text()).body if isinstance(node, ast.Assign)
              for target in node.targets if getattr(target, "id", None) in ("SPANS", "COUNTS")}
    assert set(tables) == {"SPANS", "COUNTS"}
    for module, attr in tables["SPANS"] + tables["COUNTS"]:
        assert callable(getattr(importlib.import_module(f"entdist.{module}"), attr, None)), (module, attr)
