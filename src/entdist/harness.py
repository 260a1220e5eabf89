"""Scenario presets, flat-config loading and plot-ready result encoding.

A scenario is a tuple of series, each one scheme config swept over L and
p_m, plus Monte Carlo controls; a run returns a ResultTable, one row per
sweep point. The built-in presets reproduce the standard figure parameter
sets:

* fig2a / fig2b / fig2c: MM with trapped-ion / NV / quantum-dot memories,
  N = 3, rates swept over L = 5..50 km and p_m in {0.02, 0.5, 1}.
* fig5a / fig5b: AFC-MM / AFC-MS with the realistic comb (100 modes,
  p_AFC = 0.53, p_pass = 0.9, 10 ns trial clock).
* fig5c / fig5d: the same with a single mode (N_AFC = 1), plus a quantum-dot
  N = 1 baseline series (MM baseline for fig5c, MS for fig5d).
* fig6a / fig6b: the optimistic comb (1060 modes, p_AFC = 1).

Configs are flat JSON documents; every key is optional on top of a named
preset base. Each key is declared once, in _CONFIG_KEYS, and each output
column once, as a field of ResultRow; the README documents both.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import replace
from functools import partial
from itertools import pairwise, repeat
from json.encoder import encode_basestring_ascii
from math import inf, isfinite, prod
from numbers import Real
from pathlib import Path
from types import NoneType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, get_args, get_type_hints

from .analytic import SchemeConfig, SchemeKind, SeriesColumns, evaluate_series
from .params import (AFC_REALISTIC, LinkParams, MEMORY_PRESETS, McControls, MemorySpec, ParameterError, QUANTUM_DOT,
                     _is_integer, _require_L)

__all__ = [
    "ConfigError",
    "Scenario",
    "ResultRow",
    "preset_names",
    "build_scenario",
    "run_scenario",
    "rows_to_csv",
    "rows_to_json",
]


class ConfigError(ValueError):
    """A preset name, config document or override could not be used."""


PRESET_L_KM = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
PRESET_P_M = [0.02, 0.5, 1.0]
_MAX_POINTS = 1_000_000  # points per scenario; rows and their text take about 0.8 KB each


def _afc_series(scheme: str, n_afc: int, p_afc: float) -> dict[str, Any]:
    # The other afc.* fields are AFC_REALISTIC's, which _resolve_series starts from.
    return {"scheme": scheme, "L_km": PRESET_L_KM, "p_m": PRESET_P_M, "afc.N_AFC": n_afc, "afc.p_AFC": p_afc}


def _spin_series(scheme: str, kind: str, n: int) -> dict[str, Any]:
    return {
        "scheme": scheme,
        "L_km": PRESET_L_KM,
        "p_m": PRESET_P_M,
        "memory.kind": kind,
        "memory.N": n,
    }


PRESETS: dict[str, dict[str, Any]] = {
    "fig2a": {
        "description": "MM, trapped-ion memories, N=3",
        "series": [_spin_series("mm", "trapped-ion", 3)],
        "mc.n_rounds": 100_000,
    },
    "fig2b": {
        "description": "MM, diamond NV memories, N=3",
        "series": [_spin_series("mm", "nv", 3)],
        "mc.n_rounds": 100_000,
    },
    "fig2c": {
        "description": "MM, quantum-dot memories, N=3",
        "series": [_spin_series("mm", "quantum-dot", 3)],
        "mc.n_rounds": 100_000,
    },
    "fig5a": {
        "description": "AFC-MM, realistic comb (100 modes, p_AFC=0.53)",
        "series": [_afc_series("afc-mm", 100, 0.53)],
        "mc.n_rounds": 500_000,
    },
    "fig5b": {
        "description": "AFC-MS, realistic comb (100 modes, p_AFC=0.53)",
        "series": [_afc_series("afc-ms", 100, 0.53)],
        "mc.n_rounds": 500_000,
    },
    "fig5c": {
        "description": "AFC-MM single mode vs quantum-dot MM baseline (N=1)",
        "series": [_afc_series("afc-mm", 1, 0.53), _spin_series("mm", "quantum-dot", 1)],
        "mc.n_rounds": 500_000,
    },
    "fig5d": {
        "description": "AFC-MS single mode vs quantum-dot MS baseline (N=1)",
        "series": [_afc_series("afc-ms", 1, 0.53), _spin_series("ms", "quantum-dot", 1)],
        "mc.n_rounds": 500_000,
    },
    "fig6a": {
        "description": "AFC-MM, optimistic comb (1060 modes, p_AFC=1)",
        "series": [_afc_series("afc-mm", 1060, 1.0)],
        "mc.n_rounds": 500_000,
    },
    "fig6b": {
        "description": "AFC-MS, optimistic comb (1060 modes, p_AFC=1)",
        "series": [_afc_series("afc-ms", 1060, 1.0)],
        "mc.n_rounds": 500_000,
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


class _Series(NamedTuple):
    """cfg's scheme, memory and link fields other than L at L_km x p_m; both sorted stably."""

    cfg: SchemeConfig
    L_km: tuple[float, ...]
    p_m: tuple[float, ...]


def _row_order(series: Sequence[_Series]) -> Sequence[int]:
    """Row order of the series' points, concatenated: by (scheme, L, p_m), ties in input order."""
    if len(series) == 1 and all(a < b for a, b in pairwise(series[0].L_km)):
        return range(len(series[0].L_km) * len(series[0].p_m))  # L_km x p_m is sorted
    keys = [(s.cfg.kind.value, L, p_m) for s in series for L in s.L_km for p_m in s.p_m]
    return sorted(range(len(keys)), key=keys.__getitem__)


class Scenario(NamedTuple):
    series: tuple[_Series, ...]
    mc: McControls

    @property
    def points(self) -> tuple[SchemeConfig, ...]:
        """Every sweep point's config, in row order; built anew on each access."""
        configs = [replace(s.cfg, link=link, p_m=p_m) for s in self.series
                   for L in s.L_km for link in (replace(s.cfg.link, L=L),) for p_m in s.p_m]
        return tuple(configs[j] for j in _row_order(self.series))


class ResultRow(NamedTuple):
    """One sweep point, analytic and Monte Carlo side by side; the fields are the CSV columns.

    mc_rate / mc_stderr are None for analytic-only runs and for infeasible
    AFC points (feasible is False there).
    """

    scheme: str
    L_km: float
    p_m: float
    analytic_rate: float
    mc_rate: float | None
    mc_stderr: float | None
    K: int
    t_round_s: float
    feasible: bool
    seed: int


CSV_HEADER = ",".join(ResultRow._fields)
_new_row = partial(tuple.__new__, ResultRow)  # a row of ten values, without NamedTuple's argument parsing


class ResultTable(Sequence):
    """The rows of a run, held as one column per ResultRow field name, in field order.

    A read-only sequence of ResultRows: len, indexing (negative too),
    slicing (a ResultTable) and iteration, each row built when it is read.
    A table holds no other column. Two tables are equal when their columns
    are; a table is unhashable. rows_to_csv and rows_to_json read the
    columns by name without building rows, typed by ResultRow's
    annotations: run_scenario builds no other table.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, Sequence[Any]]) -> None:
        self._columns = {name: columns[name] for name in ResultRow._fields}

    def __len__(self) -> int:
        return len(self._columns["scheme"])

    def __getitem__(self, index: int | slice) -> ResultRow | ResultTable:
        if isinstance(index, slice):
            return ResultTable({name: column[index] for name, column in self._columns.items()})
        return _new_row([column[index] for column in self._columns.values()])

    def __iter__(self) -> Iterator[ResultRow]:
        return map(_new_row, zip(*self._columns.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self._columns == other._columns


def _shown(value: Any) -> str:
    """A refused value for a message: its repr, or its type where repr may fail ([10**5000])."""
    return repr(value) if isinstance(value, (str, bool, float, NoneType)) else f"a value of type {type(value).__name__}"


def _as_number(key: str, value: Any) -> float:
    """A real Python or numpy number but a bool (numpy's bool is no Real), as a float."""
    if not (type(value) in (float, int) or isinstance(value, Real) and not isinstance(value, bool)):
        raise ConfigError(f"{key} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer or fraction past double range
        number = inf
    if number in (inf, -inf) and value not in (inf, -inf):  # numpy's long double rounds to inf
        kind = "integer" if _is_integer(value) else "number"
        raise ConfigError(f"{key} must be at most {sys.float_info.max!r} in magnitude, got a larger {kind}")
    return number


def _as_int(key: str, value: Any) -> int:
    if _is_integer(value) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {_shown(value)}")


def _as_number_list(key: str, value: Any) -> list[float]:
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigError(f"{key} must not be an empty list")
        return [_as_number(key, v) for v in value]
    return [_as_number(key, value)]


def _as_scheme(key: str, value: Any) -> SchemeKind:
    try:
        return SchemeKind(str(value).lower())
    except ValueError:
        raise ConfigError(
            f"{key} must be one of {[k.value for k in SchemeKind]}, got {_shown(value)}"
        ) from None


def _as_memory_preset(key: str, value: Any) -> MemorySpec:
    if not isinstance(value, str) or value not in MEMORY_PRESETS:
        raise ConfigError(f"{key} must be one of {sorted(MEMORY_PRESETS)}, got {_shown(value)}")
    return MEMORY_PRESETS[value]


# Every flat config key: the spec it sets ("scheme" is the SchemeConfig, "mc"
# the scenario's McControls), the field it sets there and the coercion of its
# JSON value. L_km and p_m are the sweep axes and take lists; memory.kind
# names the preset that the other memory.* keys override.
_CONFIG_KEYS: dict[str, tuple[str, str, Callable[[str, Any], Any]]] = {
    "scheme": ("scheme", "kind", _as_scheme),
    "p_m": ("scheme", "p_m", _as_number_list),
    "N_A": ("scheme", "N_A", _as_int),
    "N_B": ("scheme", "N_B", _as_int),
    "L_km": ("link", "L", _as_number_list),
    "L_att_km": ("link", "L_att", _as_number),
    "n": ("link", "n", _as_number),
    "c_km_per_s": ("link", "c", _as_number),
    "p_d": ("link", "p_d", _as_number),
    "memory.kind": ("memory", "kind", _as_memory_preset),
    "memory.t_clock_s": ("memory", "t_clock", _as_number),
    "memory.emission_fraction": ("memory", "emission_fraction", _as_number),
    "memory.collection_efficiency": ("memory", "collection_efficiency", _as_number),
    "memory.N": ("memory", "N", _as_int),
    "afc.N_AFC": ("afc", "N_AFC", _as_int),
    "afc.t_rephase_s": ("afc", "t_rephase", _as_number),
    "afc.t_spin_coherence_s": ("afc", "t_spin_coherence", _as_number),
    "afc.p_AFC": ("afc", "p_AFC", _as_number),
    "afc.p_pass": ("afc", "p_pass", _as_number),
    "afc.t_clock_prime_s": ("afc", "t_clock_prime", _as_number),
    "mc.n_rounds": ("mc", "n_rounds", _as_int),
    "mc.seed": ("mc", "seed", _as_int),
}


def _spec_fields(document: Mapping[str, Any], spec: str) -> dict[str, Any]:
    """The coerced fields of `spec` that `document` sets, by field name."""
    return {
        field: coerce(key, document[key])
        for key, (owner, field, coerce) in _CONFIG_KEYS.items()
        if owner == spec and key in document
    }


def _resolve_series(series: Mapping[str, Any]) -> _Series:
    if "scheme" not in series:
        raise ConfigError("scheme is required (one of mm, sr, ms, afc-mm, afc-ms)")
    if "L_km" not in series:
        raise ConfigError("L_km is required (a distance in km, or a list of them)")
    scheme = _spec_fields(series, "scheme")
    p_m_values = scheme.pop("p_m", [1.0])
    if scheme["kind"].is_afc:
        memory = replace(AFC_REALISTIC, **_spec_fields(series, "afc"))
    else:
        memory_fields = _spec_fields(series, "memory")
        memory = replace(memory_fields.pop("kind", QUANTUM_DOT), **memory_fields)
    link_fields = _spec_fields(series, "link")
    L_values = link_fields.pop("L")
    # Checked in the order a point-by-point build meets the errors: the first
    # L, then every p_m with it, then the other L.
    first = LinkParams(L=L_values[0], **link_fields)
    configs = [SchemeConfig(link=first, memory=memory, p_m=p_m, **scheme) for p_m in p_m_values]
    for L in L_values[1:]:
        _require_L(L)
    return _Series(configs[0], tuple(sorted(L_values)), tuple(sorted(p_m_values)))


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        document = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    except ValueError as exc:  # text that is not UTF-8, or an integer past the digit limit
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"config file {path!r} must contain a JSON object")
    return document


def build_scenario(
    source: str,
    overrides: Mapping[str, Any] | None = None,
    seed: int | None = None,
    rounds: int | None = None,
) -> Scenario:
    """Resolve a preset name or config-file path into a runnable scenario.

    Points are ordered by (scheme, L, p_m); Monte Carlo sub-seeds are keyed to
    that order, so an identical scenario always reproduces identical rows.
    """
    base: Mapping[str, Any] = {}  # a preset document, read and never changed
    flat: dict[str, Any] = {}
    if source in PRESETS:
        base = PRESETS[source]
    elif source == "custom" or source.endswith(".json") or Path(source).exists():
        if source != "custom":
            flat = _load_config_file(source)
        name = flat.pop("preset", None)
        if name is not None:
            if not isinstance(name, str) or name not in PRESETS:
                raise ConfigError(f"unknown preset {_shown(name)}; available: {preset_names()}")
            base = PRESETS[name]
    else:
        raise ConfigError(f"unknown preset or config path {source!r}; presets: {preset_names()}")
    flat.update(overrides or {})
    for key in flat:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {_shown(key)}; known keys: {sorted(_CONFIG_KEYS)}")
    if rounds is not None:
        flat["mc.n_rounds"] = rounds
    if seed is not None:
        flat["mc.seed"] = seed
    mc = McControls(**{"n_rounds": 100_000, **_spec_fields({**base, **flat}, "mc")})
    documents = [{**series, **flat} for series in base.get("series", [{}])]
    # Counted on the raw values, as _as_number_list reads them, before any point is built.
    points = sum(prod(len(v) if isinstance(v, (list, tuple)) else 1 for v in (d.get("L_km"), d.get("p_m")))
                 for d in documents)
    if points > _MAX_POINTS:
        raise ConfigError(f"L_km x p_m gives {points} points over the series; at most {_MAX_POINTS} are allowed")
    return Scenario(tuple(map(_resolve_series, documents)), mc)


def _point_columns(series: Sequence[_Series]) -> dict[str, list[Any]]:
    """scheme, L_km, p_m and the evaluate_series columns of every point, in row order."""
    merged = {name: [] for name in ("scheme", "L_km", "p_m", *SeriesColumns._fields)}
    for s in series:
        merged["scheme"] += [s.cfg.kind.value] * (len(s.L_km) * len(s.p_m))
        merged["L_km"] += [L for L in s.L_km for _ in s.p_m]
        merged["p_m"] += s.p_m * len(s.L_km)
        for name, column in zip(SeriesColumns._fields, evaluate_series(s.cfg, s.L_km, s.p_m)):
            merged[name] += column
    order = _row_order(series)
    if isinstance(order, range):
        return merged
    return {name: [column[j] for j in order] for name, column in merged.items()}


def run_scenario(
    source: str,
    overrides: Mapping[str, Any] | None = None,
    seed: int | None = None,
    rounds: int | None = None,
    with_mc: bool = True,
) -> ResultTable:
    """Run a scenario and return its ResultTable, one row per sweep point.

    Each series is evaluated as a whole (analytic.evaluate_series); the first
    failing point in row order raises its ParameterError before any point is
    seeded. The seed column, montecarlo.subseeds' sub-seed of each row index,
    is hashed for all rows at once without numpy (montecarlo._hash_subseeds;
    montecarlo imports numpy only where it samples). Unless with_mc is
    False, numpy loads and one estimate_series call gives each feasible
    point a Monte Carlo estimate on the stream of rng_for_seed(row.seed):
    the same pool hash gives every SeedSequence(sub-seed)'s PCG64 state,
    set in turn on one reused generator; a run with with_mc False never
    loads numpy. Infeasible AFC points are flagged
    (feasible=False) with empty Monte Carlo fields, not aborting the sweep.
    The table holds the evaluated columns as they are, by ResultRow's field
    names (rate as analytic_rate), and no others; no row is built here.
    """
    scenario = build_scenario(source, overrides=overrides, seed=seed, rounds=rounds)
    points = _point_columns(scenario.series)
    rates = points["rate"]
    if (failed := next((rate for rate in rates if isinstance(rate, ParameterError)), None)) is not None:
        raise failed
    from .montecarlo import _hash_subseeds, estimate_series

    seeds = _hash_subseeds(scenario.mc.seed, range(len(rates)))
    mc_rate = mc_stderr = [None] * len(rates)
    if with_mc:
        import numpy as np  # numpy loads with the first run that samples

        evaluated = SeriesColumns(*map(points.get, SeriesColumns._fields))
        _, mc_rate, mc_stderr = estimate_series(evaluated, np.array(seeds, np.uint64), scenario.mc)
    return ResultTable({**points, "analytic_rate": rates, "mc_rate": mc_rate, "mc_stderr": mc_stderr,
                        "t_round_s": points["t_round"], "seed": seeds})


def _csv_cell(value: Any) -> str:
    """One value as the README's CSV rule spells it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)  # a subclass's repr, np.float64(1.0), is no CSV number
    return str(value)


def _json_cell(value: Any) -> str:
    """One value as json.dumps spells it, including its refusals."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_JSON_CONSTANTS = {None: "null", False: "false", True: "true"}


_ENCODE_ROWS = 1024  # rows per block: whole columns of 3,600 rows raised peak RSS by about 1 MB
_KEYED_KINDS = frozenset({bool, int, float, str})
# The types that each ResultRow column may hold, by name: float | None gives {float, NoneType}.
_COLUMN_KINDS = {name: frozenset(get_args(kind) or (kind,)) for name, kind in get_type_hints(ResultRow).items()}


def _encode_column(column: Sequence[Any], cell: Callable[[Any], str], kinds: frozenset[type]) -> str | Iterable[str]:
    """Each value's text by `cell`: one str that every cell shares, or a text per cell.

    `kinds` holds the types of the column's values, None's too. A column of
    one of _KEYED_KINDS, with or without None, is spelt by what it holds (a
    mix of types would merge True, 1 and 1.0):
    * every cell equal to the first, unless that is a float zero
      (-0.0 == 0.0) or not finite: its text, once;
    * ints: each by its repr, or, where kinds hold None, by one list repr
      whose Nones become cell(None);
    * floats, bools and strings: each distinct value once (floats as ints
      are, the others by `cell`), or every cell where the first value does
      not repeat, so the others hardly would, or where floats hold a zero.
    Other columns, and float columns holding nan or +/-inf, go value by
    value through `cell`, lazily, so JSON refuses the first non-finite value
    in row order, as json.dumps does.
    """
    none = cell(None) if NoneType in kinds else None
    kinds = kinds - {NoneType}
    if len(kinds) > 1 or not kinds <= _KEYED_KINDS:
        return map(cell, column)
    first = column[0]
    repeats = column.count(first)
    if repeats == len(column) and (type(first) is not float or first and isfinite(first)):
        return cell(first)
    distinct = column if repeats == 1 or kinds == {int} else dict.fromkeys(column)
    if float in kinds and not all(map(isfinite, filter(None, distinct))):  # filter drops None
        return map(cell, column)
    keys = list(column if float in kinds and 0.0 in distinct else distinct)
    if not kinds <= {int, float}:
        texts = list(map(cell, keys))
    else:  # each repr is faster than splitting one list repr, which only Nones need
        texts = list(map(repr, keys)) if none is None else repr(keys)[1:-1].replace("None", none).split(", ")
    return texts if len(keys) == len(column) else map(dict(zip(keys, texts)).__getitem__, column)


def _encode_rows(rows: Sequence[ResultRow], cell: Callable[[Any], str], key: str, sep: str,
                 head: str = "", tail: str = "\n") -> Iterator[str]:
    """The text of each block of _ENCODE_ROWS rows, encoded a column at a time.

    A ResultTable's columns are read by the names it holds (ResultRow's
    fields and no others), each typed by its name's _COLUMN_KINDS; other
    rows are transposed into columns once, named by ResultRow._fields, each
    scanned once for its types. A row is `head`, each cell after `key`
    formatted with its column's JSON-escaped name, `sep` between the cells,
    then `tail`: one join of the texts between its cells interleaved with
    them, a column spelt once merged into the text around it (faster than
    one join of the whole block's pieces and cells). Each block is one join
    of its rows, so only one block's cells are held at once.
    """
    table = isinstance(rows, ResultTable)
    named = rows._columns if table else dict(zip(ResultRow._fields, zip(*rows)))
    kinds = [_COLUMN_KINDS[name] if table else frozenset(map(type, column)) for name, column in named.items()]
    pieces = (head + sep.join(key.format(encode_basestring_ascii(name)) + "%s" for name in named) + tail).split("%s")
    for start in range(0, len(rows), _ENCODE_ROWS):
        size = min(_ENCODE_ROWS, len(rows) - start)
        parts, text = [], pieces[0]
        for column, column_kinds, piece in zip(named.values(), kinds, pieces[1:]):
            spelt = _encode_column(column[start:start + _ENCODE_ROWS], cell, column_kinds)
            if isinstance(spelt, str):
                text += spelt + piece
            else:
                parts += repeat(text, size), spelt
                text = piece
        yield "".join(map("".join, zip(*parts, repeat(text, size))))


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    """CSV_HEADER, then one line per row, with LF endings and shortest round-trip floats."""
    return "".join([CSV_HEADER, "\n", *_encode_rows(rows, _csv_cell, "", ",")])


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    """The bytes of json.dumps(rows as objects, indent=2) plus a newline.

    Keys are the CSV columns; floats are the same shortest round-trip text
    as in the CSV. A non-finite value raises ValueError rather than emitting
    NaN/Infinity, which are not JSON.
    """
    # One object of json.dumps(rows, indent=2) per row, a key per line four spaces in, then ",\n".
    blocks = list(_encode_rows(rows, _json_cell, "    {}: ", ",\n", "  {\n", "\n  },\n"))
    if not blocks:
        return "[]\n"
    blocks[-1] = blocks[-1][:-2]  # the last row takes no ","
    return "".join(["[\n", *blocks, "\n]\n"])

