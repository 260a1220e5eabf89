"""Command-line entry point.

Subcommands:
  run           sweep a preset or config file, analytic + Monte Carlo per point
  analytic      same sweep, closed forms only (no simulation)
  swap          entanglement-swapping budget and chain penalty
  list-presets  show the built-in scenario presets

Exit codes: 0 success, 1 config error (unknown preset, malformed config,
invalid override or parameter), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Any, Sequence

from .harness import ConfigError, PRESETS, preset_names, rows_to_csv, rows_to_json, run_scenario
from .params import ParameterError
from .swapping import SwapParams, chain_factor, swap_budget

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_RUNTIME = 2
_ENCODERS = {"csv": rows_to_csv, "json": rows_to_json}  # --format choices


def _parse_set(values: Sequence[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for item in values:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
        except ValueError as exc:  # an integer past the int-to-string digit limit
            raise ConfigError(f"--set {key}: {exc}") from exc
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distribution rates between adjacent repeater nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep_args(p: argparse.ArgumentParser, with_mc: bool) -> None:
        p.add_argument("scenario", help="preset name, config file path, or 'custom'")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        p.add_argument("--format", choices=_ENCODERS, default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if with_mc:
            p.add_argument("--seed", type=int, default=None, help="master RNG seed")
            p.add_argument("--rounds", type=int, default=None,
                           help="rounds per sweep point")

    add_sweep_args(sub.add_parser("run", help="analytic + Monte Carlo sweep"), with_mc=True)
    add_sweep_args(sub.add_parser("analytic", help="closed-form sweep only"), with_mc=False)

    # A flag left out sets no attribute, so its SwapParams field keeps its default.
    swap = sub.add_parser("swap", help="entanglement-swapping budget", argument_default=argparse.SUPPRESS,
                          description="A --p-* or --links flag left out takes its SwapParams default.")
    swap.add_argument("--pairs", dest="J", metavar="PAIRS", type=int, required=True,
                      help="entangled pairs per link (J)")
    swap.add_argument("--p-emit", dest="p_emit", type=float,
                      help="memory re-emission probability (default: p-afc)")
    swap.add_argument("--p-bsa", dest="p_BSA", type=float, help="Bell measurement success probability")
    swap.add_argument("--p-pass", dest="p_pass", type=float, help="non-destructive detector transmission")
    swap.add_argument("--p-afc", dest="p_AFC", type=float, help="memory absorption efficiency")
    swap.add_argument("--links", dest="i", metavar="LINKS", type=int, help="elementary links in the chain (i)")
    swap.add_argument("--heralding", choices=("perfect", "imperfect"), default="imperfect")
    swap.add_argument("--out", default=None, help="output path (default: stdout)")

    sub.add_parser("list-presets", help="show built-in scenario presets")
    return parser


def _write(text: str, destination: str | None) -> None:
    """Write text to a path, or to stdout when destination is None or "-"."""
    if destination is None or destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", newline="") as handle:
            handle.write(text)


def _cmd_sweep(args: argparse.Namespace, with_mc: bool) -> int:
    overrides = _parse_set(args.overrides)
    rows = run_scenario(
        args.scenario,
        overrides=overrides,
        seed=getattr(args, "seed", None),
        rounds=getattr(args, "rounds", None),
        with_mc=with_mc,
    )
    _write(_ENCODERS[args.format](rows), args.out)
    return _EXIT_OK


def _cmd_swap(args: argparse.Namespace) -> int:
    given = vars(args)
    params = SwapParams(**{field.name: given[field.name] for field in fields(SwapParams) if field.name in given})
    budget = swap_budget(params, heralding=args.heralding)
    payload = {
        "heralding": args.heralding,
        **budget._asdict(),
        "chain_factor": chain_factor(params),
        "links": params.i,
    }
    _write(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return _EXIT_OK


def _cmd_list_presets() -> int:
    width = max(len(name) for name in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {PRESETS[name]['description']}")
    return _EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_sweep(args, with_mc=True)
        if args.command == "analytic":
            return _cmd_sweep(args, with_mc=False)
        if args.command == "swap":
            return _cmd_swap(args)
        return _cmd_list_presets()
    except (ConfigError, ParameterError) as exc:
        print(f"entdist: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"entdist: error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
