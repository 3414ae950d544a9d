"""Command line interface.

Four subcommands cover the workflow end to end:

  rates     print the per-channel wavelength / frequency / rate table
  route     compute disjoint route pairs from a source placement
  allocate  run one allocation strategy and print per-pair rates
  sweep     run a full placement sweep and write CSV (and optional SVG)
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .allocation import AllocationInstance
from .harness import (
    ALL_STRATEGIES,
    ConfigError,
    ExperimentConfig,
    allocate_once,
    config_from_json,
    emit_csv,
    emit_plot,
    run_placement_sweep,
)
from .metrics import jain_index
from .netgraph import LossParams, build_routing_graph, load_topology, mem_vertex
from .routing import RoutingError, all_pair_routes, route_nodes
from .spectrum import (
    ChannelGrid,
    SpectrumProfile,
    channel_bandwidth,
    channel_center_frequency,
    channel_center_wavelength,
    generation_rates,
)


# Flags that set a config field store under its name and default to the
# ExperimentConfig default, except in `sweep`: there an omitted flag keeps
# the --config file's value, else the config default.
_CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
_GRID_FLAGS = (
    ("--channels", "channels", int, "number of wavelength channels"),
    ("--pitch-nm", "channel_pitch_nm", float, "channel spacing in nm"),
    ("--fwhm-nm", "fwhm_nm", float, "emission FWHM in nm"),
    ("--peak-rate", "peak_rate", float, "peak generation rate"),
)
_FIBER_FLAG = ("--fiber-db-per-km", "fiber_loss_db_per_km", float, "fiber loss in dB/km")
# Only `rates` labels its channels, with ChannelGrid's defaults.
_LABEL_FLAGS = (
    ("--width-nm", "channel_width_nm", float,
     "channel width in nm (default 0.1, or the pitch when tighter)"),
    ("--center-nm", "center_wavelength_nm", float, "grid center wavelength in nm"),
)


def _add_config_flags(parser, flags, defaults=_CONFIG_DEFAULTS) -> None:
    for flag, field, kind, text in flags:
        default = defaults[field]
        if default is not None:
            text = f"{text} (default {default:g})"
        parser.add_argument(flag, dest=field, type=kind, default=default, help=text)


def _add_loss_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True,
                        help="path to a topology JSON, or a bundled name "
                             "(simple6, ilec17)")
    parser.add_argument("--source", required=True, help="source node id")
    wss = LossParams.wss_loss_db
    parser.add_argument("--wss-db", type=float, default=wss,
                        help=f"per-switch loss in dB (default {wss:g})")
    _add_config_flags(parser, [_FIBER_FLAG])


def _cmd_rates(args: argparse.Namespace) -> int:
    grid = ChannelGrid(args.channels, args.channel_width_nm,
                       args.channel_pitch_nm, args.center_wavelength_nm)
    rates = generation_rates(grid, SpectrumProfile(args.fwhm_nm, args.peak_rate))
    print(f"{'ch':>4} {'lambda_nm':>10} {'freq_THz':>11} {'bw_GHz':>8} {'rate':>12}")
    for x in range(1, grid.channel_count + 1):
        print(f"{x:>4} {channel_center_wavelength(grid, x):>10.4f} "
              f"{channel_center_frequency(grid, x):>11.5f} "
              f"{channel_bandwidth(grid, x):>8.4f} {rates[x - 1]:>12.6g}")
    print(f"total generation rate: {rates.total:.6g}")
    return 0


def _route_table(args: argparse.Namespace):
    topology = load_topology(args.topology)
    loss = LossParams(args.fiber_loss_db_per_km, args.wss_db)
    graph = build_routing_graph(topology, args.source, loss)
    return graph, all_pair_routes(graph)


def _cmd_route(args: argparse.Namespace) -> int:
    graph, table = _route_table(args)
    if args.pair:
        if args.pair[0] == args.pair[1]:
            raise RoutingError("a pair needs two distinct nodes")
        for node in args.pair:
            if mem_vertex(node) not in graph.vertices:
                raise RoutingError(f"unknown node {node!r}")
        want = tuple(sorted(args.pair))
        plan = table.plans.get(want)
        if plan is None:
            print(f"pair {want[0]}-{want[1]}: no pair of link-disjoint routes",
                  file=sys.stderr)
            return 1
        print(f"pair {want[0]}-{want[1]}: total loss {plan.total_loss_db:.4f} dB, "
              f"transmittance {plan.eta:.6g}")
        for label, path in (("A", plan.path_a), ("B", plan.path_b)):
            hops = " -> ".join(route_nodes(graph, path))
            edges = [graph.edges[eid] for eid in path]
            db = math.fsum([e.switch_db for e in edges] + [e.fiber_db for e in edges])
            print(f"  route {label} ({db:.4f} dB): {hops}")
        return 0
    print(f"{'pair':>10} {'loss_dB':>10} {'transmittance':>14}")
    for pair, plan in table.plans.items():
        print(f"{pair[0] + '-' + pair[1]:>10} {plan.total_loss_db:>10.4f} "
              f"{plan.eta:>14.6g}")
    for pair in table.infeasible:
        print(f"{pair[0] + '-' + pair[1]:>10} {'infeasible':>10}")
    return 0 if not table.infeasible else 1


def _cmd_allocate(args: argparse.Namespace) -> int:
    _, table = _route_table(args)
    if table.infeasible:
        bad = ", ".join("-".join(p) for p in table.infeasible)
        print(f"placement {args.source} cannot route: {bad}", file=sys.stderr)
        return 1
    grid = ChannelGrid(args.channels, channel_pitch_nm=args.channel_pitch_nm)
    rates = generation_rates(grid, SpectrumProfile(args.fwhm_nm, args.peak_rate))
    instance = AllocationInstance(
        tuple(plan.eta for plan in table.plans.values()), rates)
    allocation, completed = allocate_once(instance, args.strategy, seed=args.seed,
                                          node_budget=args.node_budget)
    print(f"{'pair':>10} {'channels':>9} {'received':>12}")
    for q, pair in enumerate(table.plans):
        print(f"{pair[0] + '-' + pair[1]:>10} {allocation.assignment.count(q):>9} "
              f"{allocation.received[q]:>12.6g}")
    print(f"minimum rate: {allocation.min_rate:.6g}")
    print(f"jain index:   {jain_index(allocation.received):.6g}")
    # The sweep CSV's words: "budget" is an exact search stopped at its
    # node budget, whose allocation is the best one found.
    print(f"status: {'ok' if completed else 'budget'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.config is None and None in (args.topology_path, args.seed):
        raise ConfigError("without --config, --topology and --seed are required "
                          "(sweeps must be reproducible)")
    given = {name: value for name, value in vars(args).items()
             if name in _CONFIG_DEFAULTS and value is not None}
    config = config_from_json(args.config, **given)
    out = config.output_path or "sweep.csv"
    # Refused before the sweep, so a bad path costs no sweep and leaves no file.
    for path in filter(None, (out, args.plot)):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"cannot write {path}: no directory {parent}")
    report = run_placement_sweep(config)
    emit_csv(report, out)
    print(f"wrote {len(report.rows)} rows to {out}")
    if args.plot:
        emit_plot(report, args.plot)
        print(f"wrote plot to {args.plot}")
    return 0


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprnet",
        description="Routing and fair spectrum allocation for single-source "
                    "entangled-photon networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="print the channel rate table")
    _add_config_flags(p_rates, _GRID_FLAGS)
    _add_config_flags(p_rates, _LABEL_FLAGS, vars(ChannelGrid))
    p_rates.set_defaults(func=_cmd_rates)

    p_route = sub.add_parser("route", help="compute disjoint route pairs")
    _add_loss_args(p_route)
    p_route.add_argument("--pair", nargs=2, metavar=("NODE", "NODE"),
                         help="show the two routes for one consumer pair")
    p_route.set_defaults(func=_cmd_route)

    p_alloc = sub.add_parser("allocate", help="run one allocation strategy")
    _add_loss_args(p_alloc)
    _add_config_flags(p_alloc, _GRID_FLAGS)
    p_alloc.add_argument("--strategy", required=True, choices=ALL_STRATEGIES)
    p_alloc.add_argument("--seed", type=int, default=None,
                         help="shuffle seed for order-sensitive strategies")
    p_alloc.add_argument("--node-budget", type=int,
                         default=_CONFIG_DEFAULTS["exact_node_budget"],
                         help="search budget for the exact strategy")
    p_alloc.set_defaults(func=_cmd_allocate)

    p_sweep = sub.add_parser("sweep", help="run a placement sweep, write CSV")
    p_sweep.add_argument("--config",
                         help="experiment config JSON; flags given override its keys")
    p_sweep.add_argument("--topology", dest="topology_path",
                         help="topology path or bundled name")
    p_sweep.add_argument("--seed", type=int,
                         help="master seed (required without --config)")
    p_sweep.add_argument("--runs", type=int,
                         help="runs per order-sensitive strategy "
                              f"(default {_CONFIG_DEFAULTS['runs']})")
    losses = " and ".join(f"{v:g}" for v in _CONFIG_DEFAULTS["wss_losses"])
    p_sweep.add_argument("--wss-db", dest="wss_losses", type=float,
                         action="append",
                         help=f"switch loss level, repeatable (default {losses})")
    p_sweep.add_argument("--strategies", type=_names,
                         help="comma-separated strategy list (default all)")
    p_sweep.add_argument("--sources", type=_names,
                         help="comma-separated source placements (default all)")
    p_sweep.add_argument("--out", dest="output_path",
                         help="output CSV path (default sweep.csv)")
    p_sweep.add_argument("--plot", help="also write a grouped-bar SVG here")
    _add_config_flags(p_sweep, _GRID_FLAGS + (_FIBER_FLAG,))
    # Parser-level defaults override the flags' own.
    p_sweep.set_defaults(func=_cmd_sweep, **dict.fromkeys(_CONFIG_DEFAULTS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
