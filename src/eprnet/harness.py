"""Source-placement experiment sweeps with reproducible outputs.

A sweep walks every combination of switch loss, source placement, and
allocation strategy on one topology.  Order-sensitive strategies, whose
outcome depends on the order node pairs are processed in, are averaged over
many runs, each with a freshly shuffled pair order; the others run once.
A run takes its rates from its row's kernel, if any, else ``allocate_once``;
the exact solver's first proven optimum becomes its row's kernel.

Randomness policy: every run's seed is derived from the master seed and
the (loss, source, strategy, run) indices through a splitmix64 chain, and
``allocation`` makes the run's one draw from that value: a PCG64
permutation of the pairs or, for ``random``, of the channels.  Results
therefore depend only on the configuration, never on scheduling or wall
clock, and repeated sweeps are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import typing
from dataclasses import dataclass, fields
from itertools import dropwhile
from pathlib import Path

from .allocation import (
    _NODE_BUDGET,
    Allocation,
    AllocationInstance,
    ExactResult,
    bezakova_matching,
    exact_maxmin,
    first_fit,
    lp_round,
    modified_lpt,
    random_balanced,
    round_robin,
    _first_fit_row,
    _pair_order,
    _random_row,
    _round_robin_row,
    _seed_word,
)
from .metrics import jain_index, normalization_reference, normalized_min_rate
from .netgraph import LossParams, build_routing_graph, load_topology
from .routing import all_pair_routes
from .spectrum import ChannelGrid, SpectrumProfile, generation_rates


class ConfigError(ValueError):
    """Raised for invalid experiment configurations."""


# name -> (run, row, order_sensitive, gated), in the default sweep order.
# A row's seeds come from its positions in the config's wss_losses, sources
# and strategies lists, not from this table.  run(instance, seed, node_budget)
# returns an Allocation, or the exact search's ExactResult; it
# looks its allocation function up here when called, so patching this
# module's attribute reaches allocate_once and the sweep runs of a strategy
# without a row.  A sweep calls row(instance) once per row for kernel(seed),
# run's received rates bit for bit.  The seed's draw, a pair order or
# random's channel shuffle, is made in allocation.
# Gated (exact-only) strategies get a "budget" row, without running, beyond
# exact_max_mk channels times pairs; their first proven optimum becomes the
# row's kernel and serves the remaining runs without searching again.
_STRATEGIES = {
    "exact": (lambda inst, seed, node_budget:
              exact_maxmin(inst, pair_order=_pair_order(inst.pair_count, seed),
                           node_budget=node_budget),
              None, True, True),
    "first-fit": (lambda inst, seed, _:
                  first_fit(inst, _pair_order(inst.pair_count, seed)),
                  _first_fit_row, True, False),
    "round-robin": (lambda inst, seed, _:
                    round_robin(inst, _pair_order(inst.pair_count, seed)),
                    _round_robin_row, True, False),
    "random": (lambda inst, seed, _: random_balanced(inst, seed), _random_row,
               True, False),
    "lpt": (lambda inst, *_: modified_lpt(inst), None, False, False),
    "bd-matching": (lambda inst, *_: bezakova_matching(inst), None, False, False),
    "lp-round": (lambda inst, *_: lp_round(inst), None, False, False),
}
ALL_STRATEGIES = tuple(_STRATEGIES)


_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """One splitmix64 output step (public-domain mixing constants)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Fold sweep coordinates, each an int in 0..2**64-1, into a run seed."""
    seed = _seed_word(master, "master seed", ConfigError)
    for index in indices:
        seed = splitmix64(seed ^ _seed_word(index, "seed index", ConfigError))
    return seed


# Spectrum and loss fields whose config key has another name.
_CONFIG_KEYS = {"channel_count": "channels", "wss_loss_db": "wss_losses"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; JSON files mirror the field names."""

    topology_path: str
    seed: int
    wss_losses: tuple[float, ...] = (4.0, 8.0)
    strategies: tuple[str, ...] = ALL_STRATEGIES
    runs: int = 1000
    sources: tuple[str, ...] | None = None
    channels: int = ChannelGrid.channel_count
    channel_pitch_nm: float = ChannelGrid.channel_pitch_nm
    fwhm_nm: float = SpectrumProfile.fwhm_nm
    peak_rate: float = SpectrumProfile.peak_rate
    fiber_loss_db_per_km: float = LossParams.fiber_loss_db_per_km
    exact_max_mk: int = 512
    exact_node_budget: int = _NODE_BUDGET
    output_path: str | None = None

    def __post_init__(self) -> None:
        for name, hint in typing.get_type_hints(ExperimentConfig).items():
            object.__setattr__(self, name, _typed(name, hint, getattr(self, name)))
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        unknown = set(self.strategies) - set(ALL_STRATEGIES)
        if unknown:
            raise ConfigError(
                f"unknown strategies: {', '.join(map(repr, sorted(unknown)))}; "
                f"known: {', '.join(ALL_STRATEGIES)}")
        # One row per (loss, source, strategy): an empty list would sweep
        # nothing, and a repeated entry would repeat rows.
        for name in ("wss_losses", "strategies", "sources"):
            values = getattr(self, name)
            if values == ():
                hint = " (null sweeps every node)" if name == "sources" else ""
                raise ConfigError(f"{name} must not be empty{hint}")
            for pos, value in enumerate(values or ()):
                if value in values[:pos]:
                    raise ConfigError(f"{name} lists {value!r} more than once")
        _seed_word(self.seed, "seed", ConfigError)
        try:  # every spectrum and loss value, by its model class's rules
            self.grid(), self.profile()
            for wss in self.wss_losses:
                LossParams(self.fiber_loss_db_per_km, wss)
        except ValueError as exc:  # named by the config key, as the user wrote it
            field, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{_CONFIG_KEYS.get(field, field)} {rest}") from None
        if self.exact_max_mk < 0:
            raise ConfigError(f"exact_max_mk must be >= 0, got {self.exact_max_mk}")
        if self.exact_node_budget < 1:
            raise ConfigError(
                f"exact_node_budget must be >= 1, got {self.exact_node_budget}")

    def grid(self) -> ChannelGrid:
        return ChannelGrid(self.channels, channel_pitch_nm=self.channel_pitch_nm)

    def profile(self) -> SpectrumProfile:
        return SpectrumProfile(self.fwhm_nm, self.peak_rate)


def _typed(name: str, hint, value):
    """``value`` as field ``name``'s declared type ``hint``, or ConfigError:
    bool is neither int nor float, floats are finite, lists become tuples."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _typed(name, args[0], value)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(name, args[0], v) for v in value)
        raise ConfigError(f"{name} must be a list, got {value!r}")
    kind = (int, float) if hint is float else hint
    if (isinstance(value, kind) and isinstance(value, bool) == (hint is bool)
            and (hint is not float or abs(value) <= sys.float_info.max)):
        return hint(value)
    what = "a finite float" if hint is float else hint.__name__
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def config_from_json(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Build a config from a JSON file's keys (none if ``path`` is None)
    with ``overrides`` laid over them; bad keys or values raise ConfigError.
    """
    doc = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    doc.update(overrides)
    try:  # the TypeError names a missing or unknown key
        return ExperimentConfig(**doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: aggregated outcome of one (loss, source, strategy)."""

    topology: str
    wss_loss_db: float
    source_node: str
    strategy: str
    mean_min_rate: float | None
    mean_min_rate_normalized: float | None
    mean_jain: float | None
    runs: int
    seed: int
    status: str  # "ok", "skipped" (unroutable placement), "budget" (gated or stopped)
    std_min_rate: float | None
    std_jain: float | None


_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class ExperimentReport:
    """All sweep rows plus the normalization references per loss value."""

    topology: str
    seed: int
    rows: tuple[SweepRow, ...]
    references: tuple[tuple[float, float], ...]

    def reference_for(self, wss_loss_db: float) -> float:
        for loss, ref in self.references:
            if loss == wss_loss_db:
                return ref
        raise KeyError(f"no reference for wss loss {wss_loss_db}")


def _mean_std(values: list[float]) -> tuple[float, float]:
    scale = max(map(abs, values))
    if 0.0 < scale < 1e-150 or scale > 1e150:
        # As in jain_index: the sum or the squares would overflow, or the
        # squares go subnormal, so work on the values scaled to 1.
        mean, std = _mean_std([v / scale for v in values])
        return mean * scale, std * scale
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def run_placement_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full sweep described by ``config``.

    Placements with unroutable pairs yield rows marked ``skipped``; the
    exact solver is gated behind ``exact_max_mk`` (channels times pairs)
    and emits ``budget`` rows beyond it, mirroring how exhaustive solvers
    are dropped from large studies.  Every (loss, source, strategy) combo
    contributes exactly one row.
    """
    topology = load_topology(config.topology_path)
    grid = config.grid()
    profile = config.profile()
    rates = generation_rates(grid, profile)
    if rates.total == 0:
        raise ConfigError(
            f"the spectrum's {config.channels} channel rates total 0 (peak_rate "
            f"{config.peak_rate:g}, fwhm_nm {config.fwhm_nm:g}), and so would "
            "every min rate and the normalization reference")
    sources = config.sources if config.sources is not None else topology.node_ids
    known = set(topology.node_ids)
    for s in sources:
        if s not in known:
            raise ConfigError(f"unknown source node {s!r}")

    rows: list[SweepRow] = []
    references: list[tuple[float, float]] = []
    for loss_idx, wss in enumerate(config.wss_losses):
        loss = LossParams(config.fiber_loss_db_per_km, wss)
        # Every placement is routed once per loss value; the normalization
        # reference and the swept sources share these tables.
        tables = {node: all_pair_routes(build_routing_graph(topology, node, loss))
                  for node in topology.node_ids}
        reference = normalization_reference(topology, loss, grid, profile,
                                            tables=tables)
        references.append((wss, reference))
        for source_idx, source in enumerate(sources):
            table = tables[source]
            instance = None if table.infeasible else AllocationInstance(
                tuple(plan.eta for plan in table.plans.values()), rates)
            for strategy_idx, strategy in enumerate(config.strategies):
                row_seed = derive_seed(config.seed, loss_idx, source_idx,
                                       strategy_idx)
                rows.append(_sweep_row(
                    (topology.name, wss, source, strategy), config.seed,
                    reference, *_run_strategy(config, instance, strategy, row_seed),
                ))
    return ExperimentReport(topology.name, config.seed, tuple(rows),
                            tuple(references))


def _run_strategy(config: ExperimentConfig, instance: AllocationInstance | None,
                  strategy: str, row_seed: int,
                  ) -> tuple[str, list[float], list[float]]:
    """One row's status and each run's min rate and Jain index; no runs for
    an unroutable placement (``instance`` None) or a gated-off strategy."""
    _, row, order_sensitive, gated = _STRATEGIES[strategy]
    if instance is None:
        return "skipped", [], []
    if gated and instance.channel_count * instance.pair_count > config.exact_max_mk:
        return "budget", [], []

    min_rates: list[float] = []
    jains: list[float] = []
    status = "ok"
    kernel = row(instance) if row else None
    for run_idx in range(config.runs if order_sensitive else 1):
        # derive_seed's chain, its last step taken here per run.
        seed = splitmix64(row_seed ^ run_idx)
        if kernel:
            received = kernel(seed)
        else:
            allocation, completed = allocate_once(
                instance, strategy, seed=seed, node_budget=config.exact_node_budget)
            received = allocation.received
            if not completed:
                status = "budget"
            elif gated:
                kernel = lambda _, proven=received: proven
        min_rates.append(min(received))
        jains.append(jain_index(received))
    return status, min_rates, jains


def _sweep_row(cell: tuple[str, float, str, str], seed: int, reference: float,
               status: str, min_rates: list[float], jains: list[float]) -> SweepRow:
    """The CSV row of ``cell`` (topology, loss, source, strategy): blank
    columns when it has no runs, else its runs' means and deviations."""
    if not min_rates:
        return SweepRow(*cell, None, None, None, 0, seed, status, None, None)
    mean_min, std_min = _mean_std(min_rates)
    mean_jain, std_jain = _mean_std(jains)
    return SweepRow(*cell, mean_min, normalized_min_rate(mean_min, reference),
                    mean_jain, len(min_rates), seed, status, std_min, std_jain)


def allocate_once(instance: AllocationInstance, strategy: str, *,
                  seed: int | None = None,
                  node_budget: int = ExperimentConfig.exact_node_budget,
                  ) -> tuple[Allocation, bool]:
    """Run one strategy once; return its Allocation and whether it completed.

    ``seed`` feeds the pair-order shuffle of exact, first-fit and
    round-robin, and the channel shuffle of ``random``, which requires it;
    omitting it keeps the natural pair order.  ``node_budget`` goes to
    ``exact_maxmin``, which alone can stop uncompleted, at that budget.
    """
    if strategy not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if seed is not None:
        _seed_word(seed, "seed", ConfigError)
    result = _STRATEGIES[strategy][0](instance, seed, node_budget)
    if isinstance(result, ExactResult):
        return result.allocation, result.optimal
    return result, True


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_csv(report: ExperimentReport, path: str | Path) -> None:
    """Write the report as RFC 4180 CSV (one leading comment line).

    Floats carry 9 significant digits; identical reports serialize to
    byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# eprnet sweep: topology={report.topology}; seed={report.seed}; "
            "rng=PCG64; run_seed=splitmix64(master, loss_idx, source_idx, "
            "strategy_idx, run_idx)\r\n"
        )
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([_fmt(getattr(row, col)) for col in _CSV_COLUMNS])


def read_csv_rows(path: str | Path) -> list[dict[str, str]]:
    """Parse a sweep CSV back into dicts, skipping the comment lines above
    its header; a data row starting with ``#`` is kept."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(dropwhile(lambda ln: ln.startswith("#"), fh)))


_PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52",
    "#8172b3", "#937860", "#da8bc3",
)


def emit_plot(report: ExperimentReport, path: str | Path) -> None:
    """Render the report as a grouped-bar SVG, one panel per loss value.

    Bars show the normalized mean minimum rate per (source, strategy);
    the right-hand axis restates the ticks as raw rates via the panel's
    normalization reference.  Rows without data (skipped or budget) leave
    their slot empty.
    """
    # Imported here: html loads its entity tables (about 0.35 MB and 2 ms),
    # which only plotting needs.
    from html import escape

    if not report.rows:
        raise ValueError("nothing to plot: the report has no rows")
    losses = sorted({row.wss_loss_db for row in report.rows})
    panel_w, panel_h, margin = 960, 240, 56
    legend_h = 24
    strategies = list(dict.fromkeys(row.strategy for row in report.rows))
    total_h = legend_h + len(losses) * (panel_h + 2 * margin)
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {panel_w} {total_h}" '
        f'font-family="sans-serif" font-size="11">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for si, strategy in enumerate(strategies):
        x = 10 + si * 130
        color = _PALETTE[si % len(_PALETTE)]
        parts.append(f'<rect x="{x}" y="6" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="16">{escape(strategy)}</text>')

    for panel_idx, loss in enumerate(losses):
        panel_rows = [r for r in report.rows if r.wss_loss_db == loss]
        sources = list(dict.fromkeys(r.source_node for r in panel_rows))
        values = {
            (r.source_node, r.strategy): r.mean_min_rate_normalized
            for r in panel_rows if r.mean_min_rate_normalized is not None
        }
        vmax = max(values.values(), default=1.0) or 1.0
        top = legend_h + panel_idx * (panel_h + 2 * margin) + margin
        left, plot_w = 70, panel_w - 150
        bottom = top + panel_h
        reference = report.reference_for(loss)
        parts.append(
            f'<text x="{left}" y="{top - 12}" font-size="13">'
            f'{escape(report.topology)}: switch loss {_fmt(loss)} dB'
            f' (reference {format(reference, ".3g")})</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{bottom}" x2="{left + plot_w}" y2="{bottom}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>'
        )
        for frac in (0.0, 0.5, 1.0):
            y = bottom - frac * panel_h
            parts.append(
                f'<text x="{left - 6}" y="{y + 4}" text-anchor="end">'
                f'{format(frac * vmax, ".3g")}</text>'
            )
            parts.append(
                f'<text x="{left + plot_w + 6}" y="{y + 4}">'
                f'{format(frac * vmax * reference, ".3g")}</text>'
            )
        parts.append(
            f'<text x="{left - 40}" y="{top - 12}" font-size="10">normalized</text>'
        )
        parts.append(
            f'<text x="{left + plot_w + 6}" y="{top - 12}" font-size="10">rate</text>'
        )
        group_w = plot_w / max(1, len(sources))
        bar_w = group_w * 0.8 / max(1, len(strategies))
        for gi, source in enumerate(sources):
            gx = left + gi * group_w
            parts.append(
                f'<text x="{gx + group_w / 2}" y="{bottom + 16}" '
                f'text-anchor="middle">{escape(source)}</text>'
            )
            for si, strategy in enumerate(strategies):
                value = values.get((source, strategy))
                if value is None:
                    continue
                h = panel_h * value / vmax
                x = gx + group_w * 0.1 + si * bar_w
                parts.append(
                    f'<rect class="bar" data-source="{escape(source)}" '
                    f'data-strategy="{escape(strategy)}" '
                    f'data-value="{format(value, ".9g")}" '
                    f'x="{format(x, ".2f")}" y="{format(bottom - h, ".4f")}" '
                    f'width="{format(bar_w, ".2f")}" height="{format(h, ".4f")}" '
                    f'fill="{_PALETTE[si % len(_PALETTE)]}"/>'
                )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


__all__ = [
    "ALL_STRATEGIES", "ConfigError", "ExperimentConfig", "ExperimentReport",
    "SweepRow", "allocate_once", "config_from_json", "derive_seed", "emit_csv",
    "emit_plot", "read_csv_rows", "run_placement_sweep", "splitmix64",
]
