"""Source-placement experiment sweeps with reproducible outputs.

A sweep walks every combination of switch loss, source placement, and
allocation strategy on one topology.  Strategies whose outcome depends on
the order node pairs are processed in (first-fit, round-robin, random
dealing, and the exact solver's tie breaking) are averaged over many runs,
each with a freshly shuffled pair order; deterministic strategies run
once.

Randomness policy: every run's seed is derived from the master seed and
the (loss, source, strategy, run) indices through a splitmix64 chain, and
all drawing uses numpy's PCG64 generator seeded with that value.  Results
therefore depend only on the configuration, never on scheduling or wall
clock, and repeated sweeps are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .allocation import (
    AllocationInstance,
    bezakova_matching,
    exact_maxmin,
    first_fit,
    lp_round,
    modified_lpt,
    random_balanced,
    round_robin,
)
from .metrics import jain_index, normalization_reference
from .netgraph import LossParams, PhysicalTopology, build_routing_graph, load_topology
from .routing import all_pair_routes
from .spectrum import ChannelGrid, SpectrumProfile, generation_rates

ALL_STRATEGIES = (
    "exact", "first-fit", "round-robin", "random",
    "lpt", "bd-matching", "lp-round",
)
ORDER_SENSITIVE = frozenset({"exact", "first-fit", "round-robin", "random"})

_MASK64 = (1 << 64) - 1
_CSV_COLUMNS = (
    "topology", "wss_loss_db", "source_node", "strategy",
    "mean_min_rate", "mean_min_rate_normalized", "mean_jain",
    "runs", "seed", "status", "std_min_rate", "std_jain",
)


class ConfigError(ValueError):
    """Raised for invalid experiment configurations."""


def splitmix64(value: int) -> int:
    """One splitmix64 output step (public-domain mixing constants)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Fold sweep coordinates into an independent 64-bit run seed."""
    seed = master & _MASK64
    for index in indices:
        seed = splitmix64(seed ^ (index & _MASK64))
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; JSON files mirror the field names."""

    topology_path: str
    seed: int
    wss_losses: tuple[float, ...] = (4.0, 8.0)
    strategies: tuple[str, ...] = ALL_STRATEGIES
    runs: int = 1000
    sources: tuple[str, ...] | None = None
    channels: int = 200
    channel_width_nm: float = 0.1
    channel_pitch_nm: float = 0.2
    center_wavelength_nm: float = 1550.0
    fwhm_nm: float = 9.0
    peak_rate: float = 1.0
    fiber_loss_db_per_km: float = 0.4
    exclude_u_turns: bool = False
    exact_max_mk: int = 512
    exact_node_budget: int = 2_000_000
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if not self.wss_losses:
            raise ConfigError("need at least one wss loss value")
        if not self.strategies:
            raise ConfigError("need at least one strategy")
        unknown = set(self.strategies) - set(ALL_STRATEGIES)
        if unknown:
            raise ConfigError(
                f"unknown strategies: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(ALL_STRATEGIES)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed must be an integer")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        for loss in self.wss_losses:
            if not 0 <= loss < math.inf:
                raise ConfigError(f"wss loss must be finite and >= 0 dB, got {loss}")

    def grid(self) -> ChannelGrid:
        return ChannelGrid(self.channels, self.channel_width_nm,
                           self.channel_pitch_nm, self.center_wavelength_nm)

    def profile(self) -> SpectrumProfile:
        return SpectrumProfile(self.fwhm_nm, self.peak_rate)


def config_from_json(path: str | Path) -> ExperimentConfig:
    """Load a config file, rejecting unknown keys."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("wss_losses", "strategies", "sources"):
        if key in doc and doc[key] is not None:
            doc[key] = tuple(doc[key])
    try:
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
    status: str  # "ok", "skipped" (unroutable placement), "budget" (exact gated)
    std_min_rate: float | None
    std_jain: float | None


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


def _mean_std(values: list[float]) -> tuple[float, float | None]:
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def _blank_row(topology: str, loss: float, source: str, strategy: str,
               seed: int, status: str) -> SweepRow:
    return SweepRow(topology, loss, source, strategy, None, None, None,
                    0, seed, status, None, None)


def run_placement_sweep(config: ExperimentConfig,
                        topology: PhysicalTopology | None = None) -> ExperimentReport:
    """Execute the full sweep described by ``config``.

    Placements with unroutable pairs yield rows marked ``skipped``; the
    exact solver is gated behind ``exact_max_mk`` (channels times pairs)
    and emits ``budget`` rows beyond it, mirroring how exhaustive solvers
    are dropped from large studies.  Every (loss, source, strategy) combo
    contributes exactly one row.
    """
    if topology is None:
        topology = load_topology(config.topology_path)
    grid = config.grid()
    profile = config.profile()
    rates = generation_rates(grid, profile)
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
        tables = {
            node: all_pair_routes(build_routing_graph(
                topology, node, loss, exclude_u_turns=config.exclude_u_turns))
            for node in topology.node_ids
        }
        reference = normalization_reference(
            topology, loss, grid, profile,
            exclude_u_turns=config.exclude_u_turns, tables=tables,
        )
        references.append((wss, reference))
        for source_idx, source in enumerate(sources):
            table = tables[source]
            if table.infeasible:
                rows.extend(
                    _blank_row(topology.name, wss, source, strategy,
                               config.seed, "skipped")
                    for strategy in config.strategies
                )
                continue
            etas = tuple(table.plans[pair].eta for pair in sorted(table.plans))
            instance = AllocationInstance(etas, rates)
            for strategy_idx, strategy in enumerate(config.strategies):
                rows.append(_run_strategy(
                    config, instance, topology.name, wss, source, strategy,
                    reference, loss_idx, source_idx, strategy_idx,
                ))
    return ExperimentReport(topology.name, config.seed, tuple(rows),
                            tuple(references))


def _run_strategy(config: ExperimentConfig, instance: AllocationInstance,
                  topo_name: str, wss: float, source: str, strategy: str,
                  reference: float, loss_idx: int, source_idx: int,
                  strategy_idx: int) -> SweepRow:
    k = instance.pair_count
    m = instance.channel_count
    runs = config.runs if strategy in ORDER_SENSITIVE else 1
    if strategy == "exact" and m * k > config.exact_max_mk:
        return _blank_row(topo_name, wss, source, strategy, config.seed, "budget")

    min_rates: list[float] = []
    jains: list[float] = []
    status = "ok"
    exact_hint: float | None = None
    exact_warm: tuple[int, ...] | None = None
    for run_idx in range(runs):
        run_seed = derive_seed(config.seed, loss_idx, source_idx,
                               strategy_idx, run_idx)
        rng = np.random.Generator(np.random.PCG64(run_seed))
        perm = tuple(int(p) for p in rng.permutation(k))
        if strategy == "first-fit":
            allocation = first_fit(instance, perm)
        elif strategy == "round-robin":
            allocation = round_robin(instance, perm)
        elif strategy == "random":
            allocation = random_balanced(instance, run_seed)
        elif strategy == "exact":
            result = exact_maxmin(
                instance, pair_order=perm,
                node_budget=config.exact_node_budget,
                target_hint=exact_hint, warm=exact_warm,
            )
            allocation = result.allocation
            if not result.optimal:
                status = "budget"
            elif exact_hint is None:
                # Later runs only need to reach the proven optimum; the
                # winning assignment stays valid, so it re-seeds them.
                exact_hint = allocation.min_rate
                exact_warm = allocation.assignment
        elif strategy == "lpt":
            allocation = modified_lpt(instance)
        elif strategy == "bd-matching":
            allocation = bezakova_matching(instance)
        elif strategy == "lp-round":
            allocation = lp_round(instance)
        else:  # pragma: no cover - guarded by ExperimentConfig
            raise ConfigError(f"unknown strategy {strategy!r}")
        min_rates.append(allocation.min_rate)
        jains.append(jain_index(allocation.received))

    mean_min, std_min = _mean_std(min_rates)
    mean_jain, std_jain = _mean_std(jains)
    return SweepRow(
        topology=topo_name, wss_loss_db=wss, source_node=source,
        strategy=strategy, mean_min_rate=mean_min,
        mean_min_rate_normalized=mean_min / reference,
        mean_jain=mean_jain, runs=runs, seed=config.seed, status=status,
        std_min_rate=std_min, std_jain=std_jain,
    )


def allocate_once(instance: AllocationInstance, strategy: str, *,
                  seed: int | None = None,
                  node_budget: int = 2_000_000):
    """Run one strategy once and return its Allocation.

    ``seed`` feeds the pair-order shuffle for order-sensitive strategies
    (and the channel shuffle for ``random``); omitting it keeps the
    natural pair order.  ``random`` requires a seed.
    """
    if strategy not in ALL_STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    perm: tuple[int, ...] | None = None
    if seed is not None:
        rng = np.random.Generator(np.random.PCG64(seed))
        perm = tuple(int(p) for p in rng.permutation(instance.pair_count))
    if strategy == "random":
        if seed is None:
            raise ConfigError("the random strategy requires a seed")
        return random_balanced(instance, seed)
    if strategy == "first-fit":
        return first_fit(instance, perm)
    if strategy == "round-robin":
        return round_robin(instance, perm)
    if strategy == "exact":
        return exact_maxmin(instance, pair_order=perm,
                            node_budget=node_budget).allocation
    if strategy == "lpt":
        return modified_lpt(instance)
    if strategy == "bd-matching":
        return bezakova_matching(instance)
    return lp_round(instance)


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
    """Parse a sweep CSV back into dicts (comment lines skipped)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


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
        parts.append(f'<text x="{x + 16}" y="16">{strategy}</text>')

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
            f'{report.topology}: switch loss {_fmt(loss)} dB'
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
                f'text-anchor="middle">{source}</text>'
            )
            for si, strategy in enumerate(strategies):
                value = values.get((source, strategy))
                if value is None:
                    continue
                h = panel_h * value / vmax
                x = gx + group_w * 0.1 + si * bar_w
                parts.append(
                    f'<rect class="bar" data-source="{source}" '
                    f'data-strategy="{strategy}" data-value="{format(value, ".9g")}" '
                    f'x="{format(x, ".2f")}" y="{format(bottom - h, ".4f")}" '
                    f'width="{format(bar_w, ".2f")}" height="{format(h, ".4f")}" '
                    f'fill="{_PALETTE[si % len(_PALETTE)]}"/>'
                )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


__all__ = [
    "ALL_STRATEGIES", "ORDER_SENSITIVE", "ConfigError", "ExperimentConfig",
    "ExperimentReport", "SweepRow", "allocate_once", "config_from_json",
    "derive_seed", "emit_csv", "emit_plot", "read_csv_rows",
    "run_placement_sweep", "splitmix64",
]
