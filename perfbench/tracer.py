"""Outside-in tracer: spans and counters around the layers' public calls.

The program is not edited.  ``Tracer.installed()`` replaces each layer
function at the module attribute through which `eprnet.cli`,
`eprnet.harness` and `eprnet.metrics` call it, and restores every
attribute on exit, so untraced ops in the same process run the plain code.
Spans (op, name, start, end, parent) and per-op counters stay in memory
until ``dump``; counters are read from the values the functions return.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Allocation function name -> strategy name used in metric names.
STRATEGY_OF = {
    "first_fit": "first-fit",
    "round_robin": "round-robin",
    "random_balanced": "random",
    "modified_lpt": "lpt",
    "bezakova_matching": "bd-matching",
    "lp_round": "lp-round",
    "exact_maxmin": "exact",
}
LAYERS = ("cli", "harness", "spectrum", "netgraph", "routing", "metrics",
          "allocation")


class Tracer:
    def __init__(self) -> None:
        # Each span is [op, name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = {}
        self.op = -1
        self._stack: list[int] = []
        self._graph_key: dict[int, tuple] = {}
        self._tables: set[tuple] = set()

    def begin_op(self) -> None:
        self.op += 1
        self.counters[self.op] = Counter()
        self._graph_key.clear()
        self._tables = set()

    @contextmanager
    def span(self, name: str):
        rec = [self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counter, result, args, kwargs)``."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counters[self.op], result, args, kwargs)
            return result

        return traced

    # Counters, read from return values -----------------------------------

    def _count_graph(self, c, graph, args, kwargs):
        topology, source, loss = args[:3]
        c["graphs"] += 1
        c["edges"] += len(graph.edges)
        self._graph_key[id(graph)] = (topology.name, source,
                                      loss.fiber_loss_db_per_km, loss.wss_loss_db,
                                      kwargs.get("exclude_u_turns", False))

    def _count_table(self, c, table, args, kwargs):
        c["tables"] += 1
        c["pairs"] += len(table.plans) + len(table.infeasible)
        c["infeasible"] += len(table.infeasible)
        self._tables.add(self._graph_key.get(id(args[0]), ("?", table.source)))
        c["unique_tables"] = len(self._tables)

    @staticmethod
    def _count_exact(c, result, args, kwargs):
        c["exact_nodes"] += result.nodes_explored
        c["exact_optimal"] += bool(result.optimal)
        c["exact_warm"] += (kwargs.get("warm") is not None
                            and result.nodes_explored == 0)

    @staticmethod
    def _count_rows(c, report, args, kwargs):
        c["rows"] += len(report.rows)

    @staticmethod
    def _count_csv(c, result, args, kwargs):
        c["csv_bytes"] += os.path.getsize(args[1])

    @contextmanager
    def installed(self):
        """Wrap the layer calls of the imported eprnet package."""
        from eprnet import cli, harness, metrics

        targets = [
            (cli, "config_from_json", "harness.config_from_json", None),
            (cli, "run_placement_sweep", "harness.run_placement_sweep",
             self._count_rows),
            (cli, "emit_csv", "harness.emit_csv", self._count_csv),
            (harness, "load_topology", "netgraph.load_topology", None),
            (harness, "normalization_reference",
             "metrics.normalization_reference", None),
            (harness, "jain_index", "metrics.jain_index", None),
        ]
        for module in (harness, metrics):
            targets += [
                (module, "generation_rates", "spectrum.generation_rates", None),
                (module, "build_routing_graph", "netgraph.build_routing_graph",
                 self._count_graph),
                (module, "all_pair_routes", "routing.all_pair_routes",
                 self._count_table),
            ]
        for fn_name in STRATEGY_OF:
            targets.append((harness, fn_name, f"allocation.{fn_name}",
                            self._count_exact if fn_name == "exact_maxmin" else None))

        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # Output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counters": {str(op): dict(c) for op, c in self.counters.items()}},
                      fh)

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one traced op (its root span is ``cli.main``)."""
        index = [i for i, s in enumerate(self.spans) if s[0] == op]
        child_time: Counter = Counter()
        for i in index:
            parent = self.spans[i][4]
            if parent >= 0:
                child_time[parent] += self.spans[i][3] - self.spans[i][2]
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i in index:
            _, name, start, end, _ = self.spans[i]
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        c = self.counters[op]
        wall = total["cli.main"]

        def frac(num, den):
            return num / den if den else 0.0

        m = {
            "cli.self_s": self_time["cli.main"],
            "harness.sweep_s": total["harness.run_placement_sweep"],
            "harness.self_s": self_time["harness.run_placement_sweep"],
            "harness.csv_s": total["harness.emit_csv"],
            "harness.csv_bytes": c["csv_bytes"],
            "harness.rows": c["rows"],
            "spectrum.rates_s": total["spectrum.generation_rates"],
            "netgraph.load_s": total["netgraph.load_topology"],
            "netgraph.build_s": total["netgraph.build_routing_graph"],
            "netgraph.graphs": c["graphs"],
            "netgraph.edges": c["edges"],
            "routing.route_s": total["routing.all_pair_routes"],
            "routing.tables": c["tables"],
            "routing.pairs": c["pairs"],
            "routing.pairs_per_s": frac(c["pairs"], total["routing.all_pair_routes"]),
            "routing.infeasible": c["infeasible"],
            "routing.unique_frac": frac(c["unique_tables"], c["tables"]),
            "metrics.norm_s": total["metrics.normalization_reference"],
            "metrics.jain_s": total["metrics.jain_index"],
            "metrics.jain_calls": calls["metrics.jain_index"],
        }
        for fn_name, strategy in STRATEGY_OF.items():
            m[f"allocation.{strategy}.s"] = total[f"allocation.{fn_name}"]
            m[f"allocation.{strategy}.calls"] = calls[f"allocation.{fn_name}"]
        exact_calls = calls["allocation.exact_maxmin"]
        m["allocation.exact.nodes"] = c["exact_nodes"]
        m["allocation.exact.nodes_per_s"] = frac(c["exact_nodes"],
                                                 total["allocation.exact_maxmin"])
        m["allocation.exact.optimal_frac"] = frac(c["exact_optimal"], exact_calls)
        m["allocation.exact.warm_frac"] = frac(c["exact_warm"], exact_calls)
        layer_self: Counter = Counter()
        for name, t in self_time.items():
            layer_self[name.split(".", 1)[0]] += t
        for layer in LAYERS:
            m[f"{layer}.share"] = frac(layer_self[layer], wall)
        return m


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced ops."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
