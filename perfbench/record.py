"""Record the seed-independent facts the correctness gate checks.

Run from the root of a checkout:

    python3 perfbench/record.py

It rewrites perfbench/data/expected.json from the checkout's own
`src/eprnet`, computed directly from the library (routing, spectrum and
solver calls), not from a sweep CSV.  Record only from a commit whose
outputs are trusted; the gate then holds every later commit to them.
"""

from __future__ import annotations

import json
import sys

from gate import loss_key
from workloads import BENCH_DIR, DATA_DIR, WORKLOADS, sweep_config

sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from eprnet import (  # noqa: E402
    AllocationInstance,
    LossParams,
    all_pair_routes,
    build_routing_graph,
    exact_maxmin,
    fractional_optimum,
    generation_rates,
    load_topology,
    normalization_reference,
)
from eprnet.harness import ExperimentConfig  # noqa: E402


def record_workload(workload: str) -> dict:
    cfg = sweep_config(workload, seed=0)
    config = ExperimentConfig(
        topology_path=cfg["topology_path"], seed=0,
        wss_losses=tuple(cfg["wss_losses"]), runs=cfg["runs"],
        channels=cfg["channels"],
    )
    topology = load_topology(config.topology_path)
    grid, profile = config.grid(), config.profile()
    rates = generation_rates(grid, profile)
    peak = max(rates)
    references: dict[str, float] = {}
    placements: dict[str, dict] = {}
    for wss in config.wss_losses:
        loss = LossParams(config.fiber_loss_db_per_km, wss)
        references[loss_key(wss)] = normalization_reference(
            topology, loss, grid, profile)
        for source in topology.node_ids:
            table = all_pair_routes(build_routing_graph(topology, source, loss))
            if table.infeasible:
                raise SystemExit(f"{workload}: placement {source} is not routable")
            etas = tuple(table.plans[p].eta for p in sorted(table.plans))
            instance = AllocationInstance(etas, rates)
            t_f = fractional_optimum(instance)
            facts = {
                "pairs": len(etas),
                "fractional_optimum": t_f,
                # lp-round's documented guarantee: T_f - max eta_p * rate_x.
                "lp_round_floor": max(0.0, t_f - max(etas) * peak),
            }
            if WORKLOADS[workload]["exact_runs"]:
                result = exact_maxmin(instance,
                                      node_budget=config.exact_node_budget)
                if not result.optimal:
                    raise SystemExit(f"{workload}: exact solve hit its budget")
                facts["exact_optimum"] = result.allocation.min_rate
            placements[f"{loss_key(wss)}/{source}"] = facts
    return {
        "topology": topology.name,
        "nodes": list(topology.node_ids),
        "references": references,
        "placements": placements,
    }


def main() -> None:
    expected = {name: record_workload(name) for name in WORKLOADS}
    out = DATA_DIR / "expected.json"
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
