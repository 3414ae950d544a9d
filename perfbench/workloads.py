"""Workload definitions: each workload is one `eprnet sweep` config.

The benchmark seed only becomes the sweep's master seed.  Everything the
correctness gate checks (row shape, per-placement bounds, normalization
references, exact optima) is independent of that seed.

Why these three:

- sweep-ilec17: the paper-scale placement sweep (17 sites, 136 pairs,
  every source).  Routing-bound: the sweep and the normalization
  reference each route all 17 placements.
- sweep-simple6: many randomized runs on a 6-node mesh with the default
  200-channel grid.  Allocation- and harness-bound; routing is tiny.
- exact-ring4: the only workload small enough (6 pairs x 10 channels) for
  the exact branch and bound; the other two gate it off ("budget" rows).
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"

# The benchmark's own copy, not read from eprnet: the gate holds the
# program's CSV to it.
STRATEGIES = ("exact", "first-fit", "round-robin", "random",
              "lpt", "bd-matching", "lp-round")
ORDER_SENSITIVE = frozenset({"exact", "first-fit", "round-robin", "random"})

WORKLOADS = {
    "sweep-ilec17": {
        "topology": "ilec17",
        "smoke_source": "A",
        "wss_losses": [8.0],
        "runs": 5,
        "channels": 200,
        "exact_runs": False,
    },
    "sweep-simple6": {
        "topology": "simple6",
        "smoke_source": "A",
        "wss_losses": [4.0, 8.0],
        "runs": 200,
        "channels": 200,
        "exact_runs": False,
    },
    "exact-ring4": {
        "topology": "ring4.json",
        "smoke_source": "a",
        "wss_losses": [8.0],
        "runs": 3,
        "channels": 10,
        "exact_runs": True,
    },
}

# Smoke size (benchmark self-tests only): one source, two runs.
SMOKE_RUNS = 2


def topology_path(workload: str) -> str:
    """Bundled topology name, or the absolute path of a benchmark-owned file."""
    name = WORKLOADS[workload]["topology"]
    return str(DATA_DIR / name) if name.endswith(".json") else name


def sweep_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The JSON config of one op: every source, or one at smoke size."""
    spec = WORKLOADS[workload]
    return {
        "topology_path": topology_path(workload),
        "seed": seed % 2 ** 64,
        "wss_losses": spec["wss_losses"],
        "strategies": list(STRATEGIES),
        "runs": SMOKE_RUNS if smoke else spec["runs"],
        "sources": [spec["smoke_source"]] if smoke else None,
        "channels": spec["channels"],
    }
