"""eprnet benchmark: placement sweeps, end to end and per layer.

Run from the root of a checkout (eprnet is imported from its src/):

    python3 perfbench/run.py --workload sweep-simple6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Each workload runs in a fresh child
process (worker.py) with BLAS threads pinned to 1, after the set-up time
has been sampled in fresh interpreters.  See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import BENCH_DIR, WORKLOADS, sweep_config

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RUN_LIMIT_S = 175.0  # a run must end within 180 s
SETUP_SAMPLES = 11

E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "min_rate_ratio": "frac"}

# What a user pays before the first sweep: interpreter start, `import
# eprnet`, loading the config and its topology.  The probe prints the
# monotonic clock (shared by all processes) once it is ready.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import eprnet; "
    "from eprnet.harness import config_from_json; "
    "from eprnet.netgraph import load_topology; "
    "load_topology(config_from_json(sys.argv[2]).topology_path); "
    "import time; print(repr(time.perf_counter()))"
)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(config_path: Path, env: dict[str, str]) -> float:
    """Median wall time of fresh interpreters doing the set-up (one warm-up)."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path)],
            env=env, check=True, timeout=60, capture_output=True, text=True)
        samples.append(float(probe.stdout) - start)
    return statistics.median(samples[1:])


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Measure one workload in a fresh child process; returns its report."""
    started = perf_counter()
    work = STATE / f"work-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(sweep_config(name, args.seed, args.smoke)),
                               encoding="utf-8")
        env = child_env()
        setup_s = None if args.trace else setup_seconds(config_path, env)
        result_path = work / "result.json"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
             "--config", str(config_path), "--work", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            env=env, stdout=sys.stderr, check=True,
            timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)),
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if args.trace:
            traces = STATE / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(work / "trace.json", traces / f"{name}-seed{args.seed}.json")
            units = {m: layer_unit(m) for m in result["metrics"]}
        else:
            result["metrics"]["setup_s"] = setup_s
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {m: {"value": result["metrics"][m], "unit": units[m]}
                         for m in units}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one source and two runs per workload (self-tests)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "eprnet" / "__init__.py").is_file():
        print(f"error: no eprnet sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        try:
            reports[name] = run_workload(name, args)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"error: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1

    for name, report in reports.items():
        print(f"{name}: {report['failed']}/{report['attempted']} ops failed")
        for metric, entry in report["metrics"].items():
            print(f"  {metric:32} {entry['value']:.6g} {entry['unit']}")
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if len(reports) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": entry for name, r in reports.items()
                   for m, entry in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
