"""Measure one workload in this (fresh) process; run.py starts it.

An op is one `eprnet sweep --config CONFIG --out CSV`, called in-process
through `eprnet.cli.main`, one at a time.  Ops repeat until the next one
would end after ``--seconds``; there is always at least one.  Untraced
runs time each op; traced runs alternate an untraced and a traced op, so
the tracing overhead is measured in the same process.  Every op goes
through the correctness gate and must write the same CSV bytes as the
run's first op (all ops of a run share the seed).

Writes a JSON result to ``--result``; run.py turns it into the report.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from gate import check_csv
from tracer import Tracer, median_metrics
from workloads import BENCH_DIR, DATA_DIR

SRC = BENCH_DIR.parent / "src"


def import_program():
    """Import eprnet from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import eprnet
    from eprnet import cli, harness

    if SRC.resolve() not in Path(eprnet.__file__).resolve().parents:
        raise SystemExit(f"eprnet imported from {eprnet.__file__}, not {SRC}")
    return cli, harness.read_csv_rows


class Runner:
    def __init__(self, workload: str, config_path: Path, work: Path) -> None:
        self.workload = workload
        self.config_path = config_path
        self.config = json.loads(config_path.read_text(encoding="utf-8"))
        expected = json.loads((DATA_DIR / "expected.json").read_text(encoding="utf-8"))
        self.facts = expected[workload]
        self.work = work
        self.cli, self.read_csv_rows = import_program()
        self.first_csv: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []

    def op(self, tracer: Tracer | None = None) -> float:
        """Run, time and check one op; returns its wall seconds."""
        index = self.attempted
        self.attempted += 1
        out = self.work / f"op{index}.csv"
        argv = ["sweep", "--config", str(self.config_path), "--out", str(out)]
        problems: list[str] = []
        rc = None
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    tracer.begin_op()
                    with tracer.installed(), tracer.span("cli.main"):
                        rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse exits on a rejected command line
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            problems.append("raised:\n" + traceback.format_exc())
        seconds = perf_counter() - start
        if rc != 0:
            problems.append(f"exit code {rc}")
        elif not out.is_file():
            problems.append("no CSV written")
        else:
            found, ratio = check_csv(out, self.workload, self.config, self.facts,
                                     self.read_csv_rows)
            problems += found
            data = out.read_bytes()
            if self.first_csv is None:
                self.first_csv = data
            elif data != self.first_csv:
                problems.append("CSV bytes differ from the run's first op (same seed)")
            if ratio is not None and not found:
                self.ratios.append(ratio)
        out.unlink(missing_ok=True)
        if problems:
            self.failed += 1
        verdict = "failed: " + "; ".join(problems[:5]) if problems else "ok"
        traced = "traced" if tracer is not None else "untraced"
        print(f"op {index} ({traced}): {seconds:.3f} s, {verdict}", file=sys.stderr)
        return seconds


def measure(runner: Runner, seconds: float, traced: bool, trace_path: Path) -> dict:
    deadline = perf_counter() + seconds
    plain: list[float] = []
    if not traced:
        while True:
            plain.append(runner.op())
            if perf_counter() + plain[-1] > deadline:
                break
        return {
            "sweep_s": statistics.median(plain),
            "min_rate_ratio": statistics.median(runner.ratios) if runner.ratios else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    tracer = Tracer()
    timed: list[float] = []
    per_op: list[dict[str, float]] = []
    while True:
        plain.append(runner.op())
        timed.append(runner.op(tracer))
        per_op.append(tracer.op_metrics(tracer.op))
        if perf_counter() + plain[-1] + timed[-1] > deadline:
            break
    tracer.dump(trace_path)
    metrics = median_metrics(per_op)
    metrics["trace.overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()
    runner = Runner(args.workload, args.config, args.work)
    metrics = measure(runner, args.seconds, bool(args.trace), args.work / "trace.json")
    args.result.write_text(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
