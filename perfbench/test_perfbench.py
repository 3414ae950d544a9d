"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench

The smoke runs take about two minutes, most of it routing ilec17.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from workloads import BENCH_DIR, WORKLOADS, sweep_config

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_tampered_csv_counts_as_a_failed_op(tmp_path, capsys):
    from worker import Runner

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(sweep_config("exact-ring4", 3, smoke=True)))
    honest = Runner("exact-ring4", config_path, tmp_path)
    honest.op()
    assert (honest.attempted, honest.failed) == (1, 0)

    real_main = honest.cli.main

    class TamperingCli:
        """Writes the real CSV, then raises the exact optimum by 1e-6."""

        @staticmethod
        def main(argv):
            rc = real_main(argv)
            out = argv[argv.index("--out") + 1]
            with open(out, encoding="utf-8", newline="") as fh:
                lines = fh.read().split("\r\n")
            cells = lines[2].split(",")
            assert cells[3] == "exact"
            cells[4] = format(float(cells[4]) * (1 + 1e-6), ".9g")
            lines[2] = ",".join(cells)
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write("\r\n".join(lines))
            return rc

    tampered = Runner("exact-ring4", config_path, tmp_path)
    tampered.cli = TamperingCli
    capsys.readouterr()
    tampered.op()
    assert (tampered.attempted, tampered.failed) == (1, 1)
    assert "exact optimum" in capsys.readouterr().err


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep-simple6", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
