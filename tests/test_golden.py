"""Byte-for-byte sweep outputs pinned against stored golden CSVs.

Each case is a fixed sweep config; its CSV must match the file under
``tests/golden/`` exactly.  Refactors of routing, allocation or the
harness must keep these bytes.  An intended change of output regenerates
them with ``PYTHONPATH=src python tests/test_golden.py`` and says why in
CHANGES.md.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import eprnet
from eprnet import ExperimentConfig, emit_csv, run_placement_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"

# The paper's seven strategies, named here so that a strategy added to
# the library does not change these bytes.
PAPER_STRATEGIES = ("exact", "first-fit", "round-robin", "random", "lpt",
                    "bd-matching", "lp-round")

CASES = {
    # Paper scale: every ilec17 placement at 8 dB; exact is gated off.
    "ilec17-8db-runs5": dict(topology_path="ilec17", seed=20260816,
                             wss_losses=(8.0,), runs=5,
                             strategies=PAPER_STRATEGIES),
    "simple6-runs20": dict(topology_path="simple6", seed=424242,
                           wss_losses=(4.0, 8.0), runs=20,
                           strategies=PAPER_STRATEGIES),
    # The acceptance criterion 9 sweep: small enough for exact to run.
    "ring4-criterion9": dict(topology_path=str(GOLDEN / "ring4.json"),
                             seed=97531, wss_losses=(4.0, 8.0), runs=3,
                             channels=10, strategies=PAPER_STRATEGIES),
}


def _write(case: str, path: Path) -> None:
    config = ExperimentConfig(**CASES[case])
    emit_csv(run_placement_sweep(config), path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_csv_matches_golden(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    _write(case, out)
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


# (module, top-level function, call) of each builtin sum() over ints.
INT_SUMS = {("allocation.py", "exact_maxmin", "sum(ends)")}


def test_no_builtin_sum_of_floats():
    # Builtin sum() compensates its rounding from Python 3.12 on, so a
    # float sum through it would make these bytes depend on the
    # interpreter: every float sum is math.fsum or left to right.
    calls = set()
    for path in sorted(Path(eprnet.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "sum"):
                    calls.add((path.name, getattr(top, "name", None),
                               ast.unparse(node)))
    assert calls == INT_SUMS


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(CASES):
        _write(name, GOLDEN / f"{name}.csv")
        print(f"wrote {GOLDEN / name}.csv")
