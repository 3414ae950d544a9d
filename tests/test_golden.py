"""Byte-for-byte outputs pinned against the files under ``tests/golden/``.

``GOLDEN_COMMANDS`` maps each golden file to the ``eprnet`` commands that
produce it: a sweep's golden is its ``--out`` file, any other golden is its
commands' stdout, concatenated.  Refactors of routing, allocation or the
harness must keep these bytes.  An intended change of output regenerates
every golden, or those named, with::

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and says why in CHANGES.md.  The tests run the commands in process
through ``eprnet.cli.main``, so they check whichever ``eprnet`` is
importable, an installed one included.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import eprnet
from eprnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# The paper's seven strategies, named here so that a strategy added to
# the library does not change these bytes.
PAPER_STRATEGIES = ["--strategies",
                    "exact,first-fit,round-robin,random,lpt,bd-matching,lp-round"]
ROUTE = "route --topology ilec17 --source A".split()
LOSSLESS = ["--wss-db", "0", "--fiber-db-per-km", "0"]

GOLDEN_COMMANDS = {
    # Paper scale: every ilec17 placement at 8 dB; exact is gated off.
    "ilec17-8db-runs5.csv": [
        "sweep --topology ilec17 --seed 20260816 --wss-db 8 --runs 5".split()
        + PAPER_STRATEGIES],
    "simple6-runs20.csv": [
        "sweep --topology simple6 --seed 424242 --wss-db 4 --wss-db 8 --runs 20"
        .split() + PAPER_STRATEGIES],
    # The acceptance criterion 9 sweep: small enough for exact to run.
    "ring4-criterion9.csv": [
        ["sweep", "--topology", str(GOLDEN / "ring4.json")]
        + "--seed 97531 --wss-db 4 --wss-db 8 --runs 3 --channels 10".split()
        + PAPER_STRATEGIES],
    # Loss tables, the tie-heavy lossless case included, and per-route
    # hops and losses.
    "route.txt": [
        ROUTE + ["--wss-db", "8"],
        ROUTE + LOSSLESS,
        "route --topology simple6 --source A --wss-db 8".split(),
        "route --topology simple6 --source A --pair B E".split(),
        ROUTE + "--wss-db 8 --pair M P".split(),
        ROUTE + "--wss-db 8 --pair P Q".split(),
        ROUTE + LOSSLESS + ["--pair", "M", "P"],
        ROUTE + LOSSLESS + ["--pair", "P", "Q"],
    ],
    # The paper's seven strategies, channel-count column included.
    "allocate-simple6-A.txt": [
        "allocate --topology simple6 --source A --seed 3 --channels 32".split()
        + ["--node-budget", "5000", "--strategy", strategy]
        for strategy in PAPER_STRATEGIES[1].split(",")],
    # The default grid, and labels moved by the width and center flags.
    "rates.txt": [
        "rates --channels 8".split(),
        "rates --channels 4 --width-nm 0.05 --center-nm 1310".split(),
    ],
}


def produce(name: str, workdir: Path) -> bytes:
    """The bytes ``name``'s commands produce, run in ``workdir``."""
    out = io.StringIO()
    sweep = name.endswith(".csv")
    for argv in GOLDEN_COMMANDS[name]:
        if sweep:
            argv = [*argv, "--out", str(workdir / name)]
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"eprnet {' '.join(argv)} exited {code}")
    return (workdir / name).read_bytes() if sweep else out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_golden(name, tmp_path):
    assert produce(name, tmp_path) == (GOLDEN / name).read_bytes()


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
    for name in sys.argv[1:] or sorted(GOLDEN_COMMANDS):
        (GOLDEN / name).write_bytes(produce(name, GOLDEN))
        print(f"wrote {GOLDEN / name}")
