#!/usr/bin/env python3
"""A mutation yardstick: does the test suite catch a wrong program?

Run from the root of a checkout:

    python3 tools/mutants.py

The working tree (tracked and untracked files, less the ignored ones) is
exported once into a temporary directory, as ``tools/bench_ab.py`` exports
it; the checkout itself is never edited.  Each mutant in ``MUTANTS``
replaces one text, which must occur exactly once in its file, runs its
named test subset with ``pytest -x`` in the export, prints ``killed`` (a
test failed, or the run outlived ``TIMEOUT_S``) or ``survived``, and
restores the file.  A survivor needs a new test, or its reason states why
no test can tell it from the program, starting ``equivalent:``; the script
exits 1 when any other mutant survives, so a build can gate on it.

CI's Python 3.11 job runs it as a step: all 23 mutants took 88 s on a
shared 2-core VM (Python 3.11.7), a survivor costing a full run of its
subset.  ``tests/test_mutants.py`` checks only that every mutant still
applies and that the exit code follows that rule.

Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str  # relative to the checkout's root
    old: str  # occurs exactly once in ``file``
    new: str
    reason: str  # what it breaks, or why it is equivalent
    tests: tuple[str, ...]  # the subset that should kill it


MUTANTS = (
    Mutant("src/eprnet/metrics.py", "0.0 < peak < 1e-150", "0.0 < peak < 1e-200",
           "jain_index rescales tiny rates too late: their squares go subnormal",
           ("tests/test_metrics.py",)),
    Mutant("src/eprnet/metrics.py", "peak * len(values) > 1e150",
           "peak * len(values) > 1e200",
           "jain_index rescales huge rates too late: the squared total overflows",
           ("tests/test_metrics.py",)),
    Mutant("src/eprnet/harness.py", "/ (len(values) - 1)", "/ len(values)",
           "population in place of sample standard deviation",
           ("tests/test_golden.py",)),
    Mutant("src/eprnet/allocation.py", "if value > best_value:",
           "if value >= best_value:",
           "a leaf that only ties replaces the exact incumbent",
           ("tests/test_golden.py", "tests/test_allocation.py")),
    Mutant("src/eprnet/harness.py",
           "instance.pair_count > config.exact_max_mk",
           "instance.pair_count >= config.exact_max_mk",
           "exact is gated off at exactly exact_max_mk channels times pairs",
           ("tests/test_harness.py",)),
    Mutant("src/eprnet/allocation.py", "max(1e-9 * tf,", "max(1e-7 * tf,",
           "first-fit's bisection stops coarser than its stated 1e-9",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/routing.py", "(eid, head, cost, 0.0)",
           "(eid, head, cost if cost > 0.0 else 0.0, 0.0)",
           "equivalent: no reduced cost is negative, see the comment above it",
           ("tests/test_routing.py", "tests/test_golden.py")),
    Mutant("src/eprnet/allocation.py", "elif mid > short:", "elif mid >= short:",
           "a first-fit probe landing exactly on S is taken as infeasible",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/allocation.py", "boundaries[p] < hi_edge:",
           "boundaries[p] <= hi_edge:",
           "lp-round shares a channel that ends exactly on a span boundary",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/allocation.py", "boundaries[p] <= lo_edge:",
           "boundaries[p] < lo_edge:",
           "lp-round shares a channel that starts exactly on a span boundary",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/allocation.py", "assign[x] = pairs[i % k]",
           "assign[x] = pairs[(i + 1) % k]",
           "the cyclic deal starts at the second pair",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/allocation.py", "fsum(masses[j::k])",
           "fsum(masses[j::k + 1])",
           "the row kernels' slots skip channels: only the kernels use them",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/allocation.py", "tuple(_shuffled(k, seed).tolist())",
           "tuple(p for p in _shuffled(k + 1, seed).tolist() if p < k)",
           "a valid pair order from another draw: only pinned bytes tell",
           ("tests/test_golden.py", "tests/test_allocation.py")),
    Mutant("src/eprnet/harness.py", "kernel = lambda _, proven=received: proven",
           "kernel = None",
           "exact searches again in every run of a row it has already proven",
           ("tests/test_harness.py",)),
    Mutant("src/eprnet/harness.py",
           '''    if instance is None:
        return "skipped", [], []
    if gated and instance.channel_count * instance.pair_count > config.exact_max_mk:
        return "budget", [], []
''',
           '''    if gated and instance.channel_count * instance.pair_count > config.exact_max_mk:
        return "budget", [], []
    if instance is None:
        return "skipped", [], []
''',
           "the exact gate reads the instance of an unroutable placement",
           ("tests/test_harness.py",)),
    Mutant("src/eprnet/spectrum.py", "min(ChannelGrid.channel_width_nm, pitch_nm)",
           "ChannelGrid.channel_width_nm",
           "a sweep's channels stay 0.1 nm wide, so a tighter pitch is refused",
           ("tests/test_cli.py",)),
    Mutant("src/eprnet/harness.py",
           '''        try:  # every spectrum and loss value, by its model class's rules
            self.grid(), self.profile()
            for wss in self.wss_losses:
                LossParams(self.fiber_loss_db_per_km, wss)
        except ValueError as exc:  # named by the config key, as the user wrote it
            field, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{_CONFIG_KEYS.get(field, field)} {rest}") from None
''', "",
           "a config takes bad spectrum and loss values, refused only by a sweep",
           ("tests/test_harness.py",)),
    Mutant("src/eprnet/harness.py", "{_CONFIG_KEYS.get(field, field)} {rest}",
           "{field} {rest}",
           "config refusals name the model's field, not the key the user wrote",
           ("tests/test_cli.py",)),
    Mutant("src/eprnet/allocation.py", "n[_shuffled(m, seed)].tolist()",
           "n[_shuffled(m, seed)[::-1]].tolist()",
           "the random row kernel deals its channels in the reverse of random's order",
           ("tests/test_allocation.py",)),
    Mutant("src/eprnet/cli.py", "({db:.4f} dB): {hops}", "({db:.3f} dB): {hops}",
           "route --pair prints each route's loss to three decimals",
           ("tests/test_golden.py",)),
    Mutant("src/eprnet/__init__.py",
           "(allocation, harness, metrics, netgraph, routing, spectrum)",
           "(allocation, harness, netgraph, routing, spectrum)",
           "the package's __all__ leaves out metrics' public names",
           ("tests/test_imports.py",)),
    Mutant("src/eprnet/harness.py", "or scale > 1e150:", "or scale > 1e300:",
           "sweep statistics of min rates between 1e150 and 1e300 overflow",
           ("tests/test_cli.py",)),
    Mutant("src/eprnet/spectrum.py", "if self.coeff == math.inf:",
           "if self.fwhm_nm * self.fwhm_nm == 0.0:",
           "a profile whose 4 ln 2 / fwhm^2 overflows is taken: its center rate is nan",
           ("tests/test_spectrum.py",)),
)


def verdict(root: Path, mutant: Mutant) -> str:
    """Run ``mutant``'s tests in the export at ``root``, the mutant applied."""
    path = root / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.file}: {mutant.old!r} does not occur exactly once")
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=root, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        path.write_text(original, encoding="utf-8")
    # pytest exits 1 when a test failed; other codes mean the run itself broke.
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    """Print every mutant's verdict; exit 1 if any survivor is unexplained."""
    from bench_ab import WORKTREE, export  # beside this script

    gaps = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp) / "tree"
        print(f"exported {export(WORKTREE, root)}", flush=True)
        for i, mutant in enumerate(MUTANTS):
            result = verdict(root, mutant)
            gaps += result == "survived" and not mutant.reason.startswith("equivalent:")
            print(f"{i:2} {result:8} {mutant.file}: "
                  f"{mutant.old!r} -> {mutant.new!r} ({mutant.reason})", flush=True)
    return 1 if gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
