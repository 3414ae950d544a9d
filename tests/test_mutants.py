"""tools/mutants.py: every mutant still applies to the code it mutates,
and the script fails when a mutant survives unexplained."""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[
    f"{i}-{Path(m.file).stem}" for i, m in enumerate(mutants.MUTANTS)])
def test_mutant_applies_exactly_once(mutant):
    # A stale mutant fails here rather than mutate nothing, or the wrong line.
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    ast.parse(text.replace(mutant.old, mutant.new))
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)


@pytest.mark.parametrize("results, code", [
    (("killed", "killed"), 0),
    (("survived", "killed"), 0),  # the equivalent mutant survives
    (("killed", "survived"), 1),
    (("survived", "survived"), 1),
])
def test_exits_1_only_for_a_survivor_not_called_equivalent(
        monkeypatch, capsys, results, code):
    listed = (mutants.Mutant("a.py", "x", "y", "equivalent: no test can tell", ()),
              mutants.Mutant("b.py", "x", "y", "breaks b", ()))
    verdicts = dict(zip(listed, results))
    bench_ab = types.ModuleType("bench_ab")
    bench_ab.WORKTREE = "WORKTREE"
    bench_ab.export = lambda rev, dest: "nothing"
    monkeypatch.setitem(sys.modules, "bench_ab", bench_ab)
    monkeypatch.setattr(mutants, "MUTANTS", listed)
    monkeypatch.setattr(mutants, "verdict", lambda root, mutant: verdicts[mutant])
    assert mutants.main() == code
    assert capsys.readouterr().out.count("survived") == results.count("survived")
