"""tools/mutants.py: every mutant still applies to the code it mutates."""

import ast
import importlib.util
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
