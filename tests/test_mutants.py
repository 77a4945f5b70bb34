"""The mutant list of `tests/mutants.py` matches the tree it mutates.

The mutation run takes minutes; this check takes milliseconds, so a
fragment that a refactor moved, or a test that it renamed, fails here
first."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stale_mutants(mutants):
    """One line for each way a mutant no longer fits the tree: a repeated
    name, a fragment not found exactly once or left unchanged, or a test
    id that names no `def test_...` in an existing file."""
    problems, names = [], set()
    for m in mutants:
        if m.name in names:
            problems.append(f"{m.name}: name repeated")
        names.add(m.name)
        if m.new == m.old:
            problems.append(f"{m.name}: new equals old")
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: {m.old!r} occurs {count} times")
        for test in m.tests or ("(no tests)::",):
            path, _, name = test.partition("::")
            source = ROOT / path
            if not (name.startswith("test_") and source.is_file()
                    and re.search(rf"^def {re.escape(name)}\(",
                                  source.read_text(), re.MULTILINE)):
                problems.append(f"{m.name}: no test {test}")
    return problems


def test_mutant_list_matches_the_tree():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert stale_mutants(mutants.MUTANTS) == []
