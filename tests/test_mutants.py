"""The mutation gauge `tools/mutants.py` stays in step with the code and the tests.

Running the mutants costs a pytest start each, so tier-1 runs none of them.
It checks only that every mutant still applies (its snippet occurs exactly
once in `src/`, in the module it names, and the edit changes it) and that
every test it names still exists.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", mutants.MUTANTS)
def test_mutant_applies_once_and_names_existing_tests(name):
    mutant = mutants.MUTANTS[name]
    assert mutant.old != mutant.new
    counts = {path.name: path.read_text().count(mutant.old) for path in (mutants.SRC / "fbar_dce").glob("*.py")}
    assert {file: n for file, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, function = test_id.partition("::")
        assert f"def {function.split('[')[0]}(" in (ROOT / path).read_text(), test_id
