"""The mutation gate's list still fits the code: each mutant in
`tests/mutants.py` names one exact text that occurs once in its module, a
different replacement, and test files that exist. A refactor that moves
mutated code fails here, in the tier-1 suite, without running the gate."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, module, old, new, tests", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_applies_once(name, module, old, new, tests):
    assert (ROOT / "src" / "varlab" / module).read_text(encoding="utf-8").count(old) == 1
    assert new != old
    assert tests and all((ROOT / path).is_file() for path in tests)


def test_mutant_names_are_unique():
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)
