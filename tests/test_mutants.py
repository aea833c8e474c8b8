"""The mutation gate's list still fits the code: each mutant in
`tests/mutants.py` names one exact text that occurs once in its module, a
different replacement, and test files that exist. A refactor that moves
mutated code fails here, in the tier-1 suite, without running the gate."""

import re
from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, module, old, new, tests", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_applies_once(name, module, old, new, tests):
    assert (ROOT / "src" / "varlab" / module).read_text(encoding="utf-8").count(old) == 1
    assert new != old
    assert tests and all((ROOT / path).is_file() for path in tests)


def test_mutant_names_are_unique():
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)


def _toy_checkout(root: Path, test_text: str) -> None:
    """A checkout with one module, ``X = 1``, and one test file."""
    (root / "src" / "varlab").mkdir(parents=True)
    (root / "src" / "varlab" / "__init__.py").write_text("")
    (root / "src" / "varlab" / "m.py").write_text("X = 1\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_m.py").write_text(test_text)
    (root / "bench").mkdir()
    (root / "pyproject.toml").write_text("")


@pytest.mark.parametrize("test_text, code, out", [
    ("from varlab.m import X\n\ndef test_x():\n    assert X == 1\n", 0, "x-changed: killed\n"),
    ("def test_broken():\n    assert False\n", 1, ""),
])
def test_gate_judges_no_mutant_on_a_tree_whose_tests_fail(tmp_path, monkeypatch, capsys, test_text, code, out):
    _toy_checkout(tmp_path, test_text)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", (("x-changed", "m.py", "X = 1", "X = 2", ("tests/test_m.py",)),))
    assert mutants.main([]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert ("the unmutated tree fails its own tests" in captured.err) == bool(code)


def test_gate_stops_a_mutant_that_loops(tmp_path, monkeypatch):
    # with X = 2 the test never ends; one pytest runs, stopped after 1 x 2 s
    _toy_checkout(tmp_path, "from varlab.m import X\n\ndef test_x():\n    while X == 2:\n        pass\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "TIMEOUT_FACTOR", 1)
    verdict = mutants.run("m.py", "X = 1", "X = 2", ("tests/test_m.py",), baseline_s=2.0)
    assert re.fullmatch(r"killed \(timed out after \d+\.\d s\)", verdict)
    assert 2.0 <= float(verdict.split()[-2]) < 30
