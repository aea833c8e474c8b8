"""The supported Python versions: `tools/golden_versions.py`, run on this
interpreter, and the input digest's choice of hash module, with the module
set of each version emulated, so the branch of every version runs here."""

import hashlib
import importlib.util
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

from golden_cases import BREACH, BREACH_STDERR, BREACH_STDOUT
from varlab import JointDiscreteDistribution, cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "golden_versions.py"
_spec = importlib.util.spec_from_file_location("golden_versions", TOOL)
golden_versions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_versions)


def test_the_tool_passes_on_this_interpreter():
    proc = subprocess.run([sys.executable, str(TOOL), sys.executable], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (f"{sys.executable} (Python {'.'.join(map(str, sys.version_info[:3]))}): "
                           "25 golden cases, the breach case and 8 seeded law sets: all match\n")


def test_the_tool_names_each_mismatch(tmp_path):
    golden = types.SimpleNamespace(
        CASES={"var-one": ["var", "one.csv", "--alpha", "1/2"], "no-file": ["report", "absent.csv"]},
        GOLDEN={"var-one": "0" * 64, "no-file": hashlib.sha256(b"").hexdigest()},
        BREACH=BREACH, BREACH_STDOUT=BREACH_STDOUT, BREACH_STDERR=BREACH_STDERR,
    )
    golden_versions._golden_cases().write_inputs(tmp_path)
    reference = {"python": "3.0.0", "laws": {"coupling n=1": "f" * 64}}
    lines = golden_versions.check(sys.executable, reference, golden, tmp_path)
    py = sys.executable
    assert lines[0] == f"{py}: no-file: exit 2"
    assert lines[1] == f"{py}: no-file: stderr \"error: [Errno 2] No such file or directory: 'absent.csv'\\n\""
    assert lines[2].startswith(f"{py}: var-one: stdout sha256 2d19174762a2fec0") and lines[2].endswith("0" * 64)
    assert lines[3].startswith(f"{py}: seeded coupling n=1 laws: sha256 ")
    assert lines[3].endswith(f", Python 3.0.0 reads {'f' * 64}")
    assert lines[4].endswith("2 golden cases, the breach case and 1 seeded law sets: 4 mismatch(es)")
    assert len(lines) == 5


def test_the_tool_takes_interpreters_by_path(tmp_path, capsys):
    assert golden_versions.main([]) == 2
    missing = str(tmp_path / "python")
    assert golden_versions.main([missing]) == 1
    assert capsys.readouterr().out.startswith(f"{missing}: cannot run: ")


@pytest.mark.parametrize("present, used", [
    (("_sha2",), "_sha2"),  # Python 3.12 and later
    (("_sha256",), "_sha256"),  # Python 3.10 and 3.11
    ((), "hashlib"),  # a build with neither
], ids=["3.12-and-later", "3.10-and-3.11", "neither"])
def test_the_digest_takes_the_hash_module_of_each_version(present, used, monkeypatch):
    real, calls = hashlib.sha256, []

    def recorded(name):
        return lambda: calls.append(name) or real()

    for name in ("_sha2", "_sha256"):
        module = None  # an import of a None entry raises ImportError
        if name in present:
            module = types.ModuleType(name)
            module.sha256 = recorded(name)
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(hashlib, "sha256", recorded("hashlib"))
    j = JointDiscreteDistribution.from_weighted_points([((F(1, 3), 2), 1), ((F(1, 2), 5), 3)])
    assert cli._digest(j) == real(b"1/3;2/1|1/4\n1/2;5/1|3/4\n").hexdigest()
    assert calls == [used]
