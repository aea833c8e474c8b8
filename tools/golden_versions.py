"""Check the golden CLI bytes and the seeded instances under other Pythons.

    python3 tools/golden_versions.py PYTHON [PYTHON ...]

Give each interpreter as a path; none is looked up on PATH. The exact bytes
rest on internals that differ between versions: the module the input digest
hashes with, the seeded draws of `random`, the layout of `json.dumps` and
the `csv` reader and writer. For each interpreter given, with this
checkout's ``src`` on its path and no bytecode written, this runs:

- every case of ``tests/golden_cases.py`` as a ``python -X importtime -m
  varlab`` child on the golden inputs: exit 0, the golden sha256 of stdout,
  nothing on stderr but the import times, and no `_hashlib`, OpenSSL's
  binding, among the modules imported;
- the exit-3 breach case, with `cli.is_comonotonic` replaced as in
  ``tests/test_golden.py``: exit 3 and the golden stdout and stderr;
- one child that hashes the ``repr`` of the seeded `random_coupling` and
  `random_comonotonic` laws, `SEEDS` seeds for each n from 1 to 4, which
  must equal that child's hashes under the interpreter running this tool.

It prints one line per mismatch, then one summary line per interpreter,
and exits 1 on any mismatch. Standard library only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 50  # seeded laws per generator and dimension

BREACH_CODE = """
import sys
from varlab import cli
from varlab.comonotonicity import ComonotoneVerdict
cli.is_comonotonic = lambda j: ComonotoneVerdict(True)
raise SystemExit(cli.main(sys.argv[1:]))
"""

LAWS_CODE = f"""
import hashlib, json, platform
from varlab import GeneratorSpec, random_comonotonic, random_coupling
hashes = {{}}
for kind, make in (("comonotonic", random_comonotonic), ("coupling", random_coupling)):
    for n in range(1, 5):
        text = "".join(repr(make(seed, GeneratorSpec(n=n))) + "\\n" for seed in range({SEEDS}))
        hashes[f"{{kind}} n={{n}}"] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps({{"python": platform.python_version(), "laws": hashes}}))
"""


def _golden_cases():
    """``tests/golden_cases.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("golden_cases", ROOT / "tests" / "golden_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(python: str, args: list[str], cwd: Path) -> tuple[int, bytes, str, set]:
    """Exit code, stdout, stderr without the import-time lines, and the
    modules imported, of ``python -X importtime args`` in ``cwd``."""
    proc = subprocess.run(
        [python, "-X", "importtime", *args], cwd=cwd, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stderr.decode(errors="replace").splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}
    stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, stderr, imported


def _laws(python: str, cwd: Path) -> dict:
    code, out, err, _ = _child(python, ["-c", LAWS_CODE], cwd)
    if code != 0:
        raise SystemExit(f"{python}: the seeded-law child exited {code}:\n{err[-2000:]}")
    return json.loads(out)


def check(python: str, reference: dict, golden, directory: Path) -> list[str]:
    """The mismatches of ``python``, one line each, and its summary line last."""
    problems = []
    for case, argv in sorted(golden.CASES.items()):
        code, out, err, imported = _child(python, ["-m", "varlab", *argv], directory)
        digest = hashlib.sha256(out).hexdigest()
        if code != 0:
            problems.append(f"{python}: {case}: exit {code}")
        if digest != golden.GOLDEN[case]:
            problems.append(f"{python}: {case}: stdout sha256 {digest}, golden {golden.GOLDEN[case]}")
        if err:
            problems.append(f"{python}: {case}: stderr {err[:200]!r}")
        if "_hashlib" in imported:
            problems.append(f"{python}: {case}: imports _hashlib (OpenSSL)")
    code, out, err, _ = _child(python, ["-c", BREACH_CODE, *golden.BREACH], directory)
    if (code, hashlib.sha256(out).hexdigest(), err) != (3, golden.BREACH_STDOUT, golden.BREACH_STDERR):
        problems.append(f"{python}: breach: exit {code}, stdout sha256 {hashlib.sha256(out).hexdigest()}, "
                        f"stderr {err[:200]!r}")
    laws = _laws(python, directory)
    for key, digest in reference["laws"].items():
        if laws["laws"].get(key) != digest:
            problems.append(f"{python}: seeded {key} laws: sha256 {laws['laws'].get(key)}, "
                            f"Python {reference['python']} reads {digest}")
    verdict = f"{len(problems)} mismatch(es)" if problems else "all match"
    return problems + [f"{python} (Python {laws['python']}): {len(golden.CASES)} golden cases, the breach "
                       f"case and {len(reference['laws'])} seeded law sets: {verdict}"]


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/golden_versions.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    golden = _golden_cases()
    failed = False
    with tempfile.TemporaryDirectory(prefix="varlab-golden-") as tmp:
        directory = Path(tmp)
        golden.write_inputs(directory)
        reference = _laws(sys.executable, directory)
        for python in argv:
            try:
                lines = check(python, reference, golden, directory)
            except OSError as exc:
                lines = [f"{python}: cannot run: {exc}"]
            failed |= not lines[-1].endswith("all match")
            print("\n".join(lines), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
