"""Golden output: the CLI's stdout on fixed small inputs, pinned by sha256.

The cases and their digests are in `golden_cases`, which says where each
digest was recorded from. Any byte of difference in a report, VaR table,
coupling, simulation summary or Gaussian table fails here. Regenerate with
``python tests/test_golden.py`` only for an intended output change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import BREACH, BREACH_STDERR, BREACH_STDOUT, CASES, GOLDEN, gen, write_inputs
from harness import run_main
from varlab import cli
from varlab.comonotonicity import ComonotoneVerdict


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_digest(case, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_main(CASES[case])
    assert code == 0
    assert _digest(out) == GOLDEN[case]


# `report` on the bench's decimal cents, 3,000 rows: a table of 2,138 levels,
# and a law of more points than `cli._BLOCK_ROWS`, so its digest hashes
# several blocks. Recorded from the digest of the whole text at once.
BENCH_3000_STDOUT = "b27cb8db152ea909d0e7ed880b90c6f46338c0a5bc71cbd57b9cc3a042abb81f"


def test_report_digest_spans_blocks(tmp_path):
    path = tmp_path / "bench3000.csv"
    path.write_text(gen.csv_text(gen.csv_rows(1, 3_000)), encoding="utf-8")
    assert len(cli.ingest_csv(str(path)).xs) > 2 * cli._BLOCK_ROWS
    code, out, _ = run_main(["report", str(path)])
    assert code == 0
    assert _digest(out) == BENCH_3000_STDOUT
    assert len(json.loads(out)["var_table"]) == 2_138


def _breach_run(directory: Path, monkeypatch) -> tuple[int, str, str]:
    monkeypatch.setattr(cli, "is_comonotonic", lambda j: ComonotoneVerdict(True))
    monkeypatch.chdir(directory)
    return run_main(BREACH)


def test_invariant_breach_exits_3_with_golden_output(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    code, out, err = _breach_run(tmp_path, monkeypatch)
    assert code == 3
    assert _digest(out) == BREACH_STDOUT
    assert err == BREACH_STDERR


# `python -X importtime` lists every module a process imports. `report` and
# `var` with JSON output write an input digest, which CPython's own SHA-256
# module computes, so no command loads `_hashlib`, `hashlib`'s OpenSSL binding.
NO_OPENSSL = ("couple", "report-bench", "report-bern", "report-mixed-csv", "simulate", "var-bench-json",
              "var-one")
# The process entry parses the command line before it imports `varlab.cli`,
# so what exits inside the parser loads none of these.
NOT_FOR_THE_PARSER = ("varlab.cli", "varlab.distributions", "varlab.comonotonicity", "varlab.subadditivity",
                      "varlab.risk", "csv", "json", "_hashlib")


def _imports_and_stdout(argv: list[str], directory: Path, code: int = 0) -> tuple[set, bytes]:
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "varlab", *argv],
        cwd=directory, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
    )
    assert proc.returncode == code, proc.stderr.decode()[-2000:]
    lines = proc.stderr.decode().splitlines()
    return {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}, proc.stdout


@pytest.mark.parametrize("case", NO_OPENSSL)
def test_no_command_loads_openssl(case, tmp_path):
    write_inputs(tmp_path)
    modules, out = _imports_and_stdout(CASES[case], tmp_path)
    assert "varlab.cli" in modules and "_hashlib" not in modules
    assert hashlib.sha256(out).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("argv, code, stdout", [
    (["--version"], 0, b"varlab "),
    (["--help"], 0, b"usage: varlab "),
    (["report", "--help"], 0, b"usage: varlab report "),
    (["report"], 2, b""),
    (["simulate", "--trials", "many"], 2, b""),
], ids=["version", "help", "report-help", "missing-csv", "bad-int"])
def test_what_exits_in_the_parser_loads_no_exact_core(argv, code, stdout, tmp_path):
    modules, out = _imports_and_stdout(argv, tmp_path, code)
    assert "varlab.cmdline" in modules
    assert not modules & set(NOT_FOR_THE_PARSER)
    assert out.startswith(stdout) and bool(out) == bool(stdout)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        write_inputs(Path(tmp))
        mp.chdir(tmp)
        for case in sorted(CASES):
            code, out, _ = run_main(CASES[case])
            print(f'    "{case}": "{_digest(out)}",', file=sys.stderr)
        code, out, err = _breach_run(Path(tmp), mp)
        print(f"BREACH: exit {code}, {_digest(out)}, {err!r}", file=sys.stderr)
