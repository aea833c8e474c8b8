"""Mutation gate for the decision kernel: every listed mutant must be killed.

    python3 tests/mutants.py [NAME ...]

Each mutant is one exact text replacement in one module of ``src/varlab``
and the test files that must catch it. For each mutant (or each one named),
the runner copies ``src/``, ``tests/``, ``pyproject.toml``, ``bench/``
(whose input generator the golden tests load) and ``tools/`` (which
``tests/test_python_versions.py`` runs) into a fresh temporary
directory; the copy of ``src/`` is needed because pytest's ``pythonpath =
["src"]`` would otherwise import this checkout's unmutated package. It
applies the mutant there and runs ``pytest -x -q`` on the mutant's test
files. The checkout itself is never written.

Before any mutant, the union of the chosen mutants' test files runs once on
an unmutated copy: a test that already fails would "kill" every mutant, so
the gate fails (exit 1) at once if that run does not pass. That run is timed,
and a mutant's pytest is stopped after `TIMEOUT_FACTOR` times its seconds: a
mutant that makes a test loop is killed, on a line that says it timed out.
A mutant is also killed when it stops the collection of one of its test
files, as when a test module builds a law at import time that the lattice
check of ``tests/conftest.py`` rejects: the unmutated run collected the same
files cleanly, so the mutant alone caused the error. The gate also fails
when a mutant survives, that is its tests pass, when its old text does not
occur exactly once, so a refactor of mutated code must update this list, or
when its tests cannot run at all for any other reason. It is not part of
the tier-1 suite.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A mutant's pytest runs a subset of the unmutated run's tests, so this many
# times that run's seconds is time enough for any mutant that ends.
TIMEOUT_FACTOR = 3
# what pytest prints when a test file fails to import; it then runs no test and exits 2
_COLLECTION_ERROR = re.compile(r"Interrupted: \d+ errors? during collection")

# (name, module under src/varlab, old text, new text, test files that must kill it)
MUTANTS = (
    (
        "sweep-bisect-right",
        "distributions.py",
        "[xs[bisect_left(cum, level)] for level in levels]",
        "[xs[bisect_right(cum, level)] for level in levels]",
        ("tests/test_golden.py",),
    ),
    (
        "sweep-atom-one-too-high",
        "distributions.py",
        "[xs[bisect_left(cum, level)] for level in levels]",
        "[xs[min(bisect_left(cum, level) + 1, len(xs) - 1)] for level in levels]",
        ("tests/test_subadditivity.py",),
    ),
    (
        "quantile-floor-not-ceil",
        "distributions.py",
        "levels.append(-(-a.numerator * denom // a.denominator))",
        "levels.append(a.numerator * denom // a.denominator)",
        ("tests/test_golden.py",),
    ),
    (
        "flags-off-by-one",
        "subadditivity.py",
        "        if var_sum > sum_of_vars:\n",
        "        if var_sum > sum_of_vars + 1:\n",
        ("tests/test_golden.py",),
    ),
    (
        "flag-fold-additive-ignores-subadditive",
        "subadditivity.py",
        "            return False, False\n",
        "            return False, not below\n",
        ("tests/test_subadditivity.py",),
    ),
    (
        "chain-pass-first-coordinate-only",
        "comonotonicity.py",
        "return all(all(map(le, a, b)) for a, b in",
        "return all(a[0] <= b[0] for a, b in",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "chain-pass-any-for-all",
        "comonotonicity.py",
        "return all(all(map(le, a, b)) for a, b in",
        "return all(any(map(le, a, b)) for a, b in",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "chain-check-skipped-for-n-le-2",
        "comonotonicity.py",
        "    if _is_chain(j.xs):\n",
        "    if j.dimension <= 2 or _is_chain(j.xs):\n",
        ("tests/test_golden.py",),
    ),
    (
        "coupling-columns-reversed",
        "comonotonicity.py",
        "points = tuple(zip(*columns))",
        "points = tuple(zip(*columns[::-1]))",
        ("tests/test_golden.py",),
    ),
    (
        # in its test file only the lattice invariant that tests/conftest.py checks kills it
        "coupling-seeds-reversed-marginals",
        "comonotonicity.py",
        "_lattice(scale, points, lengths, ms)",
        "_lattice(scale, points, lengths, ms[::-1])",
        ("tests/test_golden.py",),
    ),
    (
        "common-lattice-values-unscaled",
        "distributions.py",
        "m.xs if f == 1 else [x * f for x in m.xs]",
        "m.xs",
        ("tests/test_golden.py",),
    ),
    (
        "common-lattice-counts-unscaled",
        "distributions.py",
        "m._cum if g == 1 else [c * g for c in m._cum]",
        "m._cum",
        ("tests/test_golden.py",),
    ),
    (
        "law-fast-path-on-nonstrict-order",
        "distributions.py",
        "if not all(map(lt, keys, itertools.islice(keys, 1, None))):",
        "if not all(x <= y for x, y in zip(keys, keys[1:])):",
        ("tests/test_lattice.py",),
    ),
    (
        "law-merge-overwrites-count",
        "distributions.py",
        "acc.get(key, 0) + c",
        "c",
        ("tests/test_lattice.py",),
    ),
    (
        "law-fast-path-without-scale-gcd",
        "distributions.py",
        "r = math.gcd(scale, *xs)",
        "r = 1",
        ("tests/test_lattice.py",),
    ),
    (
        # in its test file only the lattice invariant that tests/conftest.py checks kills it
        "law-keeps-a-common-factor-of-two",
        "distributions.py",
        "    if r > 1:\n",
        "    if r > 2:\n",
        ("tests/test_golden.py",),
    ),
    (
        "min-copula-compares-marginals-only",
        "comonotonicity.py",
        "return j == _rearrangement(j)",
        "return j.marginals() == _rearrangement(j).marginals()",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "every-law-its-own-rearrangement",
        "comonotonicity.py",
        "rearranged = comonotonic_coupling(j.marginals())",
        "rearranged = j",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "coupling-registry-keyed-by-first-marginal",
        "comonotonicity.py",
        "entry = _LIVE.get(id(ms))",
        "entry = _LIVE.get(id(ms[0]))",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "registry-callback-never-deletes",
        "comonotonicity.py",
        "        del _LIVE[entry.key]\n",
        "        pass\n",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "registry-callback-deletes-a-newer-entry",
        "comonotonicity.py",
        "if _LIVE.get(entry.key) is entry:",
        "if entry.key in _LIVE:",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "coupling-keeps-itself-as-rearrangement",
        "comonotonicity.py",
        "if rearranged is not j:",
        "if True:",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "convex-order-mean-unchecked",
        "risk.py",
        "if gap != 0:",
        "if False:",
        ("tests/test_risk.py",),
    ),
    (
        "merge-without-count-gcd",
        "distributions.py",
        "    g = math.gcd(*counts)\n",
        "    g = 1\n",
        ("tests/test_distributions.py", "tests/test_lattice.py"),
    ),
    (
        "lattice-over-zero-mass-rows",
        "distributions.py",
        "live = [k for k, (_, (p, _)) in enumerate(rows) if p]",
        "live = list(range(len(rows)))",
        ("tests/test_distributions.py",),
    ),
    (
        "first-bad-cell-scan-names-the-last",
        "cli.py",
        "for k, rownum in enumerate(lines):",
        "for k, rownum in reversed(list(enumerate(lines))):",
        ("tests/test_ingest.py",),
    ),
    (
        "ragged-row-wins-over-earlier-bad-cell",
        "cli.py",
        "    if faults or ragged:\n",
        "    if ragged:\n        raise ValueError(ragged)\n    if faults:\n",
        ("tests/test_ingest.py",),
    ),
    (
        "digest-hashes-the-first-block-alone",
        "cli.py",
        'for block in iter(lambda: "".join(islice(lines, _BLOCK_ROWS)), ""):',
        'for block in ["".join(islice(lines, _BLOCK_ROWS))]:',
        ("tests/test_golden.py",),
    ),
    (
        "law-eq-without-coord-denom",
        "distributions.py",
        "self.coord_denom == other.coord_denom and ",
        "",
        ("tests/test_distributions.py",),
    ),
    (
        "law-eq-without-counts",
        "distributions.py",
        "self.counts == other.counts\n                and ",
        "",
        ("tests/test_distributions.py",),
    ),
    (
        "law-fields-in-instance-dict",
        "distributions.py",
        '__slots__ = ("coord_denom", "xs", "counts", "prob_denom", "__dict__", "__weakref__")',
        '__slots__ = ("__dict__", "__weakref__")',
        ("tests/test_distributions.py",),
    ),
    (
        # in its test file only the lattice invariant that tests/conftest.py checks kills it
        "product-seeds-reversed-marginals",
        "distributions.py",
        "        marginals,\n    )\n",
        "        marginals[::-1],\n    )\n",
        ("tests/test_subadditivity.py",),
    ),
    (
        "sweep-accepts-alpha-zero",
        "distributions.py",
        "if not 0 < a < 1:",
        "if not 0 <= a < 1:",
        ("tests/test_distributions.py",),
    ),
    (
        "cdf-reads-the-next-cumulative-count",
        "distributions.py",
        "Fraction(self._cum[i - 1], self.prob_denom) if i",
        "Fraction(self._cum[min(i, len(self._cum) - 1)], self.prob_denom) if i",
        ("tests/test_distributions.py",),
    ),
    (
        "coupling-guard-skipped",
        "comonotonicity.py",
        '_size_guard(len(levels), "support of {} points")',
        "None",
        ("tests/test_comonotonicity.py", "tests/test_hostile_input.py"),
    ),
    (
        "joint-guard-admits-the-bound",
        "distributions.py",
        "if size > MAX_JOINT_POINTS:",
        "if size >= MAX_JOINT_POINTS:",
        ("tests/test_comonotonicity.py",),
    ),
    (
        "merge-guard-skipped",
        "distributions.py",
        '_size_guard(len(keys), "support of {} points")',
        "None",
        ("tests/test_distributions.py",),
    ),
    (
        "product-guard-skipped",
        "distributions.py",
        '_size_guard(math.prod(len(m) for m in marginals), "independent product of {} points")',
        "None",
        ("tests/test_distributions.py",),
    ),
    (
        "coupling-cell-guard-skipped",
        "subadditivity.py",
        '_size_guard(denom, "common denominator {}", "cell")',
        "None",
        ("tests/test_distributions.py",),
    ),
    (
        "probability-denominator-unbounded",
        "distributions.py",
        "if sum(counts).bit_length() > MAX_SCALE_BITS:",
        "if False:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "lcm-within-unbounded",
        "distributions.py",
        "if acc.bit_length() > MAX_SCALE_BITS:",
        "if False:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "number-digits-unbounded",
        "cli.py",
        "if len(text) > MAX_NUMBER_DIGITS or (exp",
        "if False or (exp",
        ("tests/test_hostile_input.py",),
    ),
    (
        "number-exponent-unbounded",
        "cli.py",
        "(exp and abs(int(exp)) > MAX_NUMBER_DIGITS)",
        "False",
        ("tests/test_hostile_input.py",),
    ),
    (
        "couple-lcm-unbounded",
        "cli.py",
        "if over is not None:",
        "if False:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "table-guard-skipped",
        "subadditivity.py",
        "if cells > MAX_TABLE_CELLS:",
        "if False:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "table-guard-admits-the-bound",
        "subadditivity.py",
        "if cells > MAX_TABLE_CELLS:",
        "if cells >= MAX_TABLE_CELLS:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "simulate-max-n-unbounded",
        "cli.py",
        "if args.max_n > MAX_DIMENSION:",
        "if False:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "simulate-max-n-rejects-the-cap",
        "cli.py",
        "if args.max_n > MAX_DIMENSION:",
        "if args.max_n >= MAX_DIMENSION:",
        ("tests/test_hostile_input.py",),
    ),
    (
        "simulate-chunk-runs-one-trial-too-many",
        "cli.py",
        "chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]",
        "chunks = [range(lo, hi + 1) for lo, hi in zip(bounds, bounds[1:])]",
        ("tests/test_simulate_workers.py",),
    ),
    (
        "simulate-chunks-joined-out-of-order",
        "cli.py",
        "rows += part if part is not None else _trial_rows(args, chunk)",
        "rows[:0] = part if part is not None else _trial_rows(args, chunk)",
        ("tests/test_simulate_workers.py",),
    ),
    (
        "simulate-missing-chunk-not-recomputed",
        "cli.py",
        "rows += part if part is not None else _trial_rows(args, chunk)",
        "rows += part if part is not None else []",
        ("tests/test_simulate_workers.py",),
    ),
    (
        "simulate-workers-not-reaped",
        "cli.py",
        "            os.waitpid(pid, 0)\n",
        "",
        ("tests/test_simulate_workers.py",),
    ),
    (
        "elliptic-dimension-cap-skipped",
        "cli.py",
        'len(raw["mean"]) > MAX_DIMENSION',
        "False",
        ("tests/test_hostile_input.py",),
    ),
    (
        "invariant-breach-exits-0",
        "cli.py",
        "return EXIT_INVARIANT",
        "return EXIT_OK",
        ("tests/test_golden.py", "tests/test_cli.py"),
    ),
    (
        "trial-subadditive-always",
        "subadditivity.py",
        "subadditive, additive = _flags(zip(sum_column, map(sum, marginal_rows)))",
        "subadditive, additive = True, _flags(zip(sum_column, map(sum, marginal_rows)))[1]",
        ("tests/test_subadditivity.py",),
    ),
    (
        "trial-chain-flag-always",
        "subadditivity.py",
        "como = _is_chain(j.xs)",
        "como = True",
        ("tests/test_subadditivity.py",),
    ),
    (
        # in its test file only the lattice invariant that tests/conftest.py checks kills it
        "random-marginal-counts-without-gcd",
        "subadditivity.py",
        "return DiscreteDistribution._lattice(scale, *_merged(xs, counts))",
        "return DiscreteDistribution._lattice(scale, xs, tuple(counts))",
        ("tests/test_golden.py",),
    ),
    (
        "random-coupling-counts-doubled",
        "subadditivity.py",
        "tuple(map(cells.__getitem__, points))",
        "tuple([2 * cells[p] for p in points])",
        ("tests/test_subadditivity.py",),
    ),
    (
        "random-coupling-points-unsorted",
        "subadditivity.py",
        "points = tuple(sorted(cells))",
        "points = tuple(cells)",
        ("tests/test_subadditivity.py",),
    ),
    (
        # the same value over twice the scale: L is not minimal
        "point-mass-scale-doubled",
        "distributions.py",
        "return cls._lattice(v.denominator, (v.numerator,), (1,))",
        "return cls._lattice(2 * v.denominator, (2 * v.numerator,), (1,))",
        ("tests/test_distributions.py",),
    ),
    (
        # the same probabilities over twice the denominator; only the lattice
        # invariant that tests/conftest.py checks kills it: in a test body of the
        # first file, and while the other four build their module-level laws
        "bernoulli-counts-doubled",
        "distributions.py",
        "(p.denominator - p.numerator, p.numerator))",
        "(2 * (p.denominator - p.numerator), 2 * p.numerator))",
        ("tests/test_acceptance.py", "tests/test_comonotonicity.py", "tests/test_distributions.py",
         "tests/test_risk.py", "tests/test_subadditivity.py"),
    ),
    (
        "equal-laws-mean-unequal",
        "risk.py",
        "    if a == b:\n        return _HOLDS",
        "    if a == b:\n        return ConvexOrderVerdict(holds=True, mean_equal=False)",
        ("tests/test_risk.py",),
    ),
    (
        "hashlib-imported-by-every-command",
        "cli.py",
        "import csv\nimport io\n",
        "import csv\nimport hashlib\nimport io\n",
        ("tests/test_golden.py",),
    ),
    (
        "digest-through-openssl",
        "cli.py",
        "    try:\n"
        "        from _sha2 import sha256  # Python 3.12 and later\n"
        "    except ImportError:\n"
        "        try:\n"
        "            from _sha256 import sha256  # Python 3.10 and 3.11\n"
        "        except ImportError:\n"
        "            from hashlib import sha256\n",
        "    from hashlib import sha256\n",
        ("tests/test_golden.py",),
    ),
    (
        # the plain swap of the two imports is equivalent, as no interpreter has
        # both modules; this one loses the branch of Python 3.12 and later, where
        # the digest then maps OpenSSL, which tools/golden_versions.py also sees
        "digest-sha2-branch-imports-sha256",
        "cli.py",
        "from _sha2 import sha256  # Python 3.12 and later",
        "from _sha256 import sha256  # Python 3.12 and later",
        ("tests/test_python_versions.py",),
    ),
    (
        "export-not-cached",
        "__init__.py",
        "value = globals()[name] = getattr(",
        "value = getattr(",
        ("tests/test_hostile_input.py",),
    ),
    (
        "entry-imports-cli-first",
        "__main__.py",
        "from .cmdline import build_parser\n",
        "from . import cli\nfrom .cmdline import build_parser\n",
        ("tests/test_golden.py",),
    ),
    (
        "verdicts-divide-to-float",
        "subadditivity.py",
        "Fraction(var_sum, scale)",
        "var_sum / scale",
        ("tests/test_float_free.py",),
    ),
)


def _pytest_in_copy(tests: tuple[str, ...], module: str = "", old: str = "", new: str = "",
                    timeout: float | None = None):
    """``pytest -x -q`` of ``tests`` in a fresh copy of the checkout, with
    ``old`` replaced by ``new`` in ``src/varlab/module`` when a module is
    given: the completed process, or why the replacement cannot be made.
    A pytest still running after ``timeout`` seconds is killed, and
    `subprocess.TimeoutExpired` is raised."""
    with tempfile.TemporaryDirectory(prefix="varlab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench", "tools"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        if module:
            path = work / "src" / "varlab" / module
            text = path.read_text(encoding="utf-8")
            found = text.count(old)
            if found != 1:
                return f"old text found {found} times in src/varlab/{module}, expected once"
            path.write_text(text.replace(old, new), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work,
            env=dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
            timeout=timeout,
        )


def _tail(result: subprocess.CompletedProcess) -> str:
    return f"{result.stdout[-2000:]}{result.stderr[-2000:]}"


def run(module: str, old: str, new: str, tests: tuple[str, ...], baseline_s: float) -> str:
    """The mutant's verdict: "killed", killed by a timeout of `TIMEOUT_FACTOR`
    times ``baseline_s``, the seconds of the unmutated run, or "FAIL: " and why
    the gate fails on it."""
    start = time.monotonic()
    try:
        result = _pytest_in_copy(tests, module, old, new, TIMEOUT_FACTOR * baseline_s)
    except subprocess.TimeoutExpired:
        return f"killed (timed out after {time.monotonic() - start:.1f} s)"
    if isinstance(result, str):
        return f"FAIL: {result}"
    if result.returncode == 0:
        return f"FAIL: survived {' '.join(tests)}"
    if result.returncode == 2 and _COLLECTION_ERROR.search(result.stdout):
        # the unmutated run of these files passed, so the mutant alone stops collection
        return "killed (collection error)"
    if result.returncode != 1:  # 1 is failed tests; anything else is no verdict
        return f"FAIL: pytest exited {result.returncode}:\n{_tail(result)}"
    return "killed"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    # a failing test kills every mutant, so the tests must pass before any is applied
    tests = tuple(sorted({path for *_, paths in chosen for path in paths}))
    start = time.monotonic()
    baseline = _pytest_in_copy(tests)
    baseline_s = time.monotonic() - start
    if baseline.returncode != 0:
        print(
            f"the unmutated tree fails its own tests (pytest exited {baseline.returncode} on "
            f"{' '.join(tests)}), so no mutant can be judged:\n{_tail(baseline)}",
            file=sys.stderr,
        )
        return 1
    failed = 0
    for name, *mutant in chosen:
        verdict = run(*mutant, baseline_s)
        failed += not verdict.startswith("killed")
        print(f"{name}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
