"""Self-tests of the benchmark: deterministic inputs, checks that reject
corrupted outputs, and the span recorder.

    python3 -m pytest -q bench

They import varlab from the checkout's src directory and are not part of
the package's own test suite.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import varlab  # noqa: E402
from varlab.cli import main  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Input generation


def test_csv_is_byte_identical_per_seed():
    assert gen.csv_text(gen.csv_rows(7, 500)) == gen.csv_text(gen.csv_rows(7, 500))
    assert gen.csv_text(gen.csv_rows(7, 500)) != gen.csv_text(gen.csv_rows(8, 500))


def test_csv_is_dependent_but_not_comonotonic():
    rows = gen.csv_rows(3, 2000)
    props = gen.csv_properties(rows)
    assert props["distinct_points"] > 1900
    assert all(100 < a < 2000 for a in props["atoms_per_marginal"])
    joint = varlab.JointDiscreteDistribution.from_weighted_points((r, 1) for r in rows)
    assert not varlab.is_comonotonic(joint).comonotonic


def test_simulate_and_crosscheck_inputs_are_deterministic_per_seed():
    def first(seed, k=5):
        stream = gen.simulate_seeds(seed)
        return [next(stream) for _ in range(k)]

    def specs(seed, k):
        return list(itertools.islice(gen.crosscheck_specs(seed), k))

    assert first(4) == first(4) != first(5)
    assert specs(4, 40) == specs(4, 40) != specs(5, 40)
    kinds_and_dims = [(kind, n) for kind, n, _ in specs(4, 80)]
    assert len(set(kinds_and_dims)) == 8
    assert all(kinds_and_dims.count(k) == 10 for k in set(kinds_and_dims))


# ---------------------------------------------------------------------------
# report-csv checks


def _report(tmp_path, rows, capsys):
    path = tmp_path / "in.csv"
    path.write_text(gen.csv_text(rows), encoding="utf-8")
    code = main(["report", str(path)])
    return code, capsys.readouterr().out.encode()


@pytest.fixture
def report(tmp_path, capsys):
    rows = gen.csv_rows(11, 300)
    code, stdout = _report(tmp_path, rows, capsys)
    return rows, code, json.loads(stdout)


def _check(code, payload, rows):
    return checks.check_report(code, json.dumps(payload).encode(), gen.expected_report(rows))


def test_report_check_accepts_real_output(report):
    rows, code, payload = report
    assert _check(code, payload, rows) == []


def test_report_check_rejects_flipped_flag(report):
    rows, code, payload = report
    flags = payload["theorem_flags"]
    flags["additive_everywhere"] = not flags["additive_everywhere"]
    assert _check(code, payload, rows)


def test_report_check_rejects_wrong_mean(report):
    rows, code, payload = report
    mean = Fraction(payload["marginals_summary"][1]["mean"]) + Fraction(1, 100)
    payload["marginals_summary"][1]["mean"] = f"{mean.numerator}/{mean.denominator}"
    assert _check(code, payload, rows)


def test_report_check_rejects_dropped_table_row(report):
    rows, code, payload = report
    payload["var_table"].pop()
    assert _check(code, payload, rows)


def test_report_check_rejects_wrong_relation(report):
    rows, code, payload = report
    row = payload["var_table"][0]
    row["relation"] = {"<": ">", ">": "=", "=": "<"}[row["relation"]]
    assert _check(code, payload, rows)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _relation(var_sum: Fraction, sum_vars: Fraction) -> str:
    return "<" if var_sum < sum_vars else "=" if var_sum == sum_vars else ">"


@pytest.mark.parametrize("k", [0, 150, -1])
def test_report_check_rejects_wrong_var_of_sum_with_matching_relation(report, k):
    rows, code, payload = report
    row = payload["var_table"][k]
    var_sum = Fraction(row["var_of_sum"]) + Fraction(1, 100)
    row["var_of_sum"] = _frac(var_sum)
    row["relation"] = _relation(var_sum, Fraction(row["sum_of_vars"]))
    assert _check(code, payload, rows)


def test_report_check_rejects_wrong_marginal_var_with_matching_sum(report):
    rows, code, payload = report
    row = payload["var_table"][100]
    wrong = Fraction(row["marginal_vars"][2]) - Fraction(1, 100)
    row["marginal_vars"][2] = _frac(wrong)
    sum_vars = sum(Fraction(v) for v in row["marginal_vars"])
    row["sum_of_vars"] = _frac(sum_vars)
    row["relation"] = _relation(Fraction(row["var_of_sum"]), sum_vars)
    assert _check(code, payload, rows)


def test_report_check_rejects_sum_of_vars_that_is_not_the_sum(report):
    rows, code, payload = report
    row = payload["var_table"][50]
    sum_vars = Fraction(row["sum_of_vars"]) + 1
    row["sum_of_vars"] = _frac(sum_vars)
    row["relation"] = _relation(Fraction(row["var_of_sum"]), sum_vars)
    assert _check(code, payload, rows)


def test_report_check_rejects_exit_code_and_garbage(report):
    rows, _, payload = report
    assert _check(3, payload, rows)
    assert checks.check_report(0, b"not json", gen.expected_report(rows))


def test_report_check_rejects_a_dropped_input_row(tmp_path, capsys):
    rows = gen.csv_rows(11, 300)
    code, stdout = _report(tmp_path, rows[1:], capsys)
    assert checks.check_report(code, stdout, gen.expected_report(rows))


# ---------------------------------------------------------------------------
# simulate-trials checks


@pytest.fixture
def simulated(capsys):
    code = main(["simulate", "--seed", "9", "--trials", "20", "--max-atoms", "4"])
    return code, json.loads(capsys.readouterr().out)


def test_simulate_check_accepts_real_output(simulated):
    code, payload = simulated
    assert checks.check_simulate(code, json.dumps(payload).encode(), 9, 20) == []


@pytest.mark.parametrize(
    "field, value", [("all_consistent", False), ("consistent_trials", 19), ("seed", 8), ("trials", 10)]
)
def test_simulate_check_rejects_corruption(simulated, field, value):
    code, payload = simulated
    payload[field] = value
    assert checks.check_simulate(code, json.dumps(payload).encode(), 9, 20)


def test_simulate_check_rejects_exit_code(simulated):
    _, payload = simulated
    assert checks.check_simulate(3, json.dumps(payload).encode(), 9, 20)


# ---------------------------------------------------------------------------
# crosscheck checks


def _crosscheck(kind, j):
    leq = varlab.convex_order_leq(
        j.sum_distribution(), varlab.comonotonic_coupling(j.marginals()).sum_distribution()
    )
    return kind, varlab.min_copula_check(j), varlab.convex_order_max_check(j), leq


def test_crosscheck_check_accepts_real_instances():
    spec = varlab.GeneratorSpec(n=3, max_atoms=gen.CROSS_MAX_ATOMS)
    for kind, _, seed in itertools.islice(gen.crosscheck_specs(2), 8):
        make = varlab.random_comonotonic if kind == "comonotonic" else varlab.random_coupling
        assert checks.check_crosscheck(*_crosscheck(kind, make(seed, spec))) == []


def test_crosscheck_check_rejects_corruption():
    x = varlab.DiscreteDistribution.bernoulli(Fraction(1, 3))
    independent = varlab.independent_product(x, x)
    kind, min_copula, convex_max, leq = _crosscheck("coupling", independent)
    assert checks.check_crosscheck(kind, min_copula, convex_max, leq) == []
    assert checks.check_crosscheck(kind, not min_copula, convex_max, leq)
    assert checks.check_crosscheck("comonotonic", min_copula, convex_max, leq)
    broken = varlab.ConvexOrderVerdict(holds=False, mean_equal=True, witness_c=Fraction(0))
    assert checks.check_crosscheck(kind, min_copula, convex_max, broken)


# ---------------------------------------------------------------------------
# Spans and metrics


def test_self_time_subtracts_direct_children():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert spans.self_times(recorded) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_traced_cli_records_spans_and_counts(tmp_path):
    rows = gen.csv_rows(5, 200)
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(gen.csv_text(rows), encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "cli", str(spans_path), "report", str(csv_path)],
        env=ENV, cwd=ROOT, capture_output=True, timeout=120,
    )
    assert checks.check_report(res.returncode, res.stdout, gen.expected_report(rows)) == []
    data = json.loads(spans_path.read_text())
    names = {s[0] for s in data["spans"]}
    assert {"cli.main", "cli.ingest_csv", "cli.run_report", "subadditivity.subadditivity_report",
            "comonotonicity.is_comonotonic", "distributions.JointDiscreteDistribution.marginals"} <= names
    counts = data["counts"]
    assert counts["cli.rows"] == 200
    assert counts["distributions.marginals_calls"] == 2
    assert counts["cli.out_bytes"] == len(res.stdout)
    metrics = spans.layer_metrics(data["spans"], counts)
    assert metrics["cli.ingest_csv_s"] > 0 and metrics["distributions.construct_s"] > 0


def test_benchmark_json_lists_exactly_the_metrics_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set(spans.SELF_TIMES) | set(spans.COUNTS)
    produced |= {"varlab.import_s", "gaussian.import_s", "trace.overhead_frac"}
    assert per_layer - {n for n in per_layer if n.endswith(".loc")} == produced
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == ["report-csv", "simulate-trials", "crosscheck"]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
