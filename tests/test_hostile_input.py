"""Hostile and malformed input through ``main()``: bounded number parsing,
bounded lattice denominators, float-level checks and the dimension cap on
the Gaussian path, and fuzzed CSV and JSON files through every subcommand
that reads them.

Every such input must exit 0 or 2, with no traceback, within a time budget.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from harness import BUDGET_S, run_main, within, write
import varlab
from varlab import cli, subadditivity
from varlab.cli import MAX_DIMENSION, MAX_NUMBER_DIGITS, ingest_csv
from varlab.distributions import MAX_SCALE_BITS, LatticeBoundError
from varlab.subadditivity import MAX_TABLE_CELLS


class TestBoundedNumbers:
    @pytest.mark.parametrize(
        "cell",
        ["1e5000", "1e-3000000", "-2.5E+1001", "1" * (MAX_NUMBER_DIGITS + 1), "1/" + "3" * 1200],
    )
    def test_oversized_cell_names_row_and_column(self, tmp_path, cell):
        with within(BUDGET_S):
            rc, out, err = run_main(["report", write(tmp_path, "a.csv", f"1,2\n3,{cell}\n")])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: row 2, column 2: ")
        assert "out of range" in err

    def test_oversized_first_row_is_not_taken_for_a_header(self, tmp_path):
        rc, _, err = run_main(["report", write(tmp_path, "a.csv", "1e5000,2\n3,4\n")])
        assert rc == 2
        assert err.startswith("error: row 1, column 1: ")

    def test_header_ending_in_e_and_digits_is_still_a_header(self, tmp_path):
        j = ingest_csv(write(tmp_path, "a.csv", "line5000,e9999\n1,2\n"))
        assert j.points == (((F(1), F(2)), F(1)),)

    def test_numbers_at_the_bound_are_exact(self, tmp_path):
        big = "9" * MAX_NUMBER_DIGITS
        j = ingest_csv(write(tmp_path, "a.csv", f"1e{MAX_NUMBER_DIGITS},{big}\n1e-{MAX_NUMBER_DIGITS},0\n"))
        assert j.marginal(0).values == (F(1, 10**MAX_NUMBER_DIGITS), F(10**MAX_NUMBER_DIGITS))
        assert j.marginal(1).values == (F(0), F(int(big)))

    def test_fraction_grammar_is_kept(self, tmp_path):
        j = ingest_csv(write(tmp_path, "a.csv", " 1000 ,2/4\n+.5e1,-3.\n"))
        assert j.points == (((F(5), F(-3)), F(1, 2)), ((F(1000), F(1, 2)), F(1, 2)))

    @pytest.mark.parametrize("level", ["1e-3000000", "1e5000", "0." + "1" * 1200])
    def test_oversized_level(self, tmp_path, level):
        csv_path = write(tmp_path, "a.csv", "1,2\n3,4\n")
        levels = write(tmp_path, "levels.txt", f"1/2\n{level}\n")
        for argv, prefix in (
            (["var", csv_path, "--alpha", level], "alpha"),
            (["var", csv_path, "--alphas-file", levels], f"{levels}: line 2"),
            (["elliptic", write(tmp_path, "g.json", '{"mean": [0], "covariance": [[1]]}'),
              "--alpha", level], "alpha"),
        ):
            with within(BUDGET_S):
                rc, out, err = run_main(argv)
            assert rc == 2
            assert out == ""
            assert err.startswith(f"error: {prefix}: number out of range")


class TestLatticeBounds:
    def test_common_denominator_bound_names_row_and_column(self, tmp_path):
        rng = random.Random(4)
        dens = [rng.randrange(10**399, 10**400) | 1 for _ in range(14)]
        csv_path = write(tmp_path, "a.csv", "".join(f"0,1/{d}\n" for d in dens))
        with within(BUDGET_S):
            rc, out, err = run_main(["report", csv_path])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: row 3, column 2: the common denominator of the coordinates")
        assert f"{MAX_SCALE_BITS} bits" in err

    def test_weight_denominator_bound(self, tmp_path):
        dens = [10**400 + 2 * k + 1 for k in range(14)]
        text = "x,weight\n" + "".join(f"{k},1/{d}\n" for k, d in enumerate(dens))
        rc, out, err = run_main(["report", write(tmp_path, "a.csv", text)])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: row 4, column 2: the common denominator of the weights")

    @pytest.mark.parametrize("rows, row", [
        (f"{'9' * 995}e1000,{'9' * 995}e1000\n.1e-998,1\n", 2),
        # counts 1e1000, 1e1000, 1 in units of 4: the running total passes on row 3
        ("1,4e1000\n2,4e1000\n3,4\n", 3),
    ])
    def test_probability_denominator_bound(self, tmp_path, rows, row):
        rc, out, err = run_main(["report", write(tmp_path, "a.csv", "x,weight\n" + rows)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: row {row}, column 2: the probability denominator")

    def test_probability_bound_is_on_the_merged_law(self, tmp_path):
        # raw weights 9e1000 and 1 merge into one point of probability 1
        j = ingest_csv(write(tmp_path, "a.csv", "x,weight\n1,9e1000\n1,1\n"))
        assert j.points == (((F(1),), F(1)),)
        rc, _, err = run_main(["report", write(tmp_path, "b.csv", "x,weight\n1,9e1000\n2,1\n")])
        assert rc == 2
        assert err.startswith("error: row 2, column 2: the probability denominator")

    def test_bound_fits_a_decimal_of_the_digit_limit(self):
        assert MAX_SCALE_BITS == (10**MAX_NUMBER_DIGITS).bit_length()

    def test_library_constructors_share_the_bound(self):
        tiny = F(1, 3**2100)  # a 3,329-bit denominator
        with pytest.raises(LatticeBoundError, match="coordinates exceeds") as exc:
            varlab.JointDiscreteDistribution.from_weighted_points([((0,), 1), ((tiny,), 1)])
        assert (exc.value.row, exc.value.coordinate) == (1, 0)
        with pytest.raises(LatticeBoundError, match="probabilities exceeds"):
            varlab.DiscreteDistribution([(0, 1 - tiny), (1, tiny)])

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_coupled_probability_denominator_bound_names_the_file(self, tmp_path, output):
        # each file's probability denominator, 1 + w, is a 991-digit number
        # within the bound; the lcm of the first two is not
        rng = random.Random(3)
        paths = [
            write(tmp_path, f"f{k}.csv", f"x,weight\n0,1\n1,{rng.randrange(10**990, 10**991)}\n")
            for k in range(5)
        ]
        assert run_main(["couple", paths[0], "--output", output])[0] == 0
        with within(BUDGET_S):
            rc, out, err = run_main(["couple", *paths, "--output", output])
        assert rc == 2
        assert out == ""
        assert err == (
            f"error: {paths[1]}: the probability denominator of the coupling "
            f"exceeds {MAX_SCALE_BITS} bits\n"
        )

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_coupling_past_the_support_guard(self, tmp_path, output):
        # 119,998 coupled points: more than `ingest_csv` reads back
        a = write(tmp_path, "a.csv", "a\n" + "".join(f"{k}\n" for k in range(60_000)))
        b = write(tmp_path, "b.csv", "b\n" + "".join(f"{k}\n" for k in range(59_999)))
        rc, out, err = run_main(["couple", a, b, "--output", output])
        assert (rc, out) == (2, "")
        assert err == "error: support of 119998 points exceeds the 100000-point guard\n"

    def test_huge_weights_with_a_small_ratio_are_exact(self, tmp_path):
        j = ingest_csv(write(tmp_path, "a.csv", "x,weight\n1,2e1000\n2,6e1000\n"))
        assert j.points == (((F(1),), F(1, 4)), ((F(2),), F(3, 4)))

    def test_float_table_beyond_float_range(self, tmp_path):
        rc, out, err = run_main(["report", write(tmp_path, "a.csv", "1e400\n2\n"), "--output", "csv"])
        assert rc == 2
        assert out == ""
        assert "--output json" in err


class TestTableBound:
    # levels x (n + 2) cells: with distinct weights a law has about (n + 1) x
    # points levels, so 34 weighted rows of 200 random integers pass the bound
    def test_weighted_csv_past_the_bound(self, tmp_path):
        rng = random.Random(34)
        rows = [[*(rng.randrange(1000) for _ in range(200)), rng.randrange(1, 1000)] for _ in range(34)]
        text = ",".join(f"x{i}" for i in range(200)) + ",weight\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows
        )
        with within(BUDGET_S):
            rc, out, err = run_main(["report", write(tmp_path, "a.csv", text)])
        assert (rc, out) == (2, "")
        assert err == f"error: a VaR table of 1046360 cells exceeds the {MAX_TABLE_CELLS}-cell guard\n"

    def test_alphas_file_past_the_bound(self, tmp_path):
        csv_path = write(tmp_path, "a.csv", ",".join(["1"] * 200) + "\n" + ",".join(["2"] * 200) + "\n")
        levels = write(tmp_path, "levels.txt", "".join(f"{k}/5001\n" for k in range(1, 5001)))
        with within(BUDGET_S):
            rc, out, err = run_main(["var", csv_path, "--alphas-file", levels])
        assert (rc, out) == (2, "")
        assert err == f"error: a VaR table of 1010000 cells exceeds the {MAX_TABLE_CELLS}-cell guard\n"

    def test_a_table_at_the_bound_is_admitted(self, tmp_path, monkeypatch):
        csv_path = write(tmp_path, "a.csv", "1,2\n3,1\n0,5\n")
        rc, out, _ = run_main(["report", csv_path])
        cells = len(json.loads(out)["var_table"]) * (2 + 2)
        monkeypatch.setattr(subadditivity, "MAX_TABLE_CELLS", cells)
        assert run_main(["report", csv_path])[:2] == (rc, out)
        monkeypatch.setattr(subadditivity, "MAX_TABLE_CELLS", cells - 1)
        rc, out, err = run_main(["report", csv_path])
        assert (rc, out) == (2, "")
        assert err == f"error: a VaR table of {cells} cells exceeds the {cells - 1}-cell guard\n"


class TestEllipticInput:
    def test_dimension_over_the_cap(self, tmp_path):
        n = 20 * MAX_DIMENSION
        spec = write(tmp_path, "g.json", json.dumps({"mean": [0] * n, "covariance": [[1] * n] * 3}))
        with within(BUDGET_S):
            rc, out, err = run_main(["elliptic", spec])
        assert rc == 2
        assert out == ""
        assert err == f"error: dimension {n} exceeds the cap of {MAX_DIMENSION}\n"

    def test_cap_is_on_the_command_line_only(self):
        n = MAX_DIMENSION + 1
        cov = [[float(i == j) for j in range(n)] for i in range(n)]
        assert varlab.GaussianSpec(mean=[0.0] * n, covariance=cov).dimension == n

    def test_largest_dimension_within_budget(self, tmp_path):
        n = MAX_DIMENSION
        cov = [[1 + (i == j) for j in range(n)] for i in range(n)]  # I + all ones
        spec = write(tmp_path, "g.json", json.dumps({"mean": [0] * n, "covariance": cov}))
        with within(BUDGET_S):
            rc, out, err = run_main(["elliptic", spec])
        assert rc == 0, err
        assert json.loads(out)["dimension"] == n

    @pytest.mark.parametrize("level", ["1e-400", "0.99999999999999999999"])
    def test_level_rounding_out_of_the_interval(self, tmp_path, level):
        spec = write(tmp_path, "g.json", '{"mean": [0], "covariance": [[1]]}')
        rc, out, err = run_main(["elliptic", spec, "--alpha", level])
        assert rc == 2
        assert out == ""
        assert f"alpha {level} rounds to" in err
        assert "floating point" in err
        levels = write(tmp_path, "levels.txt", f"1/2\n{level}\n")
        rc, out, err = run_main(["elliptic", spec, "--alphas-file", levels])
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {levels}: line 2: alpha {level} rounds to")

    def test_huge_integer_mean(self, tmp_path):
        spec = write(tmp_path, "g.json", '{"mean": [%s], "covariance": [[1]]}' % ("7" * 401))
        rc, out, err = run_main(["elliptic", spec])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: mean must be")

    def test_deeply_nested_json(self, tmp_path):
        spec = write(tmp_path, "g.json", '{"mean": %s}' % ("[" * 5000 + "]" * 5000))
        rc, out, err = run_main(["elliptic", spec])
        assert rc == 2
        assert out == ""
        assert "recursion depth" in err


@pytest.mark.parametrize("flag", ["--trials", "--max-n", "--max-atoms"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_simulate_size_below_one_names_its_flag(flag, value):
    with within(BUDGET_S):
        rc, out, err = run_main(["simulate", flag, value])
    assert rc == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1\n"


@pytest.mark.parametrize("value", [str(MAX_DIMENSION + 1), "100000000"])
def test_simulate_max_n_above_the_cap_exits_before_any_trial(value, monkeypatch):
    def forbidden(seed, spec):
        raise AssertionError("no trial may be generated")

    monkeypatch.setattr(cli, "random_comonotonic", forbidden)
    monkeypatch.setattr(cli, "random_coupling", forbidden)
    with within(BUDGET_S):
        rc, out, err = run_main(["simulate", "--max-n", value])
    assert rc == 2
    assert out == ""
    assert err == f"error: --max-n must be at most {MAX_DIMENSION}\n"


def test_simulate_max_n_at_the_cap_runs():
    argv = ["simulate", "--max-n", str(MAX_DIMENSION), "--trials", "1", "--kind", "comonotonic"]
    rc, out, err = run_main(argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)["all_consistent"] is True


def test_simulate_max_atoms_needs_no_cap():
    # the generator draws at most min(max_atoms, denom_bound=16) atoms
    runs = [run_main(["simulate", "--trials", "50", "--max-atoms", atoms])
            for atoms in ("1000000000000000000", "16")]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_simulate_guard_names_the_trial_to_replay():
    with within(BUDGET_S):
        rc, out, err = run_main(["simulate", "--max-n", "50", "--kind", "coupling"])
    assert rc == 2
    assert out == ""
    assert err == (
        "error: trial 0 (coupling, n=25, generator seed 250584532339884): "
        "common denominator 180180 exceeds the 100000-cell guard\n"
    )
    # the named seed and n rebuild the instance that tripped the guard
    with pytest.raises(ValueError, match="^common denominator 180180 exceeds"):
        varlab.random_coupling(250584532339884, varlab.GeneratorSpec(n=25))


# An error names a row by the file line it starts on, past blank lines,
# whitespace-only lines and a quoted cell that spans two lines.
@pytest.mark.parametrize("text, message", [
    ("x,y\n1,2\n\n\n3,abc\n", "row 5, column 2: cannot parse 'abc' as a number"),
    ("x,y\n1,2\n\n3,4,5\n", "row 4: expected 2 cells, got 3 (ragged row)"),
    ("x,y\n1,2\n  \n3,abc\n", "row 4, column 2: cannot parse 'abc' as a number"),
    ('x,y\n"1\n",2\n3,abc\n', "row 4, column 2: cannot parse 'abc' as a number"),
    ("x,weight\n1,1\n\n2,0\n", "row 4, column 2: weight must be positive, got 0"),
    ("\n\n1e5000,2\n3,4\n", "row 3, column 1: number out of range"),
    ("x,weight\n1,4e1000\n\n2,4e1000\n3,4\n", "row 4, column 2: the probability denominator"),
])
def test_rows_are_named_by_their_file_line(tmp_path, text, message):
    rc, out, err = run_main(["report", write(tmp_path, "a.csv", text)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_csv_field_over_the_reader_limit_names_its_line(tmp_path):
    rc, out, err = run_main(["report", write(tmp_path, "a.csv", "1\n" + "9" * 200_000 + "\n")])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "line 2" in err


# A byte that is not UTF-8 on line 3 of each kind of input file. The lines are
# so short that counting from the file's start, not from after a byte order
# mark, would name line 1 or 2.
UNDECODABLE = {
    "report": (".csv", b"x\n1\n\xff\n"),
    "couple": (".csv", b"x\n1\n\xff\n"),
    "var": (".txt", b"#\n.5\n\xff\n"),
    "elliptic": (".json", b'{\n"mean": [0],\n\xff"covariance": [[1]]}'),
}


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("command", sorted(UNDECODABLE))
def test_undecodable_input_names_its_file_and_line(tmp_path, command, bom):
    suffix, blob = UNDECODABLE[command]
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(bom + blob)
    ok = write(tmp_path, "ok.csv", "x,y\n1,2\n3,4\n")
    argv = {
        "report": ["report", str(bad)],
        "couple": ["couple", ok, str(bad)],
        "var": ["var", ok, "--alphas-file", str(bad)],
        "elliptic": ["elliptic", str(bad)],
    }[command]
    rc, out, err = run_main(argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {bad}: line 3: not UTF-8 (invalid start byte, byte 0xff)\n"


# The CSV reader and --alphas-file end a line at \r\n, at a lone \r and at a
# lone \n; "|" marks each line end and the byte that is not UTF-8 is on line 3.
@pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
@pytest.mark.parametrize(
    "command, blob", [("report", b"x,y|1,2|\xff,3|"), ("var", b"0.5|0.7|\xff|")], ids=["report", "var"]
)
def test_undecodable_input_counts_every_line_ending(tmp_path, command, blob, end):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(blob.replace(b"|", end))
    ok = write(tmp_path, "ok.csv", "x,y\n1,2\n")
    argv = ["report", str(bad)] if command == "report" else ["var", ok, "--alphas-file", str(bad)]
    rc, out, err = run_main(argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {bad}: line 3: not UTF-8 (invalid start byte, byte 0xff)\n"


# Only \r\n, \r and \n end a line of an --alphas-file, as in the CSV reader: a
# form feed, a vertical tab or U+2028 is part of its line's text, so a parse
# error and a byte that is not UTF-8 at the same place name the same line.
@pytest.mark.parametrize("sep", ["\f", "\v", "\u2028"], ids=["ff", "vt", "ls"])
def test_alphas_file_lines_end_only_at_csv_line_ends(tmp_path, sep):
    ok = write(tmp_path, "ok.csv", "x,y\n1,2\n")
    levels = tmp_path / "levels.txt"
    for blob, message in [
        (f"0.5{sep}0.7\nabc\n".encode(), f"line 1: cannot parse {f'0.5{sep}0.7'!r} as a number"),
        (f"0.5 # a{sep}b\nabc\n".encode(), "line 2: cannot parse 'abc' as a number"),
        (f"0.5 # a{sep}b\n".encode() + b"\xff\n", "line 2: not UTF-8 (invalid start byte, byte 0xff)"),
    ]:
        levels.write_bytes(blob)
        rc, out, err = run_main(["var", ok, "--alphas-file", str(levels)])
        assert (rc, out, err) == (2, "", f"error: {levels}: {message}\n")


@pytest.mark.parametrize("header, value, message", [
    (True, "²", "weight column '²' not found in header"),
    (True, "--1", "weight column '--1' not found in header"),
    (False, "²", "named weight column requires a header row"),
    (False, "--1", "named weight column requires a header row"),
    (True, "-1", "weight column index -1 out of range"),
    (True, "٣", "weight column index 3 out of range"),
])
def test_weight_column_that_is_no_index_is_a_header_name(tmp_path, header, value, message):
    path = write(tmp_path, "a.csv", ("x,weight\n" if header else "") + "1,2\n3,4\n")
    rc, out, err = run_main(["report", path, f"--weight-column={value}"])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def _python_stdout(code: str) -> str:
    """The stripped stdout of a fresh ``python -c code`` that imports this varlab."""
    src = str(Path(varlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_no_numpy():
    code = "import sys, varlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert _python_stdout(code) == "[]"


def test_import_loads_no_code_generation_modules():
    # `dataclasses` imports inspect, ast, dis and tokenize and runs an exec per class;
    # `import varlab` still imports varlab.gaussian, whose import time the bench reads
    code = (
        "import sys, varlab; gaussian = 'varlab.gaussian' in sys.modules; import varlab.cli; "
        "print(gaussian, sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _python_stdout(code) == "True []"


# ---------------------------------------------------------------------------
# Fuzz: generated files through main()

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**500), max_value=10**500)
    | st.integers(min_value=10**308, max_value=10**500)  # past the largest float
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=20,
)


@st.composite
def psd_specs(draw):
    """A valid spec (covariance G'G), or one with a single entry spoiled."""
    n = draw(st.integers(1, 4))
    g = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    cov = [[sum(g[k][i] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    mean = draw(st.lists(st.integers(-5, 5) | st.floats(-10, 10), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            mean[i] = draw(json_scalars)
        else:
            cov[i][j] = draw(json_scalars)
    return {"mean": mean, "covariance": cov}


gaussian_specs = (
    psd_specs()
    | st.dictionaries(st.sampled_from(["mean", "covariance", "x"]), json_values, max_size=3)
    | json_values
)


def run_file(argv, suffix, *data):
    """main() on ``argv`` with one file per ``data`` inserted after the command."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, blob in enumerate(data):
            paths.append(str(Path(tmp, f"input{k}{suffix}")))
            Path(paths[-1]).write_bytes(blob)
        with within(2 * BUDGET_S):
            rc, out, err = run_main([argv[0], *paths, *argv[1:]])
    assert rc in (0, 2), err
    if rc == 2:
        assert out == "" and err.startswith("error: ")
        # each file is read whole before the next, the first before any other
        # check, so the first that is no UTF-8 is named unless an earlier failed
        bad = next((p for p, blob in zip(paths, data) if not _decodes(blob)), None)
        if bad == paths[0] or (bad and "utf-8" in err.lower()):
            assert err.startswith(f"error: {bad}: line "), err
    return rc, out


def _decodes(blob: bytes) -> bool:
    try:
        blob.decode("utf-8-sig")
    except UnicodeDecodeError:
        return False
    return True


@given(spec=gaussian_specs, alphas=st.lists(st.sampled_from(["0.95", "1/2", "1e-400", "2", "x"]), max_size=2))
def test_fuzz_elliptic(spec, alphas):
    argv = ["elliptic"] + [arg for a in alphas for arg in ("--alpha", a)]
    rc, out = run_file(argv, ".json", json.dumps(spec).encode())
    if rc == 0:
        assert json.loads(out)["dimension"] == len(spec["mean"])


number_cells = (
    st.integers(-99, 99).map(str)
    | st.fractions(min_value=-10, max_value=10, max_denominator=12).map(str)
    | st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 99))
    | st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-1200, 1200))
)
junk_cells = st.lists(
    st.sampled_from(["0", "1", "-", "+", ".", "/", "e", "E", "_", " ", "x", "nan", "inf",
                     "9" * 40, "e5000", "e-3000000", '"', ",", "\n", "\t", "\x00", "é"]),
    max_size=5,
).map("".join)


@st.composite
def csv_files(draw):
    """Rows of one width, all numbers or mixed with junk, under an optional header."""
    ncols = draw(st.integers(1, 3))
    cell = number_cells if draw(st.booleans()) else number_cells | junk_cells
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=1, max_size=8))
    header = draw(st.sampled_from([[], ["x"] * ncols, ["x"] * (ncols - 1) + ["weight"]]))
    return "\n".join(",".join(row) for row in [header] * bool(header) + rows).encode()


csv_inputs = csv_files() | st.binary(max_size=64)
level_args = st.lists(st.sampled_from(["0.95", "1/2", "1e-400", "2", "x", "1e5000"]), min_size=1, max_size=2)
weight_args = st.sampled_from([[], ["--weight-column", "weight"], ["--weight-column", "0"],
                               ["--weight-column", "2"], ["--weight-column", "-1"],
                               ["--weight-column", "w"], ["--no-header"]])


@given(data=csv_inputs, alphas=level_args, flags=weight_args, output=st.sampled_from(["json", "csv"]))
def test_fuzz_var(data, alphas, flags, output):
    argv = ["var", *(arg for a in alphas for arg in ("--alpha", a)), *flags, "--output", output]
    run_file(argv, ".csv", data)


@given(data=st.lists(csv_inputs, min_size=1, max_size=2), flags=weight_args,
       output=st.sampled_from(["json", "csv"]))
def test_fuzz_couple(data, flags, output):
    run_file(["couple", *flags, "--output", output], ".csv", *data)


@given(data=csv_inputs, flags=weight_args, output=st.sampled_from(["json", "csv"]))
def test_fuzz_report(data, flags, output):
    run_file(["report", *flags, "--output", output], ".csv", data)
