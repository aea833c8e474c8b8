import io
import json
import tempfile
from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

import fraction_oracle
from harness import run_main, write
from strategies import generated_joints, joints, open_unit_fractions
from varlab import (
    DiscreteDistribution,
    JointDiscreteDistribution,
    comonotonic_coupling,
    critical_alphas,
    equivalence_trial,
)
from varlab import cli
from varlab.cli import decimal_cell, dump_csv, ingest_csv, run_report
from varlab.subadditivity import TrialVerdict


class TestIngest:
    def test_merges_and_normalizes(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,0\n0,0\n1,1\n1,1\n")
        j = ingest_csv(path)
        assert j.points == (
            ((F(0), F(0)), F(1, 2)),
            ((F(1), F(1)), F(1, 2)),
        )

    def test_decimal_cells_are_exact(self, tmp_path):
        path = write(tmp_path, "a.csv", "0.25\n0.50\n")
        j = ingest_csv(path)
        assert j.points == (((F(1, 4),), F(1, 2)), ((F(1, 2),), F(1, 2)))

    def test_ragged_row_names_row_index(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n1,zap\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            ingest_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path)

    def test_header_sniffing(self, tmp_path):
        with_header = ingest_csv(write(tmp_path, "a.csv", "loss_a,loss_b\n1,2\n"))
        without = ingest_csv(write(tmp_path, "b.csv", "1,2\n"))
        assert with_header == without

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        # a UTF-8 BOM must not make the first data row look like a header
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff1,2\n3,4\n".encode("utf-8"))
        j = ingest_csv(str(path))
        assert j.points == (((F(1), F(2)), F(1, 2)), ((F(3), F(4)), F(1, 2)))

    def test_forced_header_flag(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n3,4\n")
        j = ingest_csv(path, has_header=True)  # first row consumed as header
        assert j.points == (((F(3), F(4)), F(1)),)

    def test_weight_column_by_header_name(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,weight\n0,3\n1,1\n")
        j = ingest_csv(path)
        assert j.points == (((F(0),), F(3, 4)), ((F(1),), F(1, 4)))

    def test_weight_column_by_index(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,3\n1,1\n")
        j = ingest_csv(path, weight_column=1)
        assert j.points == (((F(0),), F(3, 4)), ((F(1),), F(1, 4)))

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,weight\n0,0\n")
        with pytest.raises(ValueError, match="positive"):
            ingest_csv(path)

    @pytest.mark.parametrize("weight", ["0", "-2"])
    def test_loss_text_reused_as_bad_weight_names_its_row_and_column(self, tmp_path, weight):
        # the text parses once, as a loss; the check on the weight still runs
        path = write(tmp_path, "a.csv", f"x,weight\n{weight},1\n5,1\n7,{weight}\n")
        with pytest.raises(ValueError) as exc:
            ingest_csv(path)
        assert str(exc.value) == f"row 4, column 2: weight must be positive, got {weight}"

    def test_repeated_malformed_text_is_reported_at_its_first_cell(self, tmp_path):
        rows = "".join(f"{k},1\n" for k in range(50)) + "2,1x\n" + "1x,3\n" * 50
        with pytest.raises(ValueError) as exc:
            ingest_csv(write(tmp_path, "a.csv", "a,b\n" + rows))
        assert str(exc.value) == "row 52, column 2: cannot parse '1x' as a number"


class TestDecimalCells:
    @pytest.mark.parametrize(
        "value,text",
        [
            (F(1, 4), "0.25"),
            (F(-5), "-5"),
            (F(1, 16), "0.0625"),
            (F(3, 10), "0.3"),
            (F(0), "0"),
            (F(12, 10), "1.2"),
            (F(-7, 20), "-0.35"),
        ],
    )
    def test_exact_decimal(self, value, text):
        assert decimal_cell(value) == text
        assert F(text) == value

    def test_rejects_non_decimal_denominator(self):
        with pytest.raises(ValueError, match="decimal"):
            decimal_cell(F(1, 3))


class TestRoundTrip:
    def test_dump_then_ingest_is_identity(self, tmp_path):
        j = JointDiscreteDistribution.from_weighted_points(
            [((F(1, 4), F(-2)), 3), ((F(1, 2), F(0)), 2), ((F(3, 4), F(5)), 2)]
        )
        buf = io.StringIO()
        dump_csv(j, buf)
        path = write(tmp_path, "rt.csv", buf.getvalue())
        assert ingest_csv(path) == j

    def test_coupling_weights_scale_to_integers(self, tmp_path):
        x = DiscreteDistribution.from_weighted_values([(0, 2), (1, 3)])
        y = DiscreteDistribution.from_weighted_values([(0, 7), (2, 3)])
        from varlab import comonotonic_coupling

        j = comonotonic_coupling([x, y])
        buf = io.StringIO()
        dump_csv(j, buf)
        path = write(tmp_path, "rt.csv", buf.getvalue())
        assert ingest_csv(path) == j


class TestRunReport:
    def sample_csv(self, tmp_path):
        # independent Bernoulli(3/10) pair as weighted samples
        return write(
            tmp_path, "bern.csv", "x,y,weight\n0,0,49\n0,1,21\n1,0,21\n1,1,9\n"
        )

    def test_independent_bernoulli_sample(self, tmp_path):
        j = ingest_csv(self.sample_csv(tmp_path))
        report = run_report(j)
        trial = equivalence_trial(j)
        assert report.comonotonic == trial.comonotonic is False
        assert report.subadditive_everywhere == trial.subadditive_everywhere is False
        assert report.additive_everywhere is False

    def test_comonotonic_sample_is_additive(self, tmp_path):
        path = write(tmp_path, "sorted.csv", "x,y\n0,1\n1,3\n2,3\n2,9\n")
        report = run_report(ingest_csv(path))
        assert report.comonotonic and report.additive_everywhere

    def test_default_levels_are_critical_alphas(self, tmp_path):
        j = ingest_csv(self.sample_csv(tmp_path))
        report = run_report(j)
        assert tuple(r.alpha_star for r in report.var_table) == critical_alphas(j)

    def test_explicit_level_outside_interval_rejected(self, tmp_path):
        j = ingest_csv(self.sample_csv(tmp_path))
        with pytest.raises(ValueError):
            run_report(j, [F(3, 2)])

    def test_relation_column_consistency(self, tmp_path):
        j = ingest_csv(self.sample_csv(tmp_path))
        for row in run_report(j).var_table:
            assert row.sum_of_vars == sum(row.marginal_vars)
            expected = (
                "<"
                if row.var_sum < row.sum_of_vars
                else ("=" if row.var_sum == row.sum_of_vars else ">")
            )
            assert row.relation == expected

    @given(generated_joints(max_n=2, max_atoms=4))
    @settings(max_examples=15)
    def test_json_is_deterministic(self, j):
        assert run_report(j).to_json() == run_report(j).to_json()

    @given(joints(), st.lists(open_unit_fractions, max_size=3))
    @settings(max_examples=30)
    def test_json_table_matches_the_fraction_view(self, j, alphas):
        # the JSON rows are made from integers, the var_table view from Fractions
        report = run_report(j, alphas or None)
        text = "{0.numerator}/{0.denominator}".format
        assert json.loads(report.to_json())["var_table"] == [
            {
                "alpha": text(r.alpha_star),
                "marginal_vars": [text(v) for v in r.marginal_vars],
                "var_of_sum": text(r.var_sum),
                "sum_of_vars": text(r.sum_of_vars),
                "relation": r.relation,
            }
            for r in report.var_table
        ]
        for a, r in zip(alphas, report.var_table):
            assert r.alpha_star == a
            assert r.marginal_vars == tuple(m.quantile(a) for m in j.marginals())
            assert r.var_sum == j.sum_distribution().quantile(a)

    @given(joints(), st.none() | st.lists(open_unit_fractions, max_size=3))
    @example(JointDiscreteDistribution.from_weighted_points([((F(1), F(-2), F(1, 3)), 1)]), [])
    @settings(max_examples=30)
    def test_csv_table_matches_the_fraction_view(self, j, alphas):
        # the CSV floats are int / int of the integer rows, here float(Fraction);
        # no levels give the header alone
        report = run_report(j, alphas)
        header = ["alpha", *(f"var_{i + 1}" for i in range(j.dimension))]
        lines = [",".join([*header, "var_of_sum", "sum_of_vars", "relation"])]
        for r in report.var_table:
            values = (r.alpha_star, *r.marginal_vars, r.var_sum, r.sum_of_vars)
            lines.append(",".join([*(f"{float(x):.12g}" for x in values), r.relation]))
        assert cli._var_table_csv(j.dimension, report.scale, report.rows) == "\n".join(lines) + "\n"

    @given(joints())
    @settings(max_examples=30)
    def test_explicit_breakpoints_give_the_sweep_rows(self, j):
        # one row builder serves the sweep's levels and explicit ones
        assert run_report(j, critical_alphas(j)[:-1]).var_table == run_report(j).var_table[:-1]

    @given(joints(), st.lists(open_unit_fractions, max_size=3))
    # marginals and sum law on different coordinate and probability denominators
    @example(JointDiscreteDistribution.from_weighted_points(
        [((F(1, 3), F(1)), 1), ((F(1, 3), F(5, 4)), 2), ((F(1, 2), F(5, 4)), 3)]), [F(1, 4)])
    @settings(max_examples=40)
    def test_explicit_levels_match_the_fraction_oracle(self, j, drawn):
        # the Fraction oracle bisects each law's own cumulative probabilities, at
        # every breakpoint but 1, strictly between consecutive ones, and at drawn levels
        laws = [*fraction_oracle.marginals(j.points), fraction_oracle.sum_law(j.points)]
        cums = [fraction_oracle.cumulative(law) for law in laws]
        breakpoints = sorted(set().union(*cums))
        between = [(a + b) / 2 for a, b in zip([0, *breakpoints], breakpoints)]
        alphas = [*breakpoints[:-1], *between, *drawn]
        table = run_report(j, alphas).var_table
        assert len(table) == len(alphas)
        for a, row in zip(alphas, table):
            *vs, var_sum = (fraction_oracle.quantile_step(law, cum, a) for law, cum in zip(laws, cums))
            assert row.alpha_star == a
            assert row.marginal_vars == tuple(vs)
            assert (row.var_sum, row.sum_of_vars) == (var_sum, sum(vs))


_weighted = JointDiscreteDistribution.from_weighted_points


def _stdlib_json(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestJsonText:
    # the VaR table is written by a row template, the rest by json.dumps
    @given(
        joints(max_n=4),
        st.none() | st.lists(open_unit_fractions, max_size=3),
    )
    # a witness and empty levels; no witness and explicit levels; n = 4 and the sweep's levels
    @example(_weighted([((F(-1, 3), F(2)), 1), ((F(1), F(-7, 6)), 2)]), [])
    @example(_weighted([((F(-1, 3), F(1), F(0)), 1), ((F(1), F(7, 6), F(5, 11)), 2)]), [F(1, 3), F(1, 2)])
    @example(_weighted([((F(k), F(-k), F(k, 7), F(1, 3)), k) for k in range(1, 4)]), None)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_stdlib_indented_encoder(self, j, alphas):
        report = run_report(j, alphas)
        text = report.to_json()
        assert text == _stdlib_json(text)
        if alphas == []:
            assert '"var_table": []' in text
        if not alphas:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/j.csv"
            header = ",".join([f"x{i + 1}" for i in range(j.dimension)] + ["weight"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header + "\n" + "".join(
                    ",".join([f"{x}/{j.coord_denom}" for x in xs] + [str(c)]) + "\n"
                    for xs, c in zip(j.xs, j.counts)
                ))
            rc, out, _ = run_main(["var", path] + [f"--alpha={a}" for a in alphas])
        assert rc == 0 and out == _stdlib_json(out)
        payload = json.loads(text)
        assert json.loads(out) == {
            k: payload[k] for k in ("input_digest", "tool_version", "var_table")
        }

    @given(joints(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_couple_matches_the_stdlib_indented_encoder(self, j):
        # non-decimal coordinates print only under --output json
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/j.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(
                    ",".join([f"{x}/{j.coord_denom}" for x in xs] + [str(c)]) + "\n"
                    for xs, c in zip(j.xs, j.counts)
                ))
            argv = ["couple", path, "--no-header", "--weight-column", str(j.dimension)]
            rc, text, _ = run_main([*argv, "--output", "json"])
        assert rc == 0 and text == _stdlib_json(text)
        coupled = comonotonic_coupling(j.marginals())
        points = [(tuple(map(F, p["coords"])), F(p["prob"])) for p in json.loads(text)["points"]]
        assert points == list(coupled.points)

    @pytest.mark.parametrize("key", ["a", "m", "z"])  # sorts first, in the middle, last
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_table_at_any_sorted_position(self, key, n):
        payload = {"d": 2, "k": [1, "x"], "q": {"r": None}, "w": "v"}
        points = [([f"{i}/3", f"-{i}/7"][: 1 + i % 2], f"1/{i + 2}") for i in range(n)]
        rows = [(cli._ITEMS.join(coords), prob) for coords, prob in points]
        expected = {**payload, key: [{"coords": c, "prob": p} for c, p in points]}
        assert cli._json_text(payload, key, cli._POINT_JSON, rows) == (
            json.dumps(expected, sort_keys=True, indent=2) + "\n"
        )

    def test_no_table_is_the_stdlib_dump(self):
        payload = {"b": [float("inf"), -0.0], "a": {"c": "1/3"}}
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestCommands:
    def losses(self, tmp_path):
        return write(tmp_path, "l.csv", "x,y\n0,0\n0,1\n1,0\n1,1\n")

    def test_var_json(self, tmp_path):
        rc, out, _ = run_main(["var", self.losses(tmp_path), "--alpha", "1/2"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["var_table"][0]["relation"] == ">"
        assert payload["var_table"][0]["var_of_sum"] == "1/1"

    def test_var_requires_alpha(self, tmp_path):
        rc, _, err = run_main(["var", self.losses(tmp_path)])
        assert rc == 2
        assert "alpha" in err

    def test_report_json_and_determinism(self, tmp_path):
        argv = ["report", self.losses(tmp_path)]
        rc1, out1, _ = run_main(argv)
        rc2, out2, _ = run_main(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["comonotonic"]["comonotonic"] is False
        assert payload["theorem_flags"]["subadditive_everywhere"] is False
        assert payload["comonotonic"]["witness"] is not None

    def test_report_csv_output(self, tmp_path):
        rc, out, _ = run_main(
            ["report", self.losses(tmp_path), "--output", "csv"]
        )
        assert rc == 0
        header = out.splitlines()[0].split(",")
        assert header == ["alpha", "var_1", "var_2", "var_of_sum", "sum_of_vars", "relation"]

    def test_report_to_file(self, tmp_path):
        target = tmp_path / "out.json"
        rc, out, _ = run_main(
            ["report", self.losses(tmp_path), "--out", str(target)]
        )
        assert rc == 0 and out == ""
        json.loads(target.read_text())

    @pytest.mark.parametrize("command, text, extra", [
        ("report", "x,y\n1,2\n3,abc\n", []),
        ("report", "x,y\n0,0\n1,1\n", ["--alpha", "3/2"]),
        ("report", "x\n1e400\n2\n", ["--output", "csv"]),  # beyond the float range
        ("var", "x,y\n0,0\n1,1\n", []),
        ("couple", "a\n1/3\n1\n", []),  # no decimal cell holds 1/3
    ])
    def test_an_input_error_leaves_no_output_file(self, tmp_path, command, text, extra):
        target = tmp_path / "out.txt"
        argv = [command, write(tmp_path, "in.csv", text), *extra, "--out", str(target)]
        rc, out, err = run_main(argv)
        assert (rc, out) == (2, "") and err.startswith("error: ")
        assert not target.exists()

    def test_couple_output_round_trips(self, tmp_path):
        m = write(tmp_path, "m.csv", "a,b\n0,0\n1,2\n1,2\n0,4\n")
        rc, out, _ = run_main(["couple", m])
        assert rc == 0
        path = write(tmp_path, "coupled.csv", out)
        j = ingest_csv(path)
        from varlab import is_comonotonic

        assert is_comonotonic(j).comonotonic

    def test_couple_csv_names_json_for_non_decimal_values(self, tmp_path):
        m = write(tmp_path, "m.csv", "a\n1/3\n1\n")
        rc, out, err = run_main(["couple", m])
        assert (rc, out) == (2, "")
        assert err == "error: 1/3 has no finite decimal expansion; --output json prints it exactly\n"

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_var_runs_neither_the_sweep_nor_the_chain_check(self, tmp_path, monkeypatch, output):
        argv = ["var", self.losses(tmp_path), "--alpha", "1/2", "--alpha", "0.9", "--output", output]
        expected = run_main(argv)

        def forbidden(j):
            raise AssertionError("var must not run this")

        monkeypatch.setattr(cli, "subadditivity_report", forbidden)
        monkeypatch.setattr(cli, "is_comonotonic", forbidden)
        assert run_main(argv) == expected
        assert expected[0] == 0

    def test_simulate_deterministic(self, tmp_path):
        argv = ["simulate", "--trials", "6", "--seed", "11"]
        rc1, out1, _ = run_main(argv)
        rc2, out2, _ = run_main(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["all_consistent"] is True
        assert payload["consistent_trials"] == 6

    def test_simulate_csv_rows(self, tmp_path):
        rc, out, _ = run_main(
            ["simulate", "--trials", "4", "--seed", "2", "--output", "csv"]
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("trial,kind,n,")

    def test_simulate_invariant_breach_exits_3(self, tmp_path, monkeypatch):
        broken = TrialVerdict(
            comonotonic=True,
            subadditive_everywhere=False,
            additive_everywhere=False,
            consistent=False,
        )
        monkeypatch.setattr(cli, "equivalence_trial", lambda j: broken)
        rc, out, err = run_main(["simulate", "--trials", "2", "--seed", "0"])
        assert rc == 3
        assert err == "internal invariant breach: equivalence violated in 2 trial(s)\n"
        # the output is written before the breach is reported
        payload = json.loads(out)
        assert (payload["trials"], payload["consistent_trials"], payload["all_consistent"]) == (2, 0, False)

    def test_elliptic_json(self, tmp_path):
        spec = write(
            tmp_path, "g.json", '{"mean": [0, 0], "covariance": [[1, 0], [0, 1]]}'
        )
        rc, out, _ = run_main(["elliptic", spec, "--alpha", "0.95"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["comonotone_condition"] is False
        assert payload["var_table"][0]["gap"] > 0

    def test_elliptic_rejects_bad_spec(self, tmp_path):
        spec = write(tmp_path, "g.json", '{"mean": [0, 0]}')
        rc, _, err = run_main(["elliptic", spec])
        assert rc == 2
        assert "covariance" in err

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"mean": {"a": 1}, "covariance": [[1]]}', "mean"),
            ('{"mean": [0], "covariance": [["x"]]}', "covariance"),
            ('{"mean": [0, 1], "covariance": [[1, 0], [0]]}', "covariance"),
        ],
    )
    def test_elliptic_names_malformed_field(self, tmp_path, text, field):
        rc, out, err = run_main(["elliptic", write(tmp_path, "g.json", text)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be")

    def test_missing_file_exits_2(self):
        rc, _, err = run_main(["report", "/definitely/not/here.csv"])
        assert rc == 2
        assert "error" in err

    def test_bad_alpha_exits_2(self, tmp_path):
        rc, _, err = run_main(
            ["var", self.losses(tmp_path), "--alpha", "1.5"]
        )
        assert rc == 2

    def test_alphas_file(self, tmp_path):
        alphas = write(tmp_path, "alphas.txt", "# levels\n1/2\n0.75\n")
        rc, out, _ = run_main(
            ["var", self.losses(tmp_path), "--alphas-file", alphas]
        )
        assert rc == 0
        payload = json.loads(out)
        assert [row["alpha"] for row in payload["var_table"]] == ["1/2", "3/4"]

    def test_byte_order_mark_in_alphas_file_and_spec(self, tmp_path):
        # as CSV input, a levels file and an elliptic spec may start with a UTF-8 BOM
        spec = '{"mean": [0, 1], "covariance": [[1, 0.5], [0.5, 2]]}'
        for argv, name, text in [
            (["var", self.losses(tmp_path), "--alphas-file"], "levels.txt", "1/2\n0.75\n"),
            (["elliptic", "--alphas-file", write(tmp_path, "l.txt", "0.9\n")], "g.json", spec),
        ]:
            plain, bom = tmp_path / f"plain-{name}", tmp_path / f"bom-{name}"
            plain.write_text(text, encoding="utf-8")
            bom.write_text(text, encoding="utf-8-sig")
            assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
            expected = run_main([*argv, str(plain)])
            assert expected[0] == 0
            assert run_main([*argv, str(bom)]) == expected

    @pytest.mark.parametrize("text, message", [
        ("1/2\na,b\n", "line 2: cannot parse 'a,b' as a number"),
        ("# levels\n\n0.5  # median\n3/2\n", "line 4: alpha must lie strictly inside (0, 1), got 3/2"),
    ])
    def test_alphas_file_errors_name_file_and_line(self, tmp_path, text, message):
        alphas = write(tmp_path, "levels.txt", text)
        rc, out, err = run_main(["var", self.losses(tmp_path), "--alphas-file", alphas])
        assert (rc, out, err) == (2, "", f"error: {alphas}: {message}\n")

    @pytest.mark.parametrize("level, message", [
        ("a,b", "alpha: cannot parse 'a,b' as a number"),
        ("3/2", "alpha must lie strictly inside (0, 1), got 3/2"),
    ])
    def test_alpha_errors(self, tmp_path, level, message):
        rc, out, err = run_main(["var", self.losses(tmp_path), "--alpha", level])
        assert (rc, out, err) == (2, "", f"error: {message}\n")
