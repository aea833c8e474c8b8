"""The golden cases: the CLI's inputs, its arguments and the sha256 of its
stdout on each, and the stdout and stderr of the exit-3 breach case.

`tests/test_golden.py` runs them in-process and `tools/golden_versions.py`
as `python -m varlab` children under each interpreter it is given, so this
module imports nothing but the standard library and `bench/gen.py`.

The digests were recorded from the Fraction-based implementation that the
integer-lattice kernel replaced, and those of the grammar and bench inputs
from the per-cell Fraction parser that the integer cell parse replaced.
Those of `elliptic`, of `var --output json` on the bench input and of the
exit-3 case were recorded from the stdlib's indented `json.dumps`, which
again writes every payload but the VaR table rows, which one text template
writes; those of `couple-bench-json` and `var-one` were recorded from the
hand-written encoder that the two replaced. That of `report tiny.csv --output
csv` was recorded from the floats of the `Fraction` view, which those of the
integer rows replaced. That of `simulate-coupling-atoms8-csv` was recorded
with the generators on `random.Random`'s own `shuffle` and `randint`, which
`_shuffle` and `_below` on its `getrandbits` replaced. That of
`couple-mixed-json` (four columns, with the coordinates 1/3 and 2/7) was
recorded from the dict-per-point `json.dumps` that the one table writer,
`cli._json_text`, replaced.
"""

import importlib.util
from pathlib import Path


def _bench_gen():
    """bench/gen.py, loaded read-only by path; it does not import varlab."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _bench_gen()

INPUTS = {
    # dependent, not comonotonic: a witness, a '>' row, weights, negatives
    "mixed.csv": "a,b,weight\n0.5,1,2\n-1.25,3,1\n2,0.1,1\n0.5,1,1\n3,-2,3\n1/3,2/7,1\n",
    # comonotonic, no header, duplicate rows
    "chain.csv": "0,1\n0.25,1\n0.25,1\n1,2.5\n4,2.5\n-3,-1\n",
    # independent Bernoulli(3/10) pair as weighted points
    "bern.csv": "x,y,weight\n0,0,49\n0,1,21\n1,0,21\n1,1,9\n",
    "one.csv": "loss\n7\n-2\n7\n0.125\n",
    # every branch of the number grammar, in losses and in weights
    "grammar.csv": (
        "a,b,weight\n+1_000.5,3/8,2\n.25e1,-1e-2,1_0\n1/3,+.5,3/2\n-2.5E+1,7,1e1\n"
        "0.125,1_2/4,1\n+.75,2e0,.5\n-3.,-0.000_1,2.5e-1\n1e3,1_2/4,+3\n"
    ),
    # the benchmark's decimal cents, 2,000 rows
    "bench.csv": gen.csv_text(gen.csv_rows(1, 2_000)),
    # a coordinate denominator of 10**400: the floats of `--output csv`
    # must come from the exact ratios, and some round to -0 and 0
    "tiny.csv": "1e-400,1\n2,3\n5,-1e-390\n",
    # a correlated 3-dimensional Gaussian
    "spec3.json": (
        '{"mean": [1, -0.5, 2.25], '
        '"covariance": [[1, 0.3, -0.2], [0.3, 2, 0.5], [-0.2, 0.5, 1.5]]}'
    ),
}

CASES = {
    "report-mixed": ["report", "mixed.csv"],
    "report-mixed-csv": ["report", "mixed.csv", "--output", "csv"],
    "report-mixed-alphas": ["report", "mixed.csv", "--alpha", "0.3", "--alpha", "39/40"],
    "report-chain": ["report", "chain.csv"],
    "report-tiny-csv": ["report", "tiny.csv", "--output", "csv"],
    "report-bern": ["report", "bern.csv"],
    "report-one": ["report", "one.csv"],
    "var-bern": ["var", "bern.csv", "--alpha", "0.5", "--alpha", "0.95"],
    "var-one": ["var", "one.csv", "--alpha", "1/2"],
    "var-mixed-csv": ["var", "mixed.csv", "--alpha", "1/2", "--output", "csv"],
    "report-grammar": ["report", "grammar.csv"],
    "var-grammar-csv": ["var", "grammar.csv", "--alpha", "1/3", "--alpha", ".95", "--output", "csv"],
    "report-bench": ["report", "bench.csv"],
    "report-bench-csv": ["report", "bench.csv", "--output", "csv"],
    "var-bench-json": [
        "var", "bench.csv", "--alpha", "0.01", "--alpha", "1/3", "--alpha", "0.95",
        "--output", "json",
    ],
    "elliptic": ["elliptic", "spec3.json"],
    "elliptic-csv": ["elliptic", "spec3.json", "--output", "csv"],
    "couple": ["couple", "chain.csv", "one.csv"],
    "couple-json": ["couple", "bern.csv", "one.csv", "--output", "json"],
    "couple-bench-json": ["couple", "bench.csv", "one.csv", "--output", "json"],
    "couple-mixed-json": ["couple", "mixed.csv", "chain.csv", "--output", "json"],
    "simulate": ["simulate", "--seed", "7", "--trials", "150"],
    "simulate-csv": ["simulate", "--seed", "11", "--trials", "150", "--output", "csv"],
    "simulate-coupling-csv": [
        "simulate", "--seed", "3", "--trials", "100", "--kind", "coupling",
        "--max-atoms", "5", "--output", "csv",
    ],
    "simulate-coupling-atoms8-csv": [
        "simulate", "--kind", "coupling", "--max-n", "4", "--max-atoms", "8",
        "--trials", "200", "--output", "csv",
    ],
}

GOLDEN = {
    "couple": "f7c4c6a0c2c18af09e800aa5470d7809dab79b1f84a84ebfcd4618c35d3c9bcc",
    "couple-bench-json": "7010d8cbbaa70f295e23c0ed4159e89e76e183021bb62ff25a186d77219a8f0b",
    "couple-json": "e415c9288468e2817bfecb91ac717ce4f38790a914a335be50915415f4d25a5b",
    "couple-mixed-json": "82a7e32845be55cbb0af278f3d01530a71f8062e16d7fb6d527ea3a6c196eb55",
    "elliptic": "2f387aa627d137150835894bf34260a9358138b643e94c9243ccf93381aa5518",
    "elliptic-csv": "4fa2059b597a2ae06259b6ee4598a090263d088eac0451c4ef357005b8c68152",
    "report-bench": "432b72d3340e4628ffda03684b82ddee1603503f52426abf9c0be4a029aaf623",
    "report-bench-csv": "befb6590effa7940e17206af12326d10e275f4142abd781885af6e7fd3c42db2",
    "report-bern": "cc51c9b4c60bfff7ff111536004ac5cbb529de0132aa63b43579e6dee8a66f86",
    "report-chain": "a6fc94676449b7443b05e9e6e4e5de4a1d996120786aafb994623a3a7c634e93",
    "report-grammar": "bdf0aed51f83e7c480924ec95603455baa9741e467ea864ab252dd43bfc2a254",
    "report-mixed": "b025dda6c9424786d9258668d17f6a92a5d01df108f1ebb67c4314efd2b4eafa",
    "report-mixed-alphas": "146a45c1330d112eeb09e43ad0e175c8ba4d7a22bf456f7760e22eb07a9eb5df",
    "report-mixed-csv": "1afc7f71a86d6fb9c8f0d757d7fd0d67e479a2d2fb46e03cd00a799dc65c9767",
    "report-one": "1a09431c5fa78c7b33480fc02e42ba3d8805ddc6acd5fac432935280069fd6a9",
    "report-tiny-csv": "641e94261c9dd9b4d18affeca787c068471dd8d8a12b86bc64e108b759ee2906",
    "simulate": "83fb22f22bb399bdd2ba53539751f3632ee048ded6964fef6571d4e297d079e1",
    "simulate-coupling-atoms8-csv": "bba37bd0caeac26a2ce4083650152792b0e3e359171b3f8075c5381eb20ea9e5",
    "simulate-coupling-csv": "e8d2541b35865847b0d0f814b89477dab2ef3f00ee1c367b5c1503386d5f6dbe",
    "simulate-csv": "988150ae556b68a880c0dd007950c9e4e81de8f5e17f905d9c41654007c9117a",
    "var-bench-json": "1fdce75e1cb09fc87dd87550fa8b7188975bac1957c652cfe88c16b4420bfc4b",
    "var-bern": "e7a5b0e753568cc494150effb9aa6931a8f75a8e498ddb38ece1777f0327a706",
    "var-grammar-csv": "c43427e8071849fef40d8e80ce20414b376e86079e3b0ec5aa007721623eefef",
    "var-mixed-csv": "b4df67cc8c2b4cbb9c068d58444299477accfc32e76dee0d6435ed3c7b687314",
    "var-one": "2d19174762a2fec0b71d0d2645faa3d23e08da25da8e2513134e2481debdf601",
}


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


# `report bern.csv` with a detector that wrongly calls the independent pair
# comonotonic: the flags disagree, so the report still prints but exits 3.
BREACH = ["report", "bern.csv"]
BREACH_STDOUT = "1c3931dd0f8c86e85675203a74bee6bfafdbc69a921096345ce7e721d03d9066"
BREACH_STDERR = "internal invariant breach: comonotonicity and subadditivity flags disagree\n"
