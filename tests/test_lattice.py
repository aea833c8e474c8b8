"""Differential tests: the integer-lattice kernel against the Fraction oracle.

Every derived quantity (marginals, the sum law, each breakpoint verdict, the
comonotone verdict and its witness, the min-copula and convex-order checks)
is computed twice, by the package and by `fraction_oracle` from the law's
Fraction points, and must agree exactly. The seeded generators must also
reproduce the oracle's instance for every seed. CSV cells, which parse
straight to integer pairs, must give the oracle's Fraction parse and laws.
"""

import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import fraction_oracle as oracle
import oracles
from varlab import (
    DiscreteDistribution,
    GeneratorSpec,
    JointDiscreteDistribution,
    comonotonic_coupling,
    convex_order_leq,
    convex_order_max_check,
    critical_alphas,
    is_comonotonic,
    min_copula_check,
    random_comonotonic,
    random_coupling,
    stop_loss,
    subadditivity_report,
)
from varlab.cli import MAX_NUMBER_DIGITS, _NotANumber, _parse_number, ingest_csv

N_PER_KIND = 1000
MAX_ATOMS = 8


def assert_matches_oracle(j: JointDiscreteDistribution) -> None:
    points = j.points
    # a fresh law projects its marginals; generated ones may carry them cached
    fresh = JointDiscreteDistribution(points)
    assert fresh == j
    ms = oracle.marginals(points)
    s = oracle.sum_law(points)
    # equal atoms, and the same lattice form as the public canonicalization
    assert tuple(m.atoms for m in j.marginals()) == ms
    assert j.marginals() == fresh.marginals() == tuple(map(DiscreteDistribution, ms))
    assert j.sum_distribution().atoms == s
    assert j.sum_distribution() == DiscreteDistribution(s)

    verdicts, subadditive, additive, first = oracle.subadditivity(ms, s)
    report = subadditivity_report(j)
    got = [
        (v.alpha_star, v.var_sum, v.sum_of_vars, v.relation, v.marginal_vars)
        for v in report.verdicts
    ]
    assert got == list(verdicts)
    assert report.breakpoints == critical_alphas(j) == tuple(v[0] for v in verdicts)
    assert (
        report.subadditive_everywhere, report.additive_everywhere, report.first_violation
    ) == (subadditive, additive, first)

    witness = oracle.chain_witness(j.support())
    verdict = is_comonotonic(j)
    assert (verdict.comonotonic, verdict.witness) == (witness is None, witness)

    assert min_copula_check(j) == oracle.min_copula(points, ms)
    rearranged = comonotonic_coupling(j.marginals())
    expected = oracle.comonotonic_coupling(ms)
    assert rearranged.points == expected
    assert rearranged == JointDiscreteDistribution(expected)
    rearranged_sum = oracle.sum_law(expected)
    assert convex_order_max_check(j) == (s == rearranged_sum)
    leq = convex_order_leq(j.sum_distribution(), rearranged.sum_distribution())
    assert (leq.holds, leq.mean_equal, leq.witness_c) == oracle.convex_order_leq(s, rearranged_sum)


@pytest.mark.parametrize("kind, base_seed", [("comonotonic", 303), ("coupling", 404)])
def test_seeded_instances_match_oracle(kind, base_seed):
    make, make_oracle = {
        "comonotonic": (random_comonotonic, oracle.random_comonotonic),
        "coupling": (random_coupling, oracle.random_coupling),
    }[kind]
    for i in range(N_PER_KIND):
        meta = random.Random((base_seed << 32) ^ i)
        n = meta.randint(1, 4)
        seed = meta.getrandbits(48)
        j = make(seed, GeneratorSpec(n=n, max_atoms=MAX_ATOMS))
        assert j.points == make_oracle(seed, n, MAX_ATOMS), (kind, seed, n)
        assert_matches_oracle(j)


# Wide rationals: negative, non-decimal, mixed denominators within one law.
wide_values = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=F(-50), max_value=F(50), max_denominator=60),
)
weights = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)


@st.composite
def wide_joints(draw):
    n = draw(st.integers(1, 4))
    pairs = draw(
        st.lists(st.tuples(st.tuples(*([wide_values] * n)), weights), min_size=1, max_size=10)
    )
    return pairs


@given(wide_joints())
# identical marginals: every law's levels coincide, so each sweep step moves every index
@example([((F(-1, 3), F(-1, 3)), F(1)), ((F(2), F(2)), F(3)), ((F(5), F(5)), F(1, 2))])
def test_weighted_points_match_oracle(pairs):
    j = JointDiscreteDistribution.from_weighted_points(pairs)
    total = sum(w for _, w in pairs)
    assert j.points == oracle.canonical(
        (tuple(F(c) for c in coords), w / total) for coords, w in pairs
    )
    assert_matches_oracle(j)


@given(
    st.lists(st.tuples(wide_values, weights), min_size=1, max_size=10),
    st.lists(st.tuples(wide_values, weights), min_size=1, max_size=10),
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    wide_values,
)
def test_distribution_queries_match_oracle(pairs_a, pairs_b, alpha, x):
    a = DiscreteDistribution.from_weighted_values(pairs_a)
    b = DiscreteDistribution.from_weighted_values(pairs_b)
    total = sum(w for _, w in pairs_a)
    assert a.atoms == oracle.canonical((F(v), w / total) for v, w in pairs_a)
    assert a.cumulative == oracle.cumulative(a.atoms)
    assert a.quantile(alpha) == oracles.quantile_scan(a, alpha)
    assert a.cdf(x) == oracles.cdf_scan(a, x)
    assert a.mean() == oracles.mean_scan(a)
    assert stop_loss(a, x) == oracles.stop_loss_scan(a, x)
    assert a.shift(x).atoms == oracle.canonical((v + x, p) for v, p in a.atoms)
    assert a.scale(x).atoms == oracle.canonical((v * x, p) for v, p in a.atoms)
    leq = convex_order_leq(a, b)
    assert (leq.holds, leq.mean_equal, leq.witness_c) == oracle.convex_order_leq(a.atoms, b.atoms)


def parse_outcome(parse, text):
    """("value", v), ("not a number", message) or ("out of range", message)."""
    try:
        value = parse(text, "cell")
    except _NotANumber as exc:
        return "not a number", str(exc)
    except ValueError as exc:
        return "out of range", str(exc)
    return "value", value


number_texts = st.one_of(
    st.text(alphabet="0123456789+-.eE/_ \t\u0663", max_size=14),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-", "+."]), st.integers(0, 999),
              st.integers(-MAX_NUMBER_DIGITS - 5, MAX_NUMBER_DIGITS + 5)),
    st.integers(MAX_NUMBER_DIGITS - 3, MAX_NUMBER_DIGITS + 3).map(lambda k: "1" * k),
    st.integers(MAX_NUMBER_DIGITS - 5, MAX_NUMBER_DIGITS + 1).map(lambda k: "." + "0" * k + "5"),
)


@given(number_texts)
@example("1/0")
@example("0_0/0")
@example(" -1_000.000_1e+1_0 ")
@example("+.5E-3")
@example("1.e5")
@example("1 / 2")
@example("\u0663/\u0667")
def test_cell_parse_matches_fraction_oracle(text):
    got = parse_outcome(_parse_number, text)
    want = parse_outcome(oracle.parse_number, text)
    if want[0] == "value":
        assert got == ("value", (want[1].numerator, want[1].denominator))
    else:
        assert got == want


csv_cells = st.one_of(
    st.integers(-999, 999).map(str),
    st.builds("{}.{:02d}".format, st.integers(-99, 99), st.integers(0, 99)),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 12)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-4, 4)),
    st.builds("+.{}_{}".format, st.integers(0, 9), st.integers(0, 9)),
)
csv_weights = st.one_of(
    st.integers(1, 20).map(str),
    st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 9)),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-2, 2)),
)


@given(st.integers(1, 3), st.booleans(), st.data())
def test_csv_laws_match_fraction_oracle(ncols, weighted, data):
    # small pools make texts repeat across rows and columns, so the
    # per-text parse memo of ingest_csv is hit
    cell_texts = st.sampled_from(data.draw(st.lists(csv_cells, min_size=1, max_size=3))) | csv_cells
    weight_texts = st.sampled_from(data.draw(st.lists(csv_weights, min_size=1, max_size=2))) | csv_weights
    rows = data.draw(st.lists(
        st.tuples(st.lists(cell_texts, min_size=ncols, max_size=ncols), weight_texts),
        min_size=1, max_size=24,
    ))
    header = [f"x{i}" for i in range(ncols)] + ["weight"] * weighted
    lines = [header] + [cells + [w] * weighted for cells, w in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.csv")
        path.write_text("\n".join(map(",".join, lines)) + "\n", encoding="utf-8")
        j = ingest_csv(path)
    pairs = [
        (tuple(oracle.parse_number(c, "cell") for c in cells),
         oracle.parse_number(w, "weight") if weighted else F(1))
        for cells, w in rows
    ]
    assert j == JointDiscreteDistribution.from_weighted_points(pairs)
    total = sum(w for _, w in pairs)
    assert j.points == oracle.canonical((coords, w / total) for coords, w in pairs)
