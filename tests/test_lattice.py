"""Differential tests: the integer-lattice kernel against the Fraction oracle.

Every derived quantity (marginals, the sum law, each breakpoint verdict, the
comonotone verdict and its witness, the min-copula and convex-order checks)
is computed twice, by the package and by `fraction_oracle` from the law's
Fraction points, and must agree exactly. The seeded generators must also
reproduce the oracle's instance for every seed. CSV cells, which parse
straight to integer pairs, must give the oracle's Fraction parse and laws.
"""

import math
import random
import tempfile
from fractions import Fraction as F
from operator import add, lt
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
from varlab.distributions import _law, _merged

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
# the second marginal repeats a negative value out of order, the sum repeats
# both of its negative and positive values, and both merge to counts (2, 2) with
# a common factor; the first marginal's values are multiples of the scale 3
@example([((F(4), F(-2, 3)), F(1)), ((F(-2), F(-2, 3)), F(1)), ((F(2), F(4, 3)), F(1)),
          ((F(-4), F(4, 3)), F(1))])
# every sum is 2: the sum law merges (6, 6, 6) over 3 into one atom at 2 / 1
@example([((F(2, 3), F(4, 3)), F(1)), ((F(4, 3), F(2, 3)), F(1)), ((F(-2, 3), F(8, 3)), F(2))])
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
    assert a.quantile(alpha) == oracle.quantile_step(a.atoms, oracle.cumulative(a.atoms), alpha)
    assert a.cdf(x) == oracles.cdf_scan(a, x)
    assert a.mean() == oracles.mean_scan(a)
    assert stop_loss(a, x) == oracles.stop_loss_scan(a, x)
    assert a.shift(x).atoms == oracle.canonical((v + x, p) for v, p in a.atoms)
    assert a.scale(x).atoms == oracle.canonical((v * x, p) for v, p in a.atoms)
    leq = convex_order_leq(a, b)
    assert (leq.holds, leq.mean_equal, leq.witness_c) == oracle.convex_order_leq(a.atoms, b.atoms)


# `_merged` merges keys that are not strictly increasing in a dict and skips
# the merge otherwise; on both branches, with int keys as `_law` passes and
# with tuple keys as the joint constructors pass, it must give the oracle's
# points with counts over their gcd, and `_law` the oracle's law in the
# lattice form the public constructors give. ``r`` puts a common factor in
# the scale and the values, ``g`` one in the counts.
@given(
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 9)), min_size=1, max_size=8),
    st.booleans(),
    st.integers(1, 6),
    st.integers(1, 6),
)
@example(2, [(2, 1)], True, 1, 1)  # one value, 2/2: the scale must reduce to 1
@example(6, [(-3, 2), (3, 4), (9, 2)], True, 1, 1)  # values and counts share factors
@example(4, [(1, 1), (1, 1), (-2, 3)], False, 1, 1)  # a repeated value, out of order
@example(3, [(4, 1), (-2, 2), (4, 3), (-5, 1)], False, 2, 3)  # negatives repeated, both factors
def test_law_matches_oracle_on_both_branches(scale, pairs, increasing, r, g):
    if increasing:  # distinct and sorted: the branch without the merge
        pairs = sorted(dict(pairs).items())
    pairs = [(x * r, c * g) for x, c in pairs]
    scale *= r
    xs, counts = zip(*pairs)
    total = sum(counts)
    want = oracle.canonical((F(x, scale), F(c, total)) for x, c in pairs)
    # tuple keys (x // 2, x) sort and collide exactly as x does
    for keys in (xs, [(x // 2, x) for x in xs]):
        points, merged = _merged(iter(keys), counts)
        assert math.gcd(*merged) == 1
        want_points = oracle.canonical((k, F(c, total)) for k, c in zip(keys, counts))
        assert tuple(zip(points, (F(c, sum(merged)) for c in merged))) == want_points
    law = _law(scale, iter(xs), counts)
    assert law.atoms == want
    assert law == DiscreteDistribution(want)
    assert law == DiscreteDistribution.from_weighted_values([(F(x, scale), c) for x, c in pairs])


@st.composite
def chains(draw):
    """Weighted points of a comonotonic joint law: a start and componentwise
    nondecreasing steps in halves and thirds, so sums can reduce (1/2 + 1/2)
    and single coordinates can repeat."""
    n = draw(st.integers(1, 4))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    step = st.fractions(min_value=0, max_value=2, max_denominator=3)
    points = [draw(st.tuples(*[coord] * n))]
    for delta in draw(st.lists(st.tuples(*[step] * n).filter(any), max_size=7)):
        points.append(tuple(map(add, points[-1], delta)))
    return [(p, draw(st.integers(1, 9))) for p in points]


@given(chains())
@example([((F(1, 2), F(1, 2)), 1)])  # one point whose sum 2/2 must reduce to 1
@example([((F(1, 2),), 1), ((F(3, 2),), 2)])  # n = 1: the marginal is the sum
@example([((F(0), F(1, 2)), 1), ((F(0), F(3, 2)), 1), ((F(1), F(3, 2)), 1)])  # repeats
def test_chain_sum_and_marginals_match_oracle(pairs):
    j = JointDiscreteDistribution.from_weighted_points(pairs)
    assert is_comonotonic(j).comonotonic
    sums = list(map(sum, j.xs))
    assert all(map(lt, sums, sums[1:]))  # so the sum law skips the merge
    s = oracle.sum_law(j.points)
    assert j.sum_distribution().atoms == s
    assert j.sum_distribution() == DiscreteDistribution(s)
    for i, m in enumerate(j.marginals()):
        assert m.atoms == oracle.marginal(j.points, i)
        assert m == DiscreteDistribution(oracle.marginal(j.points, i))


@given(st.data())
def test_min_copula_on_a_full_grid(data):
    """n = 4 marginals of 4 atoms each, so the grid has 256 cells: each column
    is 8 unit cells of mass 1/8, sorted for the comonotonic coupling and
    shuffled for the other joint law."""
    sorted_columns, shuffled_columns = [], []
    for _ in range(4):
        values = sorted(data.draw(st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=4, max_size=4, unique=True
        )))
        cuts = sorted(data.draw(st.lists(st.integers(1, 7), min_size=3, max_size=3, unique=True)))
        cells = [v for v, a, b in zip(values, [0, *cuts], [*cuts, 8]) for _ in range(b - a)]
        sorted_columns.append(cells)
        shuffled_columns.append(data.draw(st.permutations(cells)))
    comonotone, shuffled = (
        JointDiscreteDistribution.from_weighted_points([(p, 1) for p in zip(*columns)])
        for columns in (sorted_columns, shuffled_columns)
    )
    assert is_comonotonic(comonotone).comonotonic
    for j in (comonotone, shuffled):
        assert [len(m) for m in j.marginals()] == [4] * 4
        assert min_copula_check(j) == oracle.min_copula(j.points, oracle.marginals(j.points))
        assert min_copula_check(j) == is_comonotonic(j).comonotonic


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
