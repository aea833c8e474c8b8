import bisect
import copy
import gc
import math
import pickle
import time
import weakref
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

import fraction_oracle
import oracles
from harness import BUDGET_S, within
from strategies import distributions, joints, open_unit_fractions, rational_values
from varlab import (
    DiscreteDistribution,
    GeneratorSpec,
    JointDiscreteDistribution,
    comonotonic_coupling,
    independent_product,
    min_copula_check,
    random_coupling,
)
from varlab.distributions import MAX_SCALE_BITS, LatticeBoundError, _Columns, _common_lattice, _law, _sweep

BERN_3_10 = DiscreteDistribution.bernoulli(F(3, 10))


class TestFromWeightedValues:
    def test_merges_duplicates_and_normalizes(self):
        d = DiscreteDistribution.from_weighted_values([(1, 1), (1, 1), (3, 2)])
        assert d.atoms == ((F(1), F(1, 2)), (F(3), F(1, 2)))

    def test_normalization_identity(self):
        d = DiscreteDistribution.from_weighted_values([(0, 7), (1, 3)])
        assert d.atoms == ((F(0), F(7, 10)), (F(1), F(3, 10)))

    def test_point_mass(self):
        d = DiscreteDistribution.from_weighted_values([(5, 1)])
        assert d.atoms == ((F(5), F(1)),)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_weighted_values([])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDistribution.from_weighted_values([(0, 1), (1, -1)])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteDistribution.from_weighted_values([(0, 0), (1, 0)])


class TestConstruction:
    def test_requires_unit_total(self):
        with pytest.raises(ValueError, match="sum to exactly 1"):
            DiscreteDistribution(((F(0), F(1, 2)), (F(1), F(1, 4))))

    def test_rejects_negative_atom_before_merging(self):
        # the duplicates would merge to a valid point mass at 0
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDistribution(((F(0), F(3, 2)), (F(0), F(-1, 2))))

    def test_drops_zero_probability_atoms(self):
        d = DiscreteDistribution(((F(0), F(1, 2)), (F(1), F(1, 2)), (F(2), F(0))))
        assert d.values == (F(0), F(1))

    def test_values_strictly_increasing(self):
        d = DiscreteDistribution.from_weighted_values([(3, 1), (1, 1), (2, 1)])
        assert list(d.values) == sorted(d.values)
        assert len(set(d.values)) == len(d.values)

    @pytest.mark.parametrize("p", [0, 1])
    def test_bernoulli_rejects_a_degenerate_parameter(self, p):
        with pytest.raises(ValueError, match="^bernoulli parameter must lie strictly inside"):
            DiscreteDistribution.bernoulli(p)


class TestSizeGuardsAtASmallBound:
    """Each size guard fires on its own count, and only past the bound. The
    bound is lowered to 10, so no test here builds a large law. These come
    before the full-size guard tests below, so a mutant that skips a guard
    fails here under ``pytest -x`` before those would build millions of
    points."""

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr("varlab.distributions.MAX_JOINT_POINTS", 10)

    def test_support_of_the_merged_law(self):
        # eleven rows merge to ten points, which the guard admits
        assert len(JointDiscreteDistribution.from_weighted_points([((k % 10,), 1) for k in range(11)])) == 10
        with pytest.raises(ValueError, match="^support of 11 points exceeds the 10-point guard$"):
            DiscreteDistribution.from_weighted_values([(k, 1) for k in range(11)])

    def test_independent_product(self):
        m = DiscreteDistribution.from_weighted_values([(v, 1) for v in range(4)])
        assert len(independent_product(m, BERN_3_10)) == 8
        with pytest.raises(ValueError, match="^independent product of 16 points exceeds the 10-point guard$"):
            independent_product(m, m)

    def test_random_coupling_cells(self):
        spec = GeneratorSpec(n=2, max_atoms=3)
        assert len(random_coupling(5, spec)) == 4  # marginal denominators 5 and 5
        with pytest.raises(ValueError, match="^common denominator 18 exceeds the 10-cell guard$"):
            random_coupling(0, spec)  # marginal denominators 9 and 2


# A row of zero mass leaves before the lattice is fixed: its value 1/6 may
# neither enlarge L past 3 nor stay in the law, whichever constructor runs.
_ZERO_ROW, _ROWS = (F(1, 6), 0), [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))]


@pytest.mark.parametrize("build", [
    DiscreteDistribution,
    DiscreteDistribution.from_weighted_values,
    lambda rows: JointDiscreteDistribution([((v,), p) for v, p in rows]),
    lambda rows: JointDiscreteDistribution.from_weighted_points([((v,), p) for v, p in rows]),
], ids=["probabilities", "weighted-values", "joint-probabilities", "weighted-points"])
def test_a_zero_mass_row_leaves_the_lattice_minimal(build):
    law = build([_ZERO_ROW, *_ROWS])
    assert law.coord_denom == 3
    assert law == build(_ROWS)
    assert build([*_ROWS, _ZERO_ROW]) == law


def test_integer_pairs_cannot_be_passed_in():
    # Integer (numerator, denominator) pairs reach the lattice only from the
    # package's own parsers, which reduce them; a caller passes rationals.
    with pytest.raises(TypeError):
        JointDiscreteDistribution.from_weighted_points([(((2, 4),), (1, 1))], ratios=True)
    with pytest.raises(TypeError):
        JointDiscreteDistribution.from_weighted_points([(((2, 4),), 1)])
    half = JointDiscreteDistribution.from_weighted_points([((F(2, 4),), 1)])
    assert (half.coord_denom, half.xs) == (2, ((1,),))
    assert min_copula_check(half)


def test_pairs_held_by_column_build_the_law_of_their_rows():
    # `_Columns` reach the lattice as they are held; the same pairs, given
    # row by row as rationals, go through `_canonical`.
    columns = [([(1, 2), (-3, 1)], array("q", [0, 1, 0])), ([(2, 3)], bytes(3))]
    held = _Columns(columns, ([(1, 1), (5, 7)], array("q", [1, 0, 1])))
    rows = [((F(1, 2), F(2, 3)), F(5, 7)), ((F(-3), F(2, 3)), 1), ((F(1, 2), F(2, 3)), F(5, 7))]
    assert len(held) == 3
    law = JointDiscreteDistribution.from_weighted_points(held)
    assert law == JointDiscreteDistribution.from_weighted_points(rows)
    assert law.points == (((F(-3), F(2, 3)), F(7, 17)), ((F(1, 2), F(2, 3)), F(10, 17)))


class TestZeroMassRowsAndTheBound:
    # 1 / 3**2100 has a 3,329-bit denominator, past MAX_SCALE_BITS
    TINY = F(1, 3**2100)

    def test_a_zero_mass_row_trips_no_bound(self):
        assert self.TINY.denominator.bit_length() == 3329 > MAX_SCALE_BITS
        j = JointDiscreteDistribution.from_weighted_points([((self.TINY,), 0), ((1,), 1)])
        assert j == JointDiscreteDistribution([((1,), 1)])
        d = DiscreteDistribution([(self.TINY, 0), (1, 1)])
        assert d == DiscreteDistribution.point_mass(1)

    def test_the_bound_names_the_callers_row(self):
        # rows 0 and 1 are zero mass; row 3 takes the lcm of 2**3000 and 3**1000 past the bound
        rows = [((self.TINY, 0), 0), ((0, 0), 0), ((F(1, 2**3000), 0), 1), ((0, F(1, 3**1000)), 1)]
        with pytest.raises(LatticeBoundError) as info:
            JointDiscreteDistribution.from_weighted_points(rows)
        assert (info.value.row, info.value.coordinate) == (3, 1)

    def test_the_probability_bound_names_the_callers_row(self):
        rows = [((0,), 0), ((0,), 1), ((0,), 0), ((1,), 3**2100)]
        with pytest.raises(LatticeBoundError, match="the probability denominator") as info:
            JointDiscreteDistribution.from_weighted_points(rows)
        assert (info.value.row, info.value.coordinate) == (3, None)


class TestCdf:
    def test_bernoulli_at_zero(self):
        assert BERN_3_10.cdf(0) == F(7, 10)

    def test_below_support(self):
        assert BERN_3_10.cdf(-1) == 0

    def test_full_mass(self):
        assert BERN_3_10.cdf(1) == 1


class TestQuantile:
    def test_at_breakpoint(self):
        # oracle: F(0) = 7/10 >= 7/10
        atoms = BERN_3_10.atoms
        assert fraction_oracle.quantile_step(atoms, fraction_oracle.cumulative(atoms), F(7, 10)) == 0
        assert BERN_3_10.quantile(F(7, 10)) == 0

    def test_just_past_breakpoint(self):
        atoms = BERN_3_10.atoms
        assert fraction_oracle.quantile_step(atoms, fraction_oracle.cumulative(atoms), F(71, 100)) == 1
        assert BERN_3_10.quantile(F(71, 100)) == 1

    def test_point_mass_any_level(self):
        d = DiscreteDistribution.point_mass(42)
        for alpha in (F(1, 100), F(1, 2), F(99, 100)):
            assert d.quantile(alpha) == 42

    def test_a_large_law_bisects_its_own_cumulative_counts(self):
        d = DiscreteDistribution.from_weighted_values((k, 1 + k % 7) for k in range(60_000))
        with within(BUDGET_S):
            for k in range(1, 1_001):
                d.quantile(F(k, 1_001))

    @pytest.mark.parametrize("alpha", [F(0), F(1), F(-1, 2), F(3, 2)])
    def test_rejects_levels_outside_open_interval(self, alpha):
        with pytest.raises(ValueError):
            BERN_3_10.quantile(alpha)

    @given(distributions(), open_unit_fractions)
    def test_matches_the_fraction_oracle(self, d, alpha):
        cum = fraction_oracle.cumulative(d.atoms)
        assert d.quantile(alpha) == fraction_oracle.quantile_step(d.atoms, cum, alpha)


class TestMarginal:
    def test_projection(self):
        j = JointDiscreteDistribution((((F(0), F(0)), F(1, 2)), ((F(1), F(1)), F(1, 2))))
        assert j.marginal(0).atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_sums_collisions(self):
        j = JointDiscreteDistribution(
            (((F(0), F(0)), F(1, 4)), ((F(0), F(2)), F(1, 4)), ((F(1), F(0)), F(1, 2)))
        )
        # hand enumeration: column 2 sees 0 with mass 1/4 + 1/2 and 2 with 1/4
        assert j.marginal(1).atoms == ((F(0), F(3, 4)), (F(2), F(1, 4)))

    def test_point_mass_joint(self):
        j = JointDiscreteDistribution((((F(5), F(7)), F(1)),))
        assert j.marginal(1) == DiscreteDistribution.point_mass(7)

    def test_index_out_of_range(self):
        j = JointDiscreteDistribution((((F(5), F(7)), F(1)),))
        with pytest.raises(IndexError):
            j.marginal(2)
        with pytest.raises(IndexError):
            j.marginal(-1)


class TestSumDistribution:
    def test_independent_bernoulli_pair(self):
        # oracle: exact 2x2 product enumeration
        pts = oracles.product_points(BERN_3_10, BERN_3_10)
        j = JointDiscreteDistribution(tuple(pts))
        assert j.sum_distribution().atoms == (
            (F(0), F(49, 100)),
            (F(1), F(42, 100)),
            (F(2), F(9, 100)),
        )

    def test_diagonal_pair(self):
        j = JointDiscreteDistribution((((F(0), F(0)), F(1, 2)), ((F(1), F(1)), F(1, 2))))
        assert j.sum_distribution().atoms == ((F(0), F(1, 2)), (F(2), F(1, 2)))

    def test_point_mass(self):
        j = JointDiscreteDistribution((((F(1), F(2), F(3)), F(1)),))
        assert j.sum_distribution() == DiscreteDistribution.point_mass(6)


class TestMean:
    def test_bernoulli(self):
        assert BERN_3_10.mean() == F(3, 10)

    def test_two_point(self):
        d = DiscreteDistribution(((F(0), F(1, 2)), (F(2), F(1, 2))))
        assert d.mean() == 1

    def test_signed_values(self):
        d = DiscreteDistribution(((F(-1), F(1, 3)), (F(2), F(2, 3))))
        assert d.mean() == 1  # -1/3 + 4/3


class TestJointConstruction:
    def test_merges_duplicate_points(self):
        j = JointDiscreteDistribution(
            (((F(0), F(0)), F(1, 4)), ((F(0), F(0)), F(1, 4)), ((F(1), F(1)), F(1, 2)))
        )
        assert len(j) == 2

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            JointDiscreteDistribution((((F(0),), F(1, 2)), ((F(1), F(2)), F(1, 2))))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JointDiscreteDistribution(())

    def test_rejects_a_point_without_coordinates(self):
        with pytest.raises(ValueError, match="^points must have at least one coordinate$"):
            JointDiscreteDistribution([((), 1)])

    def test_independent_product_of_nothing(self):
        with pytest.raises(ValueError, match="^at least one marginal is required$"):
            independent_product()

    def test_rejects_non_unit_total(self):
        with pytest.raises(ValueError):
            JointDiscreteDistribution((((F(0), F(0)), F(1, 2)),))

    def test_rejects_negative_point_before_merging(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JointDiscreteDistribution((((F(0), F(1)), F(3, 2)), ((F(0), F(1)), F(-1, 2))))

    def test_independent_product_guard_fires_before_enumerating(self):
        # five 20-atom marginals would be 3.2 million points
        m = DiscreteDistribution.from_weighted_values([(v, 1) for v in range(20)])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^independent product of 3200000 points exceeds the 100000-point guard$"):
            independent_product(m, m, m, m, m)
        assert time.perf_counter() - start < 1.0

    def test_size_guard(self):
        n = 100_001
        points = tuple(((F(i),), F(1, n)) for i in range(n))
        with pytest.raises(ValueError, match="^support of 100001 points exceeds the 100000-point guard$"):
            JointDiscreteDistribution(points)


class TestInvariants:
    @given(distributions(), open_unit_fractions, rational_values)
    def test_galois_connection(self, d, alpha, x):
        assert (d.quantile(alpha) <= x) == (alpha <= d.cdf(x))

    @given(distributions(), open_unit_fractions, open_unit_fractions)
    def test_quantile_monotone(self, d, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        assert d.quantile(lo) <= d.quantile(hi)

    @given(distributions(), rational_values, rational_values)
    def test_cdf_monotone(self, d, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert d.cdf(lo) <= d.cdf(hi)

    @given(distributions(), rational_values)
    def test_cdf_stepwise_right_continuous(self, d, x):
        below = [v for v in d.values if v <= x]
        expected = d.cdf(below[-1]) if below else F(0)
        assert d.cdf(x) == expected

    @given(joints())
    def test_mean_of_sum_is_sum_of_marginal_means(self, j):
        total = sum(j.marginal(i).mean() for i in range(j.dimension))
        assert j.sum_distribution().mean() == total

    @given(distributions(), open_unit_fractions)
    def test_recomputation_is_identical(self, d, alpha):
        rebuilt = DiscreteDistribution(d.atoms)
        assert rebuilt == d
        assert rebuilt.quantile(alpha) == d.quantile(alpha)
        assert rebuilt.cumulative == d.cumulative

    @given(st.lists(distributions(max_atoms=3), min_size=1, max_size=3))
    def test_independent_product_marginals(self, ms):
        j = independent_product(*ms)
        for i, m in enumerate(ms):
            assert j.marginal(i) == m


class TestShiftScale:
    @given(distributions(), rational_values)
    def test_shift_moves_mean(self, d, c):
        assert d.shift(c).mean() == d.mean() + c

    @given(distributions(), rational_values)
    def test_scale_scales_mean(self, d, k):
        assert d.scale(k).mean() == d.mean() * k


class TestCommonLattice:
    # _common_lattice is the one place where laws meet; oracles read the Fraction views
    @given(st.lists(distributions(), min_size=1, max_size=4))
    def test_laws_meet_on_the_lcms_of_their_denominators(self, laws):
        scale, denom, values, cums = _common_lattice(laws)
        assert scale == math.lcm(*(v.denominator for m in laws for v in m.values))
        assert denom == math.lcm(*(p.denominator for m in laws for p in m.probs))
        assert len(values) == len(cums) == len(laws)
        for m, xs, cum in zip(laws, values, cums):
            assert [F(x, scale) for x in xs] == list(m.values)
            assert [F(c, denom) for c in cum] == list(m.cumulative)

    @given(joints())
    def test_the_sweep_of_a_joint_law_is_over_its_coord_denom(self, j):
        assert _sweep((*j.marginals(), j.sum_distribution()))[0] == j.coord_denom

    @given(st.lists(distributions(), min_size=1, max_size=4), st.lists(open_unit_fractions, max_size=4))
    def test_explicit_levels_read_the_breakpoint_columns(self, laws, alphas):
        # the level ceil(alpha * D) lies in one breakpoint interval, whose VaRs it takes
        scale, denom, breakpoints, columns = _sweep(laws)
        assert _sweep(laws, alphas)[:2] == (scale, denom)
        _, _, levels, at_levels = _sweep(laws, alphas)
        assert levels == [math.ceil(a * denom) for a in alphas]
        for column, values in zip(columns, at_levels, strict=True):
            assert values == [column[bisect.bisect_left(breakpoints, level)] for level in levels]


class TestLawContract:
    # equality, hashing, immutability and repr, shared by both law classes
    def test_equal_laws_are_equal_keys(self):
        a = DiscreteDistribution([(1, F(1, 2)), (F(3, 2), F(1, 2))])
        b = DiscreteDistribution.from_weighted_values([(F(3, 2), 5), (1, 5), (1, 0)])
        j = independent_product(a, BERN_3_10)
        k = JointDiscreteDistribution(j.points)
        for x, y in ((a, b), (j, k)):
            assert x == y and hash(x) == hash(y) and x is not y
            assert len({x, y}) == 1 and {x: "law"}[y] == "law"

    def test_coordinate_scale_is_part_of_equality(self):
        one, half = DiscreteDistribution.point_mass(1), DiscreteDistribution.point_mass(F(1, 2))
        assert (one.xs, one.counts) == (half.xs, half.counts)
        assert one != half and len({one, half}) == 2

    def test_a_law_never_equals_a_joint_law(self):
        d = DiscreteDistribution.point_mass(1)
        j = JointDiscreteDistribution([((F(1),), F(1))])
        assert (d.coord_denom, d.counts) == (j.coord_denom, j.counts)
        assert d != j and j != d and j.marginal(0) == d

    def test_other_classes_are_left_to_the_other_operand(self):
        d = DiscreteDistribution.point_mass(1)
        j = JointDiscreteDistribution([((F(1),), F(1))])
        for x, y in ((d, j), (j, d), (d, 1), (j, (1, (1,), (1,)))):
            assert x.__eq__(y) is NotImplemented and x != y

    def test_counts_are_part_of_equality(self):
        third, two_thirds = DiscreteDistribution.bernoulli(F(1, 3)), DiscreteDistribution.bernoulli(F(2, 3))
        assert (third.coord_denom, third.xs) == (two_thirds.coord_denom, two_thirds.xs)
        assert third != two_thirds and len({third, two_thirds}) == 2
        j = JointDiscreteDistribution([((0, 1), F(1, 3)), ((1, 1), F(2, 3))])
        k = JointDiscreteDistribution([((0, 1), F(2, 3)), ((1, 1), F(1, 3))])
        assert (j.coord_denom, j.xs) == (k.coord_denom, k.xs) and j != k

    def test_a_law_equals_itself_without_comparing_fields(self):
        # NaN equals nothing, itself included, so only the identity case can
        # make this law equal to itself
        law = DiscreteDistribution.point_mass(1)
        object.__setattr__(law, "coord_denom", float("nan"))
        assert law == law and not law != law

    @given(distributions(), distributions(), joints(), joints())
    def test_equality_and_hash_are_those_of_the_key(self, a, b, j, k):
        for x, y in ((a, b), (j, k)):
            rebuilt = type(x)._lattice(*x._key())
            for u, v in ((x, x), (x, rebuilt), (x, y), (y, x)):
                assert (u == v) is (u._key() == v._key()) is not (u != v)
                assert hash(u) == hash(u._key())

    @pytest.mark.parametrize("field", ["xs", "counts", "coord_denom", "prob_denom"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        for law in (BERN_3_10, independent_product(BERN_3_10, BERN_3_10)):
            before = getattr(law, field)
            with pytest.raises(AttributeError):
                setattr(law, field, before)
            with pytest.raises(AttributeError):
                delattr(law, field)
            assert getattr(law, field) == before

    def test_repr_names_the_lattice_fields(self):
        assert repr(DiscreteDistribution.point_mass(F(1, 2))) == (
            "DiscreteDistribution(coord_denom=2, xs=(1,), counts=(1,))"
        )
        assert repr(JointDiscreteDistribution([((F(1), F(2, 3)), F(1))])) == (
            "JointDiscreteDistribution(coord_denom=3, xs=((3, 2),), counts=(1,))"
        )

    def test_copies_and_pickles_are_equal_laws(self):
        j = independent_product(BERN_3_10, DiscreteDistribution.point_mass(F(1, 2)))
        for law in (BERN_3_10, j):
            for clone in (copy.copy(law), copy.deepcopy(law), pickle.loads(pickle.dumps(law))):
                assert type(clone) is type(law) and clone == law and clone.prob_denom == law.prob_denom

    def test_laws_take_weak_references(self):
        for build in (lambda: DiscreteDistribution.point_mass(F(1, 2)),
                      lambda: independent_product(BERN_3_10, BERN_3_10)):
            law = build()
            ref = weakref.ref(law)
            assert ref() is law
            del law
            assert ref() is None


def _instance_dict(law):
    """The instance dict ``law`` holds, or None while it has none (`vars`
    would make one)."""
    return next((r for r in gc.get_referents(law) if isinstance(r, dict)), None)


def _laws_by_constructor():
    """(constructor, law, the marginals it seeds or None), one fresh law from
    each way a law is made."""
    a = DiscreteDistribution([(1, F(1, 2)), (F(3, 2), F(1, 2))])
    ms = (a, DiscreteDistribution.bernoulli(F(1, 3)))
    held = _Columns([([(1, 2), (-3, 1)], array("q", [0, 1, 0]))], ([(1, 1), (5, 7)], array("q", [1, 0, 1])))
    product, coupling = independent_product(*ms), comonotonic_coupling(ms)
    shuffled = random_coupling(4, GeneratorSpec(n=2, max_atoms=3))
    joint = JointDiscreteDistribution([((0, 1), F(1, 3)), ((1, 1), F(2, 3))])
    return [
        ("DiscreteDistribution", a, None),
        ("from_weighted_values", DiscreteDistribution.from_weighted_values([(1, 2), (F(1, 3), 1)]), None),
        ("point_mass", DiscreteDistribution.point_mass(F(5, 2)), None),
        ("bernoulli", DiscreteDistribution.bernoulli(F(3, 10)), None),
        ("_law", _law(6, (4, 2, 4), (1, 1, 2)), None),
        ("JointDiscreteDistribution", joint, None),
        ("from_weighted_points", JointDiscreteDistribution.from_weighted_points([((1, 2), 1)]), None),
        ("from_weighted_points of _Columns", JointDiscreteDistribution.from_weighted_points(held), None),
        ("comonotonic_coupling", coupling, ms),
        ("independent_product", product, ms),
        ("random_coupling", shuffled, shuffled.marginals()),
        ("unpickled", pickle.loads(pickle.dumps(product)), None),
        ("copied", copy.copy(product), None),
    ]


def test_a_law_holds_no_instance_dict_until_a_view_is_read():
    # the fields live in slots; a coupling's marginals, known by construction,
    # are its one view filled from the start
    for how, law, seeded in _laws_by_constructor():
        assert _instance_dict(law) == (None if seeded is None else {"_marginals": seeded}), how
        view = "values" if isinstance(law, DiscreteDistribution) else "points"
        getattr(law, view)
        assert set(_instance_dict(law)) == {view, *({"_marginals"} if seeded else ())}, how
