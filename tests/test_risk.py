import random
from fractions import Fraction as F

from hypothesis import given
import hypothesis.strategies as st

import oracles
from strategies import distributions, open_unit_fractions, rational_values
from varlab import (
    DiscreteDistribution,
    JointDiscreteDistribution,
    convex_order_leq,
    stop_loss,
    var,
)

BERN_3_10 = DiscreteDistribution.bernoulli(F(3, 10))


def mean_preserving_spread(rng: random.Random, d: DiscreteDistribution):
    """Split one atom symmetrically around its value; increases convex order."""
    atoms = list(d.atoms)
    k = rng.randrange(len(atoms))
    v, p = atoms[k]
    delta = F(rng.randint(1, 4), rng.randint(1, 4))
    spread = atoms[:k] + [(v - delta, p / 2), (v + delta, p / 2)] + atoms[k + 1 :]
    return DiscreteDistribution(tuple(spread))


class TestVar:
    def test_bernoulli_median(self):
        # oracle: F(0) = 7/10 >= 1/2
        assert oracles.quantile_scan(BERN_3_10, F(1, 2)) == 0
        assert var(BERN_3_10, F(1, 2)) == 0

    def test_sum_of_independent_bernoullis(self):
        pts = oracles.product_points(BERN_3_10, BERN_3_10)
        s = JointDiscreteDistribution(tuple(pts)).sum_distribution()
        # oracle: F(0) = 49/100 < 1/2 <= F(1) = 91/100
        assert oracles.cdf_scan(s, 0) == F(49, 100)
        assert oracles.cdf_scan(s, 1) == F(91, 100)
        assert var(s, F(1, 2)) == 1

    def test_point_mass(self):
        assert var(DiscreteDistribution.point_mass(F(-7, 3)), F(1, 100)) == F(-7, 3)

    @given(distributions(), open_unit_fractions, rational_values)
    def test_translation(self, d, alpha, c):
        assert var(d.shift(c), alpha) == var(d, alpha) + c

    @given(
        distributions(),
        open_unit_fractions,
        st.fractions(min_value=F(1, 8), max_value=F(8), max_denominator=8),
    )
    def test_positive_homogeneity(self, d, alpha, lam):
        assert var(d.scale(lam), alpha) == lam * var(d, alpha)

    @given(distributions())
    def test_translation_at_breakpoints(self, d):
        for b in d.cumulative:
            if 0 < b < 1:
                assert var(d.shift(F(3, 7)), b) == var(d, b) + F(3, 7)


class TestStopLoss:
    def test_two_point(self):
        d = DiscreteDistribution(((F(0), F(1, 2)), (F(2), F(1, 2))))
        assert stop_loss(d, 1) == F(1, 2)  # (2 - 1) * 1/2

    def test_three_point(self):
        d = DiscreteDistribution(((F(0), F(1, 4)), (F(1), F(1, 2)), (F(2), F(1, 4))))
        assert stop_loss(d, 1) == F(1, 4)  # (2 - 1) * 1/4

    @given(distributions())
    def test_below_support_is_mean_minus_c(self, d):
        c = min(d.values) - 1
        assert stop_loss(d, c) == d.mean() - c

    @given(distributions(), rational_values)
    def test_matches_direct_sum(self, d, c):
        assert stop_loss(d, c) == oracles.stop_loss_scan(d, c)

    @given(distributions())
    def test_jensen_bound_at_kinks(self, d):
        mean = d.mean()
        for c in d.values:
            sl = stop_loss(d, c)
            assert sl >= mean - c
            assert sl >= 0


class TestConvexOrder:
    def test_binomial_below_extremal_two_point(self):
        a = DiscreteDistribution(((F(0), F(1, 4)), (F(1), F(1, 2)), (F(2), F(1, 4))))
        b = DiscreteDistribution(((F(0), F(1, 2)), (F(2), F(1, 2))))
        # oracle kink evaluation: both means 1; stop-loss at 1 is 1/4 vs 1/2
        assert oracles.stop_loss_scan(a, 1) == F(1, 4)
        assert oracles.stop_loss_scan(b, 1) == F(1, 2)
        verdict = convex_order_leq(a, b)
        assert verdict.holds and verdict.mean_equal and verdict.witness_c is None

    @given(distributions())
    def test_reflexive(self, d):
        assert convex_order_leq(d, d).holds

    def test_unequal_means(self):
        a = DiscreteDistribution.point_mass(0)
        b = DiscreteDistribution.point_mass(1)
        verdict = convex_order_leq(a, b)
        assert not verdict.holds
        assert not verdict.mean_equal
        assert verdict.witness_c is None

    @given(distributions(), st.integers(0, 2**32))
    def test_transitive_along_spread_chains(self, d0, seed):
        rng = random.Random(seed)
        d1 = mean_preserving_spread(rng, d0)
        d2 = mean_preserving_spread(rng, d1)
        assert convex_order_leq(d0, d1).holds
        assert convex_order_leq(d1, d2).holds
        assert convex_order_leq(d0, d2).holds

    @given(distributions(), distributions())
    def test_antisymmetric(self, a, b):
        if convex_order_leq(a, b).holds and convex_order_leq(b, a).holds:
            assert a.atoms == b.atoms

    @given(distributions())
    def test_mutual_dominance_for_reconstructed_law(self, d):
        rebuilt = DiscreteDistribution(tuple(reversed(d.atoms)))
        assert convex_order_leq(d, rebuilt).holds
        assert convex_order_leq(rebuilt, d).holds
        assert rebuilt.atoms == d.atoms

    @given(distributions(), st.integers(0, 2**32))
    def test_spread_strictly_dominates(self, d, seed):
        spread = mean_preserving_spread(random.Random(seed), d)
        back = convex_order_leq(spread, d)
        if spread.atoms != d.atoms:
            assert not back.holds
            assert back.mean_equal and back.witness_c is not None
            # the witness names a kink where dominance genuinely fails
            assert stop_loss(spread, back.witness_c) > stop_loss(d, back.witness_c)
