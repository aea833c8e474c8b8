import gc
import time
import weakref
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
import hypothesis.strategies as st

import fraction_oracle
import oracles
from strategies import distributions, generated_joints, joints, marginal_lists, weighted_joints
from varlab import comonotonicity
from varlab import (
    DiscreteDistribution,
    GeneratorSpec,
    JointDiscreteDistribution,
    comonotonic_coupling,
    convex_order_leq,
    convex_order_max_check,
    independent_product,
    is_comonotonic,
    is_comonotonic_support,
    min_copula_check,
    random_comonotonic,
    random_coupling,
)

BERN_HALF = DiscreteDistribution.bernoulli(F(1, 2))
INDEP_PAIR = independent_product(BERN_HALF, BERN_HALF)


class TestSupportCheck:
    def test_crossing_pair(self):
        verdict = is_comonotonic_support([(1, 2), (3, 1)])
        assert not verdict.comonotonic
        assert set(verdict.witness) == {(F(1), F(2)), (F(3), F(1))}

    def test_chain(self):
        assert is_comonotonic_support([(1, 1), (2, 3), (5, 3)]).comonotonic

    def test_single_point(self):
        assert is_comonotonic_support([(4, -1, 7)]).comonotonic

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            is_comonotonic_support([(1, 2), (3,)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            is_comonotonic_support([])

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*([st.integers(-5, 5)] * n)), min_size=1, max_size=8
            )
        )
    )
    def test_agrees_with_all_pairs_oracle(self, points):
        assert is_comonotonic_support(points).comonotonic == oracles.all_pairs_comonotonic(points)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8), st.integers(1, 3))
    def test_monotone_images_form_chains(self, zs, n):
        # images of a single driver under non-decreasing maps are comonotonic
        points = [tuple(z * k for k in range(1, n + 1)) for z in zs]
        assert is_comonotonic_support(points).comonotonic
        assert oracles.all_pairs_comonotonic(points)

    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*([st.integers(-5, 5)] * n)), min_size=2, max_size=8
            )
        )
    )
    def test_witness_is_genuine(self, points):
        verdict = is_comonotonic_support(points)
        if not verdict.comonotonic:
            a, b = verdict.witness
            assert any(x < y for x, y in zip(a, b))
            assert any(x > y for x, y in zip(a, b))

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*([st.fractions(-3, 3, max_denominator=4)] * n)), min_size=1, max_size=8
            )
        ),
        st.data(),
    )
    def test_witness_is_the_oracles_first_pair_in_sum_order(self, points, data):
        # repeated points and mixed denominators: the same support, the same witness
        points += data.draw(st.lists(st.sampled_from(points), max_size=3))
        assert is_comonotonic_support(points).witness == fraction_oracle.chain_witness(points)


class TestJointCheck:
    def test_independent_pair_is_not_comonotonic(self):
        # contains both (0, 1) and (1, 0)
        assert not is_comonotonic(INDEP_PAIR).comonotonic

    def test_diagonal_pair(self):
        j = JointDiscreteDistribution((((F(0), F(0)), F(1, 2)), ((F(1), F(2)), F(1, 2))))
        assert is_comonotonic(j).comonotonic

    @given(marginal_lists())
    def test_coupling_output_always_passes(self, ms):
        assert is_comonotonic(comonotonic_coupling(ms)).comonotonic


class TestCoupling:
    def test_symmetric_pairing(self):
        j = comonotonic_coupling([BERN_HALF, BERN_HALF])
        assert j.points == (((F(0), F(0)), F(1, 2)), ((F(1), F(1)), F(1, 2)))

    def test_two_marginal_example(self):
        x = DiscreteDistribution(((F(0), F(2, 5)), (F(1), F(3, 5))))
        y = DiscreteDistribution(((F(0), F(7, 10)), (F(2), F(3, 10))))
        j = comonotonic_coupling([x, y])
        # breakpoints {2/5, 7/10, 1}; quantile transform on each piece
        assert j.points == (
            ((F(0), F(0)), F(2, 5)),
            ((F(1), F(0)), F(3, 10)),
            ((F(1), F(2)), F(3, 10)),
        )

    @given(distributions())
    def test_single_marginal_identity(self, d):
        j = comonotonic_coupling([d])
        assert j.points == tuple(((v,), p) for v, p in d.atoms)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            comonotonic_coupling([])

    @given(marginal_lists())
    def test_marginals_preserved_exactly(self, ms):
        j = comonotonic_coupling(ms)
        for i, m in enumerate(ms):
            assert j.marginal(i) == m

    def test_support_guard_fires_before_any_column(self, monkeypatch):
        # uniform laws on 60,000 and on 59,999 values share only the level 1,
        # so their coupling would have 119,998 points; 60,000 and 40,001 give
        # 100,000, which the guard admits
        a, b, c = (DiscreteDistribution.from_weighted_values([(v, 1) for v in range(n)])
                   for n in (60_000, 59_999, 40_001))
        assert len(comonotonic_coupling([a, c])) == 100_000

        def bisect_left(*_):
            raise AssertionError("a column was evaluated")

        monkeypatch.setattr("varlab.distributions.bisect_left", bisect_left)
        with pytest.raises(ValueError, match="^support of 119998 points exceeds the 100000-point guard$"):
            comonotonic_coupling([a, b])


class TestMinCopula:
    @given(marginal_lists())
    def test_coupling_output_satisfies_identity(self, ms):
        assert min_copula_check(comonotonic_coupling(ms))

    def test_independent_pair_fails(self):
        # at (0, 0): joint CDF 1/4 but min marginal CDF 1/2
        assert oracles.joint_cdf_at(INDEP_PAIR.points, (F(0), F(0))) == F(1, 4)
        assert not min_copula_check(INDEP_PAIR)

    def test_point_mass(self):
        j = JointDiscreteDistribution((((F(3), F(1)), F(1)),))
        assert min_copula_check(j)

    def test_cost_is_linear_in_the_support(self):
        # three 50-atom marginals: 50 support points, where a CDF grid would
        # have 125,000 cells
        m = DiscreteDistribution.from_weighted_values([(v, 1) for v in range(50)])
        j = comonotonic_coupling([m, m.shift(F(1, 3)), m.scale(2)])
        points, probs = zip(*j.points)
        a, b, c = zip(*points)
        crossed = JointDiscreteDistribution(list(zip(zip(a, b, c[::-1]), probs)))
        for law, expected in ((j, True), (crossed, False)):
            start = time.perf_counter()
            assert min_copula_check(law) is expected
            assert time.perf_counter() - start < 1.0
            assert is_comonotonic(law).comonotonic is expected

    @given(joints())
    def test_agrees_with_the_fraction_grid_oracle(self, j):
        points = j.points
        assert min_copula_check(j) == fraction_oracle.min_copula(points, fraction_oracle.marginals(points))


class TestConvexOrderMax:
    @given(marginal_lists())
    def test_comonotonic_instances_pass(self, ms):
        assert convex_order_max_check(comonotonic_coupling(ms))

    def test_independent_pair_fails(self):
        assert INDEP_PAIR.sum_distribution().atoms == (
            (F(0), F(1, 4)),
            (F(1), F(1, 2)),
            (F(2), F(1, 4)),
        )
        rearranged = comonotonic_coupling(INDEP_PAIR.marginals())
        assert rearranged.sum_distribution().atoms == ((F(0), F(1, 2)), (F(2), F(1, 2)))
        assert not convex_order_max_check(INDEP_PAIR)

    @given(distributions())
    def test_one_dimensional_always_passes(self, d):
        j = comonotonic_coupling([d])
        assert convex_order_max_check(j)


class TestDetectorAgreement:
    @given(joints())
    def test_three_detectors_agree(self, j):
        como = is_comonotonic(j).comonotonic
        assert min_copula_check(j) == como
        assert convex_order_max_check(j) == como

    @given(generated_joints())
    def test_sum_never_beats_comonotonic_rearrangement(self, j):
        rearranged = comonotonic_coupling(j.marginals())
        verdict = convex_order_leq(j.sum_distribution(), rearranged.sum_distribution())
        assert verdict.holds


def cross_checked(j):
    """The min-copula and convex-order-max verdicts on ``j``, in that order,
    and how many comonotonic couplings the two built."""
    builds, sweep = [], comonotonicity._sweep

    def counted(ms):
        builds.append(ms)
        return sweep(ms)

    with mock.patch.object(comonotonicity, "_sweep", counted):
        verdicts = min_copula_check(j), convex_order_max_check(j)
    return verdicts, len(builds)


SPEC = GeneratorSpec(n=3, max_atoms=4)


class TestSharedRearrangement:
    """Both cross-checks compare a law with the comonotonic rearrangement of
    its marginals, which is built at most once per law, and never for a law
    that `comonotonic_coupling` returned: that law is its own rearrangement."""

    def test_independent_pair_builds_it_once(self):
        j = independent_product(BERN_HALF, BERN_HALF)
        assert cross_checked(j) == ((False, False), 1)
        assert cross_checked(j) == ((False, False), 0)

    @given(weighted_joints())
    def test_a_fresh_law_builds_it_once(self, j):
        como = is_comonotonic(j).comonotonic
        assert fraction_oracle.min_copula(j.points, fraction_oracle.marginals(j.points)) == como
        assert cross_checked(j) == ((como, como), 1)

    @given(marginal_lists())
    def test_a_coupling_builds_it_never(self, ms):
        j = comonotonic_coupling(ms)
        assert fraction_oracle.min_copula(j.points, fraction_oracle.marginals(j.points))
        assert is_comonotonic(j).comonotonic
        assert cross_checked(j) == ((True, True), 0)


class TestCouplingReuse:
    """`comonotonic_coupling` returns the live coupling built from the same
    marginal tuple object, and only that one."""

    def test_a_checked_laws_marginals_find_its_rearrangement(self):
        j = random_coupling(3, SPEC)
        assert not min_copula_check(j)
        assert comonotonic_coupling(j.marginals()) is comonotonicity._rearrangement(j)

    @given(marginal_lists())
    def test_a_couplings_marginals_find_the_coupling(self, ms):
        c = comonotonic_coupling(ms)
        assert comonotonic_coupling(c.marginals()) is c
        assert comonotonicity._rearrangement(c) is c

    @given(marginal_lists())
    def test_a_list_of_the_same_laws_builds_an_equal_law(self, ms):
        c = comonotonic_coupling(tuple(ms))
        again = comonotonic_coupling(list(c.marginals()))
        assert again == c and again is not c
        assert comonotonic_coupling(tuple(ms)) == c

    X = DiscreteDistribution.bernoulli(F(2, 5))
    Y = DiscreteDistribution(((F(0), F(1, 3)), (F(1), F(1, 3)), (F(5), F(1, 3))))
    Z = DiscreteDistribution(((F(-2), F(1, 4)), (F(7, 2), F(3, 4))))

    def test_couplings_sharing_a_first_marginal_stay_apart(self):
        xy, xz = (self.X, self.Y), (self.X, self.Z)
        expected = {ms: JointDiscreteDistribution(fraction_oracle.comonotonic_coupling(
            [m.atoms for m in ms])) for ms in (xy, xz)}
        live = {ms: comonotonic_coupling(ms) for ms in (xy, xz)}
        for ms in (xy, xz, xy, xz, xz, xy):
            c = comonotonic_coupling(ms)
            assert c is live[ms] and c == expected[ms] and c.marginals() is ms

    def test_dropped_couplings_leave_nothing_in_their_marginals(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            couplings = [comonotonic_coupling((self.X, m)) for m in (self.Y, self.Z)]
            refs = [weakref.ref(c) for c in couplings]
            del couplings
            assert [r() for r in refs] == [None, None]
            held = [v for m in (self.X, self.Y, self.Z) for v in vars(m).values()]
            assert not [v for v in held if isinstance(v, (weakref.ref, JointDiscreteDistribution))]
        finally:
            if enabled:
                gc.enable()

    def test_dropped_couplings_leave_no_registry_entry(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = set(comonotonicity._LIVE)
            couplings = [comonotonic_coupling((self.X, m)) for m in (self.Y, self.Z)]
            keys = {id(c.marginals()) for c in couplings}
            assert [comonotonicity._LIVE[id(c.marginals())]() for c in couplings] == couplings
            del couplings
            assert not keys & set(comonotonicity._LIVE) and set(comonotonicity._LIVE) == before
        finally:
            if enabled:
                gc.enable()

    def test_a_dead_entry_never_drops_a_newer_one_under_its_key(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            c = comonotonic_coupling((self.X, self.Y))
            key = id(c.marginals())
            entry = comonotonicity._LIVE[key]
            other = comonotonic_coupling((self.X, self.Z))
            # an entry left from an earlier coupling whose tuple had this id
            stale = comonotonicity._Entry(other, comonotonicity._forget)
            stale.key = key
            del other
            assert stale() is None
            assert comonotonicity._LIVE[key] is entry and entry() is c
            assert comonotonic_coupling(c.marginals()) is c
        finally:
            if enabled:
                gc.enable()

    def test_checked_laws_are_freed_without_the_cycle_collector(self):
        # the registry's weak reference to a coupling adds no cycle
        enabled = gc.isenabled()
        gc.disable()
        try:
            for make, como in ((random_coupling, False), (random_comonotonic, True)):
                j = make(3, SPEC)  # through the bench's three checks
                assert min_copula_check(j) is convex_order_max_check(j) is como
                rearranged = comonotonic_coupling(j.marginals())
                assert convex_order_leq(j.sum_distribution(), rearranged.sum_distribution()).holds
                assert (rearranged is j) is como
                refs = [weakref.ref(law) for law in (j, rearranged, j.marginals()[0])]
                del j, rearranged
                assert [r() for r in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
