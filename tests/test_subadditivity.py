import math
import random
from fractions import Fraction as F
from operator import mul
from unittest import mock

import pytest
from hypothesis import given
import hypothesis.strategies as st

from strategies import joints
from varlab import (
    ComonotoneVerdict,
    DiscreteDistribution,
    GeneratorSpec,
    IntervalVerdict,
    JointDiscreteDistribution,
    TrialVerdict,
    bernoulli_counterexample,
    comonotonic_coupling,
    convex_order_leq,
    critical_alphas,
    equivalence_trial,
    independent_product,
    is_comonotonic,
    random_comonotonic,
    random_coupling,
    subadditivity_report,
    var,
)
from varlab import subadditivity
from varlab.subadditivity import _below, _random_marginal, _shuffle

BERN_3_10 = DiscreteDistribution.bernoulli(F(3, 10))
INDEP_3_10 = independent_product(BERN_3_10, BERN_3_10)


class TestCriticalAlphas:
    def test_independent_bernoulli_pair(self):
        # marginal breakpoints {7/10, 1}; sum breakpoints {49/100, 91/100, 1}
        assert critical_alphas(INDEP_3_10) == (F(49, 100), F(7, 10), F(91, 100), F(1))

    def test_comonotonic_bernoulli_pair(self):
        half = DiscreteDistribution.bernoulli(F(1, 2))
        j = comonotonic_coupling([half, half])
        assert critical_alphas(j) == (F(1, 2), F(1))

    def test_point_mass(self):
        j = JointDiscreteDistribution((((F(2), F(3)), F(1)),))
        assert critical_alphas(j) == (F(1),)


class TestSubadditivityReport:
    def test_independent_bernoulli_pair(self):
        report = subadditivity_report(INDEP_3_10)
        assert not report.subadditive_everywhere
        assert not report.additive_everywhere
        # the violating interval (49/100, 7/10] contains 1/2
        assert report.first_violation == F(7, 10)
        relations = [v.relation for v in report.verdicts]
        assert relations == ["=", ">", "<", "="]
        worst = report.verdicts[1]
        assert worst.var_sum == 1 and worst.sum_of_vars == 0

    def test_point_mass_additive(self):
        j = JointDiscreteDistribution((((F(2), F(3)), F(1)),))
        report = subadditivity_report(j)
        assert report.additive_everywhere and report.subadditive_everywhere
        assert report.first_violation is None

    @given(joints())
    def test_flag_consistency(self, j):
        report = subadditivity_report(j)
        assert report.subadditive_everywhere == all(
            v.relation != ">" for v in report.verdicts
        )
        assert report.additive_everywhere == all(
            v.relation == "=" for v in report.verdicts
        )
        if report.additive_everywhere:
            assert report.subadditive_everywhere
        assert (report.first_violation is None) == report.subadditive_everywhere

    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_comonotonic_always_additive(self, seed, n):
        j = random_comonotonic(seed, GeneratorSpec(n=n, max_atoms=5))
        assert subadditivity_report(j).additive_everywhere

    @given(joints(), st.integers(0, 2**32))
    def test_breakpoint_intervals_represent_all_levels(self, j, seed):
        # spot-check random levels inside random intervals against direct VaRs
        rng = random.Random(seed)
        report = subadditivity_report(j)
        ms = j.marginals()
        s = j.sum_distribution()
        edges = [F(0), *report.breakpoints]
        for _ in range(10):
            k = rng.randrange(len(report.verdicts))
            lo, hi = edges[k], edges[k + 1]
            alpha = lo + (hi - lo) * F(rng.randint(1, 31), 32)
            if not alpha < 1:
                continue
            var_sum = var(s, alpha)
            sum_of_vars = sum(var(m, alpha) for m in ms)
            verdict = report.verdicts[k]
            assert var_sum == verdict.var_sum
            assert sum_of_vars == verdict.sum_of_vars


def _mean_identity_breaches(j):
    """The laws whose sweep column breaks the mean identity, then whether the
    gap between the two sides breaks it.

    Over the sweep rows, with D the last level's denominator and Δ_k the
    difference of consecutive levels, Σ Δ_k·VaR_k = E[X]·scale·D for every
    marginal and for the sum law, which is ∫₀¹ VaR_α(X) dα = E[X]; so
    Σ Δ_k·(var_sum_k − sum_of_vars_k) = 0, E[S] being Σ E[X_i].
    """
    rows = subadditivity_report(j).rows
    nums = [num for num, *_ in rows]
    deltas = [b - a for a, b in zip([0, *nums], nums)]
    denom = rows[-1][1]
    columns = [*zip(*(vs for _, _, vs, _, _ in rows)), [var_sum for *_, var_sum, _ in rows]]
    laws = (*j.marginals(), j.sum_distribution())
    breaches = [
        i for i, (law, column) in enumerate(zip(laws, columns))
        if sum(map(mul, deltas, column)) != law.mean() * j.coord_denom * denom
    ]
    gap = sum(d * (var_sum - sum_of_vars) for d, (*_, var_sum, sum_of_vars) in zip(deltas, rows))
    return breaches, gap != 0


class TestMeanIdentity:
    @given(joints())
    def test_rows_integrate_to_the_means(self, j):
        assert _mean_identity_breaches(j) == ([], False)

    def test_seeded_instances(self):
        for seed in range(1500):
            spec = GeneratorSpec(n=1 + seed % 4)
            make = random_comonotonic if seed % 8 < 4 else random_coupling
            assert _mean_identity_breaches(make(seed, spec)) == ([], False), seed


class TestEquivalenceTrial:
    def test_independent_bernoulli_pair(self):
        verdict = equivalence_trial(INDEP_3_10)
        assert not verdict.comonotonic
        assert not verdict.subadditive_everywhere
        assert not verdict.additive_everywhere
        assert verdict.consistent

    def test_comonotonic_mixed_marginals(self):
        three_point = DiscreteDistribution(
            ((F(0), F(1, 2)), (F(1), F(1, 4)), (F(4), F(1, 4)))
        )
        j = comonotonic_coupling([DiscreteDistribution.bernoulli(F(2, 5)), three_point])
        verdict = equivalence_trial(j)
        assert verdict.comonotonic and verdict.subadditive_everywhere
        assert verdict.additive_everywhere and verdict.consistent

    @given(joints(max_n=1))
    def test_one_dimensional_trivially_consistent(self, j):
        verdict = equivalence_trial(j)
        assert verdict.comonotonic and verdict.additive_everywhere and verdict.consistent

    @given(joints())
    def test_generated_instances_consistent(self, j):
        assert equivalence_trial(j).consistent

    @given(joints())
    def test_flags_are_the_detectors_and_the_reports(self, j):
        # the trial's chain pass and flag fold build no witness and no table
        report = subadditivity_report(j)
        expected = (is_comonotonic(j).comonotonic, report.subadditive_everywhere, report.additive_everywhere)
        assert equivalence_trial(j)[:3] == expected

    def test_reads_no_report(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the trial builds no report")

        monkeypatch.setattr(subadditivity, "SubadditivityReport", refuse)
        monkeypatch.setattr(subadditivity, "_compared", refuse)
        assert equivalence_trial(INDEP_3_10) == TrialVerdict(False, False, False, True)


class TestRecords:
    # the result records compare and hash by value, and are immutable
    def test_records_compare_by_value(self):
        def results():
            j = independent_product(BERN_3_10, BERN_3_10)
            return (
                equivalence_trial(j), is_comonotonic(j), subadditivity_report(j).verdicts,
                bernoulli_counterexample(F(3, 10), F(3, 10), F(3, 5)),
                convex_order_leq(j.sum_distribution(), comonotonic_coupling(j.marginals()).sum_distribution()),
            )

        first, second = results(), results()
        assert first == second and hash(first) == hash(second)
        assert first[0] == TrialVerdict(
            comonotonic=False, subadditive_everywhere=False, additive_everywhere=False, consistent=True
        )
        assert first[1] == ComonotoneVerdict(False, ((F(0), F(1)), (F(1), F(0))))
        assert IntervalVerdict(F(1), F(1), F(1), "=").marginal_vars == ()
        with pytest.raises(AttributeError):
            first[0].consistent = False


class TestBernoulliCounterexample:
    def test_strict_superadditivity_case(self):
        v = bernoulli_counterexample(F(3, 10), F(3, 10), F(1, 2))
        assert v.precondition  # 49/100 < 1/2 < 7/10
        assert v.superadditive
        assert (v.var_sum, v.var_x, v.var_y) == (1, 0, 0)

    def test_upper_bound_fails(self):
        v = bernoulli_counterexample(F(3, 10), F(3, 10), F(95, 100))
        assert not v.precondition  # 0.95 >= 0.7

    def test_lower_bound_is_strict(self):
        v = bernoulli_counterexample(F(1, 2), F(1, 2), F(1, 4))
        assert not v.precondition  # 1/4 < 1/4 fails
        # at the boundary level the sum's VaR is still 0: additive, not strict
        assert not v.superadditive
        assert v.var_sum == 0

    @pytest.mark.parametrize("bad", [F(0), F(1), F(-1, 2)])
    def test_rejects_out_of_range_parameters(self, bad):
        with pytest.raises(ValueError):
            bernoulli_counterexample(bad, F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            bernoulli_counterexample(F(1, 2), bad, F(1, 2))
        with pytest.raises(ValueError):
            bernoulli_counterexample(F(1, 2), F(1, 2), bad)

    def test_level_error_is_the_sweeps(self):
        with pytest.raises(ValueError) as exc:
            bernoulli_counterexample(F(1, 2), F(1, 2), F(3, 2))
        assert str(exc.value) == "alpha must lie strictly inside (0, 1), got 3/2"

    def test_reads_the_row_builder_not_quantile(self, monkeypatch):
        cases = [(F(3, 10), F(3, 10), F(1, 2)), (F(3, 10), F(3, 10), F(95, 100)), (F(1, 2), F(1, 2), F(1, 4))]
        expected = [bernoulli_counterexample(*case) for case in cases]

        def refuse(self, alpha):
            raise AssertionError("quantile called")

        monkeypatch.setattr(DiscreteDistribution, "quantile", refuse)
        assert [bernoulli_counterexample(*case) for case in cases] == expected
        assert all(type(v) is F for verdict in expected for v in verdict[-3:])  # the three VaRs

    @given(st.integers(0, 2**32))
    def test_precondition_always_implies_strictness(self, seed):
        rng = random.Random(seed)
        den = rng.randint(2, 30)
        p = F(rng.randint(1, den - 1), den)
        den = rng.randint(2, 30)
        q = F(rng.randint(1, den - 1), den)
        lo = (1 - p) * (1 - q)
        hi = 1 - max(p, q)
        alpha = lo + (hi - lo) * F(rng.randint(1, 63), 64)
        v = bernoulli_counterexample(p, q, alpha)
        assert v.precondition
        assert v.superadditive


class TestGenerators:
    def test_comonotonic_deterministic(self):
        spec = GeneratorSpec(n=3, max_atoms=4)
        assert random_comonotonic(12345, spec) == random_comonotonic(12345, spec)

    def test_coupling_deterministic(self):
        spec = GeneratorSpec(n=3, max_atoms=4)
        assert random_coupling(12345, spec) == random_coupling(12345, spec)

    def test_different_seeds_differ(self):
        spec = GeneratorSpec(n=2, max_atoms=6)
        assert any(
            random_coupling(s, spec) != random_coupling(s + 1, spec) for s in range(5)
        )

    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_comonotonic_output_is_comonotonic(self, seed, n):
        j = random_comonotonic(seed, GeneratorSpec(n=n, max_atoms=5))
        assert is_comonotonic(j).comonotonic

    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_coupling_preserves_drawn_marginals(self, seed, n):
        spec = GeneratorSpec(n=n, max_atoms=5)
        rng = random.Random(seed)
        drawn = [_random_marginal(rng, spec) for _ in range(n)]
        j = random_coupling(seed, spec)
        for i, m in enumerate(drawn):
            assert j.marginal(i) == m

    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_coupling_marginals_match_comonotonic_generator(self, seed, n):
        spec = GeneratorSpec(n=n, max_atoms=5)
        assert (
            random_coupling(seed, spec).marginals()
            == random_comonotonic(seed, spec).marginals()
        )

    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_identity_permutations_give_comonotonic_coupling(self, seed, n):
        spec = GeneratorSpec(n=n, max_atoms=5)
        rng = random.Random(seed)
        ms = [_random_marginal(rng, spec) for _ in range(n)]
        with mock.patch("varlab.subadditivity._shuffle", lambda bits, cells: None):
            assert random_coupling(seed, spec) == comonotonic_coupling(ms)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_coupling_probability_denominator_is_the_marginals_lcm(self, n):
        # `random_coupling` hands its cell counts to `_lattice` undivided, on
        # the proof at that call that their gcd is 1: they sum to D, the lcm
        # of the marginals' prob_denom, which then bounds the points
        for max_atoms in range(1, 9):
            for denom_bound in range(2, 17):
                spec = GeneratorSpec(n=n, max_atoms=max_atoms, denom_bound=denom_bound)
                for seed in range(5):
                    j = random_coupling(1_000 * seed + 16 * max_atoms + denom_bound, spec)
                    d = math.lcm(*(m.prob_denom for m in j.marginals()))
                    assert math.gcd(*j.counts) == 1
                    assert j.prob_denom == d and len(j) <= d

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError, match=r"GeneratorSpec\(n=0, max_atoms=8, value_range=\(-10, 10\)"):
            GeneratorSpec(n=0)
        with pytest.raises(ValueError):
            GeneratorSpec(max_atoms=0)
        with pytest.raises(ValueError):
            GeneratorSpec(value_range=(3, -3))

    def test_common_denominator_guard(self):
        spec = GeneratorSpec(n=4, max_atoms=6, denom_bound=4000)
        with pytest.raises(ValueError, match="guard"):
            random_coupling(0, spec)


class TestDrawRule:
    """`_shuffle` and `_below` draw what `random.Random` draws.

    Every seeded instance depends on it: `random_coupling` and
    `_random_marginal` call them on a `random.Random`'s ``getrandbits`` in
    place of its ``shuffle`` and ``randint``, and must consume the same bits
    in the same order. This pins CPython's ``_randbelow_with_getrandbits``
    (``k = n.bit_length()``, redraw while ``r >= n``).
    """

    @staticmethod
    def _assert_same_shuffle(length, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        x, y = list(range(length)), list(range(length))
        _shuffle(ours.getrandbits, x)
        theirs.shuffle(y)
        assert x == y, length
        assert ours.getstate() == theirs.getstate(), length

    def test_shuffle_matches_random_shuffle_for_every_length_to_2100(self):
        for length in range(2101):
            self._assert_same_shuffle(length, seed=length)

    # 34,320 is the largest common denominator at the default denom_bound 16
    @pytest.mark.parametrize("length", [9360, 34320])
    def test_shuffle_matches_random_shuffle_on_long_columns(self, length):
        self._assert_same_shuffle(length, seed=length)

    @staticmethod
    def _assert_same_draw(n, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "n", sorted({1} | {2**e + d for e in range(1, 65) for d in (-1, 0, 1)})
    )
    def test_below_matches_randrange_around_powers_of_two(self, n):
        for seed in range(8):
            self._assert_same_draw(n, seed)

    @given(st.integers(1, 2**64), st.integers(0, 2**64))
    def test_below_matches_randrange(self, n, seed):
        self._assert_same_draw(n, seed)

    @given(st.integers(-(2**40), 2**40), st.integers(0, 2**40), st.integers(0, 2**32))
    def test_shifted_below_matches_randint(self, a, width, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert a + _below(ours.getrandbits, width + 1) == theirs.randint(a, a + width)
        assert ours.getstate() == theirs.getstate()
