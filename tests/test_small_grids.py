"""Every law on small grids: an exhaustive check of the equivalence.

The paper's result is an "if and only if", and sampled laws rarely hit the
ties where a bug would hide: equal sums of distinct points, a cumulative
count of one marginal equal to another's, repeated marginal values and mass
on a single line. So for each grid below, every joint law whose masses are
multiples of 1/D is built, with the grid's points of zero mass passed in as
zero-weight rows (on a grid of thirds, such a row must not enlarge the
lattice), and each verdict is compared with the definition of
comonotonicity: every two support points are ordered componentwise. Every
`ORACLE_STRIDE`-th law is also checked against the `Fraction` oracle, row by
row of the sweep.
"""

import itertools
from fractions import Fraction as F

import pytest

from varlab import (
    JointDiscreteDistribution,
    TrialVerdict,
    convex_order_max_check,
    equivalence_trial,
    is_comonotonic,
    min_copula_check,
    subadditivity_report,
)
from oracles import all_pairs_comonotonic
from test_lattice import assert_matches_oracle

# (per-coordinate values, D, laws, comonotonic laws): the first six grids hold
# 8,911 laws, 2,421 of them comonotonic
GRIDS = (
    (((0, 1, 2), (0, 1, 2)), 4, 495, 225),
    (((0, 1, 2), (0, 1, 2)), 6, 3003, 784),
    (((0, F(1, 3), 1), (0, F(2, 3), 1)), 6, 3003, 784),  # {0,1,3} x {0,2,3} over 3
    (((0, 1), (0, 1), (0, 1)), 4, 330, 125),
    (((0, 1), (0, 1), (0, 1)), 6, 1716, 343),
    (((0, 1, 2), (0, 1), (0, 2)), 3, 364, 160),
    (((0, 1, 2), (0, 1, 2)), 8, 12870, 2025),
)
ORACLE_STRIDE = 20


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))


def grid_laws(axes, denom):
    """(law, comonotonic by definition) for every law on the grid ``axes``
    with masses in multiples of 1/``denom``."""
    grid = list(itertools.product(*axes))
    chains = {}
    for counts in compositions(denom, len(grid)):
        support = tuple(p for p, c in zip(grid, counts) if c)
        if support not in chains:
            chains[support] = all_pairs_comonotonic(support)
        yield JointDiscreteDistribution.from_weighted_points(zip(grid, counts)), chains[support]


@pytest.mark.parametrize(
    "axes, denom, laws, comonotonic", GRIDS,
    ids=["012x012-D4", "012x012-D6", "thirds-D6", "01x01x01-D4", "01x01x01-D6", "012x01x02-D3", "012x012-D8"],
)
def test_every_verdict_is_the_definition(axes, denom, laws, comonotonic):
    seen = []
    for k, (j, como) in enumerate(grid_laws(axes, denom)):
        if k % ORACLE_STRIDE == 0:
            assert_matches_oracle(j)
        assert equivalence_trial(j) == TrialVerdict(como, como, como, True), j
        assert is_comonotonic(j).comonotonic == como, j
        report = subadditivity_report(j)  # the trial's fold and the report's rows agree
        assert (report.subadditive_everywhere, report.additive_everywhere) == (como, como), j
        assert min_copula_check(j) == como, j
        assert convex_order_max_check(j) == como, j
        seen.append(como)
    assert (len(seen), sum(seen)) == (laws, comonotonic)
