"""Deciding VaR subadditivity across every confidence level, exactly.

Every quantile function involved in the aggregate inequality is a
left-continuous step function, constant between consecutive
cumulative-probability breakpoints. The union of all breakpoints therefore
cuts (0, 1) into finitely many intervals on which both sides of the
inequality are constant, and evaluating at each interval's right endpoint
settles the universally quantified statement with no tolerance at all.

Also here: seeded generators for comonotonic couplings and for random
transport plans with prescribed marginals, and the classic independent
Bernoulli pair on which VaR fails subadditivity.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .comonotonicity import _is_chain, comonotonic_coupling
from .distributions import (
    DiscreteDistribution,
    JointDiscreteDistribution,
    _common_lattice,
    _merged,
    _size_guard,
    _sweep,
    _view,
    independent_product,
)

# Bound on the cells of a VaR table: levels x (n + 2) for an n-dimensional
# law, each level's n marginal VaRs, the VaR of the sum and the sum of VaRs.
# With distinct weights a law has about (n + 1) x points levels, so the
# table grows as n^2 x points, past what `MAX_JOINT_POINTS` bounds.
MAX_TABLE_CELLS = 1_000_000


class IntervalVerdict(NamedTuple):
    """Comparison of the two sides of the inequality at one level.

    ``alpha_star`` is the level: an explicit level of the caller's, or the
    right endpoint of a breakpoint interval, where by left continuity the
    quantile step functions attain their interval value, so the recorded
    numbers represent every level inside the interval.
    ``marginal_vars`` are the marginal VaRs that ``sum_of_vars`` adds up.
    """

    alpha_star: Fraction
    var_sum: Fraction
    sum_of_vars: Fraction
    relation: str  # "<", "=" or ">"
    marginal_vars: tuple[Fraction, ...] = ()


class SubadditivityReport:
    """Exact decision of the all-levels subadditivity and additivity statements.

    The flags are decided on construction by `_flags`, from the `_compared`
    ``rows`` of every breakpoint interval, with all VaRs in units of
    1/``scale``. The `Fraction` views ``verdicts``, ``breakpoints`` and
    ``first_violation`` are built on first use.
    """

    def __init__(self, scale: int, rows: tuple[tuple, ...]) -> None:
        self.scale, self.rows = scale, rows
        self.subadditive_everywhere, self.additive_everywhere = _flags(
            (var_sum, sum_of_vars) for *_, var_sum, sum_of_vars in rows
        )

    @_view
    def verdicts(self) -> tuple[IntervalVerdict, ...]:
        return _verdicts(self.scale, self.rows)

    @_view
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, den) for num, den, *_ in self.rows)

    @_view
    def first_violation(self) -> Fraction | None:
        violations = (Fraction(num, den) for num, den, _, vs, sv in self.rows if vs > sv)
        return next(violations, None)


def _flags(sides: Iterable[tuple[int, int]]) -> tuple[bool, bool]:
    """Subadditivity and additivity at every level, from the ``(var_sum,
    sum_of_vars)`` pair of every breakpoint interval: the one decider of both
    theorem flags. One pass, which stops at the first ">"; with none,
    additivity holds when no "<" came either."""
    below = False
    for var_sum, sum_of_vars in sides:
        if var_sum > sum_of_vars:
            return False, False
        below = below or var_sum < sum_of_vars
    return True, not below


def _relation(var_sum, sum_of_vars) -> str:
    """"<", "=" or ">" as VaR of the sum compares with the sum of VaRs."""
    return "<" if var_sum < sum_of_vars else "=" if var_sum == sum_of_vars else ">"


def _verdicts(scale: int, rows) -> tuple[IntervalVerdict, ...]:
    """The `Fraction` view of `_compared` rows over ``scale``."""
    return tuple(
        IntervalVerdict(
            Fraction(num, den), Fraction(var_sum, scale), Fraction(sum_of_vars, scale),
            _relation(var_sum, sum_of_vars), tuple([Fraction(v, scale) for v in vs]),
        )
        for num, den, vs, var_sum, sum_of_vars in rows
    )


def critical_alphas(j: JointDiscreteDistribution) -> tuple[Fraction, ...]:
    """Breakpoints of all marginal quantiles and of the sum's quantile.

    Sorted, each in (0, 1], always ending at 1. Between consecutive entries
    every quantile function in the subadditivity inequality is constant.
    """
    return subadditivity_report(j).breakpoints


def _compared(j: JointDiscreteDistribution, alphas: Iterable | None = None) -> tuple[tuple, ...]:
    """Both sides of the inequality in integers at each level of `_sweep` of
    the marginals and the sum law of ``j``: the explicit ``alphas``, or by
    default every breakpoint. Each row is ``(num, den, vs, var_sum,
    sum_of_vars)``: the level num/den, the marginal VaRs ``vs``, the VaR of the
    sum and the sum of ``vs``, all VaRs in units of 1/``j.coord_denom``."""
    if alphas is not None:
        alphas = [Fraction(a) for a in alphas]
    denom, levels, marginal_rows, sum_column = _vars(j, alphas)
    ratios = [a.as_integer_ratio() for a in alphas] if alphas else [(x, denom) for x in levels]
    return tuple(
        (num, den, vs, var_sum, sum(vs))
        for (num, den), vs, var_sum in zip(ratios, marginal_rows, sum_column)
    )


def _vars(j: JointDiscreteDistribution, alphas: Iterable | None = None) -> tuple:
    """`_sweep` of the marginals and the sum law of ``j``: its D and levels,
    an iterator of the marginal VaRs ``vs`` at each level and the column of
    the sum's VaRs, all over ``j.coord_denom``. A table past
    `MAX_TABLE_CELLS` raises ValueError before any column is evaluated."""
    laws = (*j.marginals(), j.sum_distribution())
    _, denom, levels, columns = _sweep(laws, alphas)
    cells = len(levels) * (len(laws) + 1)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"a VaR table of {cells} cells exceeds the {MAX_TABLE_CELLS}-cell guard")
    *marginal_columns, sum_column = columns
    return denom, levels, zip(*marginal_columns), sum_column


def subadditivity_report(j: JointDiscreteDistribution) -> SubadditivityReport:
    """Evaluate the aggregate-vs-sum-of-VaRs comparison on every interval."""
    return SubadditivityReport(j.coord_denom, _compared(j))


class TrialVerdict(NamedTuple):
    """Outcome of one instance of the comonotonicity / subadditivity equivalence.

    ``consistent`` is false only if the three flags disagree, which would be
    a counterexample to the equivalence and must never occur.
    """

    comonotonic: bool
    subadditive_everywhere: bool
    additive_everywhere: bool
    consistent: bool


def equivalence_trial(j: JointDiscreteDistribution) -> TrialVerdict:
    """Run both detectors on one instance and check that they agree.

    The theorem flags come from `_flags` over the sweep's columns, with no
    table and no report; the comonotonic flag from the consecutive-pair
    chain pass over the support, with no witness.
    """
    como = _is_chain(j.xs)
    _, _, marginal_rows, sum_column = _vars(j)
    subadditive, additive = _flags(zip(sum_column, map(sum, marginal_rows)))
    return TrialVerdict(como, subadditive, additive, consistent=como == subadditive == additive)


class BernoulliCaseVerdict(NamedTuple):
    """One independent-Bernoulli superadditivity case, evaluated exactly."""

    p: Fraction
    q: Fraction
    alpha: Fraction
    precondition: bool
    superadditive: bool
    var_sum: Fraction
    var_x: Fraction
    var_y: Fraction


def bernoulli_counterexample(p, q, alpha) -> BernoulliCaseVerdict:
    """Independent Bernoulli losses where VaR fails to be subadditive.

    With X ~ Bernoulli(p) and Y ~ Bernoulli(q) independent, any level with
    (1-p)(1-q) < alpha < 1 - max(p, q) leaves both marginal VaRs at zero
    while the sum's VaR is 1. The lower comparison must be strict: at
    alpha = (1-p)(1-q) the sum's CDF already reaches alpha at zero, so the
    left-continuous quantile of the sum is still zero and the case is
    additive rather than superadditive. Whenever ``precondition`` is true,
    ``superadditive`` is guaranteed.
    """
    p = Fraction(p)
    q = Fraction(q)
    a = Fraction(alpha)
    for name, val in (("p", p), ("q", q)):  # `_sweep` checks alpha
        if not 0 < val < 1:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {val}")
    joint = independent_product(DiscreteDistribution.bernoulli(p), DiscreteDistribution.bernoulli(q))
    # the values are 0 and 1, so the lattice's coord_denom is 1 and the VaRs are integers
    ((_, _, (var_x, var_y), var_sum, sum_of_vars),) = _compared(joint, [a])
    return BernoulliCaseVerdict(
        p=p,
        q=q,
        alpha=a,
        precondition=(1 - p) * (1 - q) < a < 1 - max(p, q),
        superadditive=var_sum > sum_of_vars,
        var_sum=Fraction(var_sum),
        var_x=Fraction(var_x),
        var_y=Fraction(var_y),
    )


class GeneratorSpec:
    """Scale knobs for the seeded instance generators.

    Atom values are rationals in ``value_range`` with denominator at most
    ``denom_bound``; atom probabilities are multiples of 1/D for a
    per-marginal denominator D <= denom_bound. Small bounds keep the exact
    convolutions fast.
    """

    def __init__(self, n: int = 2, max_atoms: int = 8, value_range: tuple[int, int] = (-10, 10),
                 denom_bound: int = 16) -> None:
        self.n, self.max_atoms, self.value_range, self.denom_bound = n, max_atoms, value_range, denom_bound
        lo, hi = value_range
        if n < 1 or max_atoms < 1 or denom_bound < 1 or lo > hi:
            fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
            raise ValueError(f"degenerate generator spec: GeneratorSpec({fields})")


def _below(getrandbits, n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``, by ``random.randrange``'s rule.

    ``k = n.bit_length()`` bits at a time, redrawn while the draw is ``>= n``:
    CPython's ``Random._randbelow_with_getrandbits``, so ``a + _below(bits,
    b - a + 1)`` draws what ``randint(a, b)`` draws and leaves the same state.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(getrandbits, x: list) -> None:
    """Shuffle ``x`` in place, drawing exactly what ``random.shuffle`` draws.

    The same Fisher-Yates loop, swapping ``x[i]`` with ``x[j]`` for ``j`` drawn
    from ``range(i + 1)`` by the rule of `_below`, for ``i`` from the end down
    to 1; the bit count ``k`` is found once per block of ``i`` over which
    ``(i + 1).bit_length()`` stays constant.
    """
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1  # the least i with (i + 1).bit_length() == k
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = bottom - 1


def _random_marginal(rng: random.Random, spec: GeneratorSpec) -> DiscreteDistribution:
    bits = rng.getrandbits
    lo, hi = spec.value_range
    target = 1 + _below(bits, min(spec.max_atoms, spec.denom_bound))
    values: set[tuple[int, int]] = set()  # reduced (numerator, denominator)
    for _ in range(64 * target):
        if len(values) == target:
            break
        den = 1 + _below(bits, spec.denom_bound)
        num = lo * den + _below(bits, (hi - lo) * den + 1)
        g = gcd(num, den)
        values.add((num // g, den // g))
    scale = lcm(*(den for _, den in values))
    # Distinct reduced values scale to strictly increasing xs, so `_merged`
    # only divides the counts by their gcd; and gcd(scale, *xs) = 1, since a
    # prime that divides scale divides some value's den as often, so it
    # divides neither scale // den nor that value's num.
    xs = tuple(sorted(num * (scale // den) for num, den in values))
    k = len(xs)
    denom = k + _below(bits, spec.denom_bound - k + 1)
    edges = [0, *sorted(rng.sample(range(1, denom), k - 1)), denom]
    counts = [b - a for a, b in zip(edges, edges[1:])]
    return DiscreteDistribution._lattice(scale, *_merged(xs, counts))


def random_comonotonic(
    seed: int, spec: GeneratorSpec = GeneratorSpec()
) -> JointDiscreteDistribution:
    """Comonotonic coupling of ``spec.n`` random marginals; deterministic per seed."""
    rng = random.Random(seed)
    return comonotonic_coupling([_random_marginal(rng, spec) for _ in range(spec.n)])


def random_coupling(
    seed: int, spec: GeneratorSpec = GeneratorSpec()
) -> JointDiscreteDistribution:
    """Random transport plan between random marginals; deterministic per seed.

    Each marginal is sliced into unit cells of mass 1/D on the common
    denominator D of all atom probabilities, each coordinate's cell list is
    shuffled independently by `_shuffle`, and matched cells are merged back
    into support points: the sorted distinct cell tuples, each counting its
    cells, which is already the law's lattice form. The construction
    preserves every marginal exactly; unshuffled, it is the comonotonic one.
    """
    rng = random.Random(seed)
    ms = [_random_marginal(rng, spec) for _ in range(spec.n)]
    scale, denom, values, cums = _common_lattice(ms)
    _size_guard(denom, "common denominator {}", "cell")
    columns = []
    for xs, cum in zip(values, cums):
        column: list[int] = []  # the value of each cell, then shuffled in place
        for x, a, b in zip(xs, [0, *cum], cum):
            column += [x] * (b - a)
        _shuffle(rng.getrandbits, column)
        columns.append(column)
    cells = Counter(zip(*columns))  # over L, which is minimal as each marginal's scale is
    points = tuple(sorted(cells))  # distinct and increasing, and at most D, which the guard bounds
    # The counts have gcd 1: a prime q dividing each divides every marginal atom's
    # cell total, its count times D / prob_denom; where prob_denom holds q's full
    # power in D that factor is prime to q, but that marginal's counts have gcd 1.
    return JointDiscreteDistribution._lattice(scale, points, tuple(map(cells.__getitem__, points)), ms)
