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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .comonotonicity import comonotonic_coupling, is_comonotonic
from .distributions import (
    MAX_JOINT_POINTS,
    DiscreteDistribution,
    JointDiscreteDistribution,
    _merged,
    _sweep,
    independent_product,
)

@dataclass(frozen=True)
class IntervalVerdict:
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


@dataclass(frozen=True)
class SubadditivityReport:
    """Exact decision of the all-levels subadditivity and additivity statements.

    The flags are decided on construction, from the `_var_rows` of the
    breakpoint intervals of ``laws`` (the marginals, then the law of the
    sum), with both sides in units of 1/``scale``. The `Fraction` views
    ``verdicts``, ``breakpoints`` and ``first_violation`` are built on
    first use.
    """

    subadditive_everywhere: bool
    additive_everywhere: bool
    laws: tuple[DiscreteDistribution, ...]
    scale: int
    rows: tuple[tuple, ...]

    @cached_property
    def verdicts(self) -> tuple[IntervalVerdict, ...]:
        return _verdicts(self.laws, self.scale, self.rows)

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, den) for num, den, *_ in self.rows)

    @cached_property
    def first_violation(self) -> Fraction | None:
        violations = (Fraction(num, den) for num, den, _, vs, sv in self.rows if vs > sv)
        return next(violations, None)


def _relation(var_sum, sum_of_vars) -> str:
    """"<", "=" or ">" as VaR of the sum compares with the sum of VaRs."""
    return "<" if var_sum < sum_of_vars else "=" if var_sum == sum_of_vars else ">"


def _var_rows(laws: tuple[DiscreteDistribution, ...], scale: int, levels) -> tuple[tuple, ...]:
    """Both sides of the inequality at each level, in integers.

    ``laws`` are the marginals, then the law of the sum, and ``scale`` a
    multiple of every law's ``coord_denom``. Each level is ``(num, den,
    ks)``: the level num/den and, per law, the index of the atom its
    quantile takes there. Each row is ``(num, den, ks, var_sum,
    sum_of_vars)``, both sides in units of 1/``scale``.
    """
    *marginal_columns, sum_column = (
        [x * (scale // law.coord_denom) for x in law.xs] for law in laws
    )
    return tuple(
        (num, den, ks, sum_column[ks[-1]], sum(map(list.__getitem__, marginal_columns, ks)))
        for num, den, ks in levels
    )


def _level_rows(laws: tuple[DiscreteDistribution, ...], scale: int, alphas) -> tuple[tuple, ...]:
    """`_var_rows` at explicit levels, each strictly inside (0, 1); the atom
    indices come from `DiscreteDistribution._quantile_index`."""
    return _var_rows(laws, scale, (
        (a.numerator, a.denominator, tuple([law._quantile_index(a) for law in laws]))
        for a in map(Fraction, alphas)
    ))


def _verdicts(laws, scale: int, rows) -> tuple[IntervalVerdict, ...]:
    """The `Fraction` view of `_var_rows` rows."""
    *ms, s = laws
    return tuple(
        IntervalVerdict(
            Fraction(num, den), s.values[ks[-1]], Fraction(sum_of_vars, scale),
            _relation(var_sum, sum_of_vars), tuple(m.values[k] for m, k in zip(ms, ks)),
        )
        for num, den, ks, var_sum, sum_of_vars in rows
    )


def critical_alphas(j: JointDiscreteDistribution) -> tuple[Fraction, ...]:
    """Breakpoints of all marginal quantiles and of the sum's quantile.

    Sorted, each in (0, 1], always ending at 1. Between consecutive entries
    every quantile function in the subadditivity inequality is constant.
    """
    return subadditivity_report(j).breakpoints


def _compared(j: JointDiscreteDistribution):
    """The laws (the marginals, then the sum law) and their `_var_rows` on
    every breakpoint interval, both sides in units of 1/``j.coord_denom``.

    `_sweep` over the integer cumulative counts of the marginals and of the
    sum yields each interval, as its right endpoint over the common
    probability denominator, and the atom every quantile takes on it.
    """
    laws = (*j.marginals(), j.sum_distribution())
    denom, steps = _sweep(laws)
    return laws, _var_rows(laws, j.coord_denom, ((level, denom, ks) for level, ks in steps))


def _flags(rows) -> tuple[bool, bool]:
    """(subadditive everywhere, additive everywhere) of `_var_rows` rows."""
    return (
        all(var_sum <= sum_of_vars for _, _, _, var_sum, sum_of_vars in rows),
        all(var_sum == sum_of_vars for _, _, _, var_sum, sum_of_vars in rows),
    )


def subadditivity_report(j: JointDiscreteDistribution) -> SubadditivityReport:
    """Evaluate the aggregate-vs-sum-of-VaRs comparison on every interval."""
    laws, rows = _compared(j)
    return SubadditivityReport(*_flags(rows), laws, j.coord_denom, rows)


@dataclass(frozen=True)
class TrialVerdict:
    """Outcome of one instance of the comonotonicity / subadditivity equivalence.

    ``consistent`` is false only if the three flags disagree, which would be
    a counterexample to the equivalence and must never occur.
    """

    comonotonic: bool
    subadditive_everywhere: bool
    additive_everywhere: bool
    consistent: bool


def equivalence_trial(j: JointDiscreteDistribution) -> TrialVerdict:
    """Run both detectors on one instance and check that they agree."""
    como = is_comonotonic(j).comonotonic
    subadditive, additive = _flags(_compared(j)[1])
    return TrialVerdict(
        comonotonic=como,
        subadditive_everywhere=subadditive,
        additive_everywhere=additive,
        consistent=como == subadditive == additive,
    )


@dataclass(frozen=True)
class BernoulliCaseVerdict:
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
    for name, val in (("p", p), ("q", q), ("alpha", a)):
        if not 0 < val < 1:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {val}")
    x = DiscreteDistribution.bernoulli(p)
    y = DiscreteDistribution.bernoulli(q)
    joint = independent_product(x, y)
    var_x = x.quantile(a)
    var_y = y.quantile(a)
    var_sum = joint.sum_distribution().quantile(a)
    precondition = (1 - p) * (1 - q) < a < 1 - max(p, q)
    return BernoulliCaseVerdict(
        p=p,
        q=q,
        alpha=a,
        precondition=precondition,
        superadditive=var_sum > var_x + var_y,
        var_sum=var_sum,
        var_x=var_x,
        var_y=var_y,
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Scale knobs for the seeded instance generators.

    Atom values are rationals in ``value_range`` with denominator at most
    ``denom_bound``; atom probabilities are multiples of 1/D for a
    per-marginal denominator D <= denom_bound. Small bounds keep the exact
    convolutions fast.
    """

    n: int = 2
    max_atoms: int = 8
    value_range: tuple[int, int] = (-10, 10)
    denom_bound: int = 16

    def __post_init__(self) -> None:
        lo, hi = self.value_range
        if self.n < 1 or self.max_atoms < 1 or self.denom_bound < 1 or lo > hi:
            raise ValueError(f"degenerate generator spec: {self}")


def _random_marginal(rng: random.Random, spec: GeneratorSpec) -> DiscreteDistribution:
    lo, hi = spec.value_range
    target = rng.randint(1, min(spec.max_atoms, spec.denom_bound))
    values: set[tuple[int, int]] = set()  # reduced (numerator, denominator)
    for _ in range(64 * target):
        if len(values) == target:
            break
        den = rng.randint(1, spec.denom_bound)
        num = rng.randint(lo * den, hi * den)
        g = gcd(num, den)
        values.add((num // g, den // g))
    scale = lcm(*(den for _, den in values))
    xs = sorted(num * (scale // den) for num, den in values)
    k = len(xs)
    denom = rng.randint(k, spec.denom_bound)
    edges = [0, *sorted(rng.sample(range(1, denom), k - 1)), denom]
    counts = [b - a for a, b in zip(edges, edges[1:])]
    g = gcd(*counts)
    return DiscreteDistribution._lattice(scale, tuple(xs), tuple(c // g for c in counts))


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
    shuffled independently, and matched cells are merged back into support
    points. The construction preserves every marginal exactly; without the
    shuffles it reproduces the comonotonic coupling.
    """
    rng = random.Random(seed)
    ms = [_random_marginal(rng, spec) for _ in range(spec.n)]
    denom = lcm(*(m.prob_denom for m in ms))
    if denom > MAX_JOINT_POINTS:
        raise ValueError(
            f"common denominator {denom} exceeds the {MAX_JOINT_POINTS}-cell guard"
        )
    scale = lcm(*(m.coord_denom for m in ms))
    columns = []
    for m in ms:
        # the value of each cell, shuffled in place: a uniform permutation
        column: list[int] = []
        for x, c in zip(m.xs, m.counts):
            column += [x * (scale // m.coord_denom)] * (c * (denom // m.prob_denom))
        rng.shuffle(column)
        columns.append(column)
    cells = Counter(zip(*columns))
    return JointDiscreteDistribution._lattice(*_merged(scale, cells, cells.values()), ms)
