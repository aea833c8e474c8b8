"""Exact finite discrete probability distributions over the rationals.

Every law lives on an integer lattice: coordinates are integers over L, the
least common multiple of their denominators, and probabilities are positive
integer counts over D, the lcm of theirs. Both are minimal, so the lattice
form is unique and equality of two instances is equality of the laws. All
work on laws is exact integer arithmetic, which is what turns the finite
breakpoint sweeps elsewhere in the package into genuine decisions of "for
all confidence levels" statements. `Fraction` appears only at the boundary:
constructors accept any rationals, and the `Fraction` views (`atoms`,
`values`, `probs`, `cumulative`, `points`) are built on first use.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

# Practical ceiling on support and grid sizes; exact enumeration past this
# point is no longer desk-scale.
MAX_JOINT_POINTS = 100_000
# Bound on the bits of the common denominators of a law built from caller
# data: of its coordinates, of its weights and of its probabilities. It is
# the bit length of 10**1000, so a decimal of 1,000 places fits.
MAX_SCALE_BITS = 3322


class LatticeBoundError(ValueError):
    """A lattice denominator passed `MAX_SCALE_BITS`. ``row`` indexes the
    input row whose entry took it past; ``coordinate`` is that entry's index
    in the row's coordinates, or None for its weight."""

    def __init__(self, message: str, row: int, coordinate: int | None) -> None:
        super().__init__(message)
        self.row = row
        self.coordinate = coordinate


def _canonical(pairs: Iterable[tuple], *, normalize: bool, what: str):
    """`_lattice_form` of (coords, probability) pairs of any rationals."""
    rows = [
        (tuple(Fraction(x).as_integer_ratio() for x in coords), Fraction(p).as_integer_ratio())
        for coords, p in pairs
    ]
    return _lattice_form(rows, normalize=normalize, what=what)


def _lattice_form(rows: Sequence[tuple], *, normalize: bool, what: str):
    """Lattice form ``(L, points, counts)`` of raw (coords, probability) rows.

    Every coordinate and probability is an integer pair ``(numerator,
    denominator)`` with a positive denominator. Points come back distinct and
    increasing, as integer tuples over the minimal scale L, with positive
    counts whose gcd is 1. A negative entry is rejected before duplicates
    merge. With ``normalize`` the probabilities are weights with a positive
    total; otherwise they must sum to exactly 1. L, the lcm of the
    probability denominators and the probability denominator of the merged
    law may each have at most `MAX_SCALE_BITS` bits: the entry that takes one
    past raises `LatticeBoundError`.
    """
    if not rows:
        raise ValueError(f"at least one {what} is required")
    n = len(rows[0][0])
    if n == 0:
        raise ValueError("points must have at least one coordinate")
    if any(len(coords) != n for coords, _ in rows):
        raise ValueError("all points must share the same dimension")
    kind = "weights" if normalize else f"{what} probabilities"
    if any(num < 0 for _, (num, _) in rows):
        raise ValueError(f"{kind} must be nonnegative")

    bound = f"exceeds {MAX_SCALE_BITS} bits"
    scale, over = _lcm_within([d for coords, _ in rows for _, d in coords])
    if over is not None:
        raise LatticeBoundError(f"the common denominator of the coordinates {bound}", *divmod(over, n))
    denom, over = _lcm_within([d for _, (_, d) in rows])
    if over is not None:
        raise LatticeBoundError(f"the common denominator of the {kind} {bound}", over, None)
    keys = [tuple([x * (scale // d) for x, d in coords]) for coords, _ in rows]
    weights = [p * (denom // d) for _, (p, d) in rows]
    total = sum(weights)
    if normalize and total == 0:
        raise ValueError("total weight must be positive")
    if not normalize and total != denom:
        raise ValueError(f"{kind} must sum to exactly 1, got {Fraction(total, denom)}")
    scale, points, counts = _merged(scale, keys, weights)
    if sum(counts).bit_length() > MAX_SCALE_BITS:
        unit = total // sum(counts)  # the weight of one count
        totals = itertools.accumulate(weights)
        k = next(k for k, t in enumerate(totals) if (t // unit).bit_length() > MAX_SCALE_BITS)
        raise LatticeBoundError(f"the probability denominator {bound}", k, None)
    return scale, points, counts


def _lcm_within(dens: list[int]) -> tuple[int, int | None]:
    """The lcm of ``dens`` and, if it grows past `MAX_SCALE_BITS` bits, the
    index of the first entry that takes it there (else None)."""
    acc = 1
    for d in dict.fromkeys(dens):  # distinct, in order of first appearance
        acc = math.lcm(acc, d)
        if acc.bit_length() > MAX_SCALE_BITS:
            return acc, dens.index(d)
    return acc, None


def _merged(scale: int, keys: Iterable[tuple], counts: Iterable[int]):
    """Lattice form of integer points over ``scale`` with nonnegative counts:
    duplicates merge, zeros drop, points sort, scale and counts reduce."""
    acc: dict[tuple[int, ...], int] = {}
    for key, c in zip(keys, counts):
        acc[key] = acc.get(key, 0) + c
    points = [key for key, c in acc.items() if c]
    if len(points) > MAX_JOINT_POINTS:
        raise ValueError(
            f"support of {len(points)} points exceeds the {MAX_JOINT_POINTS}-point guard"
        )
    points.sort()
    counts = [acc[key] for key in points]
    g = math.gcd(*counts)
    r = math.gcd(scale, *itertools.chain.from_iterable(points))
    if r > 1:
        points = [tuple(x // r for x in key) for key in points]
    return scale // r, tuple(points), tuple(c // g for c in counts)


def _fill(law, scale: int, xs: tuple, counts: tuple) -> None:
    # The classes are frozen: write the fields directly, then derive prob_denom.
    vars(law).update(coord_denom=scale, xs=xs, counts=counts)
    law.__post_init__()


def _law(scale: int, xs: Iterable[int], counts: Iterable[int]) -> DiscreteDistribution:
    """The law putting ``counts[k]`` on ``xs[k] / scale``; values may repeat."""
    scale, points, counts = _merged(scale, ((x,) for x in xs), counts)
    return DiscreteDistribution._lattice(scale, tuple(x for (x,) in points), counts)


def _sweep(laws: Sequence[DiscreteDistribution]) -> tuple[int, list]:
    """The breakpoint intervals of ``laws``, in increasing order.

    Returns the common denominator D and, per interval, ``(level, ks)``: its
    right endpoint in units of 1/D, one of the sorted union of the laws'
    cumulative counts over D, and, for each law, the atom its left-continuous
    quantile takes there: the first whose cumulative count reaches the level
    (`bisect_left`), the rule of `DiscreteDistribution._quantile_index`.
    """
    denom = math.lcm(*(m.prob_denom for m in laws))
    cums = [[c * (denom // m.prob_denom) for c in m.cum] for m in laws]
    levels = sorted(set().union(*cums))
    columns = [[bisect_left(cum, level) for level in levels] for cum in cums]
    return denom, list(zip(levels, zip(*columns)))


@dataclass(frozen=True, init=False)
class DiscreteDistribution:
    """A finite loss distribution with exact rational atoms.

    Lattice form: atom ``k`` has value ``xs[k] / coord_denom`` and
    probability ``counts[k] / prob_denom``, with ``xs`` strictly increasing,
    every count positive and ``prob_denom`` their sum. Duplicate values are
    merged and zero-probability entries dropped on construction, so equality
    of two instances is equality of the laws they represent.
    """

    coord_denom: int
    xs: tuple[int, ...]
    counts: tuple[int, ...]

    def __init__(self, atoms: Iterable[tuple]) -> None:
        """Canonicalize (value, probability) pairs summing to exactly 1."""
        pairs = (((v,), p) for v, p in atoms)
        scale, points, counts = _canonical(pairs, normalize=False, what="atom")
        _fill(self, scale, tuple(x for (x,) in points), counts)

    @classmethod
    def _lattice(cls, scale: int, xs: tuple, counts: tuple) -> "DiscreteDistribution":
        """Trusted constructor for data already in lattice form."""
        law = object.__new__(cls)
        _fill(law, scale, xs, counts)
        return law

    def __post_init__(self) -> None:
        vars(self)["prob_denom"] = sum(self.counts)

    @classmethod
    def from_weighted_values(cls, pairs: Iterable[tuple]) -> "DiscreteDistribution":
        """Build a distribution from (value, weight) pairs.

        Weights may repeat values and need not sum to one; they are merged
        and normalized. Weights must be nonnegative with a positive total.
        """
        pairs = (((v,), w) for v, w in pairs)
        scale, points, counts = _canonical(pairs, normalize=True, what="(value, weight) pair")
        return cls._lattice(scale, tuple(x for (x,) in points), counts)

    @classmethod
    def point_mass(cls, value) -> "DiscreteDistribution":
        """The degenerate distribution concentrated at ``value``."""
        v = Fraction(value)
        return cls._lattice(v.denominator, (v.numerator,), (1,))

    @classmethod
    def bernoulli(cls, p) -> "DiscreteDistribution":
        """Loss equal to 1 with probability ``p`` and to 0 otherwise."""
        p = Fraction(p)
        if not 0 < p < 1:
            raise ValueError("bernoulli parameter must lie strictly inside (0, 1)")
        return cls._lattice(1, (0, 1), (p.denominator - p.numerator, p.numerator))

    @cached_property
    def cum(self) -> tuple[int, ...]:
        """Cumulative count at each atom; strictly increasing, ends at ``prob_denom``."""
        return tuple(itertools.accumulate(self.counts))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.coord_denom) for x in self.xs)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.prob_denom) for c in self.counts)

    @cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.values, self.probs))

    @cached_property
    def cumulative(self) -> tuple[Fraction, ...]:
        """Cumulative probability at each atom; strictly increasing, ends at 1."""
        return tuple(Fraction(c, self.prob_denom) for c in self.cum)

    def cdf(self, x) -> Fraction:
        """P(X <= x); a right-continuous step function of x."""
        x = Fraction(x)
        i = bisect_right(self.xs, x.numerator * self.coord_denom // x.denominator)
        return Fraction(self.cum[i - 1], self.prob_denom) if i else Fraction(0)

    def quantile(self, alpha) -> Fraction:
        """Left-continuous generalized inverse, inf{x : F(x) >= alpha}.

        At a cumulative-probability breakpoint this returns the value attained
        on the interval ending there. ``alpha`` must lie strictly inside
        (0, 1).
        """
        return Fraction(self.xs[self._quantile_index(alpha)], self.coord_denom)

    def _quantile_index(self, alpha) -> int:
        """Index of the atom that `quantile` returns at ``alpha``."""
        a = Fraction(alpha)
        if not 0 < a < 1:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {a}")
        # the first atom whose cumulative count reaches ceil(alpha * prob_denom)
        return bisect_left(self.cum, -(-a.numerator * self.prob_denom // a.denominator))

    def mean(self) -> Fraction:
        """Exact expectation."""
        return Fraction(sum(map(mul, self.xs, self.counts)), self.coord_denom * self.prob_denom)

    def shift(self, c) -> "DiscreteDistribution":
        """The law of X + c."""
        c = Fraction(c)
        scale = math.lcm(self.coord_denom, c.denominator)
        f, offset = scale // self.coord_denom, c.numerator * (scale // c.denominator)
        return _law(scale, (x * f + offset for x in self.xs), self.counts)

    def scale(self, factor) -> "DiscreteDistribution":
        """The law of factor * X."""
        factor = Fraction(factor)
        xs = (x * factor.numerator for x in self.xs)
        return _law(self.coord_denom * factor.denominator, xs, self.counts)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True, init=False)
class JointDiscreteDistribution:
    """A finite joint law on rational points in n dimensions.

    This is the carrier for couplings. Lattice form: point ``k`` has
    coordinates ``xs[k][i] / coord_denom`` and probability
    ``counts[k] / prob_denom``, with the integer tuples ``xs`` distinct and
    increasing and every count positive. Points are merged and sorted on
    construction. The marginal laws and the law of the coordinate sum are
    computed once and cached.
    """

    coord_denom: int
    xs: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    def __init__(self, points: Iterable[tuple]) -> None:
        """Canonicalize (coords, probability) pairs summing to exactly 1."""
        _fill(self, *_canonical(points, normalize=False, what="point"))

    @classmethod
    def _lattice(
        cls, scale: int, xs: tuple, counts: tuple, marginals: tuple | None = None
    ) -> "JointDiscreteDistribution":
        """Trusted constructor for data already in lattice form; ``marginals``
        known by construction seed the cache of ``marginals()``."""
        law = object.__new__(cls)
        _fill(law, scale, xs, counts)
        if marginals is not None:
            vars(law)["_marginals"] = tuple(marginals)
        return law

    def __post_init__(self) -> None:
        vars(self)["prob_denom"] = sum(self.counts)

    @classmethod
    def from_weighted_points(
        cls, pairs: Iterable[tuple], *, ratios: bool = False
    ) -> "JointDiscreteDistribution":
        """Build a joint law from (coords, weight) pairs, merging and normalizing.

        With ``ratios`` the pairs are a sequence whose every coordinate and
        weight is already an integer pair (numerator, positive denominator),
        as CSV cells parse to; no `Fraction` is built.
        """
        form = _lattice_form if ratios else _canonical
        return cls._lattice(*form(pairs, normalize=True, what="(coords, weight) pair"))

    @cached_property
    def points(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        return tuple(
            (tuple(Fraction(x, self.coord_denom) for x in coords), Fraction(c, self.prob_denom))
            for coords, c in zip(self.xs, self.counts)
        )

    @property
    def dimension(self) -> int:
        return len(self.xs[0])

    def support(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distinct coordinate tuples carrying positive probability."""
        return tuple(coords for coords, _ in self.points)

    @cached_property
    def _marginals(self) -> tuple[DiscreteDistribution, ...]:
        return tuple(_law(self.coord_denom, column, self.counts) for column in zip(*self.xs))

    @cached_property
    def _sum(self) -> DiscreteDistribution:
        return _law(self.coord_denom, map(sum, self.xs), self.counts)

    def marginal(self, i: int) -> DiscreteDistribution:
        """Project onto coordinate ``i`` (0-based), merging collisions."""
        if not 0 <= i < self.dimension:
            raise IndexError(
                f"coordinate index {i} out of range for dimension {self.dimension}"
            )
        return self._marginals[i]

    def marginals(self) -> tuple[DiscreteDistribution, ...]:
        return self._marginals

    def sum_distribution(self) -> DiscreteDistribution:
        """The exact law of the coordinate sum."""
        return self._sum

    def __len__(self) -> int:
        return len(self.xs)


def independent_product(*marginals: DiscreteDistribution) -> JointDiscreteDistribution:
    """Joint law with the given marginals and independent coordinates."""
    if not marginals:
        raise ValueError("at least one marginal is required")
    size = math.prod(len(m) for m in marginals)
    if size > MAX_JOINT_POINTS:
        raise ValueError(
            f"independent product of {size} points exceeds the {MAX_JOINT_POINTS}-point guard"
        )
    scale = math.lcm(*(m.coord_denom for m in marginals))
    axes = [[x * (scale // m.coord_denom) for x in m.xs] for m in marginals]
    # Products of coprime-count marginals stay coprime, and the product order
    # of increasing axes is already increasing, so this is the lattice form.
    return JointDiscreteDistribution._lattice(
        scale,
        tuple(itertools.product(*axes)),
        tuple(map(math.prod, itertools.product(*(m.counts for m in marginals)))),
        marginals,
    )
