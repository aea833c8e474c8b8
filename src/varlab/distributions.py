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
from fractions import Fraction
from operator import lt, mul
from typing import Iterable, Sequence

Rational = Fraction

# Practical ceiling on support sizes and on the cells of `random_coupling`;
# exact enumeration past this point is no longer desk-scale.
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
    """`_lattice_form` of (coords, probability) pairs of any rationals.

    It checks that the rows share one dimension; then rows of zero mass
    leave, before the lattice is fixed, so their denominators count for
    nothing. A `LatticeBoundError` names the row by its index in ``pairs``.
    """
    rows = [
        (tuple(Fraction(x).as_integer_ratio() for x in coords), Fraction(p).as_integer_ratio())
        for coords, p in pairs
    ]
    if not rows:
        raise ValueError(f"at least one {what} is required")
    n = len(rows[0][0])
    if n == 0:
        raise ValueError("points must have at least one coordinate")
    if any(len(coords) != n for coords, _ in rows):
        raise ValueError("all points must share the same dimension")
    live = [k for k, (_, (p, _)) in enumerate(rows) if p]
    ids = range(len(live))  # one table entry per row
    columns = [([rows[k][0][i] for k in live], ids) for i in range(n)]
    try:
        return _lattice_form(columns, ([rows[k][1] for k in live], ids), normalize=normalize, what=what)
    except LatticeBoundError as exc:
        raise LatticeBoundError(str(exc), live[exc.row], exc.coordinate) from None


class _Columns:
    """Reduced (coords, weight) pairs held column by column, in the form
    `_lattice_form` takes: ``columns`` is one ``(table, ids)`` pair per
    coordinate and ``weights`` one for the weights, every weight positive.
    `JointDiscreteDistribution.from_weighted_points` hands them to the
    lattice as they are. Its length is the number of pairs.
    """

    def __init__(self, columns: Sequence[tuple], weights: tuple) -> None:
        self.columns, self.weights = columns, weights

    def __len__(self) -> int:
        return len(self.weights[1])


def _lattice_form(columns: Sequence[tuple], weights: tuple, *, normalize: bool, what: str):
    """Lattice form ``(L, points, counts)`` of rows of nonzero mass, given
    column by column.

    Each coordinate column and the weight column is a pair ``(table,
    ids)``: ``table`` lists reduced integer pairs (numerator, positive
    denominator), each used by some row, and row ``k`` holds
    ``table[ids[k]]``. An entry that many rows share is one pair and scales
    to one int, which every point that holds it shares. A negative weight
    is rejected first. L is the lcm of the coordinate tables'
    denominators, minimal as the pairs are reduced. Points come back
    distinct and increasing, as integer tuples over L, with positive counts
    whose gcd is 1. With ``normalize`` the weights need a positive total;
    otherwise they are ``what`` probabilities that must sum to exactly 1. L,
    the lcm of the weight denominators and the probability denominator of
    the merged law may each have at most `MAX_SCALE_BITS` bits: the entry
    that takes one past, in row-major order, raises `LatticeBoundError`.
    """
    kind = "weights" if normalize else f"{what} probabilities"
    wtable, wids = weights
    if any(num < 0 for num, _ in wtable):
        raise ValueError(f"{kind} must be nonnegative")

    bound = f"exceeds {MAX_SCALE_BITS} bits"
    scale, over = _lcm_within([d for table, _ in columns for _, d in table])
    if over is not None:  # past the bound in any order: find the entry in row-major order
        _, over = _lcm_within([table[ids[k]][1] for k in range(len(wids)) for table, ids in columns])
        row, i = divmod(over, len(columns))
        raise LatticeBoundError(f"the common denominator of the coordinates {bound}", row, i)
    denom, over = _lcm_within([d for _, d in wtable])
    if over is not None:
        _, over = _lcm_within([wtable[i][1] for i in wids])
        raise LatticeBoundError(f"the common denominator of the {kind} {bound}", over, None)
    keys = zip(*[map([x * (scale // d) for x, d in table].__getitem__, ids) for table, ids in columns])
    weights = list(map([p * (denom // d) for p, d in wtable].__getitem__, wids))
    total = sum(weights)
    if normalize and total == 0:
        raise ValueError("total weight must be positive")
    if not normalize and total != denom:
        raise ValueError(f"{kind} must sum to exactly 1, got {Fraction(total, denom)}")
    points, counts = _merged(keys, weights)
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


def _size_guard(size: int, what: str, unit: str = "point") -> None:
    """Raise ValueError if ``size`` passes `MAX_JOINT_POINTS`; ``what``, with
    ``{}`` for the size, names the thing counted in ``unit``s."""
    if size > MAX_JOINT_POINTS:
        raise ValueError(f"{what.format(size)} exceeds the {MAX_JOINT_POINTS}-{unit} guard")


def _merged(keys: Iterable, counts: Sequence[int]) -> tuple[tuple, tuple[int, ...]]:
    """The one merge of law points: the distinct int or int-tuple ``keys``,
    increasing, and their positive ``counts`` summed and divided by their gcd.
    Keys that come strictly increasing, as the coordinate sums of a
    comonotonic joint law (its lexicographic order is its sum order), are
    already distinct and sorted, so they skip the dict."""
    keys = tuple(keys)
    if not all(map(lt, keys, itertools.islice(keys, 1, None))):  # islice copies nothing
        acc: dict = {}
        for key, c in zip(keys, counts):
            acc[key] = acc.get(key, 0) + c
        keys = tuple(sorted(acc))
        counts = [acc[key] for key in keys]
    _size_guard(len(keys), "support of {} points")
    g = math.gcd(*counts)
    return keys, tuple(counts) if g == 1 else tuple([c // g for c in counts])


# Sets a slot of a law around `_Law.__setattr__`, which refuses every write.
_set = object.__setattr__


class _view:
    """A view computed on first read and written into the instance dict,
    which that first write creates: a law whose views are never read has none.

    A non-data descriptor, so every later read finds the dict entry and never
    reaches it. Unlike `functools.cached_property` it takes no lock: the views
    are pure functions of immutable fields, so two threads that race on a first
    read compute equal values and either write is right. The write goes around
    `_Law.__setattr__`, which keeps laws immutable."""

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.fn(obj)
        return value


class _Law:
    """The lattice fields ``coord_denom``, ``xs``, ``counts`` and ``prob_denom``
    of both law classes, their one trusted constructor, and equality of class
    and fields. Laws are immutable. The fields live in slots, set once with
    `object.__setattr__`. The instance dict holds only what the `_view` views
    and `comonotonicity` write there, and exists only once they do. The weak
    reference slot serves the coupling registry."""

    __slots__ = ("coord_denom", "xs", "counts", "prob_denom", "__dict__", "__weakref__")

    @classmethod
    def _lattice(cls, scale: int, xs: tuple, counts: tuple, marginals: tuple | None = None):
        """Trusted constructor for data already in lattice form; ``marginals``
        known by construction seed the cache of a joint law's ``marginals()``."""
        law = object.__new__(cls)
        _set(law, "coord_denom", scale)
        _set(law, "xs", xs)
        _set(law, "counts", counts)
        if marginals is not None:
            vars(law)["_marginals"] = tuple(marginals)
        law.__post_init__()  # one per class, as bench/spans.py wraps only a class's own methods
        return law

    def _key(self) -> tuple:
        return self.coord_denom, self.xs, self.counts

    def __eq__(self, other) -> bool:
        if other is self:  # as when a comonotonic coupling meets its own rearrangement
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coord_denom == other.coord_denom and self.counts == other.counts
                and self.xs == other.xs)

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "{}(coord_denom={!r}, xs={!r}, counts={!r})".format(type(self).__name__, *self._key())

    def __reduce__(self):
        return self._lattice, self._key()

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot change {name!r}: laws are immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.xs)


def _law(scale: int, xs: Iterable[int], counts: Sequence[int]) -> DiscreteDistribution:
    """The law putting positive ``counts[k]`` on ``xs[k] / scale``; values may
    repeat. `_merged` merges the int values, and dividing the scale and the
    values by their gcd gives the minimal lattice form."""
    xs, counts = _merged(xs, counts)
    r = math.gcd(scale, *xs)
    if r > 1:
        scale, xs = scale // r, tuple([x // r for x in xs])
    return DiscreteDistribution._lattice(scale, xs, counts)


def _common_lattice(laws: Sequence[DiscreteDistribution]) -> tuple[int, int, list, list]:
    """Where laws meet: L, the lcm of the laws' ``coord_denom``, D, the lcm of
    their ``prob_denom``, and per law its ``xs`` over L and its ``_cum`` over
    D: the law's own tuples where its factor is 1, else scaled copies."""
    scale = math.lcm(*[m.coord_denom for m in laws])
    denom = math.lcm(*[m.prob_denom for m in laws])
    values, cums = [], []
    for m in laws:
        f, g = scale // m.coord_denom, denom // m.prob_denom
        values.append(m.xs if f == 1 else [x * f for x in m.xs])
        cums.append(m._cum if g == 1 else [c * g for c in m._cum])
    return scale, denom, values, cums


def _sweep(laws: Sequence[DiscreteDistribution], alphas: Iterable | None = None):
    """Every law's VaR at each level: the one evaluator of VaR in the package.

    Returns the laws' `_common_lattice` scales L and D, the levels over D and
    an iterator of per-law columns of the left-continuous quantile at each
    level, over L: the first atom whose cumulative count from that helper
    reaches the level (`bisect_left`). The levels are the breakpoint
    intervals' right endpoints (the sorted union of the laws' cumulative
    counts), or ceil(alpha * D) for each of explicit ``alphas``, in order,
    each strictly inside (0, 1).
    """
    scale, denom, values, cums = _common_lattice(laws)
    if alphas is None:
        levels = sorted(set().union(*cums))
    else:
        levels = []
        for a in map(Fraction, alphas):
            if not 0 < a < 1:
                raise ValueError(f"alpha must lie strictly inside (0, 1), got {a}")
            levels.append(-(-a.numerator * denom // a.denominator))
    columns = ([xs[bisect_left(cum, level)] for level in levels] for xs, cum in zip(values, cums))
    return scale, denom, levels, columns


class DiscreteDistribution(_Law):
    """A finite loss distribution with exact rational atoms.

    Lattice form: atom ``k`` has value ``xs[k] / coord_denom`` and
    probability ``counts[k] / prob_denom``, with ``xs`` strictly increasing,
    every count positive and ``prob_denom`` their sum. Duplicate values are
    merged and zero-probability entries dropped on construction, so equality
    of two instances is equality of the laws they represent. Its one table of
    cumulative counts, ``_cum``, is built with it and ends at ``prob_denom``.
    """

    coord_denom: int
    xs: tuple[int, ...]
    counts: tuple[int, ...]
    __slots__ = ("_cum",)

    def __new__(cls, atoms: Iterable[tuple]) -> "DiscreteDistribution":
        """Canonicalize (value, probability) pairs summing to exactly 1."""
        pairs = (((v,), p) for v, p in atoms)
        scale, points, counts = _canonical(pairs, normalize=False, what="atom")
        return cls._lattice(scale, tuple(x for (x,) in points), counts)

    def __post_init__(self) -> None:
        cum = tuple(itertools.accumulate(self.counts))
        _set(self, "_cum", cum)
        _set(self, "prob_denom", cum[-1])

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

    @_view
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.coord_denom) for x in self.xs)

    @_view
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.prob_denom) for c in self.counts)

    @_view
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.values, self.probs))

    @_view
    def cumulative(self) -> tuple[Fraction, ...]:
        """Cumulative probability at each atom; strictly increasing, ends at 1."""
        return tuple(Fraction(c, self.prob_denom) for c in self._cum)

    def cdf(self, x) -> Fraction:
        """P(X <= x); a right-continuous step function of x."""
        x = Fraction(x)
        i = bisect_right(self.xs, x.numerator * self.coord_denom // x.denominator)
        return Fraction(self._cum[i - 1], self.prob_denom) if i else Fraction(0)

    def quantile(self, alpha) -> Fraction:
        """Left-continuous generalized inverse, inf{x : F(x) >= alpha}.

        At a cumulative-probability breakpoint this returns the value attained
        on the interval ending there. ``alpha`` must lie strictly inside
        (0, 1). This is the one-law `_sweep` at the one level.
        """
        scale, _, _, ((x,),) = _sweep((self,), (alpha,))
        return Fraction(x, scale)

    def mean(self) -> Fraction:
        """Exact expectation."""
        return Fraction(sum(map(mul, self.xs, self.counts)), self.coord_denom * self.prob_denom)

    def shift(self, c) -> "DiscreteDistribution":
        """The law of X + c."""
        scale, _, (xs, (offset,)), _ = _common_lattice((self, self.point_mass(c)))
        return _law(scale, (x + offset for x in xs), self.counts)

    def scale(self, factor) -> "DiscreteDistribution":
        """The law of factor * X."""
        factor = Fraction(factor)
        xs = (x * factor.numerator for x in self.xs)
        return _law(self.coord_denom * factor.denominator, xs, self.counts)


class JointDiscreteDistribution(_Law):
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
    __slots__ = ()

    def __new__(cls, points: Iterable[tuple]) -> "JointDiscreteDistribution":
        """Canonicalize (coords, probability) pairs summing to exactly 1."""
        return cls._lattice(*_canonical(points, normalize=False, what="point"))

    def __post_init__(self) -> None:
        _set(self, "prob_denom", sum(self.counts))

    @classmethod
    def from_weighted_points(cls, pairs: Iterable[tuple]) -> "JointDiscreteDistribution":
        """Build a joint law from (coords, weight) pairs, merging and normalizing."""
        what = "(coords, weight) pair"
        if isinstance(pairs, _Columns):  # reduced pairs, already column by column
            return cls._lattice(*_lattice_form(pairs.columns, pairs.weights, normalize=True, what=what))
        return cls._lattice(*_canonical(pairs, normalize=True, what=what))

    @_view
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

    @_view
    def _marginals(self) -> tuple[DiscreteDistribution, ...]:
        return tuple(_law(self.coord_denom, column, self.counts) for column in zip(*self.xs))

    @_view
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


def independent_product(*marginals: DiscreteDistribution) -> JointDiscreteDistribution:
    """Joint law with the given marginals and independent coordinates."""
    if not marginals:
        raise ValueError("at least one marginal is required")
    _size_guard(math.prod(len(m) for m in marginals), "independent product of {} points")
    scale, _, axes, _ = _common_lattice(marginals)
    # Products of coprime-count marginals stay coprime, and the product order
    # of increasing axes is already increasing, so this is the lattice form.
    return JointDiscreteDistribution._lattice(
        scale,
        tuple(itertools.product(*axes)),
        tuple(map(math.prod, itertools.product(*(m.counts for m in marginals)))),
        marginals,
    )
