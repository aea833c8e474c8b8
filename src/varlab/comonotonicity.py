"""Comonotonicity of finite supports and joint laws.

A point set is comonotonic when it is totally ordered by the componentwise
order; a random vector is comonotonic when its support is. This module
detects that property, constructs the comonotonic coupling of given marginals
by the quantile transform, and provides two characterizations (the min copula
identity and convex-order maximality of the coordinate sum) used to
cross-check the detector. Both compare a law with that comonotonic
rearrangement of its own marginals, independently of the detector's chain
check. The rearrangement is built at most once per law and kept in the law's
instance dict, like its cached views; a law that `comonotonic_coupling`
returned is marked as its own rearrangement, so it is never built again.
"""

from __future__ import annotations

from fractions import Fraction
from operator import gt, sub
from typing import Iterable, NamedTuple, Sequence

from .distributions import (
    DiscreteDistribution,
    JointDiscreteDistribution,
    _canonical,
    _size_guard,
    _sweep,
)

Point = tuple[Fraction, ...]

# The instance-dict entry of a joint law's comonotonic rearrangement, and the
# mark that the law is its own: a reference to itself would make every
# coupling cyclic garbage.
_REARRANGED = "_rearranged"
_ITSELF = object()


class ComonotoneVerdict(NamedTuple):
    """Detection result; ``witness`` is a genuinely violating pair on failure
    (one coordinate strictly rises while another strictly falls)."""

    comonotonic: bool
    witness: tuple[Point, Point] | None = None


def _chain_verdict(scale: int, points: Iterable[tuple[int, ...]]) -> ComonotoneVerdict:
    """Chain check of distinct integer points, in increasing order, over the
    coordinate scale ``scale``.

    The coordinate sum is strictly monotone along any componentwise chain, so
    sorting the points by their sum and comparing consecutive pairs is a
    complete check: if every consecutive pair is ordered the set is a chain,
    and the first consecutive pair that is not ordered is incomparable and
    serves as the witness. The sort is stable, so it gives (sum, point) order.
    """
    chain = sorted(points, key=sum)
    for a, b in zip(chain, chain[1:]):
        if any(map(gt, a, b)):
            witness = tuple(tuple(Fraction(x, scale) for x in p) for p in (a, b))
            return ComonotoneVerdict(comonotonic=False, witness=witness)
    return ComonotoneVerdict(comonotonic=True)


def is_comonotonic_support(points: Iterable[Sequence]) -> ComonotoneVerdict:
    """Check whether a point set is totally ordered componentwise."""
    scale, lattice, _ = _canonical(((p, 1) for p in points), normalize=True, what="point")
    return _chain_verdict(scale, lattice)


def is_comonotonic(j: JointDiscreteDistribution) -> ComonotoneVerdict:
    """Detect comonotonicity of a joint law via its support.

    Every stored point carries positive probability, so the point set is
    exactly the support.
    """
    return _chain_verdict(j.coord_denom, j.xs)


def comonotonic_coupling(
    marginals: Iterable[DiscreteDistribution],
) -> JointDiscreteDistribution:
    """Couple the given marginals through a single uniform level.

    The unit interval is cut at every cumulative-probability breakpoint of
    every marginal. On each piece all marginal quantile functions are
    constant, so the piece contributes one support point whose coordinates
    are those quantile values (evaluated at the piece's right endpoint, by
    left continuity) and whose probability is the piece's length. The output
    reproduces the input marginals exactly.
    """
    ms = tuple(marginals)
    if not ms:
        raise ValueError("at least one marginal is required")
    scale, _, levels, columns = _sweep(ms)
    _size_guard(len(levels), "support of {} points")  # before any column is evaluated
    points = tuple(zip(*columns))
    # Already the lattice form: each piece moves some coordinate to its next
    # atom, so points increase, and coprime marginal counts give coprime lengths.
    lengths = tuple(map(sub, levels, [0, *levels]))
    coupling = JointDiscreteDistribution._lattice(scale, points, lengths, ms)
    vars(coupling)[_REARRANGED] = _ITSELF  # the coupling of its marginals, ms, is itself
    return coupling


def _rearrangement(j: JointDiscreteDistribution) -> JointDiscreteDistribution:
    """The comonotonic coupling of the marginals of ``j``, built on first use."""
    rearranged = vars(j).get(_REARRANGED)
    if rearranged is None:
        rearranged = vars(j)[_REARRANGED] = comonotonic_coupling(j.marginals())
    return j if rearranged is _ITSELF else rearranged


def min_copula_check(j: JointDiscreteDistribution) -> bool:
    """Test whether the joint CDF equals the minimum of the marginal CDFs.

    The law whose CDF is that minimum is the comonotonic coupling of the
    marginals, and equal laws have equal lattice forms, so one law comparison
    decides the identity.
    """
    return j == _rearrangement(j)


def convex_order_max_check(j: JointDiscreteDistribution) -> bool:
    """Does the coordinate sum of ``j`` attain the convex-order maximum?

    The comonotonic rearrangement of the marginals maximizes the sum in the
    convex order over every joint law with those marginals, and the convex
    order separates distributions, so a single distribution comparison
    against the rearranged sum decides the question exactly.
    """
    return j.sum_distribution() == _rearrangement(j).sum_distribution()
