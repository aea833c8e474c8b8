"""Comonotonicity of finite supports and joint laws.

A point set is comonotonic when it is totally ordered by the componentwise
order; a random vector is comonotonic when its support is. This module
detects that property, constructs the comonotonic coupling of given marginals
by the quantile transform, and provides two characterizations (the min copula
identity and convex-order maximality of the coordinate sum) used to
cross-check the detector. Both compare a law with that comonotonic
rearrangement of its own marginals, independently of the detector's chain
check.

A coupling is built once per marginal tuple while it lives: `_LIVE` maps
``id(ms)`` to the live coupling that holds the exact tuple ``ms`` as its
marginals, which is sound, as that coupling keeps the tuple and so its id.
So a coupling's own marginals find the coupling, and a law's rearrangement,
kept alive by the law, is found by every caller that couples the law's
``marginals()``. The registry's references are weak and nothing is written
into a marginal, so a coupling is freed by reference counting alone.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import islice
from operator import gt, le, sub
from typing import Iterable, NamedTuple, Sequence

from .distributions import (
    DiscreteDistribution,
    JointDiscreteDistribution,
    _size_guard,
    _sweep,
)

Point = tuple[Fraction, ...]

# The live coupling of each marginal tuple, by the tuple's id.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# The instance-dict entry of a joint law's comonotonic rearrangement when that
# is not the law itself: a reference to itself would make the law cyclic garbage.
_REARRANGED = "_rearranged"


class ComonotoneVerdict(NamedTuple):
    """Detection result; ``witness`` is a genuinely violating pair on failure
    (one coordinate strictly rises while another strictly falls)."""

    comonotonic: bool
    witness: tuple[Point, Point] | None = None


def _is_chain(points: Sequence[tuple[int, ...]]) -> bool:
    """Whether distinct points in increasing (lexicographic) order are totally
    ordered componentwise.

    A componentwise chain is increasing in lexicographic order too, so it is
    a chain exactly when every consecutive pair is ordered componentwise.
    """
    return all(all(map(le, a, b)) for a, b in zip(points, islice(points, 1, None)))


def is_comonotonic_support(points: Iterable[Sequence]) -> ComonotoneVerdict:
    """Check whether a point set is totally ordered componentwise."""
    return is_comonotonic(JointDiscreteDistribution.from_weighted_points((p, 1) for p in points))


def is_comonotonic(j: JointDiscreteDistribution) -> ComonotoneVerdict:
    """Detect comonotonicity of a joint law via its support.

    Every stored point carries positive probability, so the point set is
    exactly the support, and `_is_chain` decides it. A support that is no
    chain needs a witness the output pins. The coordinate sum is strictly
    monotone along any componentwise chain, so in the points sorted by their
    sum the first consecutive pair that is not ordered is incomparable and
    serves. The sort is stable, so it gives (sum, point) order.
    """
    if _is_chain(j.xs):
        return ComonotoneVerdict(comonotonic=True)
    chain = sorted(j.xs, key=sum)
    pair = next((a, b) for a, b in zip(chain, chain[1:]) if any(map(gt, a, b)))
    witness = tuple(tuple(Fraction(x, j.coord_denom) for x in p) for p in pair)
    return ComonotoneVerdict(comonotonic=False, witness=witness)


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

    A live coupling built from the same tuple object is returned again; a
    list, or a new tuple of equal laws, gives a new law equal to it.
    """
    ms = tuple(marginals)
    if not ms:
        raise ValueError("at least one marginal is required")
    coupling = _LIVE.get(id(ms))
    if coupling is not None:
        return coupling
    scale, _, levels, columns = _sweep(ms)
    _size_guard(len(levels), "support of {} points")  # before any column is evaluated
    points = tuple(zip(*columns))
    # Already the lattice form: each piece moves some coordinate to its next
    # atom, so points increase, and coprime marginal counts give coprime lengths.
    lengths = tuple(map(sub, levels, [0, *levels]))
    _LIVE[id(ms)] = coupling = JointDiscreteDistribution._lattice(scale, points, lengths, ms)
    return coupling


def _rearrangement(j: JointDiscreteDistribution) -> JointDiscreteDistribution:
    """The comonotonic coupling of the marginals of ``j``, built on first use.

    ``j`` keeps it alive, unless it is ``j`` itself, so later calls and every
    `comonotonic_coupling` of ``j.marginals()`` find it."""
    rearranged = vars(j).get(_REARRANGED)
    if rearranged is None:
        rearranged = comonotonic_coupling(j.marginals())
        if rearranged is not j:
            vars(j)[_REARRANGED] = rearranged
    return rearranged


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
