"""Comonotonicity of finite supports and joint laws.

A point set is comonotonic when it is totally ordered by the componentwise
order; a random vector is comonotonic when its support is. This module
detects that property, constructs the comonotonic coupling of given marginals
by the quantile transform, and provides two independently computed
characterizations (the min copula identity and convex-order maximality of the
coordinate sum) used to cross-check the detector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import gt
from typing import Iterable, Sequence

from .distributions import (
    MAX_JOINT_POINTS,
    DiscreteDistribution,
    JointDiscreteDistribution,
    _canonical,
    _sweep,
)

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class ComonotoneVerdict:
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
    _, steps = _sweep(ms)
    scale = math.lcm(*(m.coord_denom for m in ms))
    factors = [scale // m.coord_denom for m in ms]
    points = tuple(tuple(m.xs[k] * f for m, k, f in zip(ms, ks, factors)) for _, ks in steps)
    levels = [level for level, _ in steps]
    # Already the lattice form: each piece moves some coordinate to its next
    # atom, so points increase, and coprime marginal counts give coprime lengths.
    lengths = tuple(b - a for a, b in zip([0, *levels], levels))
    return JointDiscreteDistribution._lattice(scale, points, lengths, ms)


def min_copula_check(j: JointDiscreteDistribution) -> bool:
    """Test whether the joint CDF equals the minimum of the marginal CDFs.

    Both sides are step functions determined by their values on the grid of
    per-coordinate support values, so checking every grid corner decides the
    identity everywhere. Cost grows with the product of the marginal support
    sizes, which must not exceed ``MAX_JOINT_POINTS``.
    """
    ms = j.marginals()
    n = j.dimension
    sizes = [len(m) for m in ms]
    total = math.prod(sizes)
    if total > MAX_JOINT_POINTS:
        raise ValueError(
            f"min-copula grid of {total} cells exceeds the {MAX_JOINT_POINTS}-cell guard"
        )
    index = [{x * (j.coord_denom // m.coord_denom): k for k, x in enumerate(m.xs)} for m in ms]
    cums = [[c * (j.prob_denom // m.prob_denom) for c in m.cum] for m in ms]

    strides = [0] * n
    stride = 1
    for i in range(n - 1, -1, -1):
        strides[i] = stride
        stride *= sizes[i]

    grid = [0] * total
    for coords, c in zip(j.xs, j.counts):
        grid[sum(index[i][coords[i]] * strides[i] for i in range(n))] += c

    # Running prefix sums along each axis turn the pmf grid into the joint
    # CDF at every corner.
    for i in range(n):
        stride = strides[i]
        size = sizes[i]
        for flat in range(total):
            if (flat // stride) % size:
                grid[flat] += grid[flat - stride]

    # The grid is row-major, which is the order itertools.product walks.
    return all(cell == min(corner) for cell, corner in zip(grid, itertools.product(*cums)))


def convex_order_max_check(j: JointDiscreteDistribution) -> bool:
    """Does the coordinate sum of ``j`` attain the convex-order maximum?

    The comonotonic rearrangement of the marginals maximizes the sum in the
    convex order over every joint law with those marginals, and the convex
    order separates distributions, so a single distribution comparison
    against the rearranged sum decides the question exactly.
    """
    rearranged = comonotonic_coupling(j.marginals())
    return j.sum_distribution() == rearranged.sum_distribution()
