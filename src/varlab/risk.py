"""Risk functionals on exact discrete distributions.

VaR is the left-continuous quantile of the loss law; the stop-loss transform
and the convex order built on it are the comparison tools used to rank
aggregate risks with fixed marginals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .distributions import DiscreteDistribution, _common_lattice


def var(d: DiscreteDistribution, alpha) -> Fraction:
    """Value at Risk of the loss ``d`` at confidence level ``alpha`` in (0, 1)."""
    return d.quantile(alpha)


def stop_loss(d: DiscreteDistribution, c) -> Fraction:
    """E[(X - c)^+], exactly.

    As a function of c this is convex, non-increasing, and piecewise linear
    with kinks only at support values.
    """
    scale, denom, (xs, (k,)), (cum, _) = _common_lattice((d, DiscreteDistribution.point_mass(c)))
    # an atom's count over D is the step of the cumulative counts at it
    above = sum((x - k) * (b - a) for x, a, b in zip(xs, [0, *cum], cum) if x > k)
    return Fraction(above, scale * denom)


class ConvexOrderVerdict(NamedTuple):
    """Outcome of a convex-order comparison.

    ``holds`` requires exactly equal means plus stop-loss dominance at every
    kink. When the means agree but dominance fails, ``witness_c`` names the
    first kink where it does.
    """

    holds: bool
    mean_equal: bool
    witness_c: Fraction | None = None


def convex_order_leq(a: DiscreteDistribution, b: DiscreteDistribution) -> ConvexOrderVerdict:
    """Decide whether ``a`` precedes ``b`` in the convex order.

    Both stop-loss transforms are piecewise linear with kinks only at support
    values, and they share asymptotes when the means agree, so dominance at
    the union of the two supports decides dominance at every real threshold.
    As E[(X - c)^+] = E[X] - c + the integral of the CDF F up to c, one
    ascending pass over the kinks integrates F_a - F_b and decides both: the
    means are equal exactly when the integral is 0 at the top kink, and then
    the stop-loss transforms differ by the integral at every kink.
    Arithmetic is exact integer work on a common lattice; there is no
    tolerance.
    """
    scale, _, (xa, xb), (ca, cb) = _common_lattice((a, b))
    kinks = sorted({*xa, *xb})
    at_a, at_b = dict(zip(xa, ca)), dict(zip(xb, cb))
    # gap is the integral up to each kink, times L * D; fa and fb are F_a and
    # F_b times D on the piece [lo, hi) between kinks
    gap = fa = fb = 0
    witness = None
    for lo, hi in zip(kinks, kinks[1:]):
        fa, fb = at_a.get(lo, fa), at_b.get(lo, fb)
        gap += (fa - fb) * (hi - lo)
        if gap > 0 and witness is None:
            witness = hi
    if gap != 0:
        return ConvexOrderVerdict(holds=False, mean_equal=False)
    if witness is not None:
        return ConvexOrderVerdict(holds=False, mean_equal=True, witness_c=Fraction(witness, scale))
    return ConvexOrderVerdict(holds=True, mean_equal=True)
