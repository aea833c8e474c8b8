"""Risk functionals on exact discrete distributions.

VaR is the left-continuous quantile of the loss law; the stop-loss transform
and the convex order built on it are the comparison tools used to rank
aggregate risks with fixed marginals.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .distributions import DiscreteDistribution, _common_lattice


def var(d: DiscreteDistribution, alpha) -> Fraction:
    """Value at Risk of the loss ``d`` at confidence level ``alpha`` in (0, 1)."""
    return d.quantile(alpha)


def _stop_losses(xs: list[int], ws: list[int], denom: int, kinks) -> list[int]:
    """E[(X - c / L)^+] * L * denom at each of the increasing integer ``kinks``
    for atoms ``xs`` over L with counts ``ws`` over ``denom``; one pointer drops
    the atoms at or below each threshold from the running mass and first
    moment of those above it."""
    mass, moment = denom, sum(map(mul, xs, ws))
    k, n, out = 0, len(xs), []
    for c in kinks:
        while k < n and xs[k] <= c:
            mass -= ws[k]
            moment -= xs[k] * ws[k]
            k += 1
        out.append(moment - c * mass)
    return out


def stop_loss(d: DiscreteDistribution, c) -> Fraction:
    """E[(X - c)^+], exactly.

    As a function of c this is convex, non-increasing, and piecewise linear
    with kinks only at support values.
    """
    scale, denom, (xs, kinks), (ws, _) = _common_lattice((d, DiscreteDistribution.point_mass(c)))
    (value,) = _stop_losses(xs, ws, denom, kinks)
    return Fraction(value, scale * denom)


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
    Arithmetic is exact integer work on a common lattice; there is no
    tolerance.
    """
    scale, denom, (xa, xb), (wa, wb) = _common_lattice((a, b))
    # both means are over scale * denom, so their numerators decide
    if sum(map(mul, xa, wa)) != sum(map(mul, xb, wb)):
        return ConvexOrderVerdict(holds=False, mean_equal=False)
    kinks = sorted({*xa, *xb})
    curves = zip(kinks, _stop_losses(xa, wa, denom, kinks), _stop_losses(xb, wb, denom, kinks))
    for c, sa, sb in curves:
        if sa > sb:
            return ConvexOrderVerdict(holds=False, mean_equal=True, witness_c=Fraction(c, scale))
    return ConvexOrderVerdict(holds=True, mean_equal=True)
