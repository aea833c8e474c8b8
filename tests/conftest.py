import functools
import math
from itertools import chain

from hypothesis import HealthCheck, settings

from varlab.distributions import JointDiscreteDistribution, _Law

settings.register_profile(
    "varlab",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("varlab")

_lattice = _Law._lattice.__func__


@functools.wraps(_lattice)
def _checked_lattice(cls, scale, xs, counts, marginals=None):
    """`_Law._lattice`, then the lattice invariant of the law it built: ``xs``
    strictly increasing, counts positive with gcd 1, no factor common to L and
    every coordinate, and seeded marginals equal to the projections."""
    law = _lattice(cls, scale, xs, counts, marginals)
    assert all(a < b for a, b in zip(xs, xs[1:])), f"lattice invariant: xs not increasing in {law!r}"
    assert min(counts) > 0 and math.gcd(*counts) == 1, f"lattice invariant: counts of {law!r}"
    coords = chain.from_iterable(xs) if cls is JointDiscreteDistribution else xs
    assert math.gcd(scale, *coords) == 1, f"lattice invariant: L not minimal in {law!r}"
    if marginals is not None:
        projections = JointDiscreteDistribution._marginals.fn(law)
        assert law.marginals() == projections, f"lattice invariant: seeded marginals of {law!r}"
    return law


# Every law any test builds goes through the check; the wrapper keeps the
# name and qualname that pickles of laws look `_lattice` up by.
_Law._lattice = classmethod(_checked_lattice)
