"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the library's
algorithms: linear scans instead of bisection, all-pairs comparisons instead
of sort-based chain checks, direct summation instead of suffix tables, and a
Taylor series plus bisection instead of erfc plus Newton for the normal
curve. Expected values in the test modules were computed with these and
frozen.
"""

import itertools
import math
from fractions import Fraction


def cdf_scan(d, x):
    x = Fraction(x)
    return sum((p for v, p in d.atoms if v <= x), Fraction(0))


def mean_scan(d):
    return sum((v * p for v, p in d.atoms), Fraction(0))


def stop_loss_scan(d, c):
    c = Fraction(c)
    return sum((max(v - c, Fraction(0)) * p for v, p in d.atoms), Fraction(0))


def product_points(*marginals):
    """Independent-coupling point list via direct product enumeration."""
    points = []
    for combo in itertools.product(*(m.atoms for m in marginals)):
        coords = tuple(v for v, _ in combo)
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        points.append((coords, prob))
    return points


def all_pairs_comonotonic(points):
    """Definition check: every pair of points componentwise comparable."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    for a, b in itertools.combinations(set(pts), 2):
        if not (all(x <= y for x, y in zip(a, b)) or all(y <= x for x, y in zip(a, b))):
            return False
    return True


def joint_cdf_at(points, corner):
    """P(X <= corner) by scanning the full point list."""
    total = Fraction(0)
    for coords, p in points:
        if all(c <= bound for c, bound in zip(coords, corner)):
            total += p
    return total


def erf_series(z):
    """Maclaurin series for erf; accurate to ~1e-15 for |z| <= 4.5."""
    if z == 0.0:
        return 0.0
    term = z
    total = z
    k = 0
    while k < 400:
        k += 1
        term *= -z * z / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < 1e-18 * abs(total):
            break
    return total * 2.0 / math.sqrt(math.pi)


def norm_cdf_series(x):
    return 0.5 + 0.5 * erf_series(x / math.sqrt(2.0))


def norm_quantile_bisect(p, lo=-6.0, hi=6.0, tol=1e-13):
    """Bisection inverse of the series CDF; independent of Acklam/Newton."""
    assert norm_cdf_series(lo) < p < norm_cdf_series(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if norm_cdf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
