"""Gaussian portfolio VaR in closed form and the half-level dichotomy.

For jointly Gaussian losses the VaR of any linear combination is
mu + sigma * z(alpha), with z the standard normal quantile. Subadditivity
comparisons therefore collapse to the scalar gap
(sum of sigmas - portfolio sigma) * z(alpha), which is nonnegative at and
above the median level and nonpositive at and below it, and vanishes at
every level exactly when all non-deterministic coordinates are perfectly
correlated.

Unlike the discrete modules, everything here is floating point; contracts
carry explicit tolerances instead of exactness.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from statistics import NormalDist

# Absolute tolerance for the perfect-correlation test, applied on the
# correlation (normalized covariance) scale.
CORRELATION_TOL = 1e-12
# Scaled tolerance for pivots in the positive-semidefiniteness check.
PSD_PIVOT_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    ``NormalDist.cdf`` goes through ``erf``, which loses the lower tail to
    cancellation; ``erfc`` keeps its relative accuracy there.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(alpha: float) -> float:
    """Inverse standard normal CDF, absolute error well below 1e-10.

    ``statistics.NormalDist.inv_cdf`` implements Wichura's algorithm AS 241
    (1988), accurate to about one part in 10**16. Odd symmetry
    z(1 - alpha) = -z(alpha) holds to within 1e-10.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return _STD_NORMAL.inv_cdf(alpha)


def _psd_by_elimination(cov: tuple[tuple[float, ...], ...], scale: float) -> bool:
    # Symmetric Gaussian elimination on the diagonal. A PSD matrix never
    # produces a significantly negative pivot, and a (near-)zero pivot
    # forces the rest of its row to vanish: Cauchy-Schwarz bounds the
    # off-diagonal by sqrt(pivot * diag), hence the sqrt tolerance.
    a = [list(row) for row in cov]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot < -PSD_PIVOT_TOL * scale:
            return False
        if pivot <= PSD_PIVOT_TOL * scale:
            if k + 1 < n and max(map(abs, a[k][k + 1 :])) > math.sqrt(PSD_PIVOT_TOL) * scale:
                return False
            continue
        row = a[k][k + 1 :]
        for i, r in enumerate(row, k + 1):
            a[i][k + 1 :] = [x - r * c / pivot for x, c in zip(a[i][k + 1 :], row)]
    return True


def _floats(name: str, value, depth: int = 1) -> tuple:
    """``value`` as a tuple of floats, nested ``depth`` levels deep."""
    try:
        if isinstance(value, (str, bytes, Mapping)):
            raise TypeError
        if depth == 1:
            return tuple(float(x) for x in value)
        return tuple(_floats(name, row, depth - 1) for row in value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a regular array of numbers, got {value!r}") from None


class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian loss vector.

    Both are stored as tuples of floats, the covariance row by row.
    Validated on construction: square symmetric covariance with nonnegative
    diagonal, positive semidefinite under symmetric elimination with a
    scaled pivot tolerance of 1e-12.
    """

    mean: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]

    def __init__(self, mean, covariance) -> None:
        mean = _floats("mean", mean)
        cov = _floats("covariance", covariance, depth=2)
        if not mean:
            raise ValueError("mean must be a non-empty vector")
        n = len(mean)
        if len(cov) != n or any(len(row) != n for row in cov):
            raise ValueError(f"covariance must be {n}x{n} to match the mean vector")
        entries = [x for row in cov for x in row]
        if not all(map(math.isfinite, (*mean, *entries))):
            raise ValueError("mean and covariance entries must be finite")
        scale = max(1.0, max(map(abs, entries)))
        asymmetry = max(abs(cov[i][k] - cov[k][i]) for i in range(n) for k in range(n))
        if asymmetry > PSD_PIVOT_TOL * scale:
            raise ValueError("covariance must be symmetric")
        if min(cov[i][i] for i in range(n)) < -PSD_PIVOT_TOL * scale:
            raise ValueError("covariance has a negative diagonal entry")
        if not _psd_by_elimination(cov, scale):
            raise ValueError("covariance is not positive semidefinite")
        self.mean = mean
        self.covariance = cov

    @property
    def dimension(self) -> int:
        return len(self.mean)

    @property
    def sigmas(self) -> tuple[float, ...]:
        """Marginal standard deviations (tiny negative variances clip to 0)."""
        return tuple(math.sqrt(max(row[i], 0.0)) for i, row in enumerate(self.covariance))

    @property
    def portfolio_sigma(self) -> float:
        """Standard deviation of the coordinate sum, sqrt(1' Cov 1)."""
        return math.sqrt(max(sum(x for row in self.covariance for x in row), 0.0))


def gaussian_var(mu: float, sigma: float, alpha: float) -> float:
    """Closed-form VaR of a Gaussian loss: mu + sigma * z(alpha)."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return mu + sigma * std_normal_quantile(alpha)


def gaussian_portfolio_var(spec: GaussianSpec, alpha: float) -> float:
    """VaR of the summed Gaussian losses."""
    return sum(spec.mean) + spec.portfolio_sigma * std_normal_quantile(alpha)


def gaussian_subadditivity_gap(spec: GaussianSpec, alpha: float) -> float:
    """Sum of the marginal VaRs minus the portfolio VaR.

    Equals (sum of sigmas - portfolio sigma) * z(alpha). The sigma
    difference is nonnegative for every positive semidefinite covariance, so
    the gap is >= 0 for alpha >= 1/2 (subadditive regime), <= 0 for
    alpha <= 1/2 (superadditive regime), and exactly 0 at alpha = 1/2.
    """
    return (sum(spec.sigmas) - spec.portfolio_sigma) * std_normal_quantile(alpha)


def gaussian_comonotone_condition(spec: GaussianSpec) -> bool:
    """Degeneracy test: all non-deterministic coordinate pairs perfectly correlated.

    True exactly when the subadditivity gap vanishes at every level.
    Coordinates with sigma = 0 are deterministic and satisfy the condition
    vacuously; for the rest the correlation must equal 1 within 1e-12.
    """
    sig = spec.sigmas
    cov = spec.covariance
    scale = max(1.0, *(cov[i][i] for i in range(spec.dimension)))
    live = [i for i in range(spec.dimension) if sig[i] ** 2 > CORRELATION_TOL * scale]
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            i, k = live[a], live[b]
            rho = cov[i][k] / (sig[i] * sig[k])
            if abs(1.0 - rho) > CORRELATION_TOL:
                return False
    return True
