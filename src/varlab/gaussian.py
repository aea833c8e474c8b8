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
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for the perfect-correlation test, applied on the
# correlation (normalized covariance) scale.
CORRELATION_TOL = 1e-12
# Scaled tolerance for pivots in the positive-semidefiniteness check.
PSD_PIVOT_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the inverse normal CDF;
# |relative error| < 1.15e-9 across (0, 1).
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _std_normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p > _P_HIGH:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    ) * q / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def std_normal_quantile(alpha: float) -> float:
    """Inverse standard normal CDF, absolute error well below 1e-10.

    Acklam's rational approximation supplies the starting point and one
    Newton step against the erfc-based CDF polishes it to float-level
    accuracy. Odd symmetry z(1 - alpha) = -z(alpha) holds to the same
    tolerance.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    x = _acklam(alpha)
    density = _std_normal_pdf(x)
    if density > 0.0:
        x -= (std_normal_cdf(x) - alpha) / density
    return x


def _psd_by_elimination(cov: np.ndarray, scale: float) -> bool:
    # Symmetric Gaussian elimination on the diagonal. A PSD matrix never
    # produces a significantly negative pivot, and a (near-)zero pivot
    # forces the rest of its row to vanish: Cauchy-Schwarz bounds the
    # off-diagonal by sqrt(pivot * diag), hence the sqrt tolerance.
    a = np.array(cov, dtype=float)
    n = a.shape[0]
    for k in range(n):
        pivot = a[k, k]
        if pivot < -PSD_PIVOT_TOL * scale:
            return False
        if pivot <= PSD_PIVOT_TOL * scale:
            if k + 1 < n and np.abs(a[k, k + 1 :]).max() > math.sqrt(PSD_PIVOT_TOL) * scale:
                return False
            continue
        row = a[k, k + 1 :]
        a[k + 1 :, k + 1 :] -= np.outer(row, row) / pivot
    return True


def _floats(name: str, value) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a regular array of numbers, got {value!r}") from None


@dataclass
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian loss vector.

    Validated on construction: square symmetric covariance with nonnegative
    diagonal, positive semidefinite under symmetric elimination with a
    scaled pivot tolerance of 1e-12.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = _floats("mean", self.mean)
        cov = _floats("covariance", self.covariance)
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError("mean must be a non-empty vector")
        n = mean.size
        if cov.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n} to match the mean vector")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance entries must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > PSD_PIVOT_TOL * scale:
            raise ValueError("covariance must be symmetric")
        if float(cov.diagonal().min()) < -PSD_PIVOT_TOL * scale:
            raise ValueError("covariance has a negative diagonal entry")
        if not _psd_by_elimination(cov, scale):
            raise ValueError("covariance is not positive semidefinite")
        self.mean = mean
        self.covariance = cov

    @property
    def dimension(self) -> int:
        return int(self.mean.size)

    @property
    def sigmas(self) -> np.ndarray:
        """Marginal standard deviations (tiny negative variances clip to 0)."""
        return np.sqrt(np.clip(self.covariance.diagonal(), 0.0, None))

    @property
    def portfolio_sigma(self) -> float:
        """Standard deviation of the coordinate sum, sqrt(1' Cov 1)."""
        return math.sqrt(max(float(self.covariance.sum()), 0.0))


def gaussian_var(mu: float, sigma: float, alpha: float) -> float:
    """Closed-form VaR of a Gaussian loss: mu + sigma * z(alpha)."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return mu + sigma * std_normal_quantile(alpha)


def gaussian_portfolio_var(spec: GaussianSpec, alpha: float) -> float:
    """VaR of the summed Gaussian losses."""
    return float(spec.mean.sum()) + spec.portfolio_sigma * std_normal_quantile(alpha)


def gaussian_subadditivity_gap(spec: GaussianSpec, alpha: float) -> float:
    """Sum of the marginal VaRs minus the portfolio VaR.

    Equals (sum of sigmas - portfolio sigma) * z(alpha). The sigma
    difference is nonnegative for every positive semidefinite covariance, so
    the gap is >= 0 for alpha >= 1/2 (subadditive regime), <= 0 for
    alpha <= 1/2 (superadditive regime), and exactly 0 at alpha = 1/2.
    """
    return (float(spec.sigmas.sum()) - spec.portfolio_sigma) * std_normal_quantile(alpha)


def gaussian_comonotone_condition(spec: GaussianSpec) -> bool:
    """Degeneracy test: all non-deterministic coordinate pairs perfectly correlated.

    True exactly when the subadditivity gap vanishes at every level.
    Coordinates with sigma = 0 are deterministic and satisfy the condition
    vacuously; for the rest the correlation must equal 1 within 1e-12.
    """
    sig = spec.sigmas
    scale = max(1.0, float(spec.covariance.diagonal().max(initial=0.0)))
    live = [i for i in range(spec.dimension) if sig[i] ** 2 > CORRELATION_TOL * scale]
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            i, k = live[a], live[b]
            rho = float(spec.covariance[i, k]) / (float(sig[i]) * float(sig[k]))
            if abs(1.0 - rho) > CORRELATION_TOL:
                return False
    return True
