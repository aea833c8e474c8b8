import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from varlab import (
    DiscreteDistribution,
    GaussianSpec,
    comonotonic_coupling,
    gaussian_comonotone_condition,
    gaussian_portfolio_var,
    gaussian_subadditivity_gap,
    gaussian_var,
    is_comonotonic,
    std_normal_cdf,
    std_normal_quantile,
)

# frozen from the bisection oracle (tol 1e-13) on the series CDF
Z_975 = 1.9599639845400545


class TestStdNormalQuantile:
    def test_median_is_exactly_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_high_level_matches_bisection_oracle(self):
        z = std_normal_quantile(0.975)
        assert abs(z - oracles.norm_quantile_bisect(0.975)) <= 1e-9
        assert abs(z - Z_975) <= 1e-9

    def test_odd_symmetry(self):
        for k in range(1, 100):
            a = k / 100
            assert abs(std_normal_quantile(1 - a) + std_normal_quantile(a)) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_rejects_levels_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)

    def test_round_trip_accuracy_on_grid(self):
        worst = max(
            abs(oracles.norm_cdf_series(std_normal_quantile(k / 1000)) - k / 1000)
            for k in range(1, 1000)
        )
        assert worst <= 1e-10

    def test_cdf_matches_series_oracle(self):
        for x in np.linspace(-4.0, 4.0, 33):
            assert abs(std_normal_cdf(float(x)) - oracles.norm_cdf_series(float(x))) <= 1e-13


class TestGaussianVar:
    def test_standard_median(self):
        assert gaussian_var(0.0, 1.0, 0.5) == 0.0

    def test_deterministic_loss(self):
        for a in (0.01, 0.5, 0.99):
            assert gaussian_var(3.0, 0.0, a) == 3.0

    def test_scaled_quantile(self):
        assert abs(gaussian_var(0.0, 2.0, 0.975) - 2 * Z_975) <= 2e-9

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            gaussian_var(0.0, -1.0, 0.5)


class TestGaussianSpecValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianSpec(mean=[0, 0], covariance=[[1, 0.5], [0.2, 1]])

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            GaussianSpec(mean=[0, 0], covariance=[[1, 0], [0, -1]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianSpec(mean=[0, 0], covariance=[[1, 2], [2, 1]])

    def test_rejects_off_diagonal_mass_on_a_zero_pivot(self):
        # the first pivot is 0, so its row must vanish; Cauchy-Schwarz fails
        with pytest.raises(ValueError, match="^covariance is not positive semidefinite$"):
            GaussianSpec(mean=[0, 0], covariance=[[0, 1], [1, 1]])

    def test_rejects_empty_mean(self):
        with pytest.raises(ValueError, match="^mean must be a non-empty vector$"):
            GaussianSpec(mean=[], covariance=[])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianSpec(mean=[0, 0, 0], covariance=[[1, 0], [0, 1]])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianSpec(mean=[float("nan"), 0], covariance=[[1, 0], [0, 1]])

    def test_accepts_rank_deficient(self):
        sig = np.array([2.0, 1.0, 0.5])
        spec = GaussianSpec(mean=np.zeros(3), covariance=np.outer(sig, sig))
        assert spec.dimension == 3

    def test_tolerates_tiny_asymmetry(self):
        cov = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        GaussianSpec(mean=[0, 0], covariance=cov)


class TestPortfolioVar:
    def test_perfect_correlation(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 1], [1, 1]])
        z = std_normal_quantile(0.9)
        assert abs(gaussian_portfolio_var(spec, 0.9) - 2 * z) <= 1e-12

    def test_independent_pair(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 0], [0, 1]])
        expected = math.sqrt(2.0) * oracles.norm_quantile_bisect(0.9)
        assert abs(gaussian_portfolio_var(spec, 0.9) - expected) <= 1e-9

    def test_median_is_total_mean(self):
        spec = GaussianSpec(mean=[1.5, -0.25, 3.0], covariance=np.diag([1.0, 2.0, 0.5]))
        assert gaussian_portfolio_var(spec, 0.5) == pytest.approx(4.25, abs=1e-12)


class TestSubadditivityGap:
    def test_zero_at_median(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[2, 0.3], [0.3, 1]])
        assert gaussian_subadditivity_gap(spec, 0.5) == 0.0

    def test_independent_pair_upper_tail(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 0], [0, 1]])
        expected = (2 - math.sqrt(2.0)) * oracles.norm_quantile_bisect(0.95)
        gap = gaussian_subadditivity_gap(spec, 0.95)
        assert gap > 0
        assert abs(gap - expected) <= 1e-9

    def test_lower_tail_mirrors_upper(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 0], [0, 1]])
        up = gaussian_subadditivity_gap(spec, 0.95)
        down = gaussian_subadditivity_gap(spec, 0.05)
        assert down < 0
        assert abs(up + down) <= 1e-10

    def test_sign_dichotomy_over_random_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            g = rng.normal(size=(n, n))
            spec = GaussianSpec(mean=rng.normal(size=n), covariance=g.T @ g)
            assert sum(spec.sigmas) - spec.portfolio_sigma >= -1e-12
            for a in (0.6, 0.75, 0.9, 0.99):
                assert gaussian_subadditivity_gap(spec, a) >= -1e-12
            for a in (0.01, 0.1, 0.25, 0.4):
                assert gaussian_subadditivity_gap(spec, a) <= 1e-12


class TestComonotoneCondition:
    def test_all_ones_matrix(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 1], [1, 1]])
        assert gaussian_comonotone_condition(spec)

    def test_identity_fails(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 0], [0, 1]])
        assert not gaussian_comonotone_condition(spec)

    def test_deterministic_coordinate_is_vacuous(self):
        spec = GaussianSpec(mean=[0, 0], covariance=[[1, 0], [0, 0]])
        assert gaussian_comonotone_condition(spec)

    def test_condition_iff_gap_vanishes_everywhere(self):
        sig = np.array([1.7, 0.4, 2.2])
        degenerate = GaussianSpec(mean=np.zeros(3), covariance=np.outer(sig, sig))
        assert gaussian_comonotone_condition(degenerate)
        for k in range(1, 100):
            assert abs(gaussian_subadditivity_gap(degenerate, k / 100)) <= 1e-10

        cov = np.outer(sig[:2], sig[:2]).copy()
        cov[0, 1] = cov[1, 0] = 0.999 * sig[0] * sig[1]
        perturbed = GaussianSpec(mean=np.zeros(2), covariance=cov)
        assert not gaussian_comonotone_condition(perturbed)
        assert gaussian_subadditivity_gap(perturbed, 0.95) > 1e-6


class TestDiscretizationBridge:
    def test_degenerate_gaussian_discretizes_to_comonotonic_support(self):
        # When the condition holds every coordinate is a linear image of one
        # driver. Discretizing each marginal on a shared quantile grid and
        # coupling by matching levels must then reproduce exactly the
        # per-level vectors of closed-form VaRs, and that support must pass
        # the comonotonicity detector.
        mus = [1.0, -1.0, 0.0]
        sigs = [2.0, 1.0, 0.0]
        spec = GaussianSpec(
            mean=mus, covariance=np.outer(np.array(sigs), np.array(sigs))
        )
        assert gaussian_comonotone_condition(spec)

        grid = 16
        levels = [(2 * k + 1) / (2 * grid) for k in range(grid)]
        # exact float-to-rational conversion keeps the coupling exact
        marginals = [self._discretize(mu, sg, levels) for mu, sg in zip(mus, sigs)]
        coupled = comonotonic_coupling(marginals)
        assert is_comonotonic(coupled).comonotonic

        expected = sorted(
            {
                tuple(F(gaussian_var(mu, sg, a)) for mu, sg in zip(mus, sigs))
                for a in levels
            }
        )
        assert list(coupled.support()) == expected

    @staticmethod
    def _discretize(mu, sigma, levels):
        weight = F(1, len(levels))
        return DiscreteDistribution.from_weighted_values(
            [(F(gaussian_var(mu, sigma, a)), weight) for a in levels]
        )
