"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line (visible with ``pytest -s``; under capture the per-test
PASSED line carries the same information).

The discrete criteria are exact with zero tolerance; the Gaussian criteria
carry the explicit float tolerances stated inline.
"""

import io
import json
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from harness import run_main
from varlab import (
    DiscreteDistribution,
    GaussianSpec,
    GeneratorSpec,
    JointDiscreteDistribution,
    bernoulli_counterexample,
    comonotonic_coupling,
    convex_order_leq,
    convex_order_max_check,
    equivalence_trial,
    gaussian_comonotone_condition,
    gaussian_subadditivity_gap,
    min_copula_check,
    random_comonotonic,
    random_coupling,
    std_normal_quantile,
    subadditivity_report,
)
from varlab.cli import dump_csv, ingest_csv, run_report

N_TRIALS = 1000


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def _generate(kind: str, count: int, base_seed: int):
    instances = []
    for i in range(count):
        meta = random.Random((base_seed << 32) ^ i)
        spec = GeneratorSpec(n=meta.randint(1, 4), max_atoms=8)
        seed = meta.getrandbits(48)
        if kind == "comonotonic":
            instances.append(random_comonotonic(seed, spec))
        else:
            instances.append(random_coupling(seed, spec))
    return instances


@pytest.fixture(scope="module")
def comonotonic_instances():
    return _generate("comonotonic", N_TRIALS, base_seed=101)


@pytest.fixture(scope="module")
def coupling_instances():
    return _generate("coupling", N_TRIALS, base_seed=202)


@pytest.fixture(scope="module")
def trials(comonotonic_instances, coupling_instances):
    start = time.perf_counter()
    como = [equivalence_trial(j) for j in comonotonic_instances]
    coup = [equivalence_trial(j) for j in coupling_instances]
    elapsed = time.perf_counter() - start
    return como, coup, elapsed


def test_criterion_1_equivalence_suite(trials):
    como, coup, elapsed = trials
    assert len(como) == len(coup) == N_TRIALS
    assert all(v.consistent for v in como)
    assert all(v.consistent for v in coup)
    _pass(1, f"2000/2000 equivalence trials consistent, exact ({elapsed:.1f}s)")


def test_criterion_2_comonotonic_instances_additive(trials):
    como, _, _ = trials
    assert all(v.comonotonic for v in como)
    assert all(v.additive_everywhere for v in como)
    _pass(2, "all 1000 comonotonic instances additive at every level, exact")


def test_criterion_3_non_comonotonic_instances_have_violation(
    comonotonic_instances, coupling_instances, trials
):
    como, coup, _ = trials
    checked = 0
    for instances, verdicts in (
        (comonotonic_instances, como),
        (coupling_instances, coup),
    ):
        for j, v in zip(instances, verdicts):
            if not v.comonotonic:
                report = subadditivity_report(j)
                assert report.first_violation is not None
                assert any(x.relation == ">" for x in report.verdicts)
                checked += 1
    assert checked > 0
    _pass(3, f"all {checked} non-comonotonic instances exhibit a strict violation level")


def test_criterion_4_bernoulli_counterexamples():
    rng = random.Random(404)
    hits = 0
    for _ in range(500):
        den = rng.randint(2, 40)
        p = F(rng.randint(1, den - 1), den)
        den = rng.randint(2, 40)
        q = F(rng.randint(1, den - 1), den)
        lo = (1 - p) * (1 - q)
        hi = 1 - max(p, q)
        alpha = lo + (hi - lo) * F(rng.randint(1, 63), 64)
        assert lo <= alpha < hi  # the stated sampling region
        verdict = bernoulli_counterexample(p, q, alpha)
        assert verdict.precondition
        assert verdict.superadditive
        hits += 1
    assert hits == 500

    pinned = bernoulli_counterexample(F(3, 10), F(3, 10), F(1, 2))
    assert pinned.var_sum == 1
    assert pinned.var_x + pinned.var_y == 0
    _pass(4, "500/500 sampled triples strictly superadditive; pinned case 1 > 0")


def test_criterion_5_convex_order_maximality(coupling_instances):
    for j in coupling_instances:
        rearranged = comonotonic_coupling(j.marginals())
        verdict = convex_order_leq(
            j.sum_distribution(), rearranged.sum_distribution()
        )
        assert verdict.holds
        assert verdict.mean_equal
        assert verdict.witness_c is None
    _pass(5, "1000/1000 coupled sums below the comonotonic sum in convex order")


def test_criterion_6_detector_agreement(
    comonotonic_instances, coupling_instances, trials
):
    como, coup, _ = trials
    for instances, verdicts in (
        (comonotonic_instances, como),
        (coupling_instances, coup),
    ):
        for j, v in zip(instances, verdicts):
            assert min_copula_check(j) == v.comonotonic
            assert convex_order_max_check(j) == v.comonotonic
    _pass(6, "support, min-copula, and convex-order detectors agree on all 2000 instances")


def test_criterion_7_gaussian_dichotomy():
    rng = np.random.default_rng(707)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        g = rng.normal(size=(n, n))
        if trial % 5 == 0 and n > 1:
            g[:, 0] = 0.0  # deterministic first coordinate
        spec = GaussianSpec(mean=rng.normal(size=n), covariance=g.T @ g)
        for alpha in (0.5, 0.75, 0.9, 0.95, 0.99):
            assert gaussian_subadditivity_gap(spec, alpha) >= -1e-12
        for alpha in (0.01, 0.05, 0.25, 0.5):
            assert gaussian_subadditivity_gap(spec, alpha) <= 1e-12
        assert abs(gaussian_subadditivity_gap(spec, 0.5)) <= 1e-12
    _pass(7, "200 random PSD specs respect the half-level sign dichotomy (tol 1e-12)")


def test_criterion_8_degeneracy_condition():
    rng = np.random.default_rng(808)
    grid = [k / 100 for k in range(1, 100)]

    for _ in range(20):
        n = int(rng.integers(2, 6))
        sig = rng.uniform(0.1, 3.0, size=n)
        spec = GaussianSpec(mean=rng.normal(size=n), covariance=np.outer(sig, sig))
        assert gaussian_comonotone_condition(spec)
        assert all(abs(gaussian_subadditivity_gap(spec, a)) <= 1e-10 for a in grid)

    for n in range(1, 5):
        variances = np.zeros(n)
        variances[n - 1] = 2.5
        spec = GaussianSpec(mean=np.zeros(n), covariance=np.diag(variances))
        assert gaussian_comonotone_condition(spec)
        assert all(abs(gaussian_subadditivity_gap(spec, a)) <= 1e-10 for a in grid)

    sig = np.array([1.3, 0.7])
    cov = np.outer(sig, sig)
    cov[0, 1] = cov[1, 0] = 0.999 * sig[0] * sig[1]
    perturbed = GaussianSpec(mean=np.zeros(2), covariance=cov)
    assert not gaussian_comonotone_condition(perturbed)
    assert gaussian_subadditivity_gap(perturbed, 0.95) > 1e-9
    _pass(8, "degenerate specs gap-free on the 99 grid (tol 1e-10); 0.999 perturbation flips")


def test_criterion_9_quantile_oracle():
    worst = max(
        abs(oracles.norm_cdf_series(std_normal_quantile(k / 1000)) - k / 1000)
        for k in range(1, 1000)
    )
    assert worst <= 1e-10
    z = std_normal_quantile(0.975)
    assert abs(z - oracles.norm_quantile_bisect(0.975)) <= 1e-9
    _pass(9, f"999-grid round trip within {worst:.2e}; z(0.975) matches bisection oracle")


def test_criterion_10_cli_round_trip_and_determinism(tmp_path):
    rng = random.Random(1010)
    for case in range(100):
        n = rng.randint(1, 4)
        pairs = []
        for _ in range(rng.randint(1, 10)):
            coords = tuple(F(rng.randint(-160, 160), 16) for _ in range(n))
            pairs.append((coords, rng.randint(1, 9)))
        j = JointDiscreteDistribution.from_weighted_points(pairs)
        buf = io.StringIO()
        dump_csv(j, buf)
        path = tmp_path / f"case_{case}.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        assert ingest_csv(str(path)) == j
        assert run_report(j).to_json() == run_report(j).to_json()

    sample = tmp_path / "sample.csv"
    sample.write_text("x,y\n0,0\n0,1\n1,0\n1,1\n", encoding="utf-8")
    first, second = (run_main(["report", str(sample)]) for _ in range(2))
    assert first[0] == 0 and first == second
    _pass(10, "100/100 dump-ingest identities; report bytes identical across runs")
