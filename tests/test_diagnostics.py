import math

import numpy as np
import pytest

from bandit_lab.diagnostics import (
    ComplexityReport,
    CoverageConfig,
    UnsupportedConfigurationError,
    complexity_report,
    coverage_test,
    effective_dimension,
    information_gain,
    prop1_bound,
    valko_dimension,
)
from bandit_lab.environments import EnvSpec
from bandit_lab.kernels import KernelSpec


def random_gram(rng, n, decay=1.0):
    """Random PSD gram with controllable spectral decay."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.1, 3.0, size=n) * np.exp(-decay * np.arange(n))
    return (q * eigs) @ q.T


def test_effective_dimension_identity_gram():
    # unit eigenvalues: every one contributes 1 / (1 + lam)
    assert effective_dimension(np.eye(8), 1.0) == pytest.approx(4.0)
    assert effective_dimension(np.eye(8), 3.0) == pytest.approx(2.0)


def test_effective_dimension_matches_trace_formula():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = random_gram(rng, rng.integers(2, 15))
        lam = float(rng.uniform(0.1, 5.0))
        want = float(np.trace(k @ np.linalg.inv(k + lam * np.eye(k.shape[0]))))
        assert effective_dimension(k, lam) == pytest.approx(want, abs=1e-10)


def test_effective_dimension_decreases_with_lam():
    k = random_gram(np.random.default_rng(1), 12)
    values = [effective_dimension(k, lam) for lam in (0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_information_gain_identity_gram():
    assert information_gain(np.eye(6), 1.0) == pytest.approx(3.0 * math.log(2.0))


def test_information_gain_matches_log_det():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        k = random_gram(rng, n)
        lam = float(rng.uniform(0.1, 5.0))
        _, want = np.linalg.slogdet(np.eye(n) + k / lam)
        assert information_gain(k, lam) == pytest.approx(0.5 * want, abs=1e-8)


def test_effective_dimension_at_most_twice_information_gain():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = random_gram(rng, int(rng.integers(2, 20)), decay=rng.uniform(0, 1))
        lam = float(rng.uniform(0.05, 10.0))
        assert effective_dimension(k, lam) <= 2.0 * information_gain(k, lam) + 1e-12


def valko_oracle(eigs, lam, horizon):
    eigs = np.sort(eigs)[::-1]
    for j in range(eigs.size + 1):
        if j * lam * math.log(horizon) >= float(eigs[j:].sum()) - 1e-12:
            return j
    return eigs.size


def test_valko_dimension_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        k = random_gram(rng, n, decay=rng.uniform(0, 2))
        lam = float(rng.uniform(0.05, 5.0))
        horizon = int(rng.integers(2, 5000))
        eigs = np.maximum(np.linalg.eigvalsh(0.5 * (k + k.T)), 0.0)
        assert valko_dimension(k, lam, horizon) == valko_oracle(eigs, lam, horizon)


def test_valko_dimension_edge_cases():
    assert valko_dimension(np.zeros((5, 5)), 1.0, 100) == 0
    assert valko_dimension(np.zeros((0, 0)), 1.0, 100) == 0
    # one huge eigenvalue needs exactly one slot once the budget covers zero tail
    k = np.diag([50.0, 1e-15, 1e-15])
    assert valko_dimension(k, 1.0, 100) == 1


def test_prop1_bound_holds_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 25))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # gram of unit-norm features: eigenvalues sum to at most n * kappa^2
        eigs = rng.uniform(0.0, 1.0, size=n)
        eigs = eigs / eigs.sum() * n if eigs.sum() > 0 else eigs
        k = (q * eigs) @ q.T
        lam = float(rng.uniform(0.05, 10.0))
        lhs, rhs = prop1_bound(k, lam, kappa=1.0)
        assert lhs <= rhs + 1e-9


def test_complexity_report_is_consistent(monkeypatch):
    k = random_gram(np.random.default_rng(6), 10)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    report = complexity_report(k, lam=0.5, kappa=1.0, horizon=1000)
    assert calls == [(10, 10)]  # one spectrum feeds every field
    assert isinstance(report, ComplexityReport)
    assert report.t == 10
    assert report.lam == 0.5
    assert report.d_eff == effective_dimension(k, 0.5)
    assert report.info_gain == information_gain(k, 0.5)
    assert report.valko_d == valko_dimension(k, 0.5, 1000)
    assert prop1_bound(k, 0.5, 1.0) == (report.prop1_lhs, report.prop1_rhs)
    assert report.prop1_lhs == 2 * report.info_gain
    assert report.prop1_lhs <= report.prop1_rhs


def test_diagnostics_validation():
    with pytest.raises(ValueError):
        effective_dimension(np.eye(3), 0.0)
    with pytest.raises(ValueError):
        information_gain(np.eye(3), -1.0)
    with pytest.raises(ValueError):
        valko_dimension(np.eye(3), 1.0, 1)
    with pytest.raises(ValueError):
        effective_dimension(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        effective_dimension(np.array([[1.0, 0.9], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        prop1_bound(np.eye(3), 1.0, kappa=0.0)


LINEAR_ENV = EnvSpec("linear_sanity", noise_sigma=0.05, seed=0)
LINEAR_KERNEL = KernelSpec("linear", kappa=2.0)


def test_coverage_config_validation():
    with pytest.raises(UnsupportedConfigurationError):
        CoverageConfig(env=EnvSpec("bump"), kernel=LINEAR_KERNEL)
    with pytest.raises(UnsupportedConfigurationError):
        CoverageConfig(env=LINEAR_ENV, kernel=KernelSpec("gaussian", bandwidth=0.2))
    with pytest.raises(ValueError):
        CoverageConfig(env=LINEAR_ENV, kernel=LINEAR_KERNEL, delta=0.0)
    with pytest.raises(ValueError):
        CoverageConfig(env=LINEAR_ENV, kernel=LINEAR_KERNEL, horizon=0)


def test_coverage_is_perfect_without_noise():
    config = CoverageConfig(
        env=EnvSpec("linear_sanity", noise_sigma=0.0, seed=1),
        kernel=LINEAR_KERNEL,
        horizon=20,
        replays=20,
    )
    assert coverage_test(config) == 1.0


def test_coverage_collapses_with_zero_radius():
    config = CoverageConfig(
        env=EnvSpec("linear_sanity", noise_sigma=0.05, seed=2),
        kernel=LINEAR_KERNEL,
        horizon=10,
        replays=20,
        radius_scale=0.0,
    )
    assert coverage_test(config) < 0.5


def test_coverage_meets_nominal_level_in_the_small():
    config = CoverageConfig(
        env=EnvSpec("linear_sanity", noise_sigma=0.1, seed=3),
        kernel=LINEAR_KERNEL,
        delta=0.05,
        horizon=25,
        replays=60,
    )
    assert coverage_test(config) >= 0.95
