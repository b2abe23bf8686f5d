"""Complexity measures and self-checks for kernel bandit runs.

Three sizes of the same phenomenon, all computed from the eigenvalues e_i of
the history gram matrix K and the ridge parameter lam:

* effective dimension   d_eff = Tr(K (K + lam I)^{-1}) = sum_i e_i / (e_i + lam)
* information gain      g = 0.5 * sum_i log(1 + e_i / lam)
* spectral dimension    the smallest j with j * lam * log(T) >= sum_{k > j} e_k

plus the inequalities that tie them together, asserted by the test suite on
random instances.  One eigendecomposition of K feeds every measure: each is a
field of ``complexity_report``.  ``coverage_test`` closes the loop on the
confidence radius: on the linear environment the posterior is a plain ridge
regression, so the radius can be checked against the exactly known parameter
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .environments import Environment, EnvSpec
from .kernels import KernelSpec
from .policies import ExactKernelUcb, ExplorationSchedule, theoretical_beta


class UnsupportedConfigurationError(Exception):
    """The requested diagnostic is only defined for a narrower setup."""


def _psd_eigenvalues(k: np.ndarray) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("gram matrix must be square")
    if k.shape[0] == 0:
        return np.zeros(0)
    if not np.allclose(k, k.T, atol=1e-8 * (1.0 + np.abs(k).max())):
        raise ValueError("gram matrix must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
    return np.maximum(eigs, 0.0)


@dataclass(frozen=True)
class ComplexityReport:
    t: int
    lam: float
    d_eff: float
    info_gain: float
    valko_d: int
    prop1_lhs: float
    prop1_rhs: float


def complexity_report(
    k: np.ndarray, lam: float, kappa: float, horizon: int
) -> ComplexityReport:
    """Every measure of the gram k from one spectrum; Prop. 1's two sides are

        sum_i log(1 + e_i / lam)  <=  log(e + e t kappa^2 / lam) * d_eff.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    eigs = _psd_eigenvalues(k)
    t = eigs.size
    d_eff = float(np.sum(eigs / (eigs + lam)))
    log_det = float(np.sum(np.log1p(eigs / lam)))
    # spectral dimension: the smallest j with j * lam * log(horizon) >= tail[j]
    desc = np.sort(eigs)[::-1]
    tail = np.concatenate([np.cumsum(desc[::-1])[::-1], [0.0]])  # tail[j] = sum_{k>j}
    budget = lam * math.log(horizon)
    valko_d = t
    for j in range(t + 1):
        if j * budget >= tail[j] - 1e-12:
            valko_d = j
            break
    return ComplexityReport(
        t=t,
        lam=lam,
        d_eff=d_eff,
        info_gain=0.5 * log_det,
        valko_d=valko_d,
        prop1_lhs=log_det,
        prop1_rhs=math.log(math.e + math.e * t * kappa**2 / lam) * d_eff,
    )


# one measure alone is a report's field; kappa = 1 and horizon = 2 go unread
def effective_dimension(k: np.ndarray, lam: float) -> float:
    return complexity_report(k, lam, 1.0, 2).d_eff


def information_gain(k: np.ndarray, lam: float) -> float:
    return complexity_report(k, lam, 1.0, 2).info_gain


def valko_dimension(k: np.ndarray, lam: float, horizon: int) -> int:
    """Smallest j such that j * lam * log(horizon) covers the spectral tail."""
    return complexity_report(k, lam, 1.0, horizon).valko_d


def prop1_bound(k: np.ndarray, lam: float, kappa: float) -> tuple[float, float]:
    """Both sides of Prop. 1's log-determinant growth bound."""
    report = complexity_report(k, lam, kappa, 2)
    return report.prop1_lhs, report.prop1_rhs


@dataclass(frozen=True)
class CoverageConfig:
    """Setup for the confidence-coverage replay study.

    Only the linear environment paired with the linear kernel is supported:
    there the feature map is the identity, so the ridge estimate and its
    weighted distance to the true parameter are directly computable.
    ``radius_scale`` shrinks the radius; 0 turns the check degenerate, which
    tests use to confirm the coverage statistic can actually fail.
    """

    env: EnvSpec
    kernel: KernelSpec
    lam: float = 1.0
    delta: float = 0.01
    horizon: int = 50
    replays: int = 200
    radius_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.env.family != "linear_sanity":
            raise UnsupportedConfigurationError(
                "coverage_test requires the linear_sanity environment"
            )
        if self.kernel.family != "linear":
            raise UnsupportedConfigurationError(
                "coverage_test requires the linear kernel"
            )
        if self.lam <= 0 or not (0 < self.delta < 1):
            raise ValueError("invalid lam or delta")
        if self.horizon < 1 or self.replays < 1:
            raise ValueError("invalid horizon or replay count")


def coverage_test(config: CoverageConfig) -> float:
    """Fraction of replays whose ridge estimate stays inside the radius.

    Each replay runs the exact UCB policy for ``horizon`` rounds on a freshly
    seeded linear environment, then checks at every t that

        || theta_hat_t - theta* ||_{V_t}  <=  radius_scale * beta_{t+1}(delta)

    with V_t = lam I + sum phi phi^T and beta the exact-posterior radius
    evaluated at the replay's own effective dimension at the horizon.
    """
    covered = 0
    for replay in range(config.replays):
        env = Environment(replace(config.env, seed=config.env.seed + replay))
        policy = ExactKernelUcb(config.kernel, config.lam, ExplorationSchedule())
        actions = env.action_grid()
        for _ in range(config.horizon):
            x = env.sample_context()
            idx = policy.choose(x, actions)
            outcome = env.step(x, idx)
            policy.update(x, actions[idx], outcome.reward)
        # the policy's packed history holds the features phi = (x, a) of the
        # linear kernel, one row per round, beside the rewards
        phis, ys = policy.history, policy.rewards
        dim = phis.shape[1]
        # eigenvalues of the t x t gram and of the d x d scatter agree up to
        # zeros, so the horizon effective dimension comes from the small one
        d_eff = effective_dimension(phis.T @ phis, config.lam)
        theta = env.theta_star
        norm_bound = float(np.linalg.norm(theta))
        ok = True
        v = config.lam * np.eye(dim)
        xty = np.zeros(dim)
        for t in range(config.horizon):
            v = v + np.outer(phis[t], phis[t])
            xty = xty + ys[t] * phis[t]
            theta_hat = np.linalg.solve(v, xty)
            err = theta_hat - theta
            radius = theoretical_beta(
                "exact",
                t + 1,
                config.lam,
                0.0,
                norm_bound,
                config.delta,
                config.kernel.kappa,
                d_eff,
            )
            if math.sqrt(float(err @ (v @ err))) > config.radius_scale * radius:
                ok = False
                break
        covered += int(ok)
    return covered / config.replays
