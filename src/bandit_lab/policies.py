"""Upper-confidence-bound policies for kernelized contextual bandits.

Four policies share one interface (``choose(context, actions) -> index``,
``update(state, reward)``):

* ``ExactKernelUcb``       kernel ridge regression on the full history; the
  inverse of K + lam I is extended by one Schur step per round, so a round
  costs O(t^2) plus O(C t^2) for scoring C candidate actions.
* ``ProjectedKernelUcb``   the same posterior projected onto a Nystrom
  dictionary grown online by leverage-score sampling; rounds cost O(m^2) or
  O(t m) when an anchor is admitted, plus a rare O(t m^2) dense rebuild when
  numerical drift is detected.
* ``ResamplingKernelUcb``  a baseline that keeps the dictionary frozen between
  full resamples triggered by accumulated posterior variance.
* ``UniformRandomPolicy``  uniform action choice; the regret floor.

The projected posterior with anchors Z, history S, rewards Y uses

    Lam = (K_ZS K_SZ + lam K_ZZ)^{-1}        Gam = K_ZS Y
    mean(s) = K_Z(s)^T Lam Gam
    var(s)  = k(s, s) / lam + K_Z(s)^T (Lam - K_ZZ^{-1} / lam) K_Z(s)

and coincides with the exact posterior whenever Z spans the history.  Both
projected policies rebuild Lam and Gam densely through one method, which
``refactor`` and every resample call; a resample's anchors and their inverses
come from one in-order Cholesky factorization in ``rebuild_dictionary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._grow import GrowableMatrix, GrowableVector
from .dictionary import Dictionary, KorsParams, kors_step, rebuild_dictionary
from .kernels import KernelSpec, StatePoint, diag_packed, evaluate, gram_packed
from .linalg import (
    LinalgError,
    SpdInverse,
    dense_spd_inverse,
    schur_extend_jittered,
    sherman_morrison_update,
)

# Negative predicted variance below this signals real numerical drift rather
# than round-off; round-off-sized negatives are clamped to zero.
VARIANCE_DRIFT_TOL = -1e-6


class NumericalDriftError(Exception):
    """Maintained state has drifted past benign round-off."""


def theoretical_beta(
    kind: str,
    t: int,
    lam: float,
    mu: float,
    norm_bound: float,
    delta: float,
    kappa: float,
    d_eff: float,
) -> float:
    """Analysis-backed confidence radius after t observations.

    ``kind`` selects the exact-posterior radius

        sqrt(lam) B + sqrt(2 log(1/delta) + log(e + e t kappa^2 / lam) d_eff)

    or the projected-posterior radius

        (sqrt(lam) + sqrt(mu)) B + sqrt(4 log(1/delta)
                                        + 2 log(e + e t kappa^2 / lam) d_eff),

    where B bounds the norm of the unknown reward function and mu is the
    dictionary's projection-error budget.
    """
    if kind not in ("exact", "projected"):
        raise ValueError(f"unknown radius kind {kind!r}")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    if lam <= 0 or t < 0 or mu < 0 or d_eff < 0 or norm_bound < 0:
        raise ValueError("invalid radius arguments")
    log_growth = math.log(math.e + math.e * t * kappa**2 / lam)
    if kind == "exact":
        return math.sqrt(lam) * norm_bound + math.sqrt(
            2.0 * math.log(1.0 / delta) + log_growth * d_eff
        )
    return (math.sqrt(lam) + math.sqrt(mu)) * norm_bound + math.sqrt(
        4.0 * math.log(1.0 / delta) + 2.0 * log_growth * d_eff
    )


@dataclass(frozen=True)
class ExplorationSchedule:
    """How wide the confidence term is per round.

    ``fixed`` uses the constant ``beta`` (the benchmark default).
    ``theoretical`` evaluates the analysis radius each round, plugging in a
    cheap running proxy for the effective dimension: the dictionary size for
    projected policies, the history length for the exact one.
    """

    mode: str = "fixed"
    beta: float = 1.0
    norm_bound: float = 1.0
    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "theoretical"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")

    def value(
        self, kind: str, t: int, lam: float, mu: float, kappa: float, d_eff_proxy: float
    ) -> float:
        if self.mode == "fixed":
            return self.beta
        return theoretical_beta(
            kind, t, lam, mu, self.norm_bound, self.delta, kappa, d_eff_proxy
        )


def _guard_variances(var: np.ndarray) -> np.ndarray:
    worst = float(var.min()) if var.size else 0.0
    if worst < VARIANCE_DRIFT_TOL:
        raise NumericalDriftError(f"predicted variance {worst:.3e}")
    return np.maximum(var, 0.0)


def _query_block(context: np.ndarray, actions: np.ndarray) -> np.ndarray:
    context = np.asarray(context, dtype=float).reshape(-1)
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if actions.shape[0] == 0:
        raise ValueError("no candidate actions")
    ctx = np.broadcast_to(context, (actions.shape[0], context.shape[0]))
    return np.hstack([ctx, actions])


class ExactKernelUcb:
    """Kernel UCB on the full history."""

    def __init__(self, kernel: KernelSpec, lam: float, schedule: ExplorationSchedule):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.kernel = kernel
        self.lam = lam
        self.schedule = schedule
        self.points: list[StatePoint] = []
        self._history: GrowableMatrix | None = None
        self._rewards = GrowableVector()
        self.k_lambda_inverse = SpdInverse.empty()
        self._context_dim: int | None = None
        self._jitter = 1e-10 * kernel.kappa**2

    @property
    def t(self) -> int:
        return len(self.points)

    @property
    def dictionary_size(self) -> int:
        return 0

    @property
    def rewards(self) -> np.ndarray:
        return self._rewards.view

    @property
    def history(self) -> np.ndarray:
        if self._history is None:
            return np.zeros((0, 0))
        return self._history.view

    def scores(
        self, context: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance for every candidate action."""
        q = _query_block(context, actions)
        ctx_dim = np.asarray(context).reshape(-1).shape[0]
        kdiag = diag_packed(self.kernel, q, context_dim=ctx_dim)
        if self.t == 0:
            return np.zeros(q.shape[0]), _guard_variances(kdiag / self.lam)
        cross = gram_packed(self.kernel, self.history, q, context_dim=ctx_dim)
        alpha = self.k_lambda_inverse.matrix @ self.rewards
        means = cross.T @ alpha
        quad = np.einsum("ij,ij->j", cross, self.k_lambda_inverse.matrix @ cross)
        var = (kdiag - quad) / self.lam
        return means, _guard_variances(var)

    def score_one(self, s: StatePoint) -> tuple[float, float]:
        means, var = self.scores(s.context, s.action[None, :])
        return float(means[0]), float(var[0])

    def choose(self, context: np.ndarray, actions: np.ndarray) -> int:
        means, var = self.scores(context, actions)
        beta = self.schedule.value(
            "exact", self.t, self.lam, 0.0, self.kernel.kappa, float(self.t)
        )
        return int(np.argmax(means + beta * np.sqrt(var)))

    def update(self, s: StatePoint, reward: float) -> None:
        joint = s.joint
        if self._context_dim is None:
            self._context_dim = s.context.size
            self._history = GrowableMatrix(joint.size)
        kz = gram_packed(
            self.kernel, self.history, joint[None, :], context_dim=self._context_dim
        )[:, 0]
        c = evaluate(self.kernel, s, s) + self.lam
        self.k_lambda_inverse = schur_extend_jittered(
            self.k_lambda_inverse, kz, c, self._jitter
        )
        self._history.append_row(joint)
        self._rewards.append(reward)
        self.points.append(s)


class ProjectedKernelUcb:
    """Kernel UCB projected on a leverage-score-sampled Nystrom dictionary.

    The first round is a bootstrap: an action is drawn uniformly and the
    observed state seeds both the history and the dictionary.  From then on
    the maintained inverse Lam is rank-one-updated every round and extended by
    a bordering step whenever the sampler admits a new anchor.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        lam: float,
        kors: KorsParams,
        schedule: ExplorationSchedule,
        policy_rng: np.random.Generator,
        kors_rng: np.random.Generator,
        refactor_every: int | None = None,
    ):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.kernel = kernel
        self.lam = lam
        self.kors = kors
        self.schedule = schedule
        self.rng = policy_rng
        self.dictionary = Dictionary(mu=kors.mu, rng=kors_rng)
        self.points: list[StatePoint] = []
        self._history: GrowableMatrix | None = None
        self._rewards = GrowableVector()
        self._cross: GrowableMatrix | None = None  # rows are states: K_SZ
        self.lambda_inverse = SpdInverse.empty()
        self.gamma_vec = np.zeros(0)
        self.refactor_every = refactor_every
        # dense rebuilds by the reason that triggered them
        self.rebuilds = {"singular_update": 0, "indefinite_admission": 0, "periodic": 0}
        # duplicates rejected by dictionaries that a resample has replaced
        self._replaced_duplicates = 0
        self._context_dim: int | None = None
        self._jitter = 1e-10 * kernel.kappa**2

    @property
    def t(self) -> int:
        return len(self.points)

    @property
    def dictionary_size(self) -> int:
        return self.dictionary.size

    @property
    def rejected_duplicates(self) -> int:
        """Near-duplicate states rejected over the run, by every dictionary it used."""
        return self._replaced_duplicates + self.dictionary.rejected_duplicates

    @property
    def rewards(self) -> np.ndarray:
        return self._rewards.view

    @property
    def history(self) -> np.ndarray:
        if self._history is None:
            return np.zeros((0, 0))
        return self._history.view

    @property
    def cross(self) -> np.ndarray:
        """K_ZS, anchors by states."""
        if self._cross is None:
            return np.zeros((0, 0))
        return self._cross.view.T

    def scores(
        self, context: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Projected posterior mean and variance for every candidate."""
        if self.dictionary.size == 0:
            raise ValueError("no scores before the bootstrap round")
        q = _query_block(context, actions)
        ctx_dim = np.asarray(context).reshape(-1).shape[0]
        kzq = gram_packed(self.kernel, self.dictionary.packed, q, context_dim=ctx_dim)
        kdiag = diag_packed(self.kernel, q, context_dim=ctx_dim)
        means = kzq.T @ (self.lambda_inverse.matrix @ self.gamma_vec)
        correction = (
            self.lambda_inverse.matrix - self.dictionary.kzz_inverse.matrix / self.lam
        )
        quad = np.einsum("ij,ij->j", kzq, correction @ kzq)
        return means, _guard_variances(kdiag / self.lam + quad)

    def score_one(self, s: StatePoint) -> tuple[float, float]:
        means, var = self.scores(s.context, s.action[None, :])
        return float(means[0]), float(var[0])

    def choose(self, context: np.ndarray, actions: np.ndarray) -> int:
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        if self.t == 0:
            return int(self.rng.integers(actions.shape[0]))
        means, var = self.scores(context, actions)
        beta = self.schedule.value(
            "projected",
            self.t,
            self.lam,
            self.kors.mu,
            self.kernel.kappa,
            float(self.dictionary.size),
        )
        return int(np.argmax(means + beta * np.sqrt(var)))

    def _bootstrap(self, s: StatePoint, reward: float) -> None:
        self._context_dim = s.context.size
        joint = s.joint
        self._history = GrowableMatrix(joint.size)
        self._history.append_row(joint)
        self._rewards.append(reward)
        self.points.append(s)
        self.dictionary.seed(self.kernel, s, step=0)
        k00 = evaluate(self.kernel, s, s)
        self._cross = GrowableMatrix(1)
        self._cross.append_row(np.array([k00]))
        self.lambda_inverse = SpdInverse(
            np.array([[1.0 / (k00 * k00 + self.lam * k00)]])
        )
        self.gamma_vec = np.array([k00 * reward])

    def _append_state(self, s: StatePoint, reward: float) -> np.ndarray:
        """No-add branch shared with the resampling baseline; returns K_Z(s)."""
        kz = self.dictionary.cross_vector(self.kernel, s)
        self._cross.append_row(kz)
        self._history.append_row(s.joint)
        self._rewards.append(reward)
        self.points.append(s)
        try:
            self.lambda_inverse = sherman_morrison_update(
                self.lambda_inverse, kz, kz
            )
            self.gamma_vec = self.gamma_vec + reward * kz
        except LinalgError:
            self.rebuilds["singular_update"] += 1
            self.refactor()
        return kz

    def _admit_anchor(self, s: StatePoint, kz: np.ndarray) -> None:
        """Extend Lam, Gam and the cross block after the sampler admits s.

        Near dictionary saturation the drifted Lam estimate can make the
        bordering step numerically indefinite even though the true matrix is
        positive definite; that is recoverable, so it falls back to a dense
        rebuild instead of failing the run.
        """
        ks_z = gram_packed(
            self.kernel, self.history, s.joint[None, :], context_dim=self._context_dim
        )[:, 0]
        b = self._cross.view.T @ ks_z + self.lam * kz
        c = float(ks_z @ ks_z) + self.lam * evaluate(self.kernel, s, s)
        self.gamma_vec = np.append(self.gamma_vec, float(ks_z @ self.rewards))
        self._cross.append_col(ks_z)
        try:
            self.lambda_inverse = schur_extend_jittered(
                self.lambda_inverse, b, c, self._jitter
            )
        except LinalgError:
            self.rebuilds["indefinite_admission"] += 1
            self.refactor()

    def update(self, s: StatePoint, reward: float) -> None:
        if self.t == 0:
            self._bootstrap(s, reward)
            return
        kz = self._append_state(s, reward)
        before = self.dictionary.size
        if kors_step(self.dictionary, self.t - 1, s, self.kors, self.kernel):
            assert self.dictionary.size == before + 1
            self._admit_anchor(s, kz)
        if self.refactor_every is not None and self.t % self.refactor_every == 0:
            self.rebuilds["periodic"] += 1
            self.refactor()

    def refactor(self) -> None:
        """Rebuild Lam, Gam and both dictionary inverses densely; drift recovery path."""
        kzz = self._dense_posterior()
        self.dictionary.kzz_inverse = dense_spd_inverse(kzz, jitter=self._jitter)
        weights = 1.0 / np.sqrt(np.asarray(self.dictionary.probs))
        scaled = kzz * np.outer(weights, weights)
        self.dictionary.score_inverse = dense_spd_inverse(
            scaled + self.kors.mu * np.eye(scaled.shape[0]), jitter=self._jitter
        )

    def _dense_posterior(self) -> np.ndarray:
        """Rebuild Lam and Gam from the cross block; returns the anchor gram K_ZZ."""
        kzs = self.cross
        kzz = gram_packed(
            self.kernel,
            self.dictionary.packed,
            self.dictionary.packed,
            context_dim=self._context_dim,
        )
        base = kzs @ kzs.T + self.lam * kzz
        self.lambda_inverse = dense_spd_inverse(base, jitter=self._jitter)
        self.gamma_vec = kzs @ self.rewards
        return kzz

    def dictionary_rows(self) -> list[tuple]:
        """(anchor index, admission step, inclusion prob, joint coords...)."""
        d = self.dictionary
        return [
            (i, d.steps[i], d.probs[i], *d.anchors[i].joint.tolist())
            for i in range(d.size)
        ]


class ResamplingKernelUcb(ProjectedKernelUcb):
    """Frozen-dictionary variant with variance-triggered full resampling.

    Between resamples the dictionary never grows; each round only performs the
    rank-one update.  The posterior variance of every chosen action is summed,
    and once the sum since the last resample exceeds threshold - 1 the whole
    dictionary is redrawn from all past states by leverage-score sampling.  A
    threshold of 1 therefore resamples every round, and infinity never does.
    A resample costs O(t m^2): ``rebuild_dictionary`` factors the drawn states'
    gram once, in order, dropping a state whose pivot squared is below
    ``SINGULAR_TOL``, and Lam and Gam are rebuilt as in ``refactor``.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        lam: float,
        kors: KorsParams,
        schedule: ExplorationSchedule,
        policy_rng: np.random.Generator,
        kors_rng: np.random.Generator,
        accumulation_threshold: float = 10.0,
    ):
        super().__init__(kernel, lam, kors, schedule, policy_rng, kors_rng)
        if accumulation_threshold < 1:
            raise ValueError("accumulation_threshold must be at least 1")
        self.accumulation_threshold = accumulation_threshold
        self.accumulated_variance = 0.0
        self.resample_count = 0

    def update(self, s: StatePoint, reward: float) -> None:
        if self.t == 0:
            self._bootstrap(s, reward)
            return
        _, var_s = self.score_one(s)
        self._append_state(s, reward)
        self.accumulated_variance += var_s
        if self.accumulated_variance > self.accumulation_threshold - 1.0:
            self._resample()

    def _resample(self) -> None:
        # leverage-score estimates of all past states under the current anchors
        d = self.dictionary
        kdiag = diag_packed(self.kernel, self.history, context_dim=self._context_dim)
        weights = 1.0 / np.sqrt(np.asarray(d.probs))
        v = self._cross.view * weights[None, :]
        r = np.einsum("ij,ij->i", v @ d.score_inverse.matrix, v)
        gap = np.maximum(kdiag - r, 0.0)
        denom = np.maximum(kdiag + self.kors.mu - r, self.kors.mu)
        tau = (1.0 + self.kors.epsilon) * gap / denom
        probs = np.clip(self.kors.gamma * tau, 0.0, 1.0)
        keep = d.rng.uniform(size=probs.shape[0]) < probs
        if not keep.any():
            # an empty dictionary cannot score anything; force the most
            # informative state in at probability 1
            forced = int(np.argmax(tau))
            probs[forced] = 1.0
            keep[forced] = True
        idx = np.flatnonzero(keep)
        self._replaced_duplicates += d.rejected_duplicates
        self.dictionary = rebuild_dictionary(
            [self.points[i] for i in idx],
            probs[idx],
            [self.t - 1] * idx.size,
            self.kors.mu,
            self.kernel,
            d.rng,
        )
        kzs = gram_packed(
            self.kernel,
            self.dictionary.packed,
            self.history,
            context_dim=self._context_dim,
        )
        self._cross = GrowableMatrix(self.dictionary.size)
        for row in kzs.T:
            self._cross.append_row(row)
        self._dense_posterior()
        self.accumulated_variance = 0.0
        self.resample_count += 1


class UniformRandomPolicy:
    """Uniform exploration; the sanity floor every learner must beat."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.t = 0

    @property
    def dictionary_size(self) -> int:
        return 0

    def choose(self, context: np.ndarray, actions: np.ndarray) -> int:
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        return int(self.rng.integers(actions.shape[0]))

    def update(self, s: StatePoint, reward: float) -> None:
        self.t += 1
