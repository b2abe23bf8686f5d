"""Upper-confidence-bound policies for kernelized contextual bandits.

Four policies share one interface (``choose(context, actions) -> index``,
``update(context, action, reward)``):

* ``ExactKernelUcb``       kernel ridge regression on the full history; the
  inverse of K + lam I is extended by one Schur step per round, so a round
  costs O(t^2) plus O(C t^2) for scoring C candidate actions.  The step
  borders with the history column and k(s, s) that ``choose`` scored the
  chosen state with, so a round evaluates one kernel block.
* ``ProjectedKernelUcb``   the same posterior projected onto a Nystrom
  dictionary grown online by leverage-score sampling; rounds cost O(m^2) or
  O(t m) when an anchor is admitted, plus an O(t m^2) dense rebuild of Lam
  and Gam when the rank-one update's denominator is near zero or an
  admission's Schur complement is not positive (``counters``, one name per
  trigger; the shipped presets make about a hundred of the second kind).
* ``ResamplingKernelUcb``  a baseline that keeps the dictionary frozen between
  full resamples triggered by the summed variance of its chosen actions.
* ``UniformRandomPolicy``  uniform action choice; the regret floor.

A kernel policy plays the first maximiser of mean + beta sqrt(var) over the
candidates (``_KernelPolicy._ucb``).  beta is fixed or the theoretical radius
with (``exact``, mu = 0, d_eff ~ t) or (``projected``, mu, d_eff ~ m).

The projected posterior with anchors Z, history S, rewards Y uses

    Lam = (K_ZS K_SZ + lam K_ZZ)^{-1}        Gam = K_ZS Y
    mean(s) = K_Z(s)^T Lam Gam
    var(s)  = k(s, s) / lam + K_Z(s)^T (Lam - K_ZZ^{-1} / lam) K_Z(s)

and coincides with the exact posterior whenever Z spans the history.
``_variances`` builds the correction Lam - K_ZZ^{-1} / lam on each call, once
a round in ``choose``, whose variances the resampling update reuses;
K_ZZ^{-1} / lam is kept beside the dictionary inverse it was divided from and
divided again only when an admission or a resample replaces that inverse.
Both projected policies rebuild Lam and Gam densely through one method, which
``refactor`` and every resample call; a resample draws its anchors in
``kors_resample`` (see ``ResamplingKernelUcb``).

States are stored only as packed joint rows: the history S is one
(context, action) row per round beside the rewards, and the dictionary keeps
its anchors Z the same way.  Every kernel call goes through ``_gram`` or
``_diag``, bound to the policy's kernel and to the size of the first context
it packs; a context of another size is an error.  Only ``update`` packs a
state's own row; ``choose`` hands it what the state was scored with, keyed by
the row's bytes (``_KernelPolicy._scored``).  Every kernel policy takes
k(s, s) from ``_diag``, as ``choose`` scores it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from ._grow import GrowableMatrix
from .dictionary import Dictionary, KorsParams, kors_resample, kors_step
from .kernels import KernelSpec, diag_packed, gram_packed
from .linalg import (
    BufferedInverse,
    LinalgError,
    SpdInverse,
    dense_spd_inverse,
    schur_extend,
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
    projected policies, the history length for the exact one.  The fields are
    the ``policy.beta_mode``, ``policy.beta``, ``policy.norm_bound`` and
    ``policy.delta`` config keys, which the range errors name.
    """

    mode: str = "fixed"
    beta: float = 1.0
    norm_bound: float = 1.0
    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "theoretical"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        # a negative width would rank actions by a lower confidence bound
        if self.beta < 0:
            raise ValueError("policy.beta must be nonnegative")
        if self.norm_bound < 0:
            raise ValueError("policy.norm_bound must be nonnegative")
        if not 0 < self.delta <= 1:
            raise ValueError("policy.delta must lie in (0, 1]")

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


class _KernelPolicy:
    """History shared by the kernel policies: packed joint rows and rewards.

    Each observed state is stored once, as one (context, action) row of
    ``history``, packed from the arrays ``update`` is handed; ``_gram`` and
    ``_diag`` split rows at the first packed context's size.  ``choose`` hands
    ``update`` what it scored the chosen state with, keyed by the row's bytes.
    """

    def __init__(self, kernel: KernelSpec, lam: float, schedule: ExplorationSchedule):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.kernel = kernel
        self.lam = lam
        self.schedule = schedule
        self._history: GrowableMatrix | None = None
        self._rewards = GrowableMatrix(np.zeros((0, 1)))
        self._context_dim: int | None = None
        # the last choice's row bytes and scored values, until the next update
        self._chosen: tuple | None = None

    @property
    def t(self) -> int:
        return self._rewards.rows

    @property
    def rewards(self) -> np.ndarray:
        return self._rewards.view[:, 0]

    @property
    def history(self) -> np.ndarray:
        if self._history is None:
            return np.zeros((0, 0))
        return self._history.view

    def _split(self, context: np.ndarray) -> int:
        """The context size, learned from the first context; later ones must match it."""
        if self._context_dim is None:
            self._context_dim = context.size
        elif context.size != self._context_dim:
            raise ValueError(f"context has {context.size} coordinates, not {self._context_dim}")
        return self._context_dim

    def _query_block(self, context: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """The candidates' packed (context, action) rows."""
        context = np.asarray(context, dtype=float).reshape(-1)
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        if actions.shape[0] == 0:
            raise ValueError("no candidate actions")
        dx = self._split(context)
        q = np.empty((actions.shape[0], dx + actions.shape[1]))
        q[:, :dx] = context
        q[:, dx:] = actions
        return q

    def _row(self, context: np.ndarray, action: np.ndarray) -> np.ndarray:
        """The packed row of (context, action); the first call sizes the history."""
        context = np.asarray(context, dtype=float).reshape(-1)
        row = np.concatenate([context, np.asarray(action, dtype=float).reshape(-1)])
        if not np.isfinite(row).all():
            raise ValueError("state coordinates must be finite")
        self._split(context)
        if self._history is None:
            self._history = GrowableMatrix(np.zeros((0, row.size)))
        return row

    def _gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """k(a_i, b_j) for the packed rows of ``a`` and ``b``."""
        return gram_packed(self.kernel, a, b, self._context_dim)

    def _diag(self, a: np.ndarray) -> np.ndarray:
        """k(a_i, a_i) for the packed rows of ``a``."""
        return diag_packed(self.kernel, a, self._context_dim)

    def _column(self, block: np.ndarray, row: np.ndarray) -> np.ndarray:
        """k(b, s) for each packed row b of ``block``."""
        return self._gram(block, row[None, :])[:, 0]

    def _hand_off(self, key: bytes, *scored) -> None:
        """Keep what ``choose`` scored the chosen state with, keyed by its row's bytes."""
        self._chosen = (key, scored)

    def _scored(self, row: np.ndarray) -> tuple | None:
        """The values handed off for ``row``, or None; the first update takes them."""
        chosen, self._chosen = self._chosen, None
        return chosen[1] if chosen and chosen[0] == row.tobytes() else None

    def _ucb(self, means: np.ndarray, var: np.ndarray, kind: str, mu: float, d_eff: float) -> int:
        """The first maximiser of mean + beta sqrt(var), with the schedule's beta for ``kind``."""
        beta = self.schedule.value(kind, self.t, self.lam, mu, self.kernel.kappa, d_eff)
        return int(np.argmax(means + beta * np.sqrt(var)))

    def _store(self, row: np.ndarray, reward: float) -> None:
        self._history.append_row(row)
        self._rewards.append_row(np.array([reward], dtype=float))


class ExactKernelUcb(_KernelPolicy):
    """Kernel UCB on the full history.

    (K + lam I)^{-1} is a ``BufferedInverse``: each ``update`` borders it in
    buffers that are reused from round to round, so ``k_lambda_inverse.matrix``
    is overwritten by the next ``update``.  Keep a copy to compare across
    rounds.
    """

    def __init__(self, kernel: KernelSpec, lam: float, schedule: ExplorationSchedule):
        super().__init__(kernel, lam, schedule)
        self.k_lambda_inverse = BufferedInverse()
        self.counters: dict[str, int] = {}  # its bordering has no recovery path

    @property
    def dictionary_size(self) -> int:
        return 0

    def scores(self, context: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance for every candidate action."""
        _, _, means, var = self._posterior(self._query_block(context, actions))
        return means, var

    def _posterior(self, q: np.ndarray) -> tuple:
        """The candidates' history columns K_S(q), their k(q, q), means and variances."""
        kdiag = self._diag(q)
        cross = self._gram(self.history, q)
        alpha = self.k_lambda_inverse.matrix @ self.rewards
        means = cross.T @ alpha
        quad = np.einsum("ij,ij->j", cross, self.k_lambda_inverse.matrix @ cross)
        var = (kdiag - quad) / self.lam
        return cross, kdiag, means, _guard_variances(var)

    def choose(self, context: np.ndarray, actions: np.ndarray) -> int:
        q = self._query_block(context, actions)
        cross, kdiag, means, var = self._posterior(q)
        idx = self._ucb(means, var, "exact", 0.0, float(self.t))
        # a copy of the column, so the t-by-C block is freed
        self._hand_off(q[idx].tobytes(), np.ascontiguousarray(cross[:, idx]), float(kdiag[idx]))
        return idx

    def update(self, context: np.ndarray, action: np.ndarray, reward: float) -> None:
        """Border (K + lam I)^{-1} with the state s = (context, action).

        When s is the state ``choose`` just picked, its history column and
        k(s, s) are the ones ``choose`` scored it with.  Otherwise, as for an
        update with no ``choose`` before it, they are computed here, as
        ``choose`` computes them: a t-by-1 ``_gram`` and ``_diag``.
        """
        row = self._row(context, action)
        kz, k_self = self._scored(row) or (
            self._column(self.history, row), float(self._diag(row[None, :])[0])
        )
        self.k_lambda_inverse = schur_extend_jittered(
            self.k_lambda_inverse, kz, k_self + self.lam
        )
        self._store(row, reward)


class ProjectedKernelUcb(_KernelPolicy):
    """Kernel UCB projected on a leverage-score-sampled Nystrom dictionary.

    While the dictionary is empty, actions are drawn uniformly.  Every
    observed state rank-one-updates the maintained inverse Lam, and a
    bordering step extends it whenever the state becomes an anchor.  The
    state that seeds the empty dictionary does, through those same two steps
    on empty matrices, so no round has formulas of its own.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        lam: float,
        kors: KorsParams,
        schedule: ExplorationSchedule,
        policy_rng: np.random.Generator,
        kors_rng: np.random.Generator,
    ):
        super().__init__(kernel, lam, schedule)
        self.kors = kors
        self.rng = policy_rng
        self.dictionary = Dictionary(mu=kors.mu, rng=kors_rng)
        self._cross = GrowableMatrix(np.zeros((0, 0)))  # rows are states: K_SZ
        # K_ZZ^{-1} / lam and the dictionary inverse it was divided from (held
        # weakly, so a replaced inverse is freed)
        self._kzz_scaled: np.ndarray | None = None
        self._kzz_source: weakref.ref | None = None
        self.lambda_inverse = SpdInverse.empty()
        self.gamma_vec = np.zeros(0)
        self._jitter = 1e-10 * kernel.kappa**2
        self._counts = dict.fromkeys(
            ("rebuilds_singular_update", "rebuilds_indefinite_admission", "jitter_retries"), 0
        )

    @property
    def dictionary_size(self) -> int:
        return self.dictionary.size

    @property
    def counters(self) -> dict[str, int]:
        """Recovery events by name; the dictionaries count the rejected duplicates."""
        return {**self._counts, "rejected_duplicates": self.dictionary.rejected_duplicates}

    @property
    def cross(self) -> np.ndarray:
        """K_ZS, anchors by states."""
        return self._cross.view.T

    def scores(self, context: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Projected posterior mean and variance for every candidate."""
        if self.dictionary.size == 0:
            raise ValueError("no scores before the dictionary is seeded")
        q = self._query_block(context, actions)
        kzq = self._gram(self.dictionary.packed, q)
        means = kzq.T @ (self.lambda_inverse.matrix @ self.gamma_vec)
        return means, self._variances(kzq, self._diag(q))

    def _variances(self, kzq: np.ndarray, kdiag: np.ndarray) -> np.ndarray:
        """Guarded posterior variances of the states with anchor columns ``kzq``.

        Lam - K_ZZ^{-1} / lam is built on every call and dropped with it;
        K_ZZ^{-1} / lam only once per dictionary inverse.
        """
        kzz_inverse = self.dictionary.kzz_inverse
        if self._kzz_source is None or self._kzz_source() is not kzz_inverse:
            self._kzz_scaled = kzz_inverse.matrix / self.lam
            self._kzz_source = weakref.ref(kzz_inverse)
        correction = self.lambda_inverse.matrix - self._kzz_scaled
        quad = np.einsum("ij,ij->j", kzq, correction @ kzq)
        return _guard_variances(kdiag / self.lam + quad)

    def choose(self, context: np.ndarray, actions: np.ndarray) -> int:
        if self.dictionary.size == 0:
            return int(self.rng.integers(np.atleast_2d(actions).shape[0]))
        means, var = self.scores(context, actions)
        idx = self._ucb(means, var, "projected", self.kors.mu, float(self.dictionary.size))
        action = np.asarray(np.atleast_2d(actions)[idx], dtype=float)
        self._hand_off(np.asarray(context, dtype=float).tobytes() + action.tobytes(), var[idx])
        return idx

    def _bootstrap(self, row: np.ndarray, k_self: float, reward: float) -> None:
        """Seed the empty dictionary with s, without a coin, so ``scores`` has an anchor.

        An empty dictionary's coin would be min(gamma 1.5 k / (k + mu), 1), below 1
        whenever gamma 1.5 k < k + mu (0.68 on the benchmark's ``nystrom_bump``), so
        a coin could leave the dictionary empty.  A refused state, k(s, s) below the
        admission floor, is kept with a zero-width cross row, and the next one is offered.
        """
        self._append_state(row, np.zeros(0), reward)
        if self.dictionary.seed(row, k_self):
            self._admit_anchor(row, np.zeros(0), k_self)

    def _append_state(self, row: np.ndarray, kz: np.ndarray, reward: float) -> None:
        """No-add branch shared with the resampling baseline."""
        self._cross.append_row(kz)
        self._store(row, reward)
        try:
            self.lambda_inverse = sherman_morrison_update(self.lambda_inverse, kz)
            self.gamma_vec = self.gamma_vec + reward * kz
        except LinalgError:
            self._counts["rebuilds_singular_update"] += 1
            self.refactor()

    def _admit_anchor(self, row: np.ndarray, kz: np.ndarray, k_self: float) -> None:
        """Extend Lam, Gam and the cross block after the sampler admits s.

        Near dictionary saturation the drifted Lam estimate can make the
        bordering step numerically indefinite even though the true matrix is
        positive definite; that is recoverable, so it falls back to a dense
        rebuild instead of failing the run.  The bordering step itself is not
        retried at c + jitter, which rescued none of these admissions on the
        shipped presets; the rebuild's Lam is (see ``refactor``).
        """
        ks_z = self._column(self.history, row)
        b = self._cross.view.T @ ks_z + self.lam * kz
        c = float(ks_z @ ks_z) + self.lam * k_self
        self.gamma_vec = np.append(self.gamma_vec, float(ks_z @ self.rewards))
        self._cross.append_col(ks_z)
        try:
            self.lambda_inverse = schur_extend(self.lambda_inverse, b, c)
        except LinalgError:
            self._counts["rebuilds_indefinite_admission"] += 1
            self.refactor()

    def update(self, context: np.ndarray, action: np.ndarray, reward: float) -> None:
        row = self._row(context, action)
        k_self = float(self._diag(row[None, :])[0])
        if self.dictionary.size == 0:
            self._bootstrap(row, k_self, reward)
            return
        kz = self._column(self.dictionary.packed, row)
        self._append_state(row, kz, reward)
        before = self.dictionary.size
        if kors_step(self.dictionary, self.t - 1, row, kz, k_self, self.kors):
            assert self.dictionary.size == before + 1
            self._admit_anchor(row, kz, k_self)

    def refactor(self) -> None:
        """Drift recovery: rebuild Lam and Gam densely; the dictionary's inverses are kept."""
        self._dense_posterior()

    def _dense_posterior(self) -> None:
        """Rebuild Lam, retrying once at + jitter I, and Gam from the cross block and K_ZZ."""
        kzs = self.cross
        kzz = self._gram(self.dictionary.packed, self.dictionary.packed)
        self.lambda_inverse = dense_spd_inverse(kzs @ kzs.T + self.lam * kzz, jitter=self._jitter)
        self._counts["jitter_retries"] += self.lambda_inverse.jittered
        self.gamma_vec = kzs @ self.rewards


class ResamplingKernelUcb(ProjectedKernelUcb):
    """Frozen-dictionary variant with variance-triggered full resampling.

    Between resamples the dictionary never grows; each round only performs the
    rank-one update.  The variance ``choose`` scored the chosen action with is
    summed, and once the sum since the last resample exceeds threshold - 1 the
    whole dictionary is redrawn from all past states by leverage-score
    sampling.  A threshold of 1 resamples every round whose chosen state has
    positive variance, and infinity never does.
    A resample costs O(t m^2): ``kors_resample`` draws the anchors and factors
    their gram in order, dropping a state whose pivot squared is below
    ``SINGULAR_TOL`` (one Cholesky factorization when it drops none, and one
    more per dropped state), and Lam and Gam are rebuilt as in ``refactor``.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        lam: float,
        kors: KorsParams,
        schedule: ExplorationSchedule,
        policy_rng: np.random.Generator,
        kors_rng: np.random.Generator,
        accumulation_threshold: float,
    ):
        super().__init__(kernel, lam, kors, schedule, policy_rng, kors_rng)
        if accumulation_threshold < 1:
            raise ValueError("accumulation_threshold must be at least 1")
        self.accumulation_threshold = accumulation_threshold
        self.accumulated_variance = 0.0
        self._counts["resamples"] = 0

    @property
    def resample_count(self) -> int:
        return self._counts["resamples"]

    def update(self, context: np.ndarray, action: np.ndarray, reward: float) -> None:
        row = self._row(context, action)
        if self.dictionary.size == 0:
            self._bootstrap(row, float(self._diag(row[None, :])[0]), reward)
            return
        kz = self._column(self.dictionary.packed, row)
        (var_s,) = self._scored(row) or self._variances(kz[:, None], self._diag(row[None, :]))
        self._append_state(row, kz, reward)
        self.accumulated_variance += float(var_s)
        if self.accumulated_variance > self.accumulation_threshold - 1.0:
            self._resample()

    def _resample(self) -> None:
        d, rows, cross = self.dictionary, self.history, self._cross.view
        self.dictionary = kors_resample(
            d, rows, cross, self._diag(rows), self.t - 1, self.kors, self.kernel, self._context_dim
        )
        self._cross = GrowableMatrix(self._gram(self.dictionary.packed, self.history).T)
        self._dense_posterior()
        self.accumulated_variance = 0.0
        self._counts["resamples"] += 1


class UniformRandomPolicy:
    """Uniform exploration; the sanity floor every learner must beat."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.t = 0
        self.counters: dict[str, int] = {}

    @property
    def dictionary_size(self) -> int:
        return 0

    def choose(self, context: np.ndarray, actions: np.ndarray) -> int:
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        return int(self.rng.integers(actions.shape[0]))

    def update(self, context: np.ndarray, action: np.ndarray, reward: float) -> None:
        self.t += 1
