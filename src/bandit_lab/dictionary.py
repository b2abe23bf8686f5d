"""Online Nystrom dictionary selection by ridge leverage score sampling.

The dictionary is the set of anchor states that the projected bandit policies
expand their estimates on.  Each arriving state is scored by an estimate of
its ridge leverage score against the current anchors, kept with probability
min(gamma * score, 1), and never removed.  Kept anchors remember the
probability they were sampled with; those probabilities reweight later score
estimates, which is what keeps the estimator an overestimate of the true
leverage score.

For a candidate s with self-similarity k = k(s, s), anchor cross-vector
K_Z(s), inclusion weights S = diag(1 / sqrt(p_i)) and regularizer mu, the
estimator used here is

    tau(s) = 1.5 * (k - r) / (k + mu - r),
    r      = (S K_Z(s))^T (S K_ZZ S + mu I)^{-1} (S K_Z(s)),

which is the augmented-dictionary form (s appended at weight 1) reduced by one
block elimination; tests check the two agree.  The 1.5 is KORS's 1 + eps
with eps fixed at 0.5, since eps only rescales gamma.  The matrix
(S K_ZZ S + mu I)^{-1} is maintained incrementally alongside K_ZZ^{-1}, and
sqrt(p_i) is kept beside p_i, so a score costs O(m^2) after O(m) kernel
evaluations and derives no weight.  The sampler lives here alone:
``kors_step`` scores and draws one state online, and ``kors_resample`` scores
and redraws a whole history (the resampling baselines) by the same weighting
and inclusion rule; a policy's drift recovery leaves both inverses alone.

Anchors are stored only as packed joint rows, the form ``gram_packed``
consumes, and every function here takes a state as such a row or as K_Z(s)
and k(s, s), the values its policy computed for its own update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, gram_packed
from .linalg import (
    SINGULAR_TOL,
    NearSingularExtensionError,
    SpdInverse,
    dense_spd_inverse,
    in_order_inverse,
    schur_extend,
)

INFLATION = 1.5  # KORS's (1 + eps) overestimate factor, eps = 0.5
ADMIT_TOL = 1e-6  # an anchor's pivot squared must reach ADMIT_TOL k(s, s), and SINGULAR_TOL


@dataclass(frozen=True)
class KorsParams:
    """Sampling parameters.

    ``gamma`` scales scores into inclusion probabilities; ``math.inf`` means
    every candidate is kept with probability 1, which is how the exact and
    projected policies are made to coincide.  ``theory_default`` picks the
    analysis-backed budget gamma = 12 log(T / delta) with delta = 1 / T^2.
    """

    mu: float
    gamma: float = 1.0
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @staticmethod
    def theory_default(horizon: int, mu: float) -> "KorsParams":
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        delta = 1.0 / horizon**2
        gamma = 12.0 * math.log(horizon / delta)
        return KorsParams(mu=mu, gamma=gamma, delta=delta)

    def inclusion(self, tau):
        """min(gamma tau, 1) for a float or an array, and 1 at gamma = inf (where inf * 0 is NaN)."""
        if isinstance(tau, float):  # kors_step's per-round path stays in plain Python
            return 1.0 if math.isinf(self.gamma) else min(self.gamma * tau, 1.0)
        return np.ones_like(tau) if math.isinf(self.gamma) else np.minimum(self.gamma * tau, 1.0)


@dataclass
class Dictionary:
    """Anchor set, stored as packed joint rows, with maintained inverse state.

    ``packed`` holds one (context, action) row per anchor, in admission order,
    and ``sqrt_probs`` the roots of their ``probs``.  ``kzz_inverse`` inverts
    K_ZZ (for the projected variance correction); ``score_inverse`` inverts
    S K_ZZ S + mu I (for the leverage estimator).  All grow as anchors are
    admitted.  ``rejected_duplicates`` counts the states dropped, not merged,
    because the anchors nearly span them: a pivot squared below
    max(SINGULAR_TOL, ADMIT_TOL k(s, s)) online, or SINGULAR_TOL in a resample;
    ``kors_resample`` carries the count over, so it covers the whole run.
    """

    mu: float
    rng: np.random.Generator
    packed: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    probs: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    kzz_inverse: SpdInverse = field(default_factory=SpdInverse.empty)
    score_inverse: SpdInverse = field(default_factory=SpdInverse.empty)
    rejected_duplicates: int = 0
    sqrt_probs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        self.sqrt_probs = np.sqrt(self.probs)
        if not (
            self.packed.shape[0]
            == len(self.probs)
            == len(self.steps)
            == self.kzz_inverse.dim
            == self.score_inverse.dim
        ):
            raise ValueError("dictionary fields disagree on the anchor count")

    @property
    def size(self) -> int:
        return len(self.probs)

    def cross_vector(
        self, spec: KernelSpec, row: np.ndarray, context_dim: int
    ) -> np.ndarray:
        """K_Z(s) for the joint row of s: its kernel against every anchor."""
        return gram_packed(spec, self.packed, row[None, :], context_dim=context_dim)[:, 0]

    def _admit(
        self, row: np.ndarray, k_self: float, prob: float, step: int, kz: np.ndarray
    ) -> bool:
        """Extend both inverses by one anchor; reject near-duplicates."""
        floor = max(SINGULAR_TOL, ADMIT_TOL * k_self)
        try:
            new_kzz = schur_extend(self.kzz_inverse, kz, k_self, floor)
        except NearSingularExtensionError:
            self.rejected_duplicates += 1
            return False
        root = math.sqrt(prob)
        self.score_inverse = schur_extend(
            self.score_inverse, kz / self.sqrt_probs / root, k_self * (1.0 / root) ** 2 + self.mu
        )
        self.kzz_inverse = new_kzz
        self.packed = np.vstack([self.packed.reshape(-1, row.size), row])
        self.probs.append(prob)
        self.sqrt_probs = np.append(self.sqrt_probs, root)
        self.steps.append(step)
        return True

    def seed(self, row: np.ndarray, k_self: float) -> bool:
        """Admit a first state (row, k(s, s)) at weight 1 and step 0; False if under the floor."""
        return self._admit(row, k_self, 1.0, 0, np.zeros(0))


def leverage_estimate(k, r, params: KorsParams):
    """tau = 1.5 max(k - r, 0) / max(k + mu - r, mu), for scalars or arrays."""
    gap = np.maximum(k - r, 0.0)
    return INFLATION * gap / np.maximum(k + params.mu - r, params.mu)


def leverage_score(d: Dictionary, kz: np.ndarray, k_self: float, params: KorsParams) -> float:
    """Estimated ridge leverage score tau from K_Z(s) = ``kz`` and k(s, s) = ``k_self``."""
    if params.mu != d.mu:
        raise ValueError("params.mu differs from the dictionary's mu")
    v = kz / d.sqrt_probs
    r = float(v @ (d.score_inverse.matrix @ v))
    return float(leverage_estimate(k_self, r, params))


def kors_step(
    d: Dictionary, t: int, row: np.ndarray, kz: np.ndarray, k_self: float, params: KorsParams
) -> bool:
    """Score a state, flip the inclusion coin, admit on success.

    ``row``, ``kz`` = K_Z(s) and ``k_self`` = k(s, s) describe the state, as its policy
    computed them for its own update.  Returns whether the state became an anchor.
    Exactly one uniform draw is consumed per call regardless of outcome, so the
    coin-flip stream stays aligned across configurations that share a seed.
    """
    prob = params.inclusion(leverage_score(d, kz, k_self, params))
    return d.rng.uniform() < prob and d._admit(row, k_self, prob, t, kz)


def projection_error(
    d: Dictionary, rows: np.ndarray, spec: KernelSpec, context_dim: int | None = None
) -> float:
    """Largest eigenvalue of K_SS - K_SZ K_ZZ^{-1} K_ZS over the packed history ``rows``.

    This is the operator norm of the part of the history gram that the anchor
    subspace fails to capture; the sampler's guarantee is that it stays below
    mu.  Diagnostic only, so it is computed densely from scratch with a small
    diagonal jitter on K_ZZ rather than from the maintained inverse.
    """
    if len(rows) == 0:
        return 0.0
    k_sz = gram_packed(spec, rows, d.packed, context_dim=context_dim)
    k_zz = gram_packed(spec, d.packed, d.packed, context_dim=context_dim)
    k_ss = gram_packed(spec, rows, rows, context_dim=context_dim)
    inv = dense_spd_inverse(k_zz, jitter=1e-10 * spec.kappa**2)
    resid = k_ss - k_sz @ (inv.matrix @ k_sz.T)
    eigs = np.linalg.eigvalsh(0.5 * (resid + resid.T))
    return float(eigs[-1])


def rebuild_dictionary(
    states: np.ndarray,
    probs: np.ndarray,
    steps: list[int],
    mu: float,
    spec: KernelSpec,
    rng: np.random.Generator,
    context_dim: int | None = None,
) -> Dictionary:
    """Construct a dictionary from scratch out of one gram.

    ``states`` are packed joint rows; ``context_dim`` splits them for tensor
    kernels, as in ``gram_packed``.  ``in_order_inverse`` drops a state whose
    pivot squared, its Schur complement against the states kept before it, is
    below ``SINGULAR_TOL``, and counts it in ``rejected_duplicates``: online
    admission's floor without its ADMIT_TOL k(s, s) term.  It makes one
    Cholesky factorization when it drops no state, and one more per dropped one.
    """
    k = gram_packed(spec, states, states, context_dim=context_dim)
    kept, kzz_inverse = in_order_inverse(k)
    root = np.sqrt(probs[kept])  # S K_ZZ S + mu I, S = diag(1 / root), for the score inverse
    scaled = k[np.ix_(kept, kept)] / np.outer(root, root) + mu * np.eye(kept.size)
    return Dictionary(
        mu=mu,
        rng=rng,
        packed=states[kept],
        probs=[float(probs[i]) for i in kept],
        steps=[steps[i] for i in kept],
        kzz_inverse=kzz_inverse,
        score_inverse=dense_spd_inverse(scaled),
        rejected_duplicates=len(states) - kept.size,
    )


def kors_resample(
    d: Dictionary, rows: np.ndarray, kz: np.ndarray, kdiag: np.ndarray, step: int,
    params: KorsParams, spec: KernelSpec, context_dim: int | None = None,
) -> Dictionary:
    """Redraw the dictionary from the packed ``rows``, whose K_Z(s) is ``kz`` and k(s, s) ``kdiag``.

    Each row is scored as by ``leverage_score``, stamped ``step`` and kept with ``kors_step``'s
    probability, one coin each from ``d.rng``; if every coin misses, the top score is kept at p = 1.
    """
    v = kz / d.sqrt_probs
    tau = leverage_estimate(kdiag, np.einsum("ij,ij->i", v @ d.score_inverse.matrix, v), params)
    probs = params.inclusion(tau)
    keep = d.rng.uniform(size=probs.shape[0]) < probs
    if not keep.any():  # an empty dictionary could score nothing
        keep[np.argmax(tau)] = True
        probs[keep] = 1.0
    idx = np.flatnonzero(keep)
    new = rebuild_dictionary(
        rows[idx], probs[idx], [step] * idx.size, params.mu, spec, d.rng, context_dim
    )
    new.rejected_duplicates += d.rejected_duplicates
    return new
