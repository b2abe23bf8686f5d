"""Synthetic contextual-bandit environments on the unit cube.

Contexts live in [0, 1]^p, actions on an equispaced grid in [0, 1], rewards
are a known mean function plus centered Gaussian noise.  Four families:

* ``bump``           hinge bump around a hidden action, tilted by the context:
                     mean = max(0, 1 - |a - a*|_1 - <w*, x - x*>).
* ``chessboard``     an n-by-n grid of constant cells over (x, a) in [0, 1]^2
                     whose values cycle through 1, 0.5, 0.
* ``step_diagonal``  1 on the band |a - x| < w, 0.5 on the band just below the
                     diagonal (-2w < a - x <= -w), 0 elsewhere.
* ``linear_sanity``  mean = <theta*, (x, a)>; the one family whose optimal
                     estimator is closed-form, used by the coverage check.

Hidden parameters, context draws, and reward noise come from three
independently seeded substreams, so two environments built from the same spec
replay identically and policy randomness never perturbs them.  ``step`` plays
an action by its grid index; ``reward_mean``, the one mean function, takes any
action values, on the grid or off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("bump", "chessboard", "step_diagonal", "linear_sanity")

_CELL_VALUES = (1.0, 0.5, 0.0)


@dataclass(frozen=True)
class EnvSpec:
    family: str
    context_dim: int = 0  # 0 means the family default
    action_grid: int = 50
    noise_sigma: float = 0.1
    seed: int = 0
    chessboard_cells: int = 4
    band_width: float = 0.1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown environment family {self.family!r}")
        default_dim = {"bump": 5, "chessboard": 1, "step_diagonal": 1}.get(
            self.family, 3
        )
        if self.context_dim == 0:
            object.__setattr__(self, "context_dim", default_dim)
        if self.family in ("chessboard", "step_diagonal") and self.context_dim != 1:
            raise ValueError(f"{self.family} requires a one-dimensional context")
        if self.context_dim < 1:
            raise ValueError("context_dim must be positive")
        if self.action_grid < 2:
            raise ValueError("action_grid needs at least two actions")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.chessboard_cells < 1 or self.band_width <= 0:
            raise ValueError("invalid environment geometry")
        if self.seed < 0:
            raise ValueError("env.seed must be non-negative")


@dataclass(frozen=True)
class RoundOutcome:
    """What one interaction returns: the noisy reward plus the noiseless
    values needed for regret accounting."""

    reward: float
    chosen_value: float
    best_value: float


def _check_unit(v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size == 0 or np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
        raise ValueError(f"{what} must lie in the unit cube")
    return np.clip(v, 0.0, 1.0)


class Environment:
    def __init__(self, spec: EnvSpec):
        self.spec = spec
        root = np.random.SeedSequence([spec.seed, 0x5E_ED])
        param_ss, context_ss, noise_ss = root.spawn(3)
        self._context_rng = np.random.default_rng(context_ss)
        self._noise_rng = np.random.default_rng(noise_ss)
        param_rng = np.random.default_rng(param_ss)
        p = spec.context_dim
        if spec.family == "bump":
            self.action_star = float(param_rng.uniform())
            self.context_star = param_rng.uniform(size=p)
            self.tilt = param_rng.uniform(-0.5, 0.5, size=p)
        elif spec.family == "linear_sanity":
            self.theta_star = param_rng.uniform(-0.5, 0.5, size=p + 1)
        self._grid = np.linspace(0.0, 1.0, spec.action_grid)

    def action_grid(self) -> np.ndarray:
        """(C, 1) candidate actions, equispaced over [0, 1]."""
        return self._grid[:, None].copy()

    def sample_context(self) -> np.ndarray:
        return self._context_rng.uniform(size=self.spec.context_dim)

    def reward_mean(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Noiseless mean reward under context x of each action value in ``a``."""
        return self._mean(x, _check_unit(a, "action"))

    def _mean(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Mean reward under context x of every action in the 1-d array ``a``."""
        x = _check_unit(x, "context")
        if x.size != self.spec.context_dim:
            raise ValueError("context dimension mismatch")
        family = self.spec.family
        if family == "bump":
            tilt = float(self.tilt @ (x - self.context_star))
            return np.maximum(0.0, 1.0 - np.abs(a - self.action_star) - tilt)
        if family == "chessboard":
            n = self.spec.chessboard_cells
            i = min(int(x[0] * n), n - 1)
            j = np.minimum((a * n).astype(int), n - 1)
            cells = i * n + j
            return np.asarray(_CELL_VALUES)[cells % 3]
        if family == "step_diagonal":
            d = a - x[0]
            w = self.spec.band_width
            out = np.zeros_like(a)
            out[np.abs(d) < w] = 1.0
            out[(d > -2 * w) & (d <= -w)] = 0.5
            return out
        return self.theta_star[:-1] @ x + self.theta_star[-1] * a

    def step(self, x: np.ndarray, idx: int) -> RoundOutcome:
        """Play the grid action of index ``idx`` under context ``x``; one noise draw."""
        if not 0 <= idx < self.spec.action_grid:
            raise ValueError(f"action index {idx} is outside the action grid")
        means = self._mean(x, self._grid)
        chosen = float(means[idx])
        noise = float(self._noise_rng.normal(0.0, self.spec.noise_sigma))
        return RoundOutcome(
            reward=chosen + noise,
            chosen_value=chosen,
            best_value=float(means.max()),
        )
