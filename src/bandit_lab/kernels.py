"""Positive-definite kernels over joint context-action points.

A state is the concatenation s = (x, a) of a context vector and an action
vector.  Three kernel families are supported:

* ``gaussian``   k(s, s') = exp(-||s - s'||^2 / (2 h^2)), bounded by 1.
* ``linear``     k(s, s') = <s, s'>.
* ``tensor``     k((x, a), (x', a')) = k_ctx(x, x') * k_act(a, a'), where the
  factor kernels are gaussian or linear and act on the context and action
  blocks separately.

Every spec carries ``kappa``, an upper bound on sqrt(k(s, s)) over the domain
actually used.  Confidence radii and jitter magnitudes are stated in terms of
kappa, so it is part of the kernel contract rather than a tuning knob.

Packed rows are the kernel API (``gram_packed``, ``diag_packed``), and the
only one the policies read.  ``StatePoint`` and ``evaluate`` serve scalar
evaluation for the tests, acceptance 4 and the benchmark tracer.
``evaluate(s, s)`` is a 1-by-1 ``gram_packed``; the policies take k(s, s)
from ``diag_packed``, which is exactly 1 for the gaussian family, where the
expanded squared distance of a 1-by-1 gram may leave a round-off residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StatePoint:
    """One joint context-action point, for scalar ``evaluate``.

    Both blocks are 1-d float arrays; ``joint`` is their concatenation, the
    packed row, built once here so that no read of it concatenates again.
    """

    context: np.ndarray
    action: np.ndarray
    joint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ctx = np.asarray(self.context, dtype=float).reshape(-1)
        act = np.asarray(self.action, dtype=float).reshape(-1)
        joint = np.concatenate([ctx, act])
        if not np.isfinite(joint).all():
            raise ValueError("state coordinates must be finite")
        object.__setattr__(self, "context", ctx)
        object.__setattr__(self, "action", act)
        object.__setattr__(self, "joint", joint)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel.

    ``bandwidth`` only matters for the gaussian family.  ``kappa`` defaults to
    1 for gaussian kernels (exact there); linear and tensor specs must either
    receive it explicitly or be resolvable from their factors.  For the tensor
    family, ``context_kernel`` and ``action_kernel`` give the two factors and
    must not themselves be tensors.
    """

    family: str
    bandwidth: float = 0.2
    kappa: float = field(default=0.0)
    context_kernel: "KernelSpec | None" = None
    action_kernel: "KernelSpec | None" = None

    def __post_init__(self) -> None:
        if self.family not in ("gaussian", "linear", "tensor"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian":
            if self.bandwidth <= 0:
                raise ValueError("gaussian bandwidth must be positive")
            if self.kappa == 0.0:
                object.__setattr__(self, "kappa", 1.0)
            if abs(self.kappa - 1.0) > 1e-12:
                raise ValueError("gaussian kernels have kappa = 1 exactly")
        elif self.family == "linear":
            if self.kappa <= 0:
                raise ValueError("linear kernels need an explicit kappa bound")
        else:
            for part in (self.context_kernel, self.action_kernel):
                if part is None:
                    raise ValueError("tensor kernels need both factor specs")
                if part.family == "tensor":
                    raise ValueError("tensor factors cannot be tensors")
            if self.kappa == 0.0:
                object.__setattr__(
                    self, "kappa", self.context_kernel.kappa * self.action_kernel.kappa
                )


def _rows(a) -> np.ndarray:
    """``a`` as a 2-d float array, as ``np.atleast_2d`` gives it, minus its dispatch."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim >= 2 else a.reshape(1, -1)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ||u - v||^2 expanded; clamp tiny negatives from cancellation.
    # np.add.reduce is np.sum without its Python dispatch layer, and a gram of
    # a block against itself reuses the block's squared norms
    aa = np.add.reduce(a * a, 1)
    bb = aa if b is a else np.add.reduce(b * b, 1)
    d2 = aa[:, None] + bb - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def gram_packed(
    spec: KernelSpec, a: np.ndarray, b: np.ndarray, context_dim: int | None = None
) -> np.ndarray:
    """Cross-gram matrix K[i, j] = k(a_i, b_j) for packed joint coordinates.

    ``context_dim`` is required for tensor kernels, where rows split into a
    context block and an action block.
    """
    a, b = _rows(a), _rows(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    if a.shape[1] != b.shape[1]:
        raise ValueError("point dimensions differ")
    if spec.family == "gaussian":
        return np.exp(_sq_dists(a, b) / (-2.0 * spec.bandwidth**2))
    if spec.family == "linear":
        return a @ b.T
    if context_dim is None:
        raise ValueError("tensor kernels need context_dim to split coordinates")
    kc = gram_packed(spec.context_kernel, a[:, :context_dim], b[:, :context_dim])
    ka = gram_packed(spec.action_kernel, a[:, context_dim:], b[:, context_dim:])
    return kc * ka


def diag_packed(
    spec: KernelSpec, a: np.ndarray, context_dim: int | None = None
) -> np.ndarray:
    """Vector of self-evaluations k(a_i, a_i) for packed coordinates."""
    a = _rows(a)
    if spec.family == "gaussian":
        return np.ones(a.shape[0])
    if spec.family == "linear":
        return np.sum(a * a, axis=1)
    if context_dim is None:
        raise ValueError("tensor kernels need context_dim to split coordinates")
    return diag_packed(spec.context_kernel, a[:, :context_dim]) * diag_packed(
        spec.action_kernel, a[:, context_dim:]
    )


def evaluate(spec: KernelSpec, s: StatePoint, s2: StatePoint) -> float:
    """Scalar kernel evaluation k(s, s2)."""
    if s.context.shape != s2.context.shape or s.action.shape != s2.action.shape:
        raise ValueError("state shapes differ")
    row = s.joint[None, :]
    out = gram_packed(
        spec, row, row if s2 is s else s2.joint[None, :], context_dim=s.context.size
    )
    return float(out[0, 0])
