"""Incremental inverses of symmetric positive definite matrices.

The bandit policies never solve a full linear system per round.  They maintain
the inverse of a growing SPD matrix directly, via two primitives:

* rank-one update      (M + u v^T)^{-1} from M^{-1}  (Sherman-Morrison)
* one-row extension    [[M, b], [b^T, c]]^{-1} from M^{-1}  (Schur complement)

Both return a fresh ``SpdInverse`` and re-symmetrize the result, so roundoff
asymmetry cannot compound over thousands of updates.  A dense
factorization-based inverse is also provided; it serves as the ground truth in
tests and as the rebuild path for policies that refactor after drift; an
in-order variant applies the one-row extension's singularity rule at once.

``scipy`` is imported bare and every call goes through ``_lapack()``, which
reads ``scipy.linalg``.  scipy loads ``scipy.linalg`` on first attribute
access, so a process pays for that import, about half of the package's import
time, only when a run first factors a matrix; ``kucb``, ``random`` and
drift-free ``ekucb`` runs never do.  The module-level name also lets a caller
swap ``linalg.scipy`` for a view, as the benchmark tracer does to count
``cho_factor`` attempts; a function-level ``import scipy.linalg`` would bypass
such a view silently.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool.  On a machine with few cores the two pools' spinning workers
compete with the main thread, and a ``cho_solve`` interleaved with numpy BLAS
calls can run several times slower than alone.  So ``_lapack()`` pins scipy's
pool to one thread the first time it is called.  The pin is process-wide:
OpenBLAS's per-thread setting leaks to other threads, so a pin-and-restore
around each call would race across the threads of a sweep; pinning before the
first factorization also keeps a sweep's dense inverses independent of which
thread factors first.  numpy's pool is left alone: every per-round update and
score runs there, and pinning it changes their rounding.  Where scipy's
OpenBLAS does not export the setter, threading is left as it is.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy


class LinalgError(Exception):
    """Base class for failures of the incremental-inverse primitives."""


class SingularUpdateError(LinalgError):
    """Rank-one update denominator too close to zero."""


class NearSingularExtensionError(LinalgError):
    """Schur complement of a one-row extension too close to zero."""


class FactorizationError(LinalgError):
    """Dense factorization failed even after jitter."""


# Denominators and Schur complements below this magnitude are treated as
# singular rather than divided through.
SINGULAR_TOL = 1e-12

_scipy_pinned = False


def _lapack():
    """``scipy.linalg``, with scipy's OpenBLAS pinned to one thread on first use."""
    global _scipy_pinned
    la = scipy.linalg
    if not _scipy_pinned:
        # pin, then mark it done: a thread that sees the mark never factors
        # with two threads, and a second pin from a racing thread is harmless
        try:
            ctypes.CDLL(la._flapack.__file__).scipy_openblas_set_num_threads(1)
        except (AttributeError, OSError):
            pass
        _scipy_pinned = True
    return la


@dataclass
class SpdInverse:
    """The inverse of an SPD matrix, stored explicitly.

    ``matrix`` is the inverse itself, not the matrix it inverts.  The zero-by-
    zero case is the legal empty state that every history starts from.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("inverse must be square")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def empty() -> "SpdInverse":
        return SpdInverse(np.zeros((0, 0)))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def sherman_morrison_update(
    inv: SpdInverse, u: np.ndarray, v: np.ndarray
) -> SpdInverse:
    """Inverse of (M + u v^T) given M^{-1}.

    (M + u v^T)^{-1} = M^{-1} - (M^{-1} u v^T M^{-1}) / (1 + v^T M^{-1} u).

    Raises ``SingularUpdateError`` when |1 + v^T M^{-1} u| < 1e-12.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.shape[0] != inv.dim or v.shape[0] != inv.dim:
        raise ValueError("update vectors must match the inverse dimension")
    m = inv.matrix
    mu = m @ u
    mv = m.T @ v
    denom = 1.0 + float(v @ mu)
    if abs(denom) < SINGULAR_TOL:
        raise SingularUpdateError(f"rank-one update denominator {denom:.3e}")
    out = m - np.outer(mu, mv) / denom
    return SpdInverse(_symmetrize(out))


def schur_extend(inv: SpdInverse, b: np.ndarray, c: float) -> SpdInverse:
    """Inverse of the bordered matrix [[M, b], [b^T, c]] given M^{-1}.

    With s = c - b^T M^{-1} b and w = M^{-1} b the blocks are

        top-left   M^{-1} + w w^T / s
        top-right  -w / s
        corner     1 / s

    Raises ``NearSingularExtensionError`` when s < 1e-12, which is how
    near-duplicate rows surface to callers.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != inv.dim:
        raise ValueError("border vector must match the inverse dimension")
    n = inv.dim
    w = inv.matrix @ b
    s = float(c) - float(b @ w)
    if s < SINGULAR_TOL:
        raise NearSingularExtensionError(f"schur complement {s:.3e}")
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = inv.matrix + np.outer(w, w) / s
    out[:n, n] = -w / s
    out[n, :n] = -w / s
    out[n, n] = 1.0 / s
    return SpdInverse(_symmetrize(out))


def schur_extend_jittered(
    inv: SpdInverse, b: np.ndarray, c: float, jitter: float
) -> SpdInverse:
    """``schur_extend`` with one retry at c + jitter before giving up."""
    try:
        return schur_extend(inv, b, c)
    except NearSingularExtensionError:
        return schur_extend(inv, b, c + jitter)


def dense_spd_inverse(m: np.ndarray, jitter: float = 0.0) -> SpdInverse:
    """Factorization-based inverse of a symmetric positive definite matrix.

    Tries a Cholesky factorization of ``m``; if that fails and ``jitter`` is
    positive, retries once on m + jitter * I.  A second failure raises
    ``FactorizationError``.  This is the slow-but-trusted path: tests compare
    the incremental inverses against it, and policies use it when rebuilding.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        return SpdInverse.empty()
    if not np.allclose(m, m.T, atol=1e-8 * (1.0 + np.abs(m).max())):
        raise ValueError("matrix must be symmetric")
    work = _symmetrize(m)
    attempts = [work]
    if jitter > 0:
        attempts.append(work + jitter * np.eye(work.shape[0]))
    la = _lapack()
    for candidate in attempts:
        try:
            cf = la.cho_factor(candidate, lower=True)
        except np.linalg.LinAlgError:
            continue
        inv = la.cho_solve(cf, np.eye(candidate.shape[0]))
        return SpdInverse(_symmetrize(inv))
    raise FactorizationError("matrix not positive definite after jitter")


def in_order_inverse(m: np.ndarray) -> tuple[np.ndarray, SpdInverse]:
    """Kept rows of a symmetric ``m`` and the inverse of m[kept][:, kept].

    An in-order Cholesky factorization drops row i when its pivot squared, its
    Schur complement against the rows kept before it, is below SINGULAR_TOL:
    the rule ``schur_extend`` applies one row at a time.  With nothing dropped
    this is one LAPACK call; a dropped row restarts it on the rows after it.
    """
    la = _lapack()
    kept, rest, lower = np.zeros(0, dtype=int), np.arange(m.shape[0]), np.zeros((0, 0))
    while rest.size:
        # the rows left, eliminated against the rows kept so far
        panel = la.solve_triangular(lower, m[np.ix_(kept, rest)], lower=True).T
        schur = m[np.ix_(rest, rest)] - panel @ panel.T
        c, info = la.lapack.dpotrf(schur, lower=1, clean=1)
        # LAPACK stops at the first pivot that is not positive
        pivots = np.diag(c)[: info - 1 if info > 0 else rest.size] ** 2
        small = np.flatnonzero(pivots < SINGULAR_TOL)
        stop = int(small[0]) if small.size else pivots.size
        lower = np.block([[lower, np.zeros((kept.size, stop))], [panel[:stop], c[:stop, :stop]]])
        kept, rest = np.append(kept, rest[:stop]), rest[stop + 1 :]
    inv = la.cho_solve((lower, True), np.eye(kept.size))
    return kept, SpdInverse(_symmetrize(inv))


def log_det_ratio(k_prev: np.ndarray, k_new: np.ndarray, lam: float) -> float:
    """One-step regularized determinant ratio det(K_t + lam I) / (lam * det(K_{t-1} + lam I)).

    ``k_new`` must extend ``k_prev`` by exactly one row and column.  Computed
    from the Schur complement of the new diagonal entry, so no determinant is
    ever formed explicitly:

        ratio = (c + lam - b^T (K_prev + lam I)^{-1} b) / lam.
    """
    k_prev = np.asarray(k_prev, dtype=float)
    k_new = np.asarray(k_new, dtype=float)
    if lam <= 0:
        raise ValueError("lam must be positive")
    t = k_prev.shape[0]
    if k_prev.shape != (t, t) or k_new.shape != (t + 1, t + 1):
        raise ValueError("k_new must extend k_prev by one row and column")
    if t > 0 and not np.allclose(k_new[:t, :t], k_prev, atol=1e-10):
        raise ValueError("k_new does not contain k_prev as its leading block")
    b = k_new[:t, t]
    c = float(k_new[t, t])
    if t == 0:
        return (c + lam) / lam
    sol = np.linalg.solve(k_prev + lam * np.eye(t), b)
    return (c + lam - float(b @ sol)) / lam
