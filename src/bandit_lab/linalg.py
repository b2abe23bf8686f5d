"""Incremental inverses of symmetric positive definite matrices.

The bandit policies never solve a full linear system per round.  They maintain
the inverse of a growing SPD matrix directly, via two primitives:

* rank-one update      (M + u u^T)^{-1} from M^{-1}  (Sherman-Morrison)
* one-row extension    [[M, b], [b^T, c]]^{-1} from M^{-1}  (Schur complement)

The rank-one update returns a fresh ``SpdInverse`` built from one product
mu = M^{-1} u.  Its correction is outer(mu, mu), whose (i, j) and (j, i)
entries are the same product, so a symmetric M^{-1} gives an exactly
symmetric result and no asymmetry can compound over thousands of updates.
The one-row extension writes the same border column and row, and its
top-left block is symmetric to round-off, or exactly in numpy.  The extension
comes in two forms that compute the same blocks: ``schur_extend``, the
dictionary's, in numpy on fresh arrays, and ``schur_extend_jittered``,
kucb's, which borders a ``BufferedInverse`` in its own reused buffers with a
BLAS ``dger``.  The dictionary's inverses are replaced, never overwritten, so
a policy may key a derived matrix on the inverse object; the fresh-array form
stays until ROADMAP item 2 retires the dictionary's bordering.  A dense
factorization-based inverse is also provided; it serves as the ground truth
in tests and as the rebuild path for policies that refactor after drift; an
in-order variant applies the one-row extension's singularity rule at once.

``scipy`` is imported bare and every call goes through ``_lapack()``, which
loads ``scipy.linalg`` on its first call, so a process pays for that import,
about half of the package's import time, only when a run first factors a
matrix or borders kucb's inverse: a ``kucb`` run on its second update, the
first with a history to border, and ``random`` and drift-free ``ekucb`` runs
never.  The module-level name also lets a caller swap ``linalg.scipy`` for
a view, as the benchmark tracer does to count ``cho_factor`` attempts; a
function-level ``import scipy.linalg`` would bypass such a view silently.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool.  On a machine with few cores the two pools' spinning workers
compete with the main thread, and a ``cho_solve`` interleaved with numpy BLAS
calls can run several times slower than alone.  So ``_lapack()`` loads
``scipy.linalg`` with ``OPENBLAS_NUM_THREADS=1`` set, so its pool starts no
worker thread, then restores the variable; a pool started before goes to one
thread where OpenBLAS exports the setter.  numpy's pool is left alone: every
per-round update and score but kucb's bordering runs there, and pinning it
changes their rounding.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import sys
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
    """``scipy.linalg``, with scipy's OpenBLAS at one thread from the first call on."""
    global _scipy_pinned
    if not _scipy_pinned:
        if "scipy.linalg" not in sys.modules:  # OpenBLAS sizes its pool as it loads
            previous = os.environ.get("OPENBLAS_NUM_THREADS")
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                importlib.import_module("scipy.linalg")
            finally:
                del os.environ["OPENBLAS_NUM_THREADS"]
                if previous is not None:
                    os.environ["OPENBLAS_NUM_THREADS"] = previous
        try:  # a pool started before the first call goes to one thread
            ctypes.CDLL(scipy.linalg._flapack.__file__).scipy_openblas_set_num_threads(1)
        except (AttributeError, OSError):
            pass
        _scipy_pinned = True
    return scipy.linalg


@dataclass
class SpdInverse:
    """The inverse of an SPD matrix, stored explicitly.

    ``matrix`` is the inverse itself, not the matrix it inverts.  The zero-by-
    zero case is the legal empty state that every history starts from.
    ``jittered`` marks ``dense_spd_inverse``'s inverse of m + jitter I.
    """

    matrix: np.ndarray
    jittered: bool = False

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


def sherman_morrison_update(inv: SpdInverse, u: np.ndarray) -> SpdInverse:
    """Inverse of (M + u u^T) given M^{-1}.

    (M + u u^T)^{-1} = M^{-1} - (M^{-1} u u^T M^{-1}) / (1 + u^T M^{-1} u).

    Raises ``SingularUpdateError`` when |1 + u^T M^{-1} u| < 1e-12, which an
    indefinite M^{-1} can reach.  An exactly symmetric M^{-1} gives an exactly
    symmetric result: mu = M^{-1} u is formed once and the correction is
    outer(mu, mu) / denom.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != inv.dim:
        raise ValueError("update vector must match the inverse dimension")
    m = inv.matrix
    mu = m @ u
    denom = 1.0 + float(u @ mu)
    if abs(denom) < SINGULAR_TOL:
        raise SingularUpdateError(f"rank-one update denominator {denom:.3e}")
    # m - outer(mu, mu) / denom, in place on the fresh outer array
    out = np.multiply.outer(mu, mu)
    out /= denom
    np.subtract(m, out, out=out)
    return SpdInverse(out)


class BufferedInverse:
    """kucb's (K + lam I)^{-1}, kept in two flat buffers that are reused.

    ``matrix`` is a C-ordered view of the first ``dim``^2 entries of one
    buffer; the other is ``schur_extend_jittered``'s Fortran-ordered work
    space.  Each buffer grows to 1.5 times the entries it needs when it runs
    short, so a bordering allocates no t-square array in most rounds.  The next
    bordering overwrites ``matrix`` in place: a caller that keeps it across an
    update keeps a copy.
    """

    def __init__(self) -> None:
        self.dim = 0
        self._entries = np.zeros(0)
        self._work = np.zeros(0)

    @property
    def matrix(self) -> np.ndarray:
        n = self.dim
        return self._entries[: n * n].reshape(n, n)

    def _room(self, name: str, size: int) -> np.ndarray:
        """The first ``size`` entries of the buffer ``name``, regrown if it has fewer.

        The old buffer is dropped before the larger one is allocated, so the
        two are never live together; what it held is lost.
        """
        if getattr(self, name).size < size:
            setattr(self, name, None)
            setattr(self, name, np.empty(int(1.5 * size)))
        return getattr(self, name)[:size]


def _schur_step(m: np.ndarray, b: np.ndarray, c: float, tol: float) -> tuple[np.ndarray, float]:
    """w = M^{-1} b and the Schur complement s = c - b^T w of a one-row extension.

    ``m`` is M^{-1}.  Raises ``NearSingularExtensionError`` when s < ``tol``.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != m.shape[0]:
        raise ValueError("border vector must match the inverse dimension")
    w = m @ b
    s = float(c) - float(b @ w)
    if s < tol:
        raise NearSingularExtensionError(f"schur complement {s:.3e}")
    return w, s


def _border(out: np.ndarray, w: np.ndarray, s: float) -> None:
    """Write the border column -w/s, the border row and the corner 1/s of ``out``."""
    n = w.shape[0]
    out[:n, n] = -w / s
    out[n, :n] = -w / s
    out[n, n] = 1.0 / s


def schur_extend(inv: SpdInverse, b: np.ndarray, c: float, tol: float = SINGULAR_TOL) -> SpdInverse:
    """Inverse of the bordered matrix [[M, b], [b^T, c]] given M^{-1}.

    With s = c - b^T M^{-1} b and w = M^{-1} b the blocks are

        top-left   M^{-1} + w w^T / s
        top-right  -w / s
        corner     1 / s

    Raises ``NearSingularExtensionError`` when s < ``tol`` (the dictionary's
    admission floor, or 1e-12), before the (n+1)-square result is built.  A
    symmetric M^{-1} gives an exactly symmetric result: w_i w_j = w_j w_i.

    This is the dictionary's bordering step, on fresh arrays, so the inverse
    it was handed stays valid.  ``schur_extend_jittered`` computes the same
    blocks in place for kucb; the two differ in rounding.
    """
    w, s = _schur_step(inv.matrix, b, c, tol)
    n = inv.dim
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = inv.matrix + np.outer(w, w) / s
    _border(out, w, s)
    return SpdInverse(out)


def schur_extend_jittered(inv: BufferedInverse, b: np.ndarray, c: float) -> BufferedInverse:
    """kucb's bordering step: ``schur_extend``'s blocks, in ``inv``'s buffers.

    M^{-1} is copied, transposing, into the Fortran-ordered work buffer, one
    BLAS ``dger`` adds w w^T / s to that copy in place, and the copy is written
    back as the top-left block of the (n+1)-square result, laid out in the
    buffer that held M^{-1}.  A round makes three passes over the t^2 entries
    and allocates no t-square array, except when a buffer grows.  ``dger``'s
    rounding of the rank-one term need not be symmetric in i and j, so the
    result is symmetric to round-off rather than exactly; it is not
    re-symmetrized.  ``inv`` is updated and returned: its old ``matrix`` is
    overwritten.

    kucb's Schur complement is k(s, s) + lam - k^T (K + lam I)^{-1} k >= lam,
    and the config rejects lam <= 0, so no retry at c + jitter is made; the
    ``NearSingularExtensionError`` raise stays as the guard, and leaves
    ``inv`` as it was.  The name is kept because the benchmark tracer wraps
    it.  The two bordering functions exist until ROADMAP item 2 retires the
    dictionary's ``schur_extend``.
    """
    n = inv.dim
    w, s = _schur_step(inv.matrix, b, c, SINGULAR_TOL)
    top = inv._room("_work", n * n).reshape((n, n), order="F")
    top[...] = inv.matrix
    if n:  # dger rejects an empty matrix
        _lapack().blas.dger(1.0 / s, w, w, a=top, overwrite_a=1)
    out = inv._room("_entries", (n + 1) ** 2).reshape(n + 1, n + 1)
    out[:n, :n] = top
    _border(out, w, s)
    inv.dim = n + 1
    return inv


def dense_spd_inverse(m: np.ndarray, jitter: float = 0.0) -> SpdInverse:
    """Factorization-based inverse of an exactly symmetric positive definite matrix.

    Tries a Cholesky factorization of ``m``; if that fails and ``jitter`` is
    positive, retries once on m + jitter * I (a ``jittered`` result).  A second
    failure raises ``FactorizationError``.  Tests compare the incremental
    inverses against this slow-but-trusted path; policies rebuild through it.

    ``m`` must equal its transpose bit for bit, as every gram and rebuild
    matrix the package builds does, or ``ValueError`` is raised.  NaN fails
    that test; an inf reaches the factorization, whose finiteness check
    raises.  The result is symmetrized, which also returns it C-ordered.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        return SpdInverse.empty()
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric")
    la = _lapack()

    def factor(a: np.ndarray):
        try:
            return la.cho_factor(a, lower=True)
        except np.linalg.LinAlgError:
            return None

    cf = factor(m)
    jittered = cf is None and jitter > 0
    if jittered:
        # the jittered copy is built only when the first factorization fails
        cf = factor(m + jitter * np.eye(m.shape[0]))
    if cf is None:
        raise FactorizationError("matrix not positive definite after jitter")
    inv = la.cho_solve(cf, np.eye(m.shape[0]))
    return SpdInverse(_symmetrize(inv), jittered)


def in_order_inverse(m: np.ndarray) -> tuple[np.ndarray, SpdInverse]:
    """Kept rows of a symmetric ``m`` and the inverse of m[kept][:, kept].

    An in-order Cholesky factorization drops row i when its pivot squared, its
    Schur complement against the rows kept before it, is below SINGULAR_TOL:
    ``schur_extend``'s default rule, applied at once.  With nothing dropped
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
