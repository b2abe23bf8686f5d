import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from bandit_lab import linalg
from bandit_lab.kernels import KernelSpec, gram_packed
from bandit_lab.linalg import (
    FactorizationError,
    NearSingularExtensionError,
    SingularUpdateError,
    SpdInverse,
    dense_spd_inverse,
    log_det_ratio,
    schur_extend,
    schur_extend_jittered,
    sherman_morrison_update,
)
from bandit_lab.policies import ExactKernelUcb, ExplorationSchedule


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return a @ a.T + scale * np.eye(n)


# -- oracle: all incremental results are compared against numpy's dense solve


def test_sherman_morrison_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        m = random_spd(rng, n)
        u = rng.normal(size=n)
        inv = sherman_morrison_update(SpdInverse(np.linalg.inv(m)), u)
        want = np.linalg.inv(m + np.outer(u, u))
        assert np.linalg.norm(inv.matrix - want) < 1e-8


def test_sherman_morrison_rounds_as_the_plain_expression():
    # the in-place steps change no bit of the one-product expression they
    # replace, and a symmetric inverse stays exactly symmetric, since the
    # (i, j) and (j, i) entries of outer(mu, mu) are the same product
    rng = np.random.default_rng(22)
    for n in (1, 2, 25, 60):
        m = np.linalg.inv(random_spd(rng, n))
        m = 0.5 * (m + m.T)
        u = rng.normal(size=n)
        mu = m @ u
        want = m - np.outer(mu, mu) / (1.0 + float(u @ mu))
        got = sherman_morrison_update(SpdInverse(m), u).matrix
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.T)


def test_sherman_morrison_singular_denominator():
    # an indefinite M^{-1} with u^T M^{-1} u = -1 makes the denominator exactly zero
    inv = SpdInverse(-np.eye(2))
    with pytest.raises(SingularUpdateError):
        sherman_morrison_update(inv, np.array([1.0, 0.0]))


def test_schur_extend_analytic_two_by_two():
    # [[2,1],[1,2]]^{-1} = (1/3) [[2,-1],[-1,2]]
    start = SpdInverse(np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0)
    out = schur_extend(start, np.array([1.0, 1.0]), 2.0)
    # bordered matrix is I + ones(3), whose inverse is I - ones(3)/4
    want = np.eye(3) - np.ones((3, 3)) / 4.0
    assert np.linalg.norm(out.matrix - want) < 1e-12


def test_schur_extend_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        full = random_spd(rng, n + 1)
        lead = SpdInverse(np.linalg.inv(full[:n, :n]))
        out = schur_extend(lead, full[:n, n], float(full[n, n]))
        assert np.linalg.norm(out.matrix - np.linalg.inv(full)) < 1e-8


def test_schur_extend_from_empty():
    out = schur_extend(SpdInverse.empty(), np.zeros(0), 4.0)
    assert out.matrix.shape == (1, 1)
    assert out.matrix[0, 0] == pytest.approx(0.25)


def test_schur_extend_near_singular():
    # duplicating the single row makes the complement exactly zero
    inv = SpdInverse(np.array([[1.0]]))
    with pytest.raises(NearSingularExtensionError):
        schur_extend(inv, np.array([1.0]), 1.0)


def test_schur_extend_keeps_exact_symmetry():
    # w_i w_j = w_j w_i in floating point, so no re-symmetrize is needed
    rng = np.random.default_rng(5)
    full = random_spd(rng, 50)
    inv = SpdInverse.empty()
    for n in range(50):
        inv = schur_extend(inv, full[:n, n], float(full[n, n]))
        assert np.array_equal(inv.matrix, inv.matrix.T)


def fresh_array_bordering(m, b, c):
    """kucb's bordering on fresh arrays, as it was computed before its buffers.

    A Fortran-ordered copy of M^{-1}, one ``dger`` on it, and the copy written
    into a fresh result beside the border; kept as the bit-for-bit reference.
    """
    n = m.shape[0]
    w = m @ b
    s = float(c) - float(b @ w)
    out = np.empty((n + 1, n + 1))
    out[:n, n] = -w / s
    out[n, :n] = -w / s
    out[n, n] = 1.0 / s
    if n:
        top = np.array(m, order="F")
        scipy.linalg.blas.dger(1.0 / s, w, w, a=top, overwrite_a=1)
        out[:n, :n] = top
    return out


def test_schur_extend_jittered_matches_fresh_array_bordering():
    # the buffer-backed bordering overwrites M^{-1}, but computes every result
    # bit for bit as the fresh-array arithmetic does, through its buffers'
    # growth steps
    rng = np.random.default_rng(6)
    full = random_spd(rng, 80, scale=80.0)
    inv, ref = linalg.BufferedInverse(), np.zeros((0, 0))
    sizes = set()
    for n in range(80):
        b, c = full[:n, n], float(full[n, n])
        ref = fresh_array_bordering(ref, b, c)
        assert schur_extend_jittered(inv, b, c) is inv
        assert inv.dim == n + 1
        assert inv.matrix.flags.c_contiguous
        assert inv.matrix.tobytes() == ref.tobytes()
        sizes.add(inv.matrix.base.size)
    assert len(sizes) > 10
    assert np.abs(inv.matrix - np.linalg.inv(full)).max() < 1e-12


def test_schur_extend_jittered_leaves_its_inverse_alone_when_it_raises():
    inv = linalg.BufferedInverse()
    schur_extend_jittered(inv, np.zeros(0), 1.0)
    with pytest.raises(NearSingularExtensionError):
        schur_extend_jittered(inv, np.array([1.0]), 1.0)
    assert inv.dim == 1 and inv.matrix.tolist() == [[1.0]]


def test_kucb_schur_complement_stays_above_lam():
    # kucb borders K + lam I, whose Schur complement
    # k(s, s) + lam - k^T (K + lam I)^{-1} k is at least lam, so its bordering
    # needs no jitter retry: the corner 1/s never exceeds 1/lam, even when one
    # state is played over and over
    x, a = np.array([0.3, 0.7]), np.array([0.5])
    for lam in (1e-3, 1.0):
        policy = ExactKernelUcb(
            KernelSpec("gaussian", bandwidth=0.4), lam, ExplorationSchedule()
        )
        for _ in range(200):
            policy.update(x, a, 1.0)
            assert policy.k_lambda_inverse.matrix[-1, -1] <= (1.0 / lam) * (1.0 + 1e-9)


def test_inverse_stays_symmetric():
    rng = np.random.default_rng(3)
    inv = SpdInverse(np.linalg.inv(random_spd(rng, 4)))
    for _ in range(50):
        u = rng.normal(size=inv.dim)
        inv = sherman_morrison_update(inv, u)
        assert np.allclose(inv.matrix, inv.matrix.T, rtol=1e-10, atol=1e-12)


def test_dense_spd_inverse_residual():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_spd(rng, int(rng.integers(1, 15)))
        inv = dense_spd_inverse(m)
        assert np.linalg.norm(m @ inv.matrix - np.eye(m.shape[0])) < 1e-9


def test_dense_spd_inverse_rejects_indefinite():
    with pytest.raises(FactorizationError):
        dense_spd_inverse(np.array([[1.0, 0.0], [0.0, -1.0]]), jitter=1e-10)
    with pytest.raises(ValueError):
        dense_spd_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric


def _factor_symmetrized(m):
    """The symmetrize-then-factor path, written out."""
    la = linalg._lapack()
    work = 0.5 * (m + m.T)
    inv = la.cho_solve(la.cho_factor(work, lower=True), np.eye(m.shape[0]))
    return 0.5 * (inv + inv.T)


def test_dense_spd_inverse_symmetric_fast_path(monkeypatch):
    # an exactly symmetric input is factored as it is, with the same bits as
    # the symmetrize-then-factor path; any asymmetry, however slight, raises
    calls = []
    symmetrize = linalg._symmetrize

    def counted(m):
        calls.append(m.shape)
        return symmetrize(m)

    monkeypatch.setattr(linalg, "_symmetrize", counted)
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 40):
        m = random_spd(rng, n)
        m = m + m.T  # exactly symmetric
        assert np.array_equal(m, m.T)
        calls.clear()
        assert np.array_equal(dense_spd_inverse(m).matrix, _factor_symmetrized(m))
        assert len(calls) == 1  # the output only
        bumped = m.copy()
        bumped[-1, 0] += 1e-12 * np.abs(m).max()
        if n > 1:
            with pytest.raises(ValueError, match="symmetric"):
                dense_spd_inverse(bumped)
            bumped[-1, 0] += 1e-3 * np.abs(m).max()
            with pytest.raises(ValueError, match="symmetric"):
                dense_spd_inverse(bumped)


def test_dense_spd_inverse_jitter_rescues_singular():
    m = np.ones((2, 2))  # rank one
    inv = dense_spd_inverse(m, jitter=1e-8)
    assert inv.dim == 2


def test_dense_spd_inverse_returns_c_contiguous(monkeypatch):
    # LAPACK's solve returns a Fortran-ordered inverse, and the policies'
    # products with it round differently on that layout, so the result is
    # C-ordered on the first attempt and on the jitter retry alike
    real = linalg._lapack()
    factored = []  # whether each Cholesky succeeded, in call order

    class View:
        def __getattr__(self, name):
            return getattr(real, name)

        def cho_factor(self, m, **kwargs):
            try:
                out = real.cho_factor(m, **kwargs)
            except np.linalg.LinAlgError:
                factored.append(False)
                raise
            factored.append(True)
            return out

    monkeypatch.setattr(linalg, "_lapack", View)
    m = random_spd(np.random.default_rng(8), 9)
    m = m + m.T  # exactly symmetric, factored as it is
    assert dense_spd_inverse(m).matrix.flags["C_CONTIGUOUS"]
    assert factored == [True]
    factored.clear()
    retried = dense_spd_inverse(np.ones((3, 3)), jitter=1e-8)  # rank one
    assert retried.matrix.flags["C_CONTIGUOUS"]
    assert factored == [False, True]


def test_log_det_ratio_first_step():
    # empty history, k(s,s) = 1, lam = 1: (1 + 1) / 1 = 2
    assert log_det_ratio(np.zeros((0, 0)), np.array([[1.0]]), 1.0) == pytest.approx(2.0)


def test_log_det_ratio_matches_determinant_oracle():
    rng = np.random.default_rng(5)
    for lam in (0.1, 1.0, 10.0):
        for _ in range(30):
            n = int(rng.integers(1, 10))
            full = random_spd(rng, n + 1, scale=0.0)
            prev = full[:n, :n]
            ratio = log_det_ratio(prev, full, lam)
            want = np.linalg.det(full + lam * np.eye(n + 1)) / (
                lam * np.linalg.det(prev + lam * np.eye(n))
            )
            assert ratio == pytest.approx(want, rel=1e-7)


def test_log_det_ratio_shape_checks():
    with pytest.raises(ValueError):
        log_det_ratio(np.eye(2), np.eye(4), 1.0)
    with pytest.raises(ValueError):
        log_det_ratio(np.eye(2), np.eye(3) * 5.0, 1.0)  # leading block differs
    with pytest.raises(ValueError):
        log_det_ratio(np.zeros((0, 0)), np.array([[1.0]]), 0.0)


def test_telescoping_identity_on_kernel_histories():
    # 1 + ||phi_t||^2 in the inverse-regularized norm equals the one-step
    # regularized determinant ratio
    rng = np.random.default_rng(6)
    spec = KernelSpec("gaussian", bandwidth=0.3)
    for lam in (0.1, 1.0, 10.0):
        for _ in range(10):
            n = int(rng.integers(1, 15))
            pts = rng.uniform(size=(n + 1, 3))
            prev, new = pts[:n], pts[: n + 1]
            k_prev = gram_packed(spec, prev, prev)
            k_new = gram_packed(spec, new, new)
            ks = k_new[:n, n]
            k_ss = k_new[n, n]
            if n:
                sol = np.linalg.solve(k_prev + lam * np.eye(n), ks)
                weighted_norm_sq = (k_ss - float(ks @ sol)) / lam
            else:
                weighted_norm_sq = k_ss / lam
            lhs = 1.0 + weighted_norm_sq
            rhs = log_det_ratio(k_prev, k_new, lam)
            assert lhs == pytest.approx(rhs, rel=1e-7)


def test_drift_after_five_hundred_updates():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 30)
    inv = SpdInverse(np.linalg.inv(m))
    for _ in range(500):
        u = rng.normal(size=30) * 0.3
        m = m + np.outer(u, u)
        inv = sherman_morrison_update(inv, u)
    assert np.linalg.norm(inv.matrix - dense_spd_inverse(m).matrix) < 1e-6


def test_spd_inverse_shape_validation():
    with pytest.raises(ValueError):
        SpdInverse(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sherman_morrison_update(SpdInverse(np.eye(2)), np.ones(3))
    with pytest.raises(ValueError):
        schur_extend(SpdInverse(np.eye(2)), np.ones(3), 1.0)


# -- start-up: scipy.linalg is loaded on the first factorization, not at import

IMPORT_PROBE = """
import sys
import numpy as np
import bandit_lab, bandit_lab.cli
from bandit_lab.config import build_run_config
from bandit_lab.harness import build_policy
from bandit_lab.linalg import dense_spd_inverse
loaded = ["scipy.linalg" in sys.modules]
build_policy(build_run_config({"policy.name": "kucb"}), 0)
loaded.append("scipy.linalg" in sys.modules)
dense_spd_inverse(2 * np.eye(3))
loaded.append("scipy.linalg" in sys.modules)
print(loaded)
"""


def test_scipy_linalg_loads_on_first_factorization():
    # a fresh interpreter: this process may have loaded scipy.linalg already
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False, True]"


# -- threads: scipy's bundled OpenBLAS is pinned to one thread on the first
# factorization, numpy's is left alone

PIN_PROBE = """
import ctypes
import json
import numpy as np
import scipy.linalg
from bandit_lab.linalg import dense_spd_inverse
try:
    scipy_get = ctypes.CDLL(scipy.linalg._flapack.__file__).scipy_openblas_get_num_threads
    numpy_get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
except (AttributeError, OSError):
    print("absent")
    raise SystemExit
before = (scipy_get(), numpy_get())
dense_spd_inverse(2 * np.eye(3))
print(json.dumps([before, (scipy_get(), numpy_get())]))
"""


def test_first_factorization_pins_scipy_blas_to_one_thread():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    # the pools' default sizes, not whatever the caller asked for
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"):
        env.pop(name, None)
    done = subprocess.run(
        [sys.executable, "-c", PIN_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "absent":
        pytest.skip("this scipy or numpy build does not bundle OpenBLAS")
    before, after = json.loads(done.stdout)
    assert after == [1, before[1]]
