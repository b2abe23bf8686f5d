import numpy as np
import pytest

from bandit_lab import kernels
from bandit_lab.kernels import (
    KernelSpec,
    StatePoint,
    diag_packed,
    evaluate,
    gram_packed,
)


def random_rows(rng, n, ctx_dim=3, act_dim=1):
    """n packed (context, action) rows."""
    return rng.uniform(size=(n, ctx_dim + act_dim))


def test_gaussian_identical_points():
    spec = KernelSpec("gaussian", bandwidth=0.2)
    s = StatePoint(np.array([0.3, 0.4]), np.array([0.7]))
    assert evaluate(spec, s, s) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_at_one_bandwidth_distance():
    # squared distance equal to h^2 gives exp(-1/2)
    spec = KernelSpec("gaussian", bandwidth=0.2)
    a = StatePoint(np.array([0.0]), np.array([0.0]))
    b = StatePoint(np.array([0.2]), np.array([0.0]))
    assert evaluate(spec, a, b) == pytest.approx(0.6065306597126334, abs=1e-12)


def test_linear_kernel_is_dot_product():
    spec = KernelSpec("linear", kappa=2.0)
    a = StatePoint(np.array([1.0, 2.0]), np.array([3.0]))
    b = StatePoint(np.array([0.5, -1.0]), np.array([2.0]))
    assert evaluate(spec, a, b) == pytest.approx(0.5 - 2.0 + 6.0, abs=1e-12)


def test_tensor_kernel_is_product_of_factors():
    ctx = KernelSpec("gaussian", bandwidth=0.3)
    act = KernelSpec("linear", kappa=1.0)
    spec = KernelSpec("tensor", context_kernel=ctx, action_kernel=act, kappa=1.0)
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = StatePoint(rng.uniform(size=2), rng.uniform(size=1))
        b = StatePoint(rng.uniform(size=2), rng.uniform(size=1))
        want = np.exp(-np.sum((a.context - b.context) ** 2) / (2 * 0.3**2)) * float(
            a.action @ b.action
        )
        assert evaluate(spec, a, b) == pytest.approx(want, abs=1e-12)


def test_gram_matches_pairwise_eval():
    rng = np.random.default_rng(1)
    spec = KernelSpec("gaussian", bandwidth=0.4)
    rows = random_rows(rng, 6)
    cols = random_rows(rng, 4)
    k = gram_packed(spec, rows, cols)
    assert k.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            want = np.exp(-np.sum((rows[i] - cols[j]) ** 2) / (2 * 0.4**2))
            assert k[i, j] == pytest.approx(want, abs=1e-12)


def test_sq_dists_rounds_as_the_plain_expression():
    # the reduce calls and the self-gram's shared norms change no bit of the
    # np.sum expression they replace, which the shipped runs depend on
    rng = np.random.default_rng(8)
    for n, c, d in [(1, 1, 2), (7, 50, 2), (30, 20, 6), (12, 12, 9)]:
        a, b = rng.uniform(size=(n, d)), rng.uniform(size=(c, d))
        for left, right in [(a, b), (a, a)]:
            want = np.maximum(
                np.sum(left * left, axis=1)[:, None]
                + np.sum(right * right, axis=1)[None, :]
                - 2.0 * (left @ right.T),
                0.0,
            )
            assert np.array_equal(kernels._sq_dists(left, right), want)


def test_gram_symmetry_and_psd():
    rng = np.random.default_rng(2)
    for spec in (
        KernelSpec("gaussian", bandwidth=0.25),
        KernelSpec("linear", kappa=3.0),
    ):
        for trial in range(20):
            pts = random_rows(rng, int(rng.integers(2, 21)))
            k = gram_packed(spec, pts, pts)
            assert np.allclose(k, k.T, atol=1e-12)
            assert np.linalg.eigvalsh(k).min() >= -1e-9


def test_self_similarity_bounded_by_kappa():
    rng = np.random.default_rng(3)
    gaussian = KernelSpec("gaussian", bandwidth=0.2)
    linear = KernelSpec("linear", kappa=2.0)  # states in [0,1]^4, so kappa=2 covers
    for _ in range(1000):
        s = StatePoint(rng.uniform(size=3), rng.uniform(size=1))
        assert evaluate(gaussian, s, s) <= gaussian.kappa**2 + 1e-12
        assert evaluate(linear, s, s) <= linear.kappa**2 + 1e-12


def test_empty_gram_shapes():
    spec = KernelSpec("gaussian")
    pts = random_rows(np.random.default_rng(4), 3)
    empty = np.zeros((0, 4))
    assert gram_packed(spec, empty, pts).shape == (0, 3)
    assert gram_packed(spec, pts, empty).shape == (3, 0)
    assert gram_packed(spec, empty, empty).shape == (0, 0)


def test_dimension_mismatch_rejected():
    spec = KernelSpec("gaussian")
    a = StatePoint(np.array([0.1, 0.2]), np.array([0.3]))
    b = StatePoint(np.array([0.1]), np.array([0.3]))
    with pytest.raises(ValueError):
        evaluate(spec, a, b)
    with pytest.raises(ValueError):
        gram_packed(spec, a.joint[None, :], b.joint[None, :])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("cubic")
    with pytest.raises(ValueError):
        KernelSpec("gaussian", bandwidth=0.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", kappa=2.0)  # gaussian kappa is exactly 1
    with pytest.raises(ValueError):
        KernelSpec("linear")  # linear needs kappa
    with pytest.raises(ValueError):
        KernelSpec("tensor", context_kernel=KernelSpec("gaussian"))
    assert KernelSpec("gaussian").kappa == 1.0


def test_tensor_kappa_resolves_from_factors():
    spec = KernelSpec(
        "tensor",
        context_kernel=KernelSpec("gaussian"),
        action_kernel=KernelSpec("linear", kappa=2.0),
    )
    assert spec.kappa == pytest.approx(2.0)


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        StatePoint(np.array([np.nan]), np.array([0.5]))
    with pytest.raises(ValueError):
        StatePoint(np.array([0.5]), np.array([np.inf]))


def test_joint_is_built_once():
    s = StatePoint(np.array([0.3, 0.4]), np.array([[0.7]]))
    assert s.joint is s.joint
    assert s.joint.dtype == float
    assert np.array_equal(s.joint, np.concatenate([s.context, s.action]))
    assert np.array_equal(s.joint, [0.3, 0.4, 0.7])


def test_pack_and_diag():
    rng = np.random.default_rng(5)
    packed = random_rows(rng, 7, ctx_dim=2)
    spec = KernelSpec("linear", kappa=2.0)
    d = diag_packed(spec, packed)
    points = [StatePoint(r[:2], r[2:]) for r in packed]
    want = np.array([evaluate(spec, p, p) for p in points])
    assert np.allclose(d, want, atol=1e-12)
    full = gram_packed(spec, packed, packed)
    assert np.allclose(np.diag(full), d, atol=1e-12)
