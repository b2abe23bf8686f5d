import math

import numpy as np
import pytest

from bandit_lab.dictionary import KorsParams
from bandit_lab.kernels import KernelSpec, StatePoint, gram
from bandit_lab.linalg import SpdInverse
from bandit_lab.policies import (
    ExactKernelUcb,
    ExplorationSchedule,
    NumericalDriftError,
    ProjectedKernelUcb,
    ResamplingKernelUcb,
    UniformRandomPolicy,
    _guard_variances,
    theoretical_beta,
)

GAUSS = KernelSpec("gaussian", bandwidth=0.4)
FIXED = ExplorationSchedule(mode="fixed", beta=1.0)


def random_state(rng, ctx_dim=2):
    return StatePoint(rng.uniform(size=ctx_dim), rng.uniform(size=1))


def make_projected(gamma, seed=0, lam=1.0, mu=1.0, **kw):
    return ProjectedKernelUcb(
        GAUSS,
        lam,
        KorsParams(mu=mu, gamma=gamma),
        FIXED,
        policy_rng=np.random.default_rng(seed),
        kors_rng=np.random.default_rng(seed + 1),
        **kw,
    )


def dense_ridge_oracle(kernel, points, rewards, queries, lam):
    k = gram(kernel, points, points) + lam * np.eye(len(points))
    cross = gram(kernel, points, queries)
    sol = np.linalg.solve(k, np.column_stack([rewards[:, None], cross]))
    means = cross.T @ sol[:, 0]
    var = (gram(kernel, queries, queries).diagonal() - np.einsum(
        "ij,ij->j", cross, sol[:, 1:]
    )) / lam
    return means, var


def test_exact_single_observation_hand_values():
    # k(s,s)=1, lam=1, reward 1: mean = 1/(1+1) = 0.5, var = (1 - 1/2)/1 = 0.5
    policy = ExactKernelUcb(GAUSS, lam=1.0, schedule=FIXED)
    s = StatePoint(np.array([0.3]), np.array([0.7]))
    policy.update(s, 1.0)
    mean, var = policy.score_one(s)
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.5, abs=1e-12)


def test_exact_matches_dense_ridge():
    rng = np.random.default_rng(0)
    for lam in (0.1, 1.0, 10.0):
        policy = ExactKernelUcb(GAUSS, lam=lam, schedule=FIXED)
        points, rewards = [], []
        for _ in range(25):
            s = random_state(rng)
            r = rng.normal()
            policy.update(s, r)
            points.append(s)
            rewards.append(r)
        queries = [random_state(rng) for _ in range(7)]
        ctx = queries[0].context
        block = np.vstack([q.action for q in queries])
        fake = [StatePoint(ctx, q.action) for q in queries]
        means, var = policy.scores(ctx, block)
        want_m, want_v = dense_ridge_oracle(
            GAUSS, points, np.array(rewards), fake, lam
        )
        assert np.allclose(means, want_m, atol=1e-9)
        assert np.allclose(var, want_v, atol=1e-9)


def test_exact_empty_history_scores():
    policy = ExactKernelUcb(GAUSS, lam=4.0, schedule=FIXED)
    means, var = policy.scores(np.array([0.5, 0.5]), np.linspace(0, 1, 6)[:, None])
    assert np.all(means == 0.0)
    assert np.allclose(var, 0.25)  # k(s,s)/lam = 1/4


def test_exact_tie_break_is_first_index():
    policy = ExactKernelUcb(GAUSS, lam=1.0, schedule=FIXED)
    # empty history: every action scores identically, argmax must take index 0
    assert policy.choose(np.array([0.2, 0.9]), np.linspace(0, 1, 9)[:, None]) == 0


def test_exact_variance_monotone_in_data():
    rng = np.random.default_rng(1)
    policy = ExactKernelUcb(GAUSS, lam=1.0, schedule=FIXED)
    queries = np.linspace(0, 1, 11)[:, None]
    ctx = np.array([0.4, 0.6])
    _, prev = policy.scores(ctx, queries)
    for _ in range(40):
        policy.update(random_state(rng), rng.normal())
        _, var = policy.scores(ctx, queries)
        assert np.all(var <= prev + 1e-9)
        prev = var


def test_projected_bootstrap_hand_values():
    # after the seed round with k=1, lam=1, reward 1:
    #   Lam = [[1/(1+1)]] = 0.5, Gam = [1]
    #   mean = 0.5, var = 1/1 + (0.5 - 1) = 0.5
    policy = make_projected(gamma=math.inf)
    s = StatePoint(np.array([0.3]), np.array([0.7]))
    policy.update(s, 1.0)
    assert policy.lambda_inverse.matrix == pytest.approx(np.array([[0.5]]))
    assert policy.gamma_vec == pytest.approx(np.array([1.0]))
    mean, var = policy.score_one(s)
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.5, abs=1e-12)


def test_projected_scores_before_bootstrap_raise():
    policy = make_projected(gamma=math.inf)
    with pytest.raises(ValueError):
        policy.scores(np.array([0.1]), np.array([[0.2]]))


def test_projected_first_choice_is_random_but_seeded():
    actions = np.linspace(0, 1, 30)[:, None]
    picks = {
        make_projected(math.inf, seed=s).choose(np.array([0.5]), actions)
        for s in range(8)
    }
    assert len(picks) > 1  # not a constant tie-break
    a = make_projected(math.inf, seed=3).choose(np.array([0.5]), actions)
    b = make_projected(math.inf, seed=3).choose(np.array([0.5]), actions)
    assert a == b


def test_projected_with_saturated_dictionary_equals_exact():
    # when every state is admitted the projected posterior is the exact one
    rng = np.random.default_rng(2)
    exact = ExactKernelUcb(GAUSS, lam=2.0, schedule=FIXED)
    proj = make_projected(gamma=math.inf, lam=2.0)
    for _ in range(50):
        s = random_state(rng)
        r = rng.normal()
        exact.update(s, r)
        proj.update(s, r)
    assert proj.dictionary.size == proj.t
    ctx = np.array([0.25, 0.75])
    queries = np.linspace(0, 1, 13)[:, None]
    em, ev = exact.scores(ctx, queries)
    pm, pv = proj.scores(ctx, queries)
    assert np.allclose(pm, em, atol=1e-9)
    assert np.allclose(pv, ev, atol=1e-9)


def dense_projected_oracle(policy):
    """Recompute every maintained object of a projected policy from scratch."""
    anchors = policy.dictionary.anchors
    kzz = gram(policy.kernel, anchors, anchors)
    kzs = gram(policy.kernel, anchors, policy.points)
    lam_mat = np.linalg.inv(kzs @ kzs.T + policy.lam * kzz)
    return {
        "lambda_inverse": lam_mat,
        "gamma_vec": kzs @ policy.rewards,
        "kzz_inverse": np.linalg.inv(kzz),
        "cross": kzs,
    }


def rel_drift(maintained, dense):
    return np.linalg.norm(maintained - dense) / max(np.linalg.norm(dense), 1.0)


def test_projected_incremental_state_matches_dense_rebuild():
    rng = np.random.default_rng(3)
    policy = make_projected(gamma=1.5, lam=10.0, mu=2.0, seed=9)
    for _ in range(60):
        policy.update(random_state(rng), rng.normal())
    assert 1 < policy.dictionary.size < policy.t
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-6
    assert rel_drift(policy.gamma_vec, want["gamma_vec"]) < 1e-6
    assert rel_drift(policy.dictionary.kzz_inverse.matrix, want["kzz_inverse"]) < 1e-6
    assert rel_drift(policy.cross, want["cross"]) < 1e-6


def test_refactor_is_a_no_op_on_healthy_state():
    # both callers of the dense builder: online growth, and resampling, whose
    # state comes from rebuild_dictionary plus the shared posterior rebuild
    rng = np.random.default_rng(4)
    projected = make_projected(gamma=4.0, seed=11)
    resampling = make_resampling(1.5, seed=5, lam=10.0)
    for policy in (projected, resampling):
        for _ in range(40):
            policy.update(random_state(rng), rng.normal())
    assert resampling.resample_count >= 2
    ctx = np.array([0.5, 0.5])
    queries = np.linspace(0, 1, 9)[:, None]
    for policy in (projected, resampling):
        before = policy.scores(ctx, queries)
        policy.refactor()
        after = policy.scores(ctx, queries)
        assert np.allclose(before[0], after[0], atol=1e-9)
        assert np.allclose(before[1], after[1], atol=1e-9)


def test_periodic_refactor_runs():
    rng = np.random.default_rng(5)
    policy = make_projected(gamma=1.5, lam=10.0, mu=2.0, seed=12, refactor_every=10)
    for _ in range(35):
        policy.update(random_state(rng), rng.normal())
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-9
    assert policy.rebuilds["periodic"] == 3  # at t = 10, 20, 30


def test_indefinite_admission_recovers_via_dense_rebuild():
    # a badly drifted Lam estimate makes the bordering step indefinite; the
    # update must rebuild instead of raising, leaving consistent state behind
    rng = np.random.default_rng(8)
    policy = make_projected(gamma=math.inf, seed=3)
    for _ in range(6):
        policy.update(random_state(rng), rng.normal())
    policy.lambda_inverse = SpdInverse(policy.lambda_inverse.matrix * 1e9)
    policy.update(random_state(rng), 0.5)
    assert policy.dictionary.size == 7
    assert policy.rebuilds["indefinite_admission"] == 1
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-9
    assert np.allclose(policy.gamma_vec, want["gamma_vec"], atol=1e-9)


def test_singular_rank_one_update_recovers_via_dense_rebuild():
    rng = np.random.default_rng(9)
    policy = make_projected(gamma=1e-12, seed=4)  # no further admissions
    for _ in range(5):
        policy.update(random_state(rng), rng.normal())
    s = random_state(rng)
    kz = policy.dictionary.cross_vector(policy.kernel, s)
    # scale a negated identity so 1 + kz^T Lam kz lands inside the singular
    # tolerance of the rank-one update
    policy.lambda_inverse = SpdInverse(
        -np.eye(1) * (1.0 - 1e-14) / float(kz @ kz)
    )
    policy.update(s, -0.25)
    assert policy.rebuilds["singular_update"] == 1
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-9
    assert np.allclose(policy.gamma_vec, want["gamma_vec"], atol=1e-9)


def make_resampling(threshold, seed=0, gamma=20.0, lam=1.0):
    return ResamplingKernelUcb(
        GAUSS,
        lam,
        KorsParams(mu=1.0, gamma=gamma),
        FIXED,
        policy_rng=np.random.default_rng(seed),
        kors_rng=np.random.default_rng(seed + 1),
        accumulation_threshold=threshold,
    )


def test_resampling_threshold_one_fires_every_round():
    rng = np.random.default_rng(6)
    policy = make_resampling(1.0)
    for _ in range(20):
        policy.update(random_state(rng), rng.normal())
    assert policy.resample_count == 19  # every post-bootstrap round


def test_resampling_never_fires_at_infinite_threshold():
    rng = np.random.default_rng(7)
    policy = make_resampling(math.inf)
    for _ in range(20):
        policy.update(random_state(rng), rng.normal())
    assert policy.resample_count == 0
    assert policy.dictionary.size == 1  # frozen at the bootstrap anchor


def test_resampling_state_consistent_after_resamples():
    rng = np.random.default_rng(8)
    policy = make_resampling(1.5, seed=5, lam=10.0)
    for _ in range(40):
        policy.update(random_state(rng), rng.normal())
    assert policy.resample_count >= 2
    assert 1 <= policy.dictionary.size <= policy.t
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-6
    assert rel_drift(policy.gamma_vec, want["gamma_vec"]) < 1e-6
    assert rel_drift(policy.cross, want["cross"]) < 1e-6
    # anchors are genuine past states
    joints = {tuple(p.joint) for p in policy.points}
    assert all(tuple(a.joint) in joints for a in policy.dictionary.anchors)


def test_resampling_threshold_validation():
    with pytest.raises(ValueError):
        make_resampling(0.5)


def test_uniform_random_policy():
    actions = np.linspace(0, 1, 17)[:, None]
    policy = UniformRandomPolicy(np.random.default_rng(9))
    picks = [policy.choose(np.array([0.1]), actions) for _ in range(200)]
    assert min(picks) >= 0 and max(picks) < 17
    assert len(set(picks)) > 10
    twin = UniformRandomPolicy(np.random.default_rng(9))
    assert picks[:20] == [twin.choose(np.array([0.1]), actions) for _ in range(20)]
    policy.update(StatePoint(np.array([0.1]), np.array([0.2])), 0.0)
    assert policy.t == 1


def test_theoretical_beta_hand_value():
    # lam=1, t=1, kappa=1, delta=1/e, d_eff=1, B=1:
    #   1 + sqrt(2 + log(2e)) = 1 + sqrt(3 + log 2)
    got = theoretical_beta(
        "exact", t=1, lam=1.0, mu=0.0, norm_bound=1.0,
        delta=math.exp(-1.0), kappa=1.0, d_eff=1.0,
    )
    assert got == pytest.approx(1.0 + math.sqrt(3.0 + math.log(2.0)), abs=1e-12)
    assert got == pytest.approx(2.9218, abs=1e-4)


def test_theoretical_beta_projected_exceeds_exact():
    for t in (1, 10, 100):
        exact = theoretical_beta("exact", t, 1.0, 1.0, 1.0, 0.05, 1.0, 5.0)
        proj = theoretical_beta("projected", t, 1.0, 1.0, 1.0, 0.05, 1.0, 5.0)
        assert proj > exact


def test_theoretical_beta_validation():
    with pytest.raises(ValueError):
        theoretical_beta("other", 1, 1.0, 0.0, 1.0, 0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_beta("exact", 1, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_beta("exact", 1, -1.0, 0.0, 1.0, 0.05, 1.0, 1.0)


def test_schedule_modes():
    with pytest.raises(ValueError):
        ExplorationSchedule(mode="annealed")
    fixed = ExplorationSchedule(mode="fixed", beta=2.5)
    assert fixed.value("exact", 10, 1.0, 0.0, 1.0, 3.0) == 2.5
    theo = ExplorationSchedule(mode="theoretical", norm_bound=1.0, delta=0.05)
    want = theoretical_beta("exact", 10, 1.0, 0.0, 1.0, 0.05, 1.0, 3.0)
    assert theo.value("exact", 10, 1.0, 0.0, 1.0, 3.0) == pytest.approx(want)


def test_variance_guard():
    clean = _guard_variances(np.array([0.5, -1e-9, 0.0]))
    assert np.all(clean >= 0.0)
    assert clean[1] == 0.0
    with pytest.raises(NumericalDriftError):
        _guard_variances(np.array([0.5, -1e-3]))


def test_lam_validation():
    with pytest.raises(ValueError):
        ExactKernelUcb(GAUSS, lam=0.0, schedule=FIXED)
    with pytest.raises(ValueError):
        make_projected(gamma=1.0, lam=-1.0)
