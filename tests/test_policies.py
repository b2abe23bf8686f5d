import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bandit_lab import kernels, linalg, policies
from bandit_lab._grow import GrowableMatrix
from bandit_lab.dictionary import Dictionary, KorsParams
from bandit_lab.kernels import KernelSpec, StatePoint, evaluate, gram_packed
from bandit_lab.linalg import SINGULAR_TOL, SpdInverse, dense_spd_inverse
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
from perfbench_loader import load_perfbench

GAUSS = KernelSpec("gaussian", bandwidth=0.4)
FIXED = ExplorationSchedule(mode="fixed", beta=1.0)


def random_state(rng, ctx_dim=2):
    """A random (context, action) pair, as ``update`` takes it."""
    return rng.uniform(size=ctx_dim), rng.uniform(size=1)


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
    """Ridge mean and variance at the packed ``queries`` given the packed ``points``."""
    k = gram_packed(kernel, points, points) + lam * np.eye(len(points))
    cross = gram_packed(kernel, points, queries)
    sol = np.linalg.solve(k, np.column_stack([rewards[:, None], cross]))
    means = cross.T @ sol[:, 0]
    var = (gram_packed(kernel, queries, queries).diagonal() - np.einsum(
        "ij,ij->j", cross, sol[:, 1:]
    )) / lam
    return means, var


def test_exact_single_observation_hand_values():
    # k(s,s)=1, lam=1, reward 1: mean = 1/(1+1) = 0.5, var = (1 - 1/2)/1 = 0.5
    policy = ExactKernelUcb(GAUSS, lam=1.0, schedule=FIXED)
    x, a = np.array([0.3]), np.array([0.7])
    policy.update(x, a, 1.0)
    mean, var = policy.scores(x, a[None, :])
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.5, abs=1e-12)


def test_exact_matches_dense_ridge():
    rng = np.random.default_rng(0)
    for lam in (0.1, 1.0, 10.0):
        policy = ExactKernelUcb(GAUSS, lam=lam, schedule=FIXED)
        points, rewards = [], []
        for _ in range(25):
            x, a = random_state(rng)
            r = rng.normal()
            policy.update(x, a, r)
            points.append(np.concatenate([x, a]))
            rewards.append(r)
        queries = [random_state(rng) for _ in range(7)]
        ctx = queries[0][0]
        block = np.vstack([a for _, a in queries])
        fake = np.hstack([np.broadcast_to(ctx, (7, ctx.size)), block])
        means, var = policy.scores(ctx, block)
        want_m, want_v = dense_ridge_oracle(
            GAUSS, np.array(points), np.array(rewards), fake, lam
        )
        assert np.allclose(means, want_m, atol=1e-9)
        assert np.allclose(var, want_v, atol=1e-9)


def test_exact_empty_history_scores():
    policy = ExactKernelUcb(GAUSS, lam=4.0, schedule=FIXED)
    means, var = policy.scores(np.array([0.5, 0.5]), np.linspace(0, 1, 6)[:, None])
    assert np.all(means == 0.0)
    assert np.allclose(var, 0.25)  # k(s,s)/lam = 1/4


@pytest.mark.parametrize("name", ["kucb", "ekucb", "cbkb"])
def test_tie_break_is_first_index(name, monkeypatch):
    # every kernel policy plays the first maximiser of an exact tie
    ctx, actions = np.array([0.2, 0.9]), np.linspace(0, 1, 9)[:, None]
    if name == "kucb":
        # empty history: every action scores identically
        policy = ExactKernelUcb(GAUSS, lam=1.0, schedule=FIXED)
    else:
        policy = make_projected(math.inf) if name == "ekucb" else make_resampling(math.inf)
        policy.update(ctx, actions[4], 1.0)  # past the random bootstrap round
        tied = (np.full(9, 0.5), np.full(9, 0.25))
        monkeypatch.setattr(policy, "scores", lambda context, acts: tied)
    assert policy.choose(ctx, actions) == 0


def test_exact_variance_monotone_in_data():
    rng = np.random.default_rng(1)
    policy = ExactKernelUcb(GAUSS, lam=1.0, schedule=FIXED)
    queries = np.linspace(0, 1, 11)[:, None]
    ctx = np.array([0.4, 0.6])
    _, prev = policy.scores(ctx, queries)
    for _ in range(40):
        policy.update(*random_state(rng), rng.normal())
        _, var = policy.scores(ctx, queries)
        assert np.all(var <= prev + 1e-9)
        prev = var


def test_projected_bootstrap_hand_values():
    # after the seed round with k=1, lam=1, reward 1:
    #   Lam = [[1/(1+1)]] = 0.5, Gam = [1]
    #   mean = 0.5, var = 1/1 + (0.5 - 1) = 0.5
    policy = make_projected(gamma=math.inf)
    x, a = np.array([0.3]), np.array([0.7])
    policy.update(x, a, 1.0)
    assert policy.lambda_inverse.matrix == pytest.approx(np.array([[0.5]]))
    assert policy.gamma_vec == pytest.approx(np.array([1.0]))
    mean, var = policy.scores(x, a[None, :])
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
        x, a = random_state(rng)
        r = rng.normal()
        exact.update(x, a, r)
        proj.update(x, a, r)
    assert proj.dictionary.size == proj.t
    ctx = np.array([0.25, 0.75])
    queries = np.linspace(0, 1, 13)[:, None]
    em, ev = exact.scores(ctx, queries)
    pm, pv = proj.scores(ctx, queries)
    assert np.allclose(pm, em, atol=1e-9)
    assert np.allclose(pv, ev, atol=1e-9)


def dense_projected_oracle(policy):
    """Recompute every maintained object of a projected policy from scratch."""
    anchors = policy.dictionary.packed
    kzz = gram_packed(policy.kernel, anchors, anchors)
    kzs = gram_packed(policy.kernel, anchors, policy.history)
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
        policy.update(*random_state(rng), rng.normal())
    assert 1 < policy.dictionary.size < policy.t
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-6
    assert rel_drift(policy.gamma_vec, want["gamma_vec"]) < 1e-6
    assert rel_drift(policy.dictionary.kzz_inverse.matrix, want["kzz_inverse"]) < 1e-6
    assert rel_drift(policy.cross, want["cross"]) < 1e-6


def test_projected_update_reads_each_state_once(monkeypatch):
    # the sampler scores and admits the state from the K_Z(s) and k(s, s)
    # that the update computed for itself, so neither is computed twice; K_Z(s)
    # is the column whose block is the anchors, k(s, s) the state's ``_diag``
    calls = {"k_z": 0, "k_self": 0}
    column, diag = policies._KernelPolicy._column, policies._KernelPolicy._diag

    def counted_column(self, block, row):
        calls["k_z"] += block is self.dictionary.packed
        return column(self, block, row)

    def counted_diag(self, a):
        calls["k_self"] += 1
        return diag(self, a)

    monkeypatch.setattr(policies._KernelPolicy, "_column", counted_column)
    monkeypatch.setattr(policies._KernelPolicy, "_diag", counted_diag)
    rng = np.random.default_rng(12)
    policy = make_projected(gamma=2.0, seed=13)
    admitted = []
    for t in range(40):
        before, size = dict(calls), policy.dictionary.size
        policy.update(*random_state(rng), rng.normal())
        per_update = {k: calls[k] - before[k] for k in calls}
        if t == 0:
            # the bootstrap seeds an empty dictionary: no K_Z(s) to compute
            assert per_update == {"k_z": 0, "k_self": 1}
        else:
            assert per_update == {"k_z": 1, "k_self": 1}
            admitted.append(policy.dictionary.size > size)
    assert any(admitted) and not all(admitted)


SELF_KERNEL_SPECS = {
    "gaussian": GAUSS,
    "linear": KernelSpec("linear", kappa=math.sqrt(3.0)),
    "tensor": KernelSpec(
        "tensor",
        context_kernel=KernelSpec("gaussian", bandwidth=0.5),
        action_kernel=KernelSpec("linear", kappa=1.0),
    ),
}


@pytest.mark.parametrize("family", sorted(SELF_KERNEL_SPECS))
def test_policies_take_k_s_s_from_diag(monkeypatch, family):
    # every kernel policy takes k(s, s) from diag_packed, as choose scores it,
    # so an update borders or scores with the same k(s, s) with or without a
    # choose before it; for the gaussian family the 1-by-1 gram that
    # evaluate(s, s) runs differs from it in the last bit on some states
    spec = SELF_KERNEL_SPECS[family]
    seen = []
    seed, kors_step = Dictionary.seed, policies.kors_step
    schur = policies.schur_extend_jittered

    def seen_seed(self, row, k_self):
        seen.append(("seed", k_self))
        return seed(self, row, k_self)

    def seen_kors_step(d, t, row, kz, k_self, params):
        seen.append(("kors_step", k_self))
        return kors_step(d, t, row, kz, k_self, params)

    def seen_schur(inverse, b, c):
        seen.append(("schur", c))
        return schur(inverse, b, c)

    monkeypatch.setattr(Dictionary, "seed", seen_seed)
    monkeypatch.setattr(policies, "kors_step", seen_kors_step)
    monkeypatch.setattr(policies, "schur_extend_jittered", seen_schur)
    rng = np.random.default_rng(33)
    # lam far below one ulp of k(s, s), so kucb's corner k(s, s) + lam shows
    # the bits of k(s, s); gamma small enough that ekucb admits no anchor
    # after the first, so every later update only scores its state
    tiny = 1e-20
    ekucb = ProjectedKernelUcb(
        spec, 1.0, KorsParams(mu=1.0, gamma=1e-12), FIXED,
        np.random.default_rng(34), np.random.default_rng(35),
    )
    grams = []
    for t in range(300):
        x, a = random_state(rng)
        s = StatePoint(x, a)
        grams.append(evaluate(spec, s, s))
        want = kernels.diag_packed(spec, s.joint[None, :], context_dim=x.size)[0]
        del seen[:]
        # choose scores a block of candidates; the update of its pick with
        # no choose before it must border with the same k(s, s)
        candidates = a + np.linspace(0.0, 0.6, 7)[:, None]
        chosen = ExactKernelUcb(spec, tiny, FIXED)
        pick = candidates[chosen.choose(x, candidates)]
        chosen.update(x, pick, 0.0)
        ExactKernelUcb(spec, tiny, FIXED).update(x, pick, 0.0)
        row = np.concatenate([x, pick])[None, :]
        k_diag = kernels.diag_packed(spec, row, context_dim=x.size)[0]
        assert seen == [("schur", k_diag + tiny)] * 2
        del seen[:]
        ResamplingKernelUcb(
            spec, 1.0, KorsParams(mu=1.0, gamma=1.0), FIXED,
            np.random.default_rng(36), np.random.default_rng(37),
            accumulation_threshold=math.inf,
        ).update(x, a, 0.0)
        assert seen == [("seed", want)]
        del seen[:]
        ekucb.update(x, a, rng.normal())
        assert seen == [("seed" if t == 0 else "kors_step", want)]
    assert ekucb.dictionary.size == 1
    if family == "gaussian":
        assert any(v != 1.0 for v in grams)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["kucb", "ekucb", "cbbkb"])
def test_update_rejects_a_non_finite_coordinate(name, bad):
    policy = {
        "kucb": lambda: ExactKernelUcb(GAUSS, 1.0, FIXED),
        "ekucb": lambda: make_projected(gamma=2.0),
        "cbbkb": lambda: make_resampling(4.0),
    }[name]()
    policy.update(np.array([0.2, 0.4]), np.array([0.6]), 1.0)
    for x, a in (([0.2, bad], [0.6]), ([0.2, 0.4], [bad])):
        with pytest.raises(ValueError, match="finite"):
            policy.update(np.array(x), np.array(a), 1.0)
    assert policy.t == 1 and policy.history.shape == (1, 3)


@pytest.mark.parametrize(
    "name, per_round",
    # ekucb: scores and K_Z(s), its k(s, s) a diag; kucb: scores, its update
    # reusing the chosen history column and k(q, q); cbbkb: scores and K_Z(s),
    # its variance reusing that column
    [("ekucb", 2), ("kucb", 1), ("cbbkb", 2)],
)
def test_kernel_work_per_round(monkeypatch, name, per_round):
    # the kernel-layer twin of the test above: a round that neither admits an
    # anchor nor resamples computes each squared-distance block once
    calls = [0]
    sq_dists = kernels._sq_dists

    def counted(a, b):
        calls[0] += 1
        return sq_dists(a, b)

    monkeypatch.setattr(kernels, "_sq_dists", counted)
    policy = {
        "ekucb": lambda: make_projected(gamma=2.0, seed=14),
        "kucb": lambda: ExactKernelUcb(GAUSS, 1.0, FIXED),
        "cbbkb": lambda: make_resampling(6.0, seed=15),
    }[name]()
    rng = np.random.default_rng(16)
    actions = np.linspace(0.0, 1.0, 7)[:, None]

    def extra_work():
        # anchors admitted, resamples and dense rebuilds, each a gram of its own
        return (
            policy.dictionary_size,
            getattr(policy, "resample_count", 0),
            sum(getattr(policy, "rebuilds", {}).values()),
        )

    checked = 0
    for t in range(60):
        x = rng.uniform(size=2)
        work, before = extra_work(), calls[0]
        idx = policy.choose(x, actions)
        policy.update(x, actions[idx], rng.normal())
        if t > 0 and extra_work() == work:
            assert calls[0] - before == per_round
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["kucb", "ekucb", "cbkb", "cbbkb"])
def test_only_update_packs_the_state(monkeypatch, name):
    # choose hands off the chosen state's bytes and packs no row; each
    # update packs its own state's row once
    calls = [0]
    row = policies._KernelPolicy._row

    def counted(self, context, action):
        calls[0] += 1
        return row(self, context, action)

    monkeypatch.setattr(policies._KernelPolicy, "_row", counted)
    policy = {
        "kucb": lambda: ExactKernelUcb(GAUSS, 1.0, FIXED),
        "ekucb": lambda: make_projected(gamma=2.0, seed=26),
        "cbkb": lambda: make_resampling(1.0, seed=27),
        "cbbkb": lambda: make_resampling(4.0, seed=28),
    }[name]()
    rng = np.random.default_rng(29)
    actions = np.linspace(0.0, 1.0, 7)[:, None]
    for _ in range(30):
        x = rng.uniform(size=2)
        before = calls[0]
        idx = policy.choose(x, actions)
        assert calls[0] == before
        policy.update(x, actions[idx], rng.normal())
        assert calls[0] == before + 1


def check_hand_off_is_keyed_by_value(monkeypatch, policy, rng):
    # the chosen state handed back as a Python list, or as the float32 arrays
    # choose took, still matches; another action of the same context misses
    hits, scored = [], policies._KernelPolicy._scored

    def spy(self, row):
        out = scored(self, row)
        hits.append(out is not None)
        return out

    monkeypatch.setattr(policies._KernelPolicy, "_scored", spy)
    actions = np.linspace(0.0, 1.0, 7)[:, None]
    for cast in (lambda v: v.tolist(), lambda v: v.astype(np.float32)):
        x, grid = cast(rng.uniform(size=2)), cast(actions)
        policy.update(x, grid[policy.choose(x, grid)], rng.normal())
        policy.update(x, grid[(policy.choose(x, grid) + 1) % 7], rng.normal())
    assert hits == [True, False, True, False]


def test_exact_update_reuses_only_the_chosen_state(monkeypatch):
    # kucb's update borders with the column and k(q, q) that choose scored,
    # but only for the state choose picked and only once; any other update
    # computes its own, bit for bit as an update with no choose before it
    rng = np.random.default_rng(17)
    policy = ExactKernelUcb(GAUSS, 1.0, FIXED)
    unchosen = ExactKernelUcb(GAUSS, 1.0, FIXED)
    actions = np.linspace(0.0, 1.0, 7)[:, None]
    for _ in range(30):
        x = rng.uniform(size=2)
        other = actions[(policy.choose(x, actions) + 1) % 7]
        r = rng.normal()
        policy.update(x, other, r)
        unchosen.update(x, other, r)
    assert np.array_equal(policy.k_lambda_inverse.matrix, unchosen.k_lambda_inverse.matrix)
    for _ in range(10):
        x = rng.uniform(size=2)
        a = actions[policy.choose(x, actions)]
        policy.update(x, a, rng.normal())
        policy.update(x, a, rng.normal())  # the history grew: no column to reuse
    k = gram_packed(GAUSS, policy.history, policy.history) + np.eye(policy.t)
    assert policy.t == 50
    assert np.allclose(policy.k_lambda_inverse.matrix, np.linalg.inv(k), atol=1e-10)
    check_hand_off_is_keyed_by_value(monkeypatch, policy, rng)


def test_kucb_rounds_allocate_no_t_square_array():
    # kucb borders (K + lam I)^{-1} in two reused buffers: a round's transient
    # allocations, above what it holds before and after, stay far below one
    # t-square array, and what it holds grows only at the buffers' few
    # geometric growth steps
    rng = np.random.default_rng(41)
    policy = ExactKernelUcb(GAUSS, 1.0, FIXED)
    actions = np.linspace(0.0, 1.0, 7)[:, None]

    def play():
        x = rng.uniform(size=2)
        policy.update(x, actions[policy.choose(x, actions)], rng.normal())

    transient, grown = [], []
    tracemalloc.start()
    try:
        for _ in range(200):
            play()
        for t in range(200, 300):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            play()
            after, peak = tracemalloc.get_traced_memory()
            square = 8 * t * t
            transient.append((peak - max(before, after)) / square)
            if after - before > square / 4:
                grown.append(t)
    finally:
        tracemalloc.stop()
    assert policy.t == 300
    assert max(transient) < 0.25
    assert 0 < len(grown) <= 6


def fresh_scores(policy, context, actions):
    """``scores`` with Lam - K_ZZ^{-1} / lam built from the policy's inverses now."""
    q = policy._query_block(context, actions)
    kzq = policy._gram(policy.dictionary.packed, q)
    kdiag = policy._diag(q)
    lam_mat = policy.lambda_inverse.matrix
    means = kzq.T @ (lam_mat @ policy.gamma_vec)
    correction = lam_mat - policy.dictionary.kzz_inverse.matrix / policy.lam
    quad = np.einsum("ij,ij->j", kzq, correction @ kzq)
    return means, _guard_variances(kdiag / policy.lam + quad)


@pytest.mark.parametrize("name", ["ekucb", "cbkb", "cbbkb"])
def test_kept_correction_is_never_stale(name):
    # the kept half of the correction, K_ZZ^{-1} / lam, must follow every
    # replacement of the dictionary inverse, and scores every replacement of
    # Lam: rank-one updates, admissions, resamples, a forced refactor and a
    # direct assignment
    policy = {
        "ekucb": lambda: make_projected(gamma=2.0, seed=18),
        "cbkb": lambda: make_resampling(1.0, seed=19),
        "cbbkb": lambda: make_resampling(3.0, seed=20),
    }[name]()
    rng = np.random.default_rng(21)
    actions = np.linspace(0.0, 1.0, 7)[:, None]
    probe = np.array([0.4, 0.6])

    def check():
        got, want = policy.scores(probe, actions), fresh_scores(policy, probe, actions)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    sizes = set()
    for t in range(40):
        x = rng.uniform(size=2)
        idx = policy.choose(x, actions)
        if t:
            check()
        policy.update(x, actions[idx], rng.normal())
        check()
        sizes.add(policy.dictionary.size)
        if t == 20:
            policy.refactor()
            check()
            policy.lambda_inverse = SpdInverse(policy.lambda_inverse.matrix * 0.5)
            check()
    if name == "ekucb":
        assert len(sizes) >= 5
    else:
        assert policy.resample_count >= 5


@pytest.mark.parametrize("name", ["ekucb", "cbbkb"])
def test_correction_is_built_once_per_round(monkeypatch, name):
    # a round that neither admits nor resamples builds one
    # Lam - K_ZZ^{-1} / lam, in choose's one _variances call: the resampling
    # update takes the chosen variance from choose's hand-off; and
    # K_ZZ^{-1} / lam is divided once per dictionary inverse
    seen = []  # (K_ZZ^{-1} / lam, dictionary inverse) per call
    variances = ProjectedKernelUcb._variances

    def spy(self, kzq, kdiag):
        out = variances(self, kzq, kdiag)
        seen.append((self._kzz_scaled, self.dictionary.kzz_inverse))
        return out

    monkeypatch.setattr(ProjectedKernelUcb, "_variances", spy)
    policy = {
        "ekucb": lambda: make_projected(gamma=2.0, seed=14),
        "cbbkb": lambda: make_resampling(6.0, seed=15),
    }[name]()
    rng = np.random.default_rng(16)
    actions = np.linspace(0.0, 1.0, 7)[:, None]
    checked = 0
    for t in range(60):
        x = rng.uniform(size=2)
        work = (policy.dictionary_size, getattr(policy, "resample_count", 0))
        start = len(seen)
        idx = policy.choose(x, actions)
        policy.update(x, actions[idx], rng.normal())
        work_now = (policy.dictionary_size, getattr(policy, "resample_count", 0))
        if t > 0 and work_now == work and not any(policy.rebuilds.values()):
            assert len(seen) - start == 1
            checked += 1
    assert checked >= 10
    scaled_of = {}
    for scaled, kzz_inverse in seen:
        assert scaled_of.setdefault(id(kzz_inverse), scaled) is scaled
    assert len({id(s) for s in scaled_of.values()}) == len(scaled_of) > 1


def test_refactor_is_a_no_op_on_healthy_state():
    # both callers of the dense builder: online growth, and resampling, whose
    # state comes from rebuild_dictionary plus the shared posterior rebuild
    rng = np.random.default_rng(4)
    projected = make_projected(gamma=4.0, seed=11)
    resampling = make_resampling(1.5, seed=5, lam=10.0)
    for policy in (projected, resampling):
        for _ in range(40):
            policy.update(*random_state(rng), rng.normal())
    assert resampling.resample_count >= 2
    ctx = np.array([0.5, 0.5])
    queries = np.linspace(0, 1, 9)[:, None]
    for policy in (projected, resampling):
        before = policy.scores(ctx, queries)
        policy.refactor()
        after = policy.scores(ctx, queries)
        assert np.allclose(before[0], after[0], atol=1e-9)
        assert np.allclose(before[1], after[1], atol=1e-9)


@pytest.mark.parametrize("name", ["ekucb", "cbbkb"])
def test_lambda_inverse_stays_exactly_symmetric(name):
    # the rank-one step, an admission's bordering, a resample's dense rebuild
    # and a forced refactor() each leave Lam equal to its transpose bit for
    # bit, so no asymmetry compounds over a run
    rng = np.random.default_rng(23)
    if name == "ekucb":
        policy = make_projected(gamma=4.0, seed=11)
    else:
        policy = make_resampling(1.5, seed=5, lam=10.0)
    sizes = []
    for t in range(60):
        if t == 30:
            policy.refactor()
            m = policy.lambda_inverse.matrix
            assert np.array_equal(m, m.T)
        policy.update(*random_state(rng), rng.normal())
        m = policy.lambda_inverse.matrix
        assert np.array_equal(m, m.T)
        sizes.append(policy.dictionary.size)
    if name == "ekucb":
        # admissions both before and after the refactor
        assert sizes[0] < sizes[29] < sizes[-1]
    else:
        assert policy.resample_count >= 2


@pytest.mark.parametrize("name", ["ekucb", "cbbkb"])
def test_kept_sqrt_probs_are_the_roots_of_probs(name):
    # the dictionary's kept sqrt(p) equals, bit for bit, the roots of its
    # probs after online admissions, a refactor and a resample's
    # rebuild_dictionary
    policy = {
        "ekucb": lambda: make_projected(gamma=2.0, seed=30),
        "cbbkb": lambda: make_resampling(3.0, seed=31, gamma=2.0),
    }[name]()
    rng = np.random.default_rng(32)

    def check():
        d = policy.dictionary
        assert np.array_equal(d.sqrt_probs, np.sqrt(np.asarray(d.probs)))

    for t in range(60):
        policy.update(*random_state(rng), rng.normal())
        check()
        if t % 20 == 19:
            policy.refactor()
            check()
    assert min(policy.dictionary.probs) < 1.0
    if name == "ekucb":
        assert policy.dictionary.size >= 5
    else:
        assert policy.resample_count >= 2


def test_indefinite_admission_recovers_via_dense_rebuild():
    # a badly drifted Lam estimate makes the bordering step indefinite; the
    # update must rebuild instead of raising, leaving consistent state behind
    rng = np.random.default_rng(8)
    policy = make_projected(gamma=math.inf, seed=3)
    for _ in range(6):
        policy.update(*random_state(rng), rng.normal())
    policy.lambda_inverse = SpdInverse(policy.lambda_inverse.matrix * 1e9)
    policy.update(*random_state(rng), 0.5)
    assert policy.dictionary.size == 7
    assert policy.rebuilds["indefinite_admission"] == 1
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-9
    assert np.allclose(policy.gamma_vec, want["gamma_vec"], atol=1e-9)


def test_refactor_retries_a_singular_anchor_gram_with_jitter(monkeypatch):
    # the dense rebuild's inverses retry once at M + jitter I: two identical
    # anchors make K_ZZ exactly singular, so its first Cholesky fails, and
    # the rebuilt K_ZZ^{-1} is the inverse of K_ZZ + jitter I
    rng = np.random.default_rng(40)
    policy = make_projected(gamma=1e-12, seed=41)
    for _ in range(6):
        policy.update(*random_state(rng), rng.normal())
    row = np.array([0.5, 0.25, 0.75])  # dyadic, so k(row, row) is exactly 1
    d = policy.dictionary
    d.packed, d.probs, d.steps = np.vstack([row, row]), [1.0, 1.0], [0, 0]
    d.sqrt_probs = np.ones(2)
    policy._cross = GrowableMatrix(gram_packed(GAUSS, policy.history, d.packed))
    kzz = gram_packed(GAUSS, d.packed, d.packed)
    assert np.array_equal(kzz, np.ones((2, 2)))
    real = linalg._lapack()
    factored = []  # (matrix, whether its Cholesky succeeded), in call order

    class View:
        def __getattr__(self, name):
            return getattr(real, name)

        def cho_factor(self, m, **kwargs):
            try:
                out = real.cho_factor(m, **kwargs)
            except np.linalg.LinAlgError:
                factored.append((m.copy(), False))
                raise
            factored.append((m.copy(), True))
            return out

    monkeypatch.setattr(linalg, "_lapack", View)
    policy.refactor()
    jittered = kzz + policy._jitter * np.eye(2)
    assert [ok for m, ok in factored if np.array_equal(m, kzz)] == [False]
    assert [ok for m, ok in factored if np.array_equal(m, jittered)] == [True]
    want = dense_spd_inverse(kzz, jitter=policy._jitter)
    assert np.array_equal(policy.dictionary.kzz_inverse.matrix, want.matrix)


def test_admission_in_the_jitter_window_rebuilds(monkeypatch):
    # a drifted Lam puts the bordering step's Schur complement just under the
    # singular tolerance, where a retry at c + jitter would accept the border;
    # the admission must rebuild instead
    rng = np.random.default_rng(8)
    policy = make_projected(gamma=math.inf, seed=3)
    for _ in range(6):
        policy.update(*random_state(rng), rng.normal())
    kors_step = policies.kors_step

    def admit_then_drift(d, t, row, kz, k_self, params):
        admitted = kors_step(d, t, row, kz, k_self, params)
        # the border that _admit_anchor forms next
        ks_z = gram_packed(policy.kernel, policy.history, row[None, :])[:, 0]
        b = policy.cross @ ks_z + policy.lam * kz
        c = float(ks_z @ ks_z) + policy.lam * k_self
        lam_mat = policy.lambda_inverse.matrix
        drifted = lam_mat * ((c - 5e-13) / float(b @ lam_mat @ b))
        schur = c - float(b @ (drifted @ b))
        assert 0 < schur < SINGULAR_TOL <= schur + policy._jitter
        policy.lambda_inverse = SpdInverse(drifted)
        return admitted

    monkeypatch.setattr(policies, "kors_step", admit_then_drift)
    policy.update(*random_state(rng), 0.5)
    assert policy.dictionary.size == 7
    assert policy.rebuilds == {"singular_update": 0, "indefinite_admission": 1}
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-9
    assert np.allclose(policy.gamma_vec, want["gamma_vec"], atol=1e-9)


def test_singular_rank_one_update_recovers_via_dense_rebuild():
    rng = np.random.default_rng(9)
    policy = make_projected(gamma=1e-12, seed=4)  # no further admissions
    for _ in range(5):
        policy.update(*random_state(rng), rng.normal())
    x, a = random_state(rng)
    kz = policy.dictionary.cross_vector(policy.kernel, np.concatenate([x, a]), x.size)
    # scale a negated identity so 1 + kz^T Lam kz lands inside the singular
    # tolerance of the rank-one update
    policy.lambda_inverse = SpdInverse(
        -np.eye(1) * (1.0 - 1e-14) / float(kz @ kz)
    )
    policy.update(x, a, -0.25)
    assert policy.rebuilds["singular_update"] == 1
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-9
    assert np.allclose(policy.gamma_vec, want["gamma_vec"], atol=1e-9)


def make_resampling(threshold, seed=0, gamma=20.0, lam=1.0, mu=1.0):
    return ResamplingKernelUcb(
        GAUSS,
        lam,
        KorsParams(mu=mu, gamma=gamma),
        FIXED,
        policy_rng=np.random.default_rng(seed),
        kors_rng=np.random.default_rng(seed + 1),
        accumulation_threshold=threshold,
    )


def test_resampling_threshold_one_fires_every_round():
    rng = np.random.default_rng(6)
    policy = make_resampling(1.0)
    for _ in range(20):
        policy.update(*random_state(rng), rng.normal())
    assert policy.resample_count == 19  # every post-bootstrap round


def test_resampling_threshold_one_skips_a_zero_variance_round():
    # the trigger is a summed variance above threshold - 1 = 0, so under a
    # linear kernel the duplicate of the first state (variance > 0) resamples
    # and the zero state (variance 0) does not
    linear = KernelSpec("linear", kappa=math.sqrt(3.0))
    policy = ResamplingKernelUcb(
        linear, 1.0, KorsParams(mu=1.0, gamma=math.inf), FIXED,
        policy_rng=np.random.default_rng(50), kors_rng=np.random.default_rng(51),
        accumulation_threshold=1.0,
    )
    for x, a in [([0.5, 0.25], [0.75]), ([0.5, 0.25], [0.75]), ([0.0, 0.0], [0.0])]:
        policy.update(np.array(x), np.array(a), 1.0)
    assert policy.t == 3
    assert policy.resample_count == 1
    assert policy.accumulated_variance == 0.0


def test_resampling_never_fires_at_infinite_threshold():
    rng = np.random.default_rng(7)
    policy = make_resampling(math.inf)
    for _ in range(20):
        policy.update(*random_state(rng), rng.normal())
    assert policy.resample_count == 0
    assert policy.dictionary.size == 1  # frozen at the bootstrap anchor


def test_resampling_runs_on_when_every_coin_misses():
    # at gamma = 1e-12 every coin of every resample misses, so each resample
    # keeps its top-scored state alone, at p = 1, and the policy runs on
    rng = np.random.default_rng(60)
    policy = make_resampling(1.0, seed=61, gamma=1e-12)
    actions = np.linspace(0, 1, 5)[:, None]
    for _ in range(15):
        x = rng.uniform(size=2)
        policy.update(x, actions[policy.choose(x, actions)], rng.normal())
        assert policy.dictionary.probs == [1.0]
        assert policy.dictionary.steps == [policy.t - 1 if policy.resample_count else 0]
    assert policy.resample_count == 14
    assert np.isfinite(policy.scores(x, actions)).all()


@pytest.mark.parametrize("name", ["ekucb", "cbkb"])
def test_infinite_gamma_draws_a_zero_score_state(name):
    # at gamma = inf both the online sampler and a resample draw every state
    # at p = 1, a state that scores tau = 0 too, with no inf * 0: under a
    # linear kernel the zero state has k(s, s) = 0, so each draws it and
    # drops it as a duplicate.  The third state makes the resample fire: the
    # zero state's variance is 0, which does not.
    linear = KernelSpec("linear", kappa=math.sqrt(3.0))
    kors = KorsParams(mu=1.0, gamma=math.inf)
    rngs = dict(policy_rng=np.random.default_rng(50), kors_rng=np.random.default_rng(51))
    policy = {
        "ekucb": lambda: ProjectedKernelUcb(linear, 1.0, kors, FIXED, **rngs),
        "cbkb": lambda: ResamplingKernelUcb(
            linear, 1.0, kors, FIXED, **rngs, accumulation_threshold=1.0
        ),
    }[name]()
    states = [([0.5, 0.25], [0.75]), ([0.0, 0.0], [0.0]), ([0.25, 0.5], [0.5])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, a in states:
            policy.update(np.array(x), np.array(a), 1.0)
    assert policy.rejected_duplicates == 1
    assert policy.dictionary.size == 2
    if name == "cbkb":
        assert policy.resample_count == 1


@pytest.mark.parametrize("threshold", [math.inf, 4.0])
def test_accumulated_variance_sums_the_scored_variances(threshold):
    # an update with no choose before it scores its state's variance from its
    # one K_Z(s) column; it must be, bit for bit, what scores reports just
    # before the update
    rng = np.random.default_rng(9)
    policy = make_resampling(threshold)
    total = 0.0
    for _ in range(60):
        x, a = random_state(rng)
        resamples = policy.resample_count
        var = float(policy.scores(x, a[None, :])[1][0]) if policy.t else 0.0
        policy.update(x, a, rng.normal())
        total = 0.0 if policy.resample_count > resamples else total + var
        assert policy.accumulated_variance == total
    if math.isinf(threshold):
        assert policy.resample_count == 0
    else:
        assert policy.resample_count >= 2


@pytest.mark.parametrize("threshold", [1.0, math.inf, 4.0], ids=["cbkb", "inf", "4"])
def test_accumulated_variance_sums_what_choose_scored(monkeypatch, threshold):
    # after choose, update adds the variance choose scored its pick with,
    # bit for bit; a re-score of the one chosen column can round differently
    # from the column of choose's whole block
    scored = []
    scores = ProjectedKernelUcb.scores

    def spy(self, context, actions):
        out = scores(self, context, actions)
        scored.append(out[1])
        return out

    monkeypatch.setattr(ProjectedKernelUcb, "scores", spy)
    policy = make_resampling(threshold, seed=22, gamma=10.0, lam=10.0, mu=10.0)
    rng = np.random.default_rng(23)
    actions = np.linspace(0.0, 1.0, 20)[:, None]
    total = 0.0
    for t in range(250):
        x = rng.uniform(size=2)
        resamples = policy.resample_count
        idx = policy.choose(x, actions)
        var = scored[-1][idx] if t else 0.0  # the first choice scores nothing
        policy.update(x, actions[idx], rng.normal())
        total = 0.0 if policy.resample_count > resamples else total + var
        assert policy.accumulated_variance == total
    assert len(scored) == 249
    if threshold == 4.0:
        assert policy.resample_count >= 2


def test_resampling_update_rescores_a_state_choose_did_not_pick(monkeypatch):
    # the resampling update takes choose's variance only for the state choose
    # picked and only once; any other update scores its own state, bit for
    # bit as an update with no choose before it
    rng = np.random.default_rng(24)
    policy, unchosen = make_resampling(4.0, seed=25), make_resampling(4.0, seed=25)
    actions = np.linspace(0.0, 1.0, 7)[:, None]
    for _ in range(40):
        x = rng.uniform(size=2)
        other = actions[(policy.choose(x, actions) + 1) % 7]
        r = rng.normal()
        policy.update(x, other, r)
        unchosen.update(x, other, r)
        assert policy.accumulated_variance == unchosen.accumulated_variance
    assert policy.resample_count == unchosen.resample_count >= 2
    assert np.array_equal(policy.lambda_inverse.matrix, unchosen.lambda_inverse.matrix)
    rescored = 0
    for _ in range(10):
        x = rng.uniform(size=2)
        a = actions[policy.choose(x, actions)]
        policy.update(x, a, rng.normal())
        before, resamples = policy.accumulated_variance, policy.resample_count
        var = float(policy.scores(x, a[None, :])[1][0])
        policy.update(x, a, rng.normal())  # the hand-off is spent: a re-score
        if policy.resample_count == resamples:
            assert policy.accumulated_variance == before + var
            rescored += 1
    assert rescored >= 3
    check_hand_off_is_keyed_by_value(monkeypatch, policy, rng)


def test_resampling_state_consistent_after_resamples():
    rng = np.random.default_rng(8)
    policy = make_resampling(1.5, seed=5, lam=10.0)
    for _ in range(40):
        policy.update(*random_state(rng), rng.normal())
    assert policy.resample_count >= 2
    assert 1 <= policy.dictionary.size <= policy.t
    want = dense_projected_oracle(policy)
    assert rel_drift(policy.lambda_inverse.matrix, want["lambda_inverse"]) < 1e-6
    assert rel_drift(policy.gamma_vec, want["gamma_vec"]) < 1e-6
    assert rel_drift(policy.cross, want["cross"]) < 1e-6
    # anchors are genuine past states
    joints = {tuple(row) for row in policy.history}
    assert all(tuple(row) in joints for row in policy.dictionary.packed)


TENSOR = KernelSpec(
    "tensor",
    context_kernel=KernelSpec("gaussian", bandwidth=0.5),
    action_kernel=KernelSpec("gaussian", bandwidth=0.3),
)


@pytest.mark.parametrize("name", ["kucb", "ekucb", "cbkb", "cbbkb"])
def test_tensor_kernel_scores_match_dense_posterior(name):
    # a tensor kernel splits each stored row at the context dimension, which
    # every kernel call on the history and the anchors must pass along
    kors = KorsParams(mu=1.0, gamma=3.0)
    rngs = (np.random.default_rng(30), np.random.default_rng(31))
    policy = {
        "kucb": lambda: ExactKernelUcb(TENSOR, 1.0, FIXED),
        "ekucb": lambda: ProjectedKernelUcb(TENSOR, 1.0, kors, FIXED, *rngs),
        "cbkb": lambda: ResamplingKernelUcb(
            TENSOR, 1.0, kors, FIXED, *rngs, accumulation_threshold=1.0
        ),
        "cbbkb": lambda: ResamplingKernelUcb(
            TENSOR, 1.0, kors, FIXED, *rngs, accumulation_threshold=3.0
        ),
    }[name]()
    rng = np.random.default_rng(32)
    actions = np.linspace(0, 1, 9)[:, None]
    for _ in range(40):
        x = rng.uniform(size=2)
        a = actions[policy.choose(x, actions)]
        policy.update(x, a, math.sin(3.0 * x[0]) * a[0] + 0.1 * rng.normal())
    assert policy.history.shape == (40, 3)
    if name != "kucb":
        assert 1 < policy.dictionary.size < policy.t
    if name in ("cbkb", "cbbkb"):
        assert policy.resample_count >= 1
    ctx = np.array([0.3, 0.8])
    means, var = policy.scores(ctx, actions)
    want_m, want_v = load_perfbench("checks").dense_scores(policy, TENSOR, 1.0, ctx, actions)
    assert np.allclose(means, want_m, atol=1e-6)
    assert np.allclose(var, want_v, atol=1e-6)


@pytest.mark.parametrize("method", ["choose", "scores", "update"])
@pytest.mark.parametrize("name", ["kucb", "ekucb", "cbbkb"])
def test_a_changed_context_size_is_an_error(name, method):
    # a 2-d context with a 1-d action packs as wide a row as a 1-d context
    # with a 2-d action, so a tensor kernel would split one of them at the
    # wrong coordinate; the split is the first context's size, and a context
    # of another size is refused before it changes any state
    rngs = (np.random.default_rng(40), np.random.default_rng(41))
    kors = KorsParams(mu=1.0, gamma=3.0)
    policy = {
        "kucb": lambda: ExactKernelUcb(TENSOR, 1.0, FIXED),
        "ekucb": lambda: ProjectedKernelUcb(TENSOR, 1.0, kors, FIXED, *rngs),
        "cbbkb": lambda: ResamplingKernelUcb(
            TENSOR, 1.0, kors, FIXED, *rngs, accumulation_threshold=3.0
        ),
    }[name]()
    policy.update(np.array([0.1, 0.2]), np.array([0.3]), 0.5)
    x, actions = np.array([0.1]), np.array([[0.2, 0.3], [0.6, 0.9]])
    call = {
        "choose": lambda: policy.choose(x, actions),
        "scores": lambda: policy.scores(x, actions),
        "update": lambda: policy.update(x, actions[0], 0.5),
    }[method]
    with pytest.raises(ValueError, match="context has 1 coordinates, not 2"):
        call()
    assert policy.history.tolist() == [[0.1, 0.2, 0.3]]
    policy.update(np.array([0.4, 0.5]), np.array([0.6]), 0.5)
    assert policy.t == 2


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
    policy.update(np.array([0.1]), np.array([0.2]), 0.0)
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


@pytest.mark.parametrize("name", ["kucb", "ekucb"])
def test_theoretical_choose_passes_its_own_radius_inputs(name, monkeypatch):
    # kucb's radius is ("exact", mu = 0, d_eff = t), the projected policies'
    # ("projected", mu, d_eff = m); lam, mu and kappa differ, so no two swap
    theo = ExplorationSchedule(mode="theoretical", norm_bound=1.0, delta=0.05)
    lam, mu = 2.0, 0.5
    if name == "kucb":
        policy = ExactKernelUcb(GAUSS, lam, theo)
    else:
        policy = ProjectedKernelUcb(
            GAUSS, lam, KorsParams(mu=mu, gamma=0.5), theo,
            policy_rng=np.random.default_rng(70), kors_rng=np.random.default_rng(71),
        )
    rng = np.random.default_rng(72)
    actions = np.linspace(0, 1, 11)[:, None]
    for _ in range(30):
        x = rng.uniform(size=2)
        policy.update(x, actions[policy.choose(x, actions)], rng.normal())
    calls = []
    value = ExplorationSchedule.value

    def spy(schedule, *args):
        calls.append(args)
        return value(schedule, *args)

    monkeypatch.setattr(ExplorationSchedule, "value", spy)
    x = rng.uniform(size=2)
    idx = policy.choose(x, actions)
    kind, mu, d_eff = ("exact", 0.0, policy.t) if name == "kucb" else (
        "projected", mu, policy.dictionary.size
    )
    assert 1 < d_eff and (name == "kucb" or d_eff < policy.t)
    assert calls == [(kind, policy.t, lam, mu, GAUSS.kappa, float(d_eff))]
    means, var = policy.scores(x, actions)
    beta = theoretical_beta(kind, policy.t, lam, mu, 1.0, 0.05, GAUSS.kappa, d_eff)
    assert idx == int(np.argmax(means + beta * np.sqrt(var)))


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
