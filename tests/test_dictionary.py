import copy
import math

import numpy as np
import pytest

from bandit_lab import linalg
from bandit_lab.dictionary import (
    Dictionary,
    KorsParams,
    kors_resample,
    kors_step,
    leverage_score,
    projection_error,
    rebuild_dictionary,
)
from bandit_lab.kernels import KernelSpec, gram_packed
from bandit_lab.linalg import dense_spd_inverse

GAUSS = KernelSpec("gaussian", bandwidth=0.4)
CTX_DIM = 2


def random_state(rng, ctx_dim=CTX_DIM):
    """The packed (context, action) row of one state."""
    return rng.uniform(size=ctx_dim + 1)


def k_self(s):
    """k(s, s), as a policy computes it for its own update."""
    return float(gram_packed(GAUSS, s[None, :], s[None, :])[0, 0])


def score(d, s, params):
    return leverage_score(d, d.cross_vector(GAUSS, s, CTX_DIM), k_self(s), params)


def step(d, t, s, params):
    """``kors_step`` on ``s``, given its row, K_Z(s) and k(s, s) as a policy gives them."""
    kz = d.cross_vector(GAUSS, s, CTX_DIM)
    return kors_step(d, t, s, kz, k_self(s), params)


def dense_score_oracle(d, s, params, spec):
    """Augmented-dictionary estimator computed the slow, literal way:
    append s at weight one, scale by inclusion probabilities, solve densely."""
    zs = np.vstack([d.packed.reshape(-1, s.size), s])
    k = gram_packed(spec, zs, zs)
    scale = np.diag(1.0 / np.sqrt(np.array(list(d.probs) + [1.0])))
    v = scale @ gram_packed(spec, zs, s[None, :])[:, 0]
    inner = scale @ k @ scale + params.mu * np.eye(len(zs))
    q = float(v @ np.linalg.solve(inner, v))
    return 1.5 / params.mu * (k_self(s) - q)  # KORS's (1 + eps), eps = 0.5


def grown_dictionary(seed, n, mu=1.0, gamma=3.0):
    rng = np.random.default_rng(seed)
    d = Dictionary(mu=mu, rng=np.random.default_rng(seed + 1000))
    params = KorsParams(mu=mu, gamma=gamma)
    history = []
    for t in range(n):
        s = random_state(rng)
        history.append(s)
        step(d, t, s, params)
    return d, history, params


def test_empty_dictionary_score_hand_value():
    # gaussian k(s,s)=1, mu=1, eps=0.5: 1.5 * 1 / (1 + 1) = 0.75
    d = Dictionary(mu=1.0, rng=np.random.default_rng(0))
    params = KorsParams(mu=1.0)
    s = random_state(np.random.default_rng(1))
    assert score(d, s, params) == pytest.approx(0.75, abs=1e-12)


def test_leverage_score_matches_dense_oracle():
    rng = np.random.default_rng(2)
    d, _, params = grown_dictionary(3, 8)
    for _ in range(20):
        s = random_state(rng)
        mine = score(d, s, params)
        assert mine == pytest.approx(dense_score_oracle(d, s, params, GAUSS), abs=1e-8)


def test_score_of_duplicate_anchor_vanishes_at_large_mu():
    rng = np.random.default_rng(3)
    s = random_state(rng)
    for mu in (1.0, 10.0, 100.0):
        d = Dictionary(mu=mu, rng=np.random.default_rng(4))
        d.seed(s, k_self(s))
        tau = score(d, s, KorsParams(mu=mu))
        # an exactly represented point: tau = 1.5 k / (2k + mu) -> 0 as mu grows
        assert tau == pytest.approx(1.5 / (2.0 + mu), abs=1e-10)
    assert score(d, s, KorsParams(mu=100.0)) < 0.02


def test_forced_inclusion_admits_everything():
    rng = np.random.default_rng(5)
    d = Dictionary(mu=1.0, rng=np.random.default_rng(6))
    params = KorsParams(mu=1.0, gamma=math.inf)
    for t in range(30):
        assert step(d, t, random_state(rng), params)
    assert d.size == 30
    assert d.steps == list(range(30))
    assert all(p == 1.0 for p in d.probs)


def test_duplicate_candidate_rejected_not_added():
    d = Dictionary(mu=1.0, rng=np.random.default_rng(7))
    params = KorsParams(mu=1.0, gamma=math.inf)
    s = random_state(np.random.default_rng(8))
    assert step(d, 0, s, params)
    assert not step(d, 1, s, params)
    assert d.size == 1
    assert d.rejected_duplicates == 1


def test_same_seed_same_dictionary():
    a, _, _ = grown_dictionary(11, 60)
    b, _, _ = grown_dictionary(11, 60)
    assert a.size == b.size
    assert a.steps == b.steps
    assert np.allclose(a.probs, b.probs)
    assert np.allclose(a.packed, b.packed)


def test_one_coin_flip_per_step_keeps_streams_aligned():
    # two dictionaries sharing an rng seed but scoring different points must
    # consume the uniform stream at the same rate
    rng_pts = np.random.default_rng(12)
    a = Dictionary(mu=1.0, rng=np.random.default_rng(13))
    b = Dictionary(mu=1.0, rng=np.random.default_rng(13))
    slow = KorsParams(mu=1.0, gamma=0.05)  # mostly rejects
    fast = KorsParams(mu=1.0, gamma=math.inf)  # always admits
    for t in range(25):
        step(a, t, random_state(rng_pts), slow)
        step(b, t, random_state(rng_pts), fast)
    assert float(a.rng.uniform()) == pytest.approx(float(b.rng.uniform()), abs=0.0)


def test_anchors_grow_monotonically():
    rng = np.random.default_rng(14)
    d = Dictionary(mu=1.0, rng=np.random.default_rng(15))
    params = KorsParams(mu=1.0, gamma=2.0)
    seen = []
    for t in range(50):
        step(d, t, random_state(rng), params)
        assert d.size >= len(seen)
        # prefix preserved, never reordered
        assert d.packed[: len(seen)].tolist() == seen
        seen = d.packed.tolist()


def test_leverage_score_invariant_to_anchor_order():
    d, _, params = grown_dictionary(16, 25, gamma=5.0)
    order = np.random.default_rng(17).permutation(d.size)
    shuffled = rebuild_dictionary(
        d.packed[order],
        np.array(d.probs)[order],
        [d.steps[i] for i in order],
        d.mu,
        GAUSS,
        np.random.default_rng(18),
    )
    assert shuffled.size == d.size
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = random_state(rng)
        assert score(d, s, params) == pytest.approx(score(shuffled, s, params), abs=1e-9)


def test_rebuild_rejects_duplicates_like_online_admission():
    rng = np.random.default_rng(26)
    states = [random_state(rng) for _ in range(12)]
    # an exact duplicate of state 1 and a near-duplicate of state 3, whose
    # Schur complement 1 - k^2 is about 1e-13, below SINGULAR_TOL
    near = states[3] + np.array([1e-7, 1e-7, 0.0])
    states = states[:6] + [states[1], states[6], near] + states[7:]
    online = Dictionary(mu=1.0, rng=np.random.default_rng(27))
    params = KorsParams(mu=1.0, gamma=math.inf)
    for t, s in enumerate(states):
        step(online, t, s, params)
    probs = np.linspace(0.3, 1.0, len(states))
    steps = list(range(len(states)))
    d = rebuild_dictionary(
        np.array(states), probs, steps, 1.0, GAUSS, np.random.default_rng(28)
    )
    assert online.rejected_duplicates == 2
    assert d.rejected_duplicates == 2
    assert np.array_equal(d.packed, online.packed)
    assert d.steps == online.steps == [0, 1, 2, 3, 4, 5, 7] + list(range(9, 14))
    assert d.probs == [probs[i] for i in d.steps]
    kzz = gram_packed(GAUSS, d.packed, d.packed)
    weights = 1.0 / np.sqrt(np.array(d.probs))
    scaled = kzz * np.outer(weights, weights) + d.mu * np.eye(d.size)
    for mine, want in (
        (d.kzz_inverse.matrix, dense_spd_inverse(kzz).matrix),
        (d.score_inverse.matrix, dense_spd_inverse(scaled).matrix),
    ):
        assert np.linalg.norm(mine - want) <= 1e-9 * np.linalg.norm(want)


def test_resample_carries_the_replaced_dictionary_s_count():
    # a run's rejected duplicates are counted by its dictionary alone: a
    # resample adds the states its rebuild drops to the count it replaces
    rng = np.random.default_rng(26)
    states = [random_state(rng) for _ in range(8)]
    states = states[:5] + [states[1]] + states[5:] + [states[3]]
    online = Dictionary(mu=1.0, rng=np.random.default_rng(27))
    params = KorsParams(mu=1.0, gamma=math.inf)
    for t, s in enumerate(states):
        step(online, t, s, params)
    assert online.rejected_duplicates == 2
    rows = np.array(states)
    kz = gram_packed(GAUSS, rows, online.packed)
    resampled = kors_resample(online, rows, kz, np.ones(len(rows)), 9, params, GAUSS, CTX_DIM)
    assert resampled.size == 8  # gamma = inf draws every row, the rebuild drops 2
    assert resampled.rejected_duplicates == 4


def test_resample_keeps_the_top_scored_row_when_every_coin_misses():
    # at gamma = 1e-12 every coin misses; an empty dictionary could score
    # nothing, so the resample keeps the top-scored row alone, at p = 1
    d, history, _ = grown_dictionary(33, 20)
    params = KorsParams(mu=1.0, gamma=1e-12)
    rows = np.array(history)
    kz = gram_packed(GAUSS, rows, d.packed)
    kdiag = np.array([k_self(s) for s in history])
    tau = [score(d, s, params) for s in history]
    coins = copy.deepcopy(d.rng).uniform(size=len(rows))  # the draws the resample makes
    assert (coins >= params.gamma * np.array(tau)).all()
    resampled = kors_resample(d, rows, kz, kdiag, 19, params, GAUSS, CTX_DIM)
    assert np.array_equal(resampled.packed, rows[[int(np.argmax(tau))]])
    assert resampled.probs == [1.0] and resampled.steps == [19]
    assert resampled.rejected_duplicates == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: in_order_inverse restarts LAPACK after every dropped "
    "state; one pivoted factorization per resample removes this marker",
)
def test_rebuild_factorizations_do_not_grow_with_dropped_states(monkeypatch):
    real = linalg._lapack()
    calls = {"factorizations": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["factorizations"] += 1
            return fn(*args, **kwargs)

        return wrapper

    class LapackView:
        dpotrf = staticmethod(counted(real.lapack.dpotrf))

        def __getattr__(self, name):
            return getattr(real.lapack, name)

    class View:
        lapack = LapackView()
        cho_factor = staticmethod(counted(real.cho_factor))

        def __getattr__(self, name):
            return getattr(real, name)

    monkeypatch.setattr(linalg, "_lapack", View)
    rng = np.random.default_rng(31)
    drawn = [random_state(rng) for _ in range(20)]
    # exact duplicates, none last: each one dropped restarts the factorization
    one = drawn[:10] + [drawn[2]] + drawn[10:]
    five = drawn[:4] + drawn[:2] + drawn[4:12] + drawn[5:8] + drawn[12:]
    counts = []
    for states, dropped in ((one, 1), (five, 5)):
        calls["factorizations"] = 0
        probs = np.full(len(states), 0.5)
        steps = [0] * len(states)
        d = rebuild_dictionary(
            np.array(states), probs, steps, 1.0, GAUSS, np.random.default_rng(32)
        )
        assert d.rejected_duplicates == dropped
        counts.append(calls["factorizations"])
    assert counts[0] == counts[1]


def test_dictionary_size_shrinks_with_mu():
    # moderate budget so probabilities are not saturated at 1
    sizes = {}
    for mu in (0.1, 1.0, 10.0):
        acc = []
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            d = Dictionary(mu=mu, rng=np.random.default_rng(300 + seed))
            params = KorsParams(mu=mu, gamma=5.0)
            for t in range(120):
                step(d, t, random_state(rng), params)
            acc.append(d.size)
        sizes[mu] = float(np.mean(acc))
    assert sizes[1.0] <= sizes[0.1]
    assert sizes[10.0] <= sizes[1.0]


def test_projection_error_full_dictionary_is_zero():
    d, history, _ = grown_dictionary(20, 25, gamma=math.inf)
    assert d.size == len(history)
    assert projection_error(d, np.array(history), GAUSS) <= 1e-8


def test_projection_error_empty_dictionary_is_gram_top_eigenvalue():
    rng = np.random.default_rng(21)
    history = np.array([random_state(rng) for _ in range(12)])
    d = Dictionary(mu=1.0, rng=np.random.default_rng(22))
    k = gram_packed(GAUSS, history, history)
    want = float(np.linalg.eigvalsh(k)[-1])
    assert projection_error(d, history, GAUSS) == pytest.approx(want, rel=1e-10)
    assert projection_error(d, np.zeros((0, 3)), GAUSS) == 0.0


def test_projection_error_stays_below_mu_with_theory_budget():
    # the sampler's whole guarantee, checked in the small
    horizon = 80
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        d = Dictionary(mu=1.0, rng=np.random.default_rng(500 + seed))
        params = KorsParams.theory_default(horizon, mu=1.0)
        history = []
        for t in range(horizon):
            s = random_state(rng)
            history.append(s)
            step(d, t, s, params)
        if projection_error(d, np.array(history), GAUSS) > 1.0:
            failures += 1
    assert failures <= 1


def test_mu_mismatch_rejected():
    d = Dictionary(mu=1.0, rng=np.random.default_rng(23))
    s = random_state(np.random.default_rng(24))
    with pytest.raises(ValueError):
        score(d, s, KorsParams(mu=2.0))
    with pytest.raises(ValueError):
        step(d, 0, s, KorsParams(mu=2.0))


def test_params_validation():
    with pytest.raises(ValueError):
        KorsParams(mu=0.0)
    with pytest.raises(ValueError):
        KorsParams(mu=1.0, gamma=0.0)
    defaults = KorsParams.theory_default(100, mu=2.0)
    assert defaults.delta == pytest.approx(1e-4)
    assert defaults.gamma == pytest.approx(12.0 * math.log(100 / 1e-4))


def test_maintained_inverses_match_dense():
    d, _, params = grown_dictionary(25, 40, gamma=4.0)
    kzz = gram_packed(GAUSS, d.packed, d.packed)
    assert np.linalg.norm(d.kzz_inverse.matrix @ kzz - np.eye(d.size)) < 1e-7
    weights = np.diag(1.0 / np.sqrt(np.array(d.probs)))
    scaled = weights @ kzz @ weights + d.mu * np.eye(d.size)
    assert np.linalg.norm(d.score_inverse.matrix @ scaled - np.eye(d.size)) < 1e-7
