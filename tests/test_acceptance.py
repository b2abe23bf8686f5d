"""Acceptance gate: nine end-to-end checks, one test each.

Each test prints one PASS line with its measured numbers; the asserts carry
the pinned tolerances. Shared benchmark configuration: bump environment,
20-action grid, gaussian bandwidth 0.5, noise 0.1, lam = 10, the regime the
presets ship with.
"""

import math
import time

import numpy as np
import pytest

from bandit_lab.config import build_run_config
from bandit_lab.diagnostics import (
    CoverageConfig,
    coverage_test,
    effective_dimension,
    information_gain,
    prop1_bound,
    valko_dimension,
)
from bandit_lab.dictionary import (
    Dictionary,
    KorsParams,
    kors_step,
    projection_error,
)
from bandit_lab.environments import Environment, EnvSpec
from bandit_lab.harness import run_single, run_sweep
from bandit_lab.kernels import KernelSpec, StatePoint, evaluate, gram_packed
from bandit_lab.linalg import log_det_ratio
from bandit_lab.policies import (
    ExactKernelUcb,
    ExplorationSchedule,
    ProjectedKernelUcb,
)

BUMP = {
    "env.family": "bump",
    "env.action_grid": "20",
    "kernel.bandwidth": "0.5",
    "policy.lambda": "10",
    "policy.mu": "10",
    "policy.gamma": "10",
}

GAUSS = KernelSpec("gaussian", bandwidth=0.5)
FIXED = ExplorationSchedule(mode="fixed", beta=1.0)


def bump_config(**kv):
    merged = dict(BUMP)
    merged.update(kv)
    return build_run_config(merged)


def test_acceptance_1_oracle_equivalence():
    """Projected scores with a saturated dictionary equal the exact ones."""
    started = time.perf_counter()
    env = Environment(EnvSpec("bump", action_grid=20, seed=0))
    actions = env.action_grid()
    exact = ExactKernelUcb(GAUSS, lam=10.0, schedule=FIXED)
    proj = ProjectedKernelUcb(
        GAUSS,
        10.0,
        KorsParams(mu=10.0, gamma=math.inf),  # inclusion probability 1
        FIXED,
        policy_rng=np.random.default_rng(0),
        kors_rng=np.random.default_rng(1),
    )
    worst_mean = worst_var = 0.0
    agreements = 0
    for t in range(100):
        x = env.sample_context()
        idx = exact.choose(x, actions)
        if t > 0:
            em, ev = exact.scores(x, actions)
            pm, pv = proj.scores(x, actions)
            worst_mean = max(worst_mean, float(np.abs(em - pm).max()))
            worst_var = max(worst_var, float(np.abs(ev - pv).max()))
            agreements += int(proj.choose(x, actions) == idx)
        outcome = env.step(x, idx)
        exact.update(x, actions[idx], outcome.reward)
        proj.update(x, actions[idx], outcome.reward)
    elapsed = time.perf_counter() - started
    assert proj.dictionary.size == 100  # every state admitted
    assert worst_mean <= 1e-7
    assert worst_var <= 1e-7
    assert agreements == 99  # identical choices at every comparable round
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 (oracle equivalence): PASS - mean diff {worst_mean:.2e}, "
        f"var diff {worst_var:.2e}, 99/99 identical choices, {elapsed:.1f}s"
    )


def test_acceptance_2_incremental_vs_dense():
    """Every maintained inverse tracks its dense rebuild at every step."""
    started = time.perf_counter()
    lam = 10.0
    env = Environment(EnvSpec("bump", action_grid=20, seed=0))
    actions = env.action_grid()
    exact = ExactKernelUcb(GAUSS, lam=lam, schedule=FIXED)
    worst_exact = 0.0
    for _ in range(200):
        x = env.sample_context()
        idx = exact.choose(x, actions)
        outcome = env.step(x, idx)
        exact.update(x, actions[idx], outcome.reward)
        k = gram_packed(GAUSS, exact.history, exact.history)
        dense = np.linalg.inv(k + lam * np.eye(exact.t))
        worst_exact = max(
            worst_exact, float(np.linalg.norm(exact.k_lambda_inverse.matrix - dense))
        )

    env = Environment(EnvSpec("bump", action_grid=20, seed=0))
    proj = ProjectedKernelUcb(
        GAUSS,
        lam,
        KorsParams(mu=10.0, gamma=5.0),
        FIXED,
        policy_rng=np.random.default_rng(0),
        kors_rng=np.random.default_rng(1),
    )
    worst_lam = worst_kzz = worst_gam = 0.0
    for t in range(200):
        x = env.sample_context()
        idx = proj.choose(x, actions) if t else 0
        outcome = env.step(x, idx)
        proj.update(x, actions[idx], outcome.reward)
        anchors = proj.dictionary.packed
        kzz = gram_packed(GAUSS, anchors, anchors)
        kzs = gram_packed(GAUSS, anchors, proj.history)
        worst_lam = max(
            worst_lam,
            float(
                np.linalg.norm(
                    proj.lambda_inverse.matrix
                    - np.linalg.inv(kzs @ kzs.T + lam * kzz)
                )
            ),
        )
        worst_kzz = max(
            worst_kzz,
            float(
                np.linalg.norm(proj.dictionary.kzz_inverse.matrix - np.linalg.inv(kzz))
            ),
        )
        worst_gam = max(
            worst_gam, float(np.linalg.norm(proj.gamma_vec - kzs @ proj.rewards))
        )
    elapsed = time.perf_counter() - started
    assert worst_exact <= 1e-6
    assert worst_lam <= 1e-6
    assert worst_kzz <= 1e-6
    assert worst_gam <= 1e-6
    assert elapsed < 30.0
    print(
        "ACCEPTANCE 2 (incremental vs dense): PASS - (K+lamI)^-1 "
        f"{worst_exact:.2e}, Lam {worst_lam:.2e}, K_ZZ^-1 {worst_kzz:.2e}, "
        f"Gam {worst_gam:.2e}, m={proj.dictionary.size}, {elapsed:.1f}s"
    )


def test_acceptance_3_telescoping_identity():
    """1 + ||phi_t||^2 in the inverse-covariance norm telescopes the det."""
    rng = np.random.default_rng(7)
    worst = 0.0
    checks = 0
    for _ in range(100):
        n = int(rng.integers(2, 16))
        states = rng.uniform(size=(n, 6))
        full = gram_packed(GAUSS, states, states)
        for lam in (0.1, 1.0, 10.0):
            for t in range(1, n):
                prev, new = full[:t, :t], full[: t + 1, : t + 1]
                lhs = log_det_ratio(prev, new, lam)
                _, prev_det = np.linalg.slogdet(prev + lam * np.eye(t))
                _, new_det = np.linalg.slogdet(new + lam * np.eye(t + 1))
                rhs = math.exp(new_det - prev_det) / lam
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
                checks += 1
    assert worst <= 1e-7
    print(
        f"ACCEPTANCE 3 (telescoping identity): PASS - worst relative error "
        f"{worst:.2e} over {checks} steps"
    )


def test_acceptance_4_projection_error_guarantee():
    """The sampler's two promises at the theory budget, 100 seeded streams."""
    horizon = 300
    mu = 1.0
    params = KorsParams.theory_default(horizon, mu)
    log_term = math.log(2 * horizon / params.delta) ** 2
    proj_ok = size_ok = 0
    sizes = []
    for seed in range(100):
        env = Environment(EnvSpec("bump", action_grid=20, seed=1000 + seed))
        action_rng = np.random.default_rng(seed)
        d = Dictionary(mu=mu, rng=np.random.default_rng(5000 + seed))
        grid = env.action_grid()
        states = []
        for t in range(horizon):
            x = env.sample_context()
            s = StatePoint(x, grid[action_rng.integers(grid.shape[0])])
            states.append(s)
            kors_step(
                d, t, s.joint, d.cross_vector(GAUSS, s.joint, x.size), evaluate(GAUSS, s, s), params
            )
        rows = np.array([s.joint for s in states])
        proj_ok += projection_error(d, rows, GAUSS) <= mu
        d_eff = effective_dimension(gram_packed(GAUSS, rows, rows), mu)
        size_ok += d.size <= 9.0 * d_eff * log_term
        sizes.append(d.size)
    assert proj_ok >= 95
    assert size_ok >= 95
    print(
        f"ACCEPTANCE 4 (projection guarantee): PASS - projection error <= mu in "
        f"{proj_ok}/100, size bound in {size_ok}/100, median m={np.median(sizes):.0f}"
    )


def test_acceptance_5_complexity_scaling():
    """Per-step cost exponents and the total-time ordering at T = 2000."""
    # projected policy cost in the dictionary size, size pinned per sample
    rng = np.random.default_rng(11)
    actions = np.linspace(0, 1, 20)[:, None]
    sizes = [10, 20, 40, 80]
    ek_medians = []
    for m in sizes:
        policy = ProjectedKernelUcb(
            GAUSS,
            10.0,
            KorsParams(mu=10.0, gamma=math.inf),
            FIXED,
            policy_rng=np.random.default_rng(0),
            kors_rng=np.random.default_rng(1),
        )
        for _ in range(m):
            policy.update(rng.uniform(size=5), rng.uniform(size=1), rng.normal())
        assert policy.dictionary.size == m
        policy.kors = KorsParams(mu=10.0, gamma=1e-12)  # freeze the dictionary
        laps = []
        for _ in range(300):
            s = StatePoint(rng.uniform(size=5), rng.uniform(size=1))
            t0 = time.perf_counter_ns()
            policy.choose(s.context, actions)
            policy.update(s.context, s.action, float(rng.normal()))
            laps.append(time.perf_counter_ns() - t0)
        assert policy.dictionary.size == m
        ek_medians.append(float(np.median(laps)))
    ek_slope = float(np.polyfit(np.log(sizes), np.log(ek_medians), 1)[0])
    assert ek_slope <= 2.5

    # exact policy cost in the history length, plus both totals at T = 2000
    kucb = run_single(bump_config(**{"policy.name": "kucb", "run.T": "2000"}), 0)
    wall = np.array(kucb.wall_ns, dtype=float)
    anchors = list(range(100, 1001, 100))
    medians = [float(np.median(wall[a - 25 : a + 25])) for a in anchors]
    kucb_slope = float(np.polyfit(np.log(anchors), np.log(medians), 1)[0])
    assert kucb_slope >= 1.5

    ekucb = run_single(
        bump_config(
            **{"policy.name": "ekucb", "run.T": "2000", "policy.gamma": "5"}
        ),
        0,
    )
    assert ekucb.total_wall_ns < kucb.total_wall_ns
    print(
        f"ACCEPTANCE 5 (complexity scaling): PASS - projected exponent "
        f"{ek_slope:.2f} <= 2.5, exact exponent {kucb_slope:.2f} >= 1.5, "
        f"T=2000 totals {ekucb.total_wall_ns / 1e9:.1f}s (m={ekucb.final_dictionary_size})"
        f" < {kucb.total_wall_ns / 1e9:.1f}s"
    )


def test_acceptance_6_regret_ordering():
    """Budget sweep ordering and the random-policy floor at T = 1000."""
    seeds = "0,1,2,3,4"
    configs = [
        bump_config(**{"policy.name": "random", "run.T": "1000", "run.seeds": seeds}),
        bump_config(**{"policy.name": "kucb", "run.T": "1000", "run.seeds": seeds}),
    ] + [
        bump_config(
            **{
                "policy.name": "ekucb",
                "run.T": "1000",
                "run.seeds": seeds,
                "policy.mu": str(mu),
                "run.label": f"ekucb_mu{mu}",
            }
        )
        for mu in (1, 10, 100)
    ]
    cells = run_sweep(configs)
    assert all(r.error is None for c in cells for r in c.records)
    regrets = {c.config.label: c.total_regrets for c in cells}
    means = {k: float(v.mean()) for k, v in regrets.items()}
    stds = {k: float(v.std()) for k, v in regrets.items()}

    def pooled(a, b):
        return math.sqrt(0.5 * (stds[a] ** 2 + stds[b] ** 2))

    assert means["ekucb_mu1"] <= means["ekucb_mu10"] + pooled("ekucb_mu1", "ekucb_mu10")
    assert means["ekucb_mu10"] <= means["ekucb_mu100"] + pooled(
        "ekucb_mu10", "ekucb_mu100"
    )
    assert means["random"] >= 2.0 * means["kucb"]
    print(
        "ACCEPTANCE 6 (regret ordering): PASS - mu sweep "
        f"{means['ekucb_mu1']:.0f} / {means['ekucb_mu10']:.0f} / "
        f"{means['ekucb_mu100']:.0f} within pooled stds, random "
        f"{means['random']:.0f} >= 2x kucb {means['kucb']:.0f}"
    )


def test_acceptance_7_confidence_coverage():
    """The exact radius covers the true parameter on the linear task."""
    horizon = 50
    config = CoverageConfig(
        env=EnvSpec("linear_sanity", noise_sigma=0.1, seed=0),
        kernel=KernelSpec("linear", kappa=2.0),
        lam=1.0,
        delta=1.0 / horizon**2,
        horizon=horizon,
        replays=200,
    )
    coverage = coverage_test(config)
    assert coverage >= 0.95
    print(
        f"ACCEPTANCE 7 (confidence coverage): PASS - coverage {coverage:.3f} "
        f"over 200 replays at delta=1/T^2"
    )


def test_acceptance_8_diagnostics_inequalities():
    """Complexity-measure inequalities on 200 random unit-diagonal grams."""
    rng = np.random.default_rng(13)
    violations = 0
    for _ in range(200):
        t = int(rng.integers(2, 41))
        d = int(rng.integers(1, t + 6))
        phi = rng.normal(size=(t, d))
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)  # kappa = 1 exactly
        k = phi @ phi.T
        lam = float(rng.uniform(0.05, 5.0))
        horizon = int(rng.integers(50, 5001))
        d_eff = effective_dimension(k, lam)
        gain = information_gain(k, lam)
        lhs, rhs = prop1_bound(k, lam, kappa=1.0)
        d_tilde = valko_dimension(k, lam, horizon)
        chain_rhs = (
            d_tilde * (math.log(horizon) + math.log(t / lam))
            + d_tilde * math.log(horizon)
            + 1e-6
        )
        violations += d_eff > 2.0 * gain + 1e-12
        violations += lhs > rhs + 1e-9
        violations += gain > chain_rhs
    assert violations == 0
    print(
        "ACCEPTANCE 8 (diagnostics inequalities): PASS - 0 violations over "
        "200 instances x 3 inequalities"
    )


def test_acceptance_9_trace_determinism(tmp_path):
    """Replaying any (config, seed) reproduces the trace bytes exactly,
    wall-time column aside."""
    from bandit_lab.cli import main

    cfg = tmp_path / "replay.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in BUMP.items())
        + "\nrun.T = 30\nrun.seeds = 0,1\n"
    )
    compared = 0
    for policy in ("kucb", "ekucb", "cbkb", "cbbkb", "random"):
        dirs = [str(tmp_path / f"{policy}_{i}") for i in (0, 1)]
        for out in dirs:
            code = main(
                ["run", "--config", str(cfg), "--policy", policy, "--out", out]
            )
            assert code == 0
        for seed in (0, 1):
            contents = []
            for out in dirs:
                with open(f"{out}/trace_{policy}_{seed}.csv", "rb") as fh:
                    raw = fh.read().decode()
                lines = raw.splitlines()
                cols = lines[0].split(",")
                keep = [j for j, c in enumerate(cols) if c != "step_wall_time_ns"]
                contents.append(
                    "\n".join(
                        ",".join(line.split(",")[j] for j in keep)
                        for line in lines
                    ).encode()
                )
            assert contents[0] == contents[1], f"{policy} seed {seed} diverged"
            compared += 1
    print(
        f"ACCEPTANCE 9 (trace determinism): PASS - {compared} replayed traces "
        "byte-identical excluding wall time"
    )
