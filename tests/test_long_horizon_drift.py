"""Incremental posterior state against a dense one, after 2,000 rounds.

The policies keep their inverses up to date by rank-one and bordering steps,
never by a fresh solve.  This replays the acceptance bump cell to T = 2000 and
compares ``policy.scores`` on probe contexts with the dense posterior that the
benchmark's ``perfbench/checks.py`` builds by solves from the run's data,
under the benchmark's own drift limit.
"""

import numpy as np
import pytest

from bandit_lab import harness
from bandit_lab.config import build_run_config
from bandit_lab.environments import Environment
from perfbench_loader import load_perfbench


@pytest.mark.parametrize(
    "policy",
    [
        "cbbkb",
        pytest.param(
            "ekucb",
            marks=pytest.mark.xfail(
                strict=True,
                reason="incremental Lambda drifts to a relative variance error of "
                "4.0e-4 by T = 2000 (ROADMAP item 2)",
            ),
        ),
    ],
)
def test_scores_track_the_dense_posterior_at_t_2000(policy, monkeypatch):
    checks, workloads = load_perfbench("checks"), load_perfbench("workloads")
    config = build_run_config(
        {
            "env.family": "bump",
            "env.action_grid": "20",
            "kernel.bandwidth": "0.5",
            "policy.name": policy,
            "policy.lambda": "10",
            "policy.mu": "10",
            "policy.gamma": "10",
            "run.T": "2000",
        }
    )
    original = harness.build_policy
    built = []

    def capture(config, seed):
        built.append(original(config, seed))
        return built[-1]

    monkeypatch.setattr(harness, "build_policy", capture)
    record = harness.run_single(config, 0)
    assert record.error is None and record.rounds == 2000

    contexts = np.random.default_rng(5).uniform(size=(10, config.env.context_dim))
    actions = Environment(config.env).action_grid()
    mean_err, var_err, _ = checks.score_drift(built[0], config, contexts, actions)
    print(f"{policy}: mean error {mean_err:.2e}, relative variance error {var_err:.2e}")
    assert max(mean_err, var_err) <= workloads.DRIFT_LIMIT["nystrom_bump"]
