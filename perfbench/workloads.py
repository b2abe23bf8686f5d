"""The benchmark's workloads, built through bandit_lab's public config API.

Each workload is a list of ``(group, RunConfig)`` pairs.  All configs of a
workload go through one ``run_sweep`` call; ``emit_outputs`` then writes each
group into its own directory, as the CLI does for one sweep file.

The bump cells share the ROADMAP Baseline settings: 5-D context, a 20-action
grid, bandwidth 0.5 and lambda = mu = 10, run seed 0.  Their horizons are
shorter than the Baseline's so that one run repeats each pass five times
within the time budget.  Their run seeds are fixed: over run seeds 0-5 the
per-round regret of one ``kucb`` cell ranges from 0.001 to 0.37, because the
seed also draws the hidden bump, so no affordable number of seeded runs gives
a steady median.  The benchmark seed draws the ``score_drift`` probe contexts
instead.

``presets_1d`` runs every non-``kucb`` variant of the shipped
``chessboard_sweep`` and ``stepdiag_sweep`` presets at their shipped settings
and seeds; ``presets_1d_baseline.json`` pins that job list and records which
jobs aborted at the commit that added the benchmark.
"""

from __future__ import annotations

import os

WORKLOADS = ("exact_bump", "nystrom_bump", "resample_bump", "presets_1d")

PRESETS_1D = ("chessboard_sweep", "stepdiag_sweep")

# largest score_drift accepted as correct.  presets_1d has none: its runs
# drift until most abort, which runs_failed and score_drift report
DRIFT_LIMIT = {"exact_bump": 1e-4, "nystrom_bump": 1e-4, "resample_bump": 1e-4}

# nominal wall seconds of one warm pass on a 2-core x86 host; a run makes
# max(1, round(seconds / PASS_SECONDS)) timed passes, so the pass count, and
# with it the share of cold passes, is the same on every run of a workload
PASS_SECONDS = {"exact_bump": 2.5, "nystrom_bump": 2.5, "resample_bump": 2.5, "presets_1d": 21.0}

_BUMP = {
    "env.family": "bump",
    "env.context_dim": "5",
    "env.action_grid": "20",
    "env.noise_sigma": "0.1",
    "env.seed": "0",
    "kernel.family": "gaussian",
    "kernel.bandwidth": "0.5",
    "policy.lambda": "10",
    "policy.mu": "10",
    "policy.beta": "1.0",
    "run.seeds": "0",
}

# (label, overrides) per bump workload
_BUMP_CELLS = {
    "exact_bump": (("kucb_T850", {"policy.name": "kucb", "run.T": "850"}),),
    "nystrom_bump": (
        ("ekucb_g5_T1400", {"policy.name": "ekucb", "policy.gamma": "5", "run.T": "1400"}),
    ),
    "resample_bump": (
        ("cbbkb_g10_T700", {"policy.name": "cbbkb", "policy.gamma": "10", "run.T": "700"}),
        ("cbkb_g10_T110", {"policy.name": "cbkb", "policy.gamma": "10", "run.T": "110"}),
    ),
}


def preset_text(name: str) -> str:
    from importlib import resources

    return resources.files("bandit_lab").joinpath("presets", f"{name}.cfg").read_text()


def build(workload: str, horizon: int | None = None) -> list:
    """``(group, RunConfig)`` pairs; ``horizon`` caps run.T for smoke runs."""
    from bandit_lab.config import build_run_config, expand_variants, parse_config_text

    pairs = []
    if workload == "presets_1d":
        for preset in PRESETS_1D:
            base, variants = parse_config_text(preset_text(preset))
            if horizon is not None:
                base["run.T"] = str(min(int(base.get("run.T", "100")), horizon))
            pairs += [(preset, c) for c in expand_variants(base, variants) if c.policy != "kucb"]
        return pairs
    if workload not in _BUMP_CELLS:
        raise ValueError(f"unknown workload {workload!r}")
    for label, overrides in _BUMP_CELLS[workload]:
        kv = dict(_BUMP, **overrides, **{"run.label": label})
        if horizon is not None:
            kv["run.T"] = str(min(int(kv["run.T"]), horizon))
        pairs.append((workload, build_run_config(kv)))
    return pairs


def parallelism(workload: str) -> int:
    """One run at a time for the bump cells; every core for the presets."""
    return (os.cpu_count() or 1) if workload == "presets_1d" else 1
