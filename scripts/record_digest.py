"""Digest the records of pinned run sets and check them against one table.

A set is a fixed job list: each benchmark workload of ``perfbench/workloads.py``
under its own name, and three defined below: ``presets_1d:resampling`` (its 9
``cbkb`` and ``cbbkb`` runs), ``presets_1d:ekucb@400`` (its 15 ``ekucb`` runs
cut at T = 400) and ``tensor`` (16 runs of a tensor kernel, which, unlike the
workloads' gaussian one, splits each packed row at the context dimension).
Per set it prints the runs completed, the rounds, the regret per round (as the
benchmark defines it: total regret over rounds played, aborted runs included)
and one SHA-256 over every record's label, seed, chosen indices, rewards,
cumulative regret, dictionary sizes, error and rebuild, resample and
rejected-duplicate counters, floats by their round-trip ``repr``: two trees
print the same digest exactly when every run is bit-identical.  Usage, from
the root of a checkout (about 20 s on a 2-core host for the four workloads,
the default; an unknown name exits with status 2; nothing is written)::

    python scripts/record_digest.py [--check] [WORKLOAD ...]

``--check`` compares each set with its entry in ``tests/pinned_records.json``:
the whole-set SHA-256 and one row per run (label, seed, rounds, error, regret
per round, final dictionary size ``m``, the three counters and a SHA-256 of
the chosen indices).  For a set that differs it prints ``MISMATCH``, each
moved run's changed fields (pinned -> new), the pinned totals and the set's
new entry in the table's layout, and exits with status 1.  A change that
alters records on purpose pastes each printed entry over the old one and
says so in ``CHANGES.md``.

The table was taken with numpy 2.4 and scipy 1.17 and their bundled OpenBLAS
on x86-64, as were ``tests/test_emitted_bytes.py``'s file digests.  Another
BLAS build, CPU kernel or thread count may round differently; there a
mismatch says nothing about a change, and the pins must be taken again from a
commit known to be correct.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from bandit_lab import harness  # noqa: E402
from bandit_lab.config import build_run_config  # noqa: E402

TABLE = ROOT / "tests" / "pinned_records.json"

# a bump cell with a 2-d context, where only a tensor kernel reads the
# context/action split of the packed rows
TENSOR_CELL = {
    "env.family": "bump",
    "env.context_dim": "2",
    "env.action_grid": "9",
    "kernel.family": "tensor",
    "kernel.context_family": "gaussian",
    "kernel.context_bandwidth": "0.5",
    "policy.lambda": "1",
    "policy.mu": "1",
    "policy.gamma": "3",
    "policy.accumulation_threshold": "3",
    "run.T": "80",
    "run.seeds": "0,1",
}
TENSOR_ACTIONS = (
    {"kernel.action_family": "gaussian", "kernel.action_bandwidth": "0.3"},
    {"kernel.action_family": "linear"},
)


def jobs(workload: str, horizon: int | None = None, policies=None) -> list:
    """A workload's configs, cut at ``horizon``, of ``policies``, in job order."""
    pairs = workloads.build(workload, horizon)
    return [config for _, config in pairs if policies is None or config.policy in policies]


def tensor_jobs() -> list:
    return [
        build_run_config({**TENSOR_CELL, **action, "policy.name": policy,
                          "run.label": f"{policy}_{action['kernel.action_family']}"})
        for action in TENSOR_ACTIONS
        for policy in ("kucb", "ekucb", "cbkb", "cbbkb")
    ]


# every set's job list, by name, the workloads first; the test suite checks
# every set but the whole of presets_1d
SETS = {
    **{name: functools.partial(jobs, name) for name in workloads.WORKLOADS},
    "presets_1d:resampling": functools.partial(jobs, "presets_1d", policies=("cbkb", "cbbkb")),
    "presets_1d:ekucb@400": functools.partial(jobs, "presets_1d", 400, ("ekucb",)),
    "tensor": tensor_jobs,
}


def entry(configs) -> dict:
    """The SHA-256 over the records of ``configs`` and one row per run."""
    sha, runs = hashlib.sha256(), []
    for cell in harness.run_sweep(configs):
        for r in cell.records:
            chosen = [int(i) for i in r.chosen]
            sha.update(json.dumps([
                cell.config.label, r.seed, chosen, [float(x) for x in r.rewards],
                [float(x) for x in r.cumulative_regret], [int(m) for m in r.dictionary_sizes],
                r.error, r.rebuilds, r.resamples, r.rejected_duplicates,
            ]).encode())
            runs.append({
                "label": cell.config.label, "seed": r.seed, "rounds": r.rounds, "error": r.error,
                "regret_per_round": float(r.total_regret) / max(r.rounds, 1),
                "m": r.final_dictionary_size, "rebuilds": r.rebuilds, "resamples": r.resamples,
                "rejected_duplicates": r.rejected_duplicates,
                "chosen_sha256": hashlib.sha256(json.dumps(chosen).encode()).hexdigest(),
            })
    return {"sha256": sha.hexdigest(), "runs": runs}


def totals(runs: list) -> str:
    rounds = sum(row["rounds"] for row in runs)
    regret = sum(row["regret_per_round"] * row["rounds"] for row in runs) / max(rounds, 1)
    completed = sum(row["error"] is None for row in runs)
    return f"{completed} of {len(runs)} completed, {rounds:,} rounds, {regret:.4f} regret per round"


def check(pinned: dict, new: dict) -> list:
    """``(pinned row, new row)`` per run that moved, in job order; ``None`` for no run."""
    pairs = itertools.zip_longest(pinned["runs"], new["runs"])
    return [(old, row) for old, row in pairs if old != row]


def moved_line(old: dict | None, new: dict | None) -> str:
    row = old or new
    if old is None or new is None:
        return f"  {row['label']} seed {row['seed']}: {'added' if old is None else 'gone'}"
    return f"  {row['label']} seed {row['seed']}: " + ", ".join(
        "chosen actions" if key == "chosen_sha256" else f"{key} {old.get(key)!r} -> {value!r}"
        for key, value in new.items()
        if old.get(key) != value
    )


def entry_text(name: str, new: dict) -> str:
    """``name``'s entry as ``tests/pinned_records.json`` lays it out, one line per run."""
    rows = ",\n".join(f"      {json.dumps(row)}" for row in new["runs"])
    return f'  "{name}": {{\n    "sha256": "{new["sha256"]}",\n    "runs": [\n{rows}\n    ]\n  }}'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest pinned run sets' records.")
    parser.add_argument("--check", action="store_true", help="exit 1 unless they match the table")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    names = args.workloads or workloads.WORKLOADS
    unknown = [name for name in names if name not in SETS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(SETS)}")
    table = json.loads(TABLE.read_text()) if args.check else {}
    mismatched = 0
    for name in names:
        new = entry(SETS[name]())
        print(f"{name}: {totals(new['runs'])}, sha256 {new['sha256']}", flush=True)
        pinned = table.get(name, {"sha256": None, "runs": []})
        moved = check(pinned, new)
        if args.check and (moved or pinned["sha256"] != new["sha256"]):
            mismatched += 1
            print(f"MISMATCH {name}: {len(moved)} run(s) moved",
                  *itertools.starmap(moved_line, moved),
                  f"  pinned: {totals(pinned['runs'])}, sha256 {pinned['sha256']}",
                  f"new entry:\n{entry_text(name, new)}", sep="\n", flush=True)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
