"""Print one SHA-256 per benchmark workload over every record its runs produce.

Runs ``harness.run_sweep`` over each job list of ``perfbench/workloads.py``
and hashes, per record, the label, seed, chosen indices, rewards, cumulative
regret, dictionary sizes, error and the rebuild, resample and rejected-
duplicate counters.  Floats are hashed through their round-trip ``repr``, so
two trees print the same digest exactly when every run is bit-identical.
Beside each digest it prints ``regret_per_round``, the total regret of every
run, aborted runs included, over the rounds they played, as the benchmark
defines it, so a change that completes more runs shows its effect on regret.

Usage, from the root of a checkout::

    python scripts/record_digest.py [--check] [WORKLOAD ...]

With no names it digests all four workloads, which take about 20 s on a
2-core host, most of it ``presets_1d``; named workloads are digested alone,
in the order given, and an unknown name exits with status 2.  It imports
``bandit_lab`` from the checkout's ``src/`` and the job lists from its
``perfbench/``, and writes nothing.

``--check`` also compares each digest with the one pinned in ``PINNED``
below, prints ``MISMATCH`` beside each that differs, and exits with status 1
if any does, so "every record bit-identical" is one command.  The pinned
digests were taken with numpy 2.4 and scipy 1.17 and their bundled OpenBLAS
on x86-64, as ``tests/test_emitted_bytes.py`` takes its own.  Another BLAS
build, CPU kernel or thread count may round differently; on such a machine a
mismatch says nothing about the change, and the reference digests must be
taken again there from a commit known to be correct (run this script without
``--check`` on it).  A change that alters records on purpose re-pins them and
says so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from bandit_lab import harness  # noqa: E402

# every workload's records at a commit known to be correct; see the docstring
PINNED = {
    "exact_bump": "216346591b34d69a9a0e96f1c93598571258ea1e4e3372918414c340bce7a3c6",
    "nystrom_bump": "cc47902adf5d3d26984a0a32f5f64910bf52cfabb0ca9d37e95ea9b95f0b427f",
    "resample_bump": "2b8e71a469efcdc1afb51441b71d009b69a228fcaba47eecdcd8e08405d620f2",
    "presets_1d": "84cf2dd8ad9e7848faf59376f9f74f57eaf3338805f5f6a64438967b89b48a7d",
}


def record_fields(config, record) -> list:
    return [
        config.label,
        record.seed,
        [int(i) for i in record.chosen],
        [float(r) for r in record.rewards],
        [float(r) for r in record.cumulative_regret],
        [int(m) for m in record.dictionary_sizes],
        record.error,
        record.rebuilds,
        record.resamples,
        record.rejected_duplicates,
    ]


def digest(workload: str, horizon: int | None = None, policies=None) -> dict:
    """``digest_configs`` over a workload's jobs, cut at ``horizon``, of ``policies``."""
    return digest_configs(
        [
            config
            for _, config in workloads.build(workload, horizon)
            if policies is None or config.policy in policies
        ]
    )


def digest_configs(configs) -> dict:
    """Run counts, regret per round and the SHA-256 over the records of ``configs``."""
    sha = hashlib.sha256()
    runs = completed = rounds = 0
    regret = 0.0
    for cell in harness.run_sweep(configs):
        for record in cell.records:
            sha.update(json.dumps(record_fields(cell.config, record)).encode())
            runs += 1
            completed += record.error is None
            rounds += record.rounds
            regret += record.total_regret
    return {
        "runs": runs,
        "completed": completed,
        "rounds": rounds,
        "regret_per_round": regret / max(rounds, 1),
        "sha256": sha.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Digest the benchmark workloads' records.")
    parser.add_argument(
        "--check", action="store_true", help="exit 1 unless every digest equals the pinned one"
    )
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args()
    names = args.workloads or workloads.WORKLOADS
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    mismatched = 0
    for name in names:
        d = digest(name)
        line = (
            f"{name}: runs={d['runs']} completed={d['completed']} "
            f"rounds={d['rounds']} regret_per_round={d['regret_per_round']:.4f} "
            f"sha256={d['sha256']}"
        )
        if args.check and d["sha256"] != PINNED[name]:
            mismatched += 1
            line += f" MISMATCH pinned={PINNED[name]}"
        print(line, flush=True)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
