"""Print one SHA-256 per benchmark workload over every record its runs produce.

Runs ``harness.run_sweep`` over each job list of ``perfbench/workloads.py``
and hashes, per record, the label, seed, chosen indices, rewards, cumulative
regret, dictionary sizes, error and the rebuild, resample and rejected-
duplicate counters.  Floats are hashed through their round-trip ``repr``, so
two trees print the same digest exactly when every run is bit-identical.

Usage, from the root of a checkout::

    python scripts/record_digest.py [WORKLOAD ...]

With no names it digests all four workloads, which take about 20 s on a
2-core host, most of it ``presets_1d``; named workloads are digested alone,
in the order given, and an unknown name exits with status 2.  It imports
``bandit_lab`` from the checkout's ``src/`` and the job lists from its
``perfbench/``, and writes nothing.
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


def digest(workload: str) -> dict:
    configs = [config for _, config in workloads.build(workload)]
    sha = hashlib.sha256()
    runs = completed = rounds = 0
    for cell in harness.run_sweep(configs):
        for record in cell.records:
            sha.update(json.dumps(record_fields(cell.config, record)).encode())
            runs += 1
            completed += record.error is None
            rounds += record.rounds
    return {"runs": runs, "completed": completed, "rounds": rounds, "sha256": sha.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description="Digest the benchmark workloads' records.")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    names = parser.parse_args().workloads or workloads.WORKLOADS
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    for name in names:
        d = digest(name)
        print(
            f"{name}: runs={d['runs']} completed={d['completed']} "
            f"rounds={d['rounds']} sha256={d['sha256']}",
            flush=True,
        )


if __name__ == "__main__":
    main()
