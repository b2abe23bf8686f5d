#!/usr/bin/env python3
"""Outside-in benchmark for bandit_lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A run measures ``setup_s`` in fresh processes, then repeats the
workload's sweep (``run_sweep`` plus ``emit_outputs``) untraced
``max(1, round(seconds / workloads.PASS_SECONDS))`` times, then runs it once
more with the policies captured through a wrapped ``harness.build_policy``
-- and, with ``--trace 1``, with every layer wrapped by ``tracer.Tracer``.
Every pass must replay the same traces; the captured pass also yields
``score_drift``.

Standard output carries one line per metric (name, value, unit, sample
count), one JSON line with the environment, and as its last line the result:
``{"correct", "attempted", "failed", "metrics"}`` where attempted and failed
count runs and runs aborted by the policy.  ``metrics`` holds the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The exit code is 1 when a check fails or an exception escapes the harness,
and 2 when ``src/bandit_lab`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "presets_1d_baseline.json")

SETUP_REPEATS = 3
PROBE_CONTEXTS = 16

END_TO_END = (
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("policy_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("regret_per_round", "reward/round"),
    ("runs_completed", "ratio"),
    ("peak_rss_mb", "MB"),
)

# printed with the end-to-end metrics but reported under per_layer: runs_failed
# is 0 on three workloads and score_drift is round-off, so neither takes a bound
UNBOUNDED = (("runs_failed", "ratio"), ("score_drift", "ratio"))

LAYER_COUNTERS = (
    ("kernels.entries", "count"),
    ("linalg.bytes_out", "B"),
    ("linalg.errors.SingularUpdateError", "count"),
    ("linalg.errors.NearSingularExtensionError", "count"),
    ("linalg.errors.FactorizationError", "count"),
    ("linalg.jitter_retries", "count"),
    ("dictionary.admit_ratio", "ratio"),
    ("dictionary.rebuild_kept_ratio", "ratio"),
    ("dictionary.rejected_duplicates", "count"),
    ("policies.resamples", "count"),
    ("policies.drift_errors", "count"),
    ("grow.copy_bytes", "B"),
    ("harness.emit_bytes", "B"),
    ("harness.pool_busy_ratio", "ratio"),
    ("harness.queue_wait_s", "s"),
    ("trace.overhead_rounds_per_s", "1/s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    timed = [(f"{n}.{stat}", unit) for n in tracer.TIMED for stat, unit in (("calls", "count"), ("self_s", "s"))]
    return timed + list(LAYER_COUNTERS) + list(UNBOUNDED)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import bandit_lab from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bandit_lab", "__init__.py")):
        raise ProgramMissing(f"no bandit_lab package under {SRC}")
    sys.path.insert(0, SRC)
    import bandit_lab

    if not os.path.abspath(bandit_lab.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"bandit_lab imported from {bandit_lab.__file__}")
    return bandit_lab


# -- setup -----------------------------------------------------------------


def setup_probe(workload: str, horizon: int | None) -> float:
    """Import the package and build configs, environments and policies."""
    started = time.perf_counter()
    import_program()
    import bandit_lab.cli  # noqa: F401 - the entry point users start from
    from bandit_lab import harness
    from bandit_lab.environments import Environment

    for _, config in workloads.build(workload, horizon):
        for seed in config.seeds:
            Environment(config.env)
            harness.build_policy(config, seed)
    return time.perf_counter() - started


def measure_setup(workload: str, horizon: int | None) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload]
    if horizon is not None:
        cmd += ["--horizon", str(horizon)]
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


# -- environment -----------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BANDIT_LAB_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


# -- passes ----------------------------------------------------------------


class Pass:
    """One run_sweep + emit_outputs over a workload, summarized after timing."""

    def __init__(self, pairs: list, workers: int, out_dir: str):
        from bandit_lab import harness

        configs = [c for _, c in pairs]
        self.workers = harness.max_parallelism(workers)
        self.started_ns = time.perf_counter_ns()
        cells = harness.run_sweep(configs, workers)
        self.swept_ns = time.perf_counter_ns()
        self.groups: dict[str, list] = {}
        for (group, _), cell in zip(pairs, cells):
            self.groups.setdefault(group, []).append(cell)
        self.paths = []
        for group, group_cells in self.groups.items():
            self.paths += harness.emit_outputs(group_cells, os.path.join(out_dir, group))
        self.ended_ns = time.perf_counter_ns()
        self.cells = cells
        self.wall_s = (self.ended_ns - self.started_ns) / 1e9
        self._summarize(out_dir)

    def _summarize(self, out_dir: str) -> None:
        import numpy as np
        from bandit_lab import harness

        import checks

        records = [(cell.config, r) for cell in self.cells for r in cell.records]
        self.runs = len(records)
        self.aborted = sum(1 for _, r in records if r.error is not None)
        self.drift_aborts = sum(
            1 for _, r in records if (r.error or "").startswith("NumericalDriftError")
        )
        self.rounds = sum(r.rounds for _, r in records)
        self.regret = sum(r.total_regret for _, r in records)
        self.wall_ns = np.concatenate([np.asarray(r.wall_ns, dtype=float) for _, r in records])
        self.policy_s = float(self.wall_ns.sum()) / 1e9
        self.rounds_per_s = self.rounds / self.wall_s
        self.profile = [
            [group, cell.config.label, r.seed, cell.config.horizon, r.rounds, r.error]
            for group, group_cells in self.groups.items()
            for cell in group_cells
            for r in cell.records
        ]
        self.digest = checks.trace_digest(self.paths, out_dir, harness.NONDETERMINISTIC_COLUMNS)
        self.problems = checks.check_outputs(self.groups, self.paths, out_dir)
        self.emit_bytes = sum(os.path.getsize(p) for p in self.paths)
        shutil.rmtree(out_dir, ignore_errors=True)

    def replay_key(self) -> tuple:
        return (self.digest, self.rounds, self.regret, self.aborted)


def capture_policies(store: dict, patches: list) -> None:
    """Keep every policy that harness.build_policy returns, keyed by (config, seed)."""
    from bandit_lab import harness

    original = harness.build_policy

    def build_policy(config, seed):
        policy = original(config, seed)
        store[(config, seed)] = policy
        return policy

    tracer.patch_everywhere(original, build_policy, patches)


def measure_drift(run: Pass, store: dict, seed: int, limit: float | None) -> tuple[float, float, int, list[str]]:
    """Largest score errors over the completed runs of the captured pass."""
    import numpy as np
    from bandit_lab.environments import Environment

    import checks

    rng = np.random.default_rng([seed, 0xD81F7])
    mean_err = var_err = 0.0
    points = 0
    problems = []
    for cell in run.cells:
        config = cell.config
        if config.policy == "random":
            continue
        actions = Environment(config.env).action_grid()
        for r in cell.records:
            if r.error is not None:
                continue
            contexts = rng.uniform(size=(PROBE_CONTEXTS, config.env.context_dim))
            try:
                m, v, n = checks.score_drift(store[(config, r.seed)], config, contexts, actions)
            except Exception as exc:  # noqa: BLE001 - a scoring failure is a finding
                problems.append(f"{config.label}/{r.seed}: scores failed after the run: {exc!r}")
                continue
            mean_err, var_err, points = max(mean_err, m), max(var_err, v), points + n
    drift = max(mean_err, var_err)
    if limit is not None and not drift <= limit:
        problems.append(f"score_drift {drift:.3e} exceeds {limit:g}")
    return mean_err, var_err, points, problems


def layer_metrics(tr: tracer.Tracer, traced: Pass, untraced_rps: float, store: dict) -> dict:
    calls, self_ns, _ = tr.self_times()
    counts = tr.counts
    out: dict[str, tuple] = {}
    for name in tracer.TIMED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count", calls.get(name, 0))
        out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s", calls.get(name, 0))
    kors_calls = calls.get("dictionary.kors_step", 0)
    states = counts["dictionary.rebuild_states"]
    run_starts = tr.run_starts()
    run_ns = sum(s[4] - s[3] for s in tr.spans if s[2] == "harness.run_single")
    sweep_ns = traced.swept_ns - traced.started_ns
    # counters the tracer keeps under their metric names
    derived = {
        name: (counts[name], None)
        for name in (
            "kernels.entries",
            "linalg.bytes_out",
            "linalg.errors.SingularUpdateError",
            "linalg.errors.NearSingularExtensionError",
            "linalg.errors.FactorizationError",
            "linalg.jitter_retries",
            "dictionary.rejected_duplicates",
            "grow.copy_bytes",
        )
    }
    derived |= {
        "dictionary.admit_ratio": (
            counts["dictionary.kors_admits"] / kors_calls if kors_calls else 0.0,
            kors_calls,
        ),
        "dictionary.rebuild_kept_ratio": (
            counts["dictionary.rebuild_kept"] / states if states else 0.0,
            int(states),
        ),
        "policies.resamples": (sum(getattr(p, "resample_count", 0) for p in store.values()), len(store)),
        "policies.drift_errors": (traced.drift_aborts, traced.runs),
        "harness.emit_bytes": (traced.emit_bytes, len(traced.paths)),
        "harness.pool_busy_ratio": (run_ns / (sweep_ns * traced.workers), traced.runs),
        "harness.queue_wait_s": (
            statistics.fmean((s - traced.started_ns) / 1e9 for s in run_starts) if run_starts else 0.0,
            len(run_starts),
        ),
        "trace.overhead_rounds_per_s": (untraced_rps - traced.rounds_per_s, traced.rounds),
        "trace.wall_s": (traced.wall_s, 1),
        "trace.spans": (len(tr.spans), None),
    }
    units = dict(LAYER_COUNTERS)
    for name, (value, n) in derived.items():
        out[name] = (value, units[name], n)
    return out


def self_time_problems(tr: tracer.Tracer, traced: Pass) -> list[str]:
    """Self times of one thread must fit in the traced wall time."""
    _, _, per_thread = tr.self_times()
    wall_ns = traced.ended_ns - traced.started_ns
    return [
        f"thread {t}: self times {ns / 1e9:.6f} s exceed traced wall {wall_ns / 1e9:.6f} s"
        for t, ns in per_thread.items()
        if ns > wall_ns
    ]


def baseline_problems(run: Pass, horizon: int | None) -> tuple[list[str], list[str]]:
    """(problems, notes) of a presets_1d pass against the recorded baseline.

    The jobs and, unless a smoke run caps them, their horizons must match
    exactly, so the workload cannot be trimmed or re-seeded; the abort profile
    may differ and is reported, not failed.
    """
    with open(BASELINE) as fh:
        baseline = json.load(fh)["runs"]
    width = 3 if horizon is not None else 4
    jobs = [now[:width] for now in run.profile]
    recorded = [[r["preset"], r["label"], r["seed"], r["horizon"]][:width] for r in baseline]
    if jobs != recorded:
        return [f"presets_1d jobs {jobs} differ from the baseline {recorded}"], []
    if horizon is not None:
        return [], []
    return [], [
        f"{'/'.join(map(str, now[:3]))}: baseline {was['rounds']} rounds, {was['error']}; "
        f"now {now[4]} rounds, {now[5]}"
        for now, was in zip(run.profile, baseline)
        if now[4:] != [was["rounds"], was["error"]]
    ]


# -- main ------------------------------------------------------------------


def run_workload(args) -> tuple[dict, dict, list[str], list[str], int, int]:
    import numpy as np

    pairs = workloads.build(args.workload, args.horizon)
    workers = workloads.parallelism(args.workload)
    setup = measure_setup(args.workload, args.horizon)
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        count = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        timed = [Pass(pairs, workers, os.path.join(work_dir, f"pass{i}")) for i in range(count)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        store: dict = {}
        patches: list = []
        tr = tracer.Tracer() if args.trace else None
        capture_policies(store, patches)
        try:
            if tr is not None:
                tr.install()
            final = Pass(pairs, workers, os.path.join(work_dir, "captured"))
        finally:
            if tr is not None:
                tr.uninstall()
            tracer.restore(patches)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = timed + [final]
    # the captured pass only adds one dict entry per run, so it times like the
    # others; a traced pass does not
    samples = passes if tr is None else timed
    problems, notes = [], []
    for p in passes:
        problems += p.problems
        if p.replay_key() != timed[0].replay_key():
            problems.append("repeated passes disagree on traces, regret or aborts")
            break
    mean_err, var_err, points, drift_problems = measure_drift(
        final, store, args.seed, workloads.DRIFT_LIMIT.get(args.workload)
    )
    problems += drift_problems
    notes.append(f"score_drift parts: mean {mean_err!r}, relative variance {var_err!r}")
    if args.workload == "presets_1d":
        more, baseline_notes = baseline_problems(final, args.horizon)
        problems += more
        notes += baseline_notes

    def med(attr: str) -> float:
        return statistics.median(getattr(p, attr) for p in samples)

    n, first = len(samples), timed[0]
    round_ms = np.concatenate([p.wall_ns for p in samples]) / 1e6
    e2e = {
        "setup_s": (statistics.median(setup), len(setup)),
        "rounds_per_s": (med("rounds_per_s"), n),
        "policy_s": (med("policy_s"), n),
        "round_p50_ms": (float(np.percentile(round_ms, 50)), round_ms.size),
        "round_p99_ms": (float(np.percentile(round_ms, 99)), round_ms.size),
        "regret_per_round": (first.regret / max(first.rounds, 1), first.rounds),
        "runs_completed": ((first.runs - first.aborted) / first.runs, first.runs),
        "peak_rss_mb": (peak_rss_mb, 1),
        "runs_failed": (first.aborted / first.runs, first.runs),
        "score_drift": (max(mean_err, var_err), points),
    }
    units = dict(END_TO_END + UNBOUNDED)
    report = {name: (value, units[name], count) for name, (value, count) in e2e.items()}
    layers = {}
    if tr is not None:
        layers = layer_metrics(tr, final, med("rounds_per_s"), store)
        for name, _ in UNBOUNDED:
            layers[name] = report[name]
        problems += self_time_problems(tr, final)
        spans = os.path.join(OUT, f"spans-{args.workload}.csv.gz")
        tr.write_spans(spans)
        notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    attempted = sum(p.runs for p in passes)
    failed = sum(p.aborted for p in passes)
    return report, layers, problems, notes, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, help="cap run.T (smoke runs)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.horizon)))
        return 0
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    try:
        report, layers, problems, notes, attempted, failed = run_workload(args)
    except Exception:  # noqa: BLE001 - anything escaping the harness fails the run
        traceback.print_exc()
        return 1

    for name, (value, unit, n) in report.items():
        print(f"{args.workload} {name} {value!r} {unit} n={n}")
    for name, (value, unit, n) in layers.items():
        if name in report:
            continue
        print(f"{args.workload} {name} {value!r} {unit} n={n if n is not None else '-'}")
    for line in notes:
        print(f"{args.workload} note: {line}")
    for line in problems:
        print(f"{args.workload} PROBLEM: {line}")
    print(json.dumps({"workload": args.workload, "environment": environment(args.seed)}))
    chosen = layers if args.trace else {n: report[n] for n, _ in END_TO_END}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in chosen.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    try:
        print(json.dumps(result, allow_nan=False))
    except ValueError:
        print(f"{args.workload} PROBLEM: a metric is not a finite number")
        return 1
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
