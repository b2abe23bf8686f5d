"""Experiment runner: seeded loops, sweeps, CSV traces, and SVG figures.

A run is one (config, seed) cell: T rounds of sample-context / choose / step /
update with per-round wall time measured around the policy work only.  Random
streams are split so that the policy and the sampler depend on the run seed
alone while the environment also folds in its own seed; replaying any cell
is bit-reproducible, which the test suite asserts.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .config import RunConfig
from .diagnostics import complexity_report
from .dictionary import KorsParams
from .environments import Environment
from .kernels import gram_packed
from .policies import (
    ExactKernelUcb,
    ProjectedKernelUcb,
    ResamplingKernelUcb,
    UniformRandomPolicy,
)

TRACE_COLUMNS = (
    "t",
    "chosen_action_index",
    "reward",
    "instantaneous_regret",
    "cumulative_regret",
    "dictionary_size",
    "step_wall_time_ns",
)

# wall-clock columns are the only nondeterministic ones; tests strip them
NONDETERMINISTIC_COLUMNS = ("step_wall_time_ns",)


def _env_for_run(config: RunConfig, seed: int) -> Environment:
    # fold the run seed into the environment stream; the policy streams below
    # use the run seed only, so changing env.seed never moves a coin flip
    spec = replace(config.env, seed=config.env.seed + 1_000_003 * seed)
    return Environment(spec)


def resolve_gamma(config: RunConfig) -> float:
    if config.gamma is not None:
        return config.gamma
    return KorsParams.theory_default(config.horizon, config.mu).gamma


def build_policy(config: RunConfig, seed: int):
    policy_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    kors_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1C7]))
    if config.policy == "kucb":
        return ExactKernelUcb(config.kernel, config.lam, config.schedule)
    if config.policy == "random":
        return UniformRandomPolicy(policy_rng)
    kors = KorsParams(mu=config.mu, gamma=resolve_gamma(config))
    if config.policy == "ekucb":
        return ProjectedKernelUcb(
            config.kernel,
            config.lam,
            kors,
            config.schedule,
            policy_rng,
            kors_rng,
        )
    # cbkb is the resampling baseline pinned to an every-round threshold
    threshold = 1.0 if config.policy == "cbkb" else config.accumulation_threshold
    return ResamplingKernelUcb(
        config.kernel,
        config.lam,
        kors,
        config.schedule,
        policy_rng,
        kors_rng,
        accumulation_threshold=threshold,
    )


@dataclass
class RunRecord:
    label: str
    policy: str
    seed: int
    chosen: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    instant_regret: list[float] = field(default_factory=list)
    cumulative_regret: list[float] = field(default_factory=list)
    dictionary_sizes: list[int] = field(default_factory=list)
    wall_ns: list[int] = field(default_factory=list)
    error: str | None = None
    rebuilds: int = 0
    resamples: int = 0
    rejected_duplicates: int = 0
    dictionary_rows: list[tuple] | None = None

    @property
    def rounds(self) -> int:
        return len(self.chosen)

    @property
    def total_regret(self) -> float:
        return self.cumulative_regret[-1] if self.cumulative_regret else 0.0

    @property
    def total_wall_ns(self) -> int:
        return int(sum(self.wall_ns))

    @property
    def final_dictionary_size(self) -> int:
        return self.dictionary_sizes[-1] if self.dictionary_sizes else 0


def run_single(config: RunConfig, seed: int) -> RunRecord:
    """One seeded run; failures abort the loop and mark the partial record."""
    env = _env_for_run(config, seed)
    policy = build_policy(config, seed)
    actions = env.action_grid()
    record = RunRecord(label=config.label, policy=config.policy, seed=seed)
    cum = 0.0
    for _ in range(config.horizon):
        x = env.sample_context()
        try:
            started = time.perf_counter_ns()
            idx = policy.choose(x, actions)
            mid = time.perf_counter_ns()
            outcome = env.step(x, idx)
            resumed = time.perf_counter_ns()
            policy.update(x, actions[idx], outcome.reward)
            finished = time.perf_counter_ns()
        except Exception as exc:  # noqa: BLE001 - any policy failure ends the run
            record.error = f"{type(exc).__name__}: {exc}"
            break
        cum += outcome.best_value - outcome.chosen_value
        record.chosen.append(idx)
        record.rewards.append(outcome.reward)
        record.instant_regret.append(outcome.best_value - outcome.chosen_value)
        record.cumulative_regret.append(cum)
        record.dictionary_sizes.append(policy.dictionary_size)
        record.wall_ns.append((mid - started) + (finished - resumed))
    record.rebuilds = sum(getattr(policy, "rebuilds", {}).values())
    record.resamples = getattr(policy, "resample_count", 0)
    record.rejected_duplicates = getattr(policy, "rejected_duplicates", 0)
    if config.dump_dictionary and hasattr(policy, "dictionary"):
        d = policy.dictionary  # the columns emit_outputs' header names
        record.dictionary_rows = [
            (i, d.steps[i], d.probs[i], *d.packed[i].tolist()) for i in range(d.size)
        ]
    return record


@dataclass
class SweepCell:
    config: RunConfig
    records: list[RunRecord]

    def _complete(self) -> list[RunRecord]:
        return [r for r in self.records if r.error is None]

    @property
    def total_regrets(self) -> np.ndarray:
        return np.array([r.total_regret for r in self._complete()])

    @property
    def total_wall_ns(self) -> np.ndarray:
        return np.array([float(r.total_wall_ns) for r in self._complete()])

    @staticmethod
    def _curves(per_run: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, mean, std) over runs of one equally long curve per run."""
        if not per_run:
            return np.zeros(0), np.zeros(0), np.zeros(0)
        curves = np.array(per_run)
        t = np.arange(1, curves.shape[1] + 1)
        return t, curves.mean(axis=0), curves.std(axis=0)

    def regret_curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, mean, std) of cumulative regret across completed seeds."""
        return self._curves([r.cumulative_regret for r in self._complete()])

    def time_curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, mean, std) of cumulative policy wall time in seconds."""
        return self._curves([np.cumsum(r.wall_ns) / 1e9 for r in self._complete()])


def max_parallelism(requested: int | None = None) -> int:
    """Cells a sweep runs at once: always one, whatever is requested."""
    return 1


def run_sweep(configs: list[RunConfig], parallelism: int | None = None) -> list[SweepCell]:
    """Run every (config, seed) cell in job order, one at a time, on this thread.

    ``parallelism`` is accepted for the benchmark's caller and not used.  A
    crashed cell is reported in its record and does not stop its neighbors.
    """
    cells = []
    for config in configs:
        records = []
        for seed in config.seeds:
            try:
                record = run_single(config, seed)
            except Exception as exc:  # noqa: BLE001 - isolate infrastructure failures too
                error = f"{type(exc).__name__}: {exc}"
                record = RunRecord(config.label, config.policy, seed, error=error)
            records.append(record)
        cells.append(SweepCell(config, records))
    return cells


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: str, rows, footer: tuple[str, ...] = ()) -> None:
    """The header line, one comma-joined line per row, then any footer lines."""
    lines = [header]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    lines.extend(footer)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace(record: RunRecord, path: str) -> None:
    rows = zip(
        range(1, record.rounds + 1),
        record.chosen,
        record.rewards,
        record.instant_regret,
        record.cumulative_regret,
        record.dictionary_sizes,
        record.wall_ns,
    )
    aborted = () if record.error is None else (f"# aborted: {record.error}",)
    write_csv(path, ",".join(TRACE_COLUMNS), rows, aborted)


def emit_outputs(cells: list[SweepCell], out_dir: str) -> list[str]:
    """Write traces, summary, figures, and optional dictionary dumps.

    Returns the paths written, relative order stable across replays.
    """
    from . import svgplot

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for cell in cells:
        for record in cell.records:
            path = os.path.join(out_dir, f"trace_{record.label}_{record.seed}.csv")
            write_trace(record, path)
            written.append(path)
            if record.dictionary_rows is not None:
                dpath = os.path.join(
                    out_dir, f"dictionary_{record.label}_{record.seed}.csv"
                )
                width = len(record.dictionary_rows[0]) - 3 if record.dictionary_rows else 0
                header = "anchor_index,step_added,inclusion_prob," + ",".join(
                    f"coord_{j}" for j in range(width)
                )
                write_csv(dpath, header, record.dictionary_rows)
                written.append(dpath)
    summary_path = os.path.join(out_dir, "summary.csv")
    summary = []
    for cell in cells:
        regrets = cell.total_regrets
        walls = cell.total_wall_ns / 1e9
        sizes = np.array([r.final_dictionary_size for r in cell.records if r.error is None])
        summary.append(
            (
                cell.config.label,
                cell.config.policy,
                len(cell.records),
                float(regrets.mean()) if regrets.size else math.nan,
                float(regrets.std()) if regrets.size else math.nan,
                float(walls.mean()) if walls.size else math.nan,
                float(walls.std()) if walls.size else math.nan,
                float(sizes.mean()) if sizes.size else math.nan,
                sum(1 for r in cell.records if r.error is not None),
                sum(r.rebuilds for r in cell.records),
                sum(r.resamples for r in cell.records),
                sum(r.rejected_duplicates for r in cell.records),
            )
        )
    header = (
        "label,policy,seeds,mean_total_regret,std_total_regret,"
        "mean_total_wall_s,std_total_wall_s,mean_final_dictionary_size,errors,"
        "rebuilds,resamples,rejected_duplicates"
    )
    write_csv(summary_path, header, summary)
    written.append(summary_path)

    regret_fig = svgplot.Figure("Cumulative regret", "round", "regret")
    time_fig = svgplot.Figure("Cumulative policy wall time", "round", "seconds")
    for cell in cells:
        t, mean, std = cell.regret_curves()
        if t.size:
            regret_fig.series.append(svgplot.Series(cell.config.label, t, mean, std))
        t, mean, std = cell.time_curves()
        if t.size:
            time_fig.series.append(svgplot.Series(cell.config.label, t, mean, std))
    for name, fig in (("regret.svg", regret_fig), ("time.svg", time_fig)):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(svgplot.render(fig))
        written.append(path)
    return written


def diagnostic_checkpoints(horizon: int) -> list[int]:
    """Geometrically spaced round indices ending at the horizon."""
    first = min(10, horizon)
    points = set([horizon])
    value = float(first)
    while value < horizon:
        points.add(int(round(value)))
        value *= 1.7
    return sorted(points)


def write_diagnostics(config: RunConfig, out_dir: str) -> str:
    """Replay the first seed, then report complexity measures at checkpoints."""
    os.makedirs(out_dir, exist_ok=True)
    seed = config.seeds[0]
    record = run_single(config, seed)
    if record.error is not None:
        raise RuntimeError(f"replay failed: {record.error}")
    # contexts come from their own substream, so a fresh environment draws the
    # run's contexts again whatever the policy chose
    env = _env_for_run(config, seed)
    contexts = [env.sample_context() for _ in range(record.rounds)]
    packed = np.hstack([np.array(contexts), env.action_grid()[record.chosen]])
    ctx_dim = config.env.context_dim
    rows = []
    for t in diagnostic_checkpoints(config.horizon):
        k = gram_packed(config.kernel, packed[:t], packed[:t], context_dim=ctx_dim)
        report = complexity_report(
            k, config.lam, config.kernel.kappa, max(config.horizon, 2)
        )
        rows.append(astuple(report))  # (t, lam, d_eff, ...) in field order
    path = os.path.join(out_dir, "diagnostics.csv")
    write_csv(path, "t,lambda,d_eff,info_gain,valko_d,prop1_lhs,prop1_rhs", rows)
    return path
