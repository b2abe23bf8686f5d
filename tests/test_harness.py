import csv
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from bandit_lab import linalg
from bandit_lab.config import build_run_config
from bandit_lab.dictionary import KorsParams, rebuild_dictionary
from bandit_lab.harness import (
    COUNTERS,
    NONDETERMINISTIC_COLUMNS,
    TRACE_COLUMNS,
    SweepCell,
    build_policy,
    diagnostic_checkpoints,
    emit_outputs,
    max_parallelism,
    resolve_gamma,
    run_single,
    run_sweep,
    write_diagnostics,
    write_trace,
)
from bandit_lab.linalg import (
    FactorizationError,
    NearSingularExtensionError,
    SingularUpdateError,
    schur_extend,
    sherman_morrison_update,
)
from bandit_lab.policies import (
    ExactKernelUcb,
    NumericalDriftError,
    ProjectedKernelUcb,
    ResamplingKernelUcb,
    UniformRandomPolicy,
)


def small_config(**kv):
    text = {
        "env.action_grid": "15",
        "kernel.bandwidth": "0.5",
        "policy.lambda": "10",
        "policy.mu": "10",
        "policy.gamma": "10",
        "run.T": "25",
    }
    text.update(kv)
    return build_run_config(text)


def record_fingerprint(record):
    """Everything that must replay exactly; wall time excluded by design."""
    return (
        record.chosen,
        record.rewards,
        record.instant_regret,
        record.cumulative_regret,
        record.dictionary_sizes,
        record.error,
    )


def test_build_policy_dispatch():
    assert isinstance(build_policy(small_config(), 0), ExactKernelUcb)
    proj = build_policy(small_config(**{"policy.name": "ekucb"}), 0)
    assert type(proj) is ProjectedKernelUcb
    cbbkb = build_policy(small_config(**{"policy.name": "cbbkb"}), 0)
    assert isinstance(cbbkb, ResamplingKernelUcb)
    assert cbbkb.accumulation_threshold == 10.0
    cbkb = build_policy(small_config(**{"policy.name": "cbkb"}), 0)
    assert cbkb.accumulation_threshold == 1.0  # resample every round
    assert isinstance(
        build_policy(small_config(**{"policy.name": "random"}), 0),
        UniformRandomPolicy,
    )


def test_resolve_gamma():
    assert resolve_gamma(small_config()) == 10.0
    unset = replace(small_config(), gamma=None)
    assert resolve_gamma(unset) == KorsParams.theory_default(
        unset.horizon, unset.mu
    ).gamma


def test_run_single_replays_identically():
    config = small_config(**{"policy.name": "ekucb"})
    a, b = run_single(config, 3), run_single(config, 3)
    assert record_fingerprint(a) == record_fingerprint(b)
    assert a.rounds == config.horizon
    assert a.error is None


def test_run_seed_changes_everything():
    config = small_config(**{"policy.name": "ekucb"})
    a, b = run_single(config, 0), run_single(config, 1)
    assert a.rewards != b.rewards  # env stream folds the run seed in
    assert a.chosen != b.chosen


def test_record_accounting():
    config = small_config()
    record = run_single(config, 0)
    assert record.rounds == 25
    assert record.total_regret == pytest.approx(sum(record.instant_regret))
    assert record.cumulative_regret == pytest.approx(
        np.cumsum(record.instant_regret).tolist()
    )
    assert all(r >= 0 for r in record.instant_regret)
    assert record.dictionary_sizes == [0] * 25  # exact policy has no dictionary
    assert record.total_wall_ns > 0
    assert record.final_dictionary_size == 0


def test_dictionary_sizes_track_projected_policy():
    config = small_config(**{"policy.name": "ekucb", "run.dump_dictionary": "true"})
    record = run_single(config, 0)
    sizes = record.dictionary_sizes
    assert sizes[0] == 1  # the bootstrap anchor
    assert all(b - a in (0, 1) for a, b in zip(sizes, sizes[1:]))
    assert record.dictionary_rows is not None
    assert len(record.dictionary_rows) == sizes[-1]
    index, step, prob = record.dictionary_rows[0][:3]
    assert index == 0 and step == 0 and prob == 1.0


def test_run_single_counts_rebuilds_and_resamples(monkeypatch):
    # one singular rank-one update, at the tenth round, forces one rebuild
    calls = []

    def singular_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 10:
            raise SingularUpdateError("forced")
        return sherman_morrison_update(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr("bandit_lab.policies.sherman_morrison_update", singular_once)
        ekucb = run_single(small_config(**{"policy.name": "ekucb"}), 0)
    assert ekucb.error is None and len(calls) == ekucb.rounds
    assert ekucb.counters["rebuilds_singular_update"] == 1
    assert ekucb.counters["rebuilds_indefinite_admission"] == 0
    assert "resamples" not in ekucb.counters
    cbkb = run_single(small_config(**{"policy.name": "cbkb"}), 0)
    assert cbkb.counters["rebuilds_singular_update"] == 0
    assert cbkb.counters["resamples"] == cbkb.rounds - 1
    # a linear kernel has rank at most the joint dimension, so each resample
    # drops most of the states it offers as duplicates; the run counts the
    # drops of every dictionary, not only of the last one
    dropped = []

    def counted(*args, **kwargs):
        d = rebuild_dictionary(*args, **kwargs)
        dropped.append(d.rejected_duplicates)
        return d

    monkeypatch.setattr("bandit_lab.dictionary.rebuild_dictionary", counted)
    config = small_config(**{"policy.name": "cbkb", "kernel.family": "linear"})
    cbkb = run_single(config, 0)
    assert cbkb.error is None and len(dropped) == cbkb.counters["resamples"] == cbkb.rounds - 1
    assert cbkb.counters["rejected_duplicates"] == sum(dropped) > max(dropped)


def test_run_single_marks_failures(monkeypatch):
    # a policy that cannot be constructed is a fault, not an abort: it leaves
    # run_single and the sweep, whose other cells are not run
    config = small_config(**{"policy.name": "cbbkb"})
    ran = []

    def build_or_fail(cfg, seed):
        ran.append(cfg.policy)
        if cfg.policy == "cbbkb":
            raise ValueError("policy construction failed")
        return build_policy(cfg, seed)

    monkeypatch.setattr("bandit_lab.harness.build_policy", build_or_fail)
    with pytest.raises(ValueError, match="construction"):
        run_single(config, 0)
    with pytest.raises(ValueError, match="construction"):
        run_sweep([small_config(**{"run.seeds": "0"}), config, small_config()])
    assert ran == ["cbbkb", "kucb", "cbbkb"]


@pytest.mark.parametrize(
    "exc",
    [NumericalDriftError("drift"), FactorizationError("singular"), RuntimeError("bug")],
    ids=["drift", "linalg", "bug"],
)
def test_only_a_drift_abort_ends_a_run_with_its_record(monkeypatch, exc):
    # NumericalDriftError and LinalgError end the run and keep the rounds
    # played and the counters; any other exception raised inside a round is a
    # fault and leaves the sweep
    update = ProjectedKernelUcb.update

    def fail_at_round_8(self, *args):
        if self.t == 8:
            raise exc
        update(self, *args)

    monkeypatch.setattr(ProjectedKernelUcb, "update", fail_at_round_8)
    config = small_config(**{"policy.name": "ekucb", "run.seeds": "0,1"})
    if isinstance(exc, RuntimeError):
        with pytest.raises(RuntimeError, match="bug"):
            run_sweep([config])
        return
    (cell,) = run_sweep([config])
    error = f"{type(exc).__name__}: {exc}"
    assert [(r.rounds, r.error) for r in cell.records] == [(8, error)] * 2
    assert cell.total_regrets.size == 0  # aborted runs never enter statistics
    assert set(cell.records[0].counters) == set(COUNTERS) - {"resamples"}


def fails_at(n, real, exc):
    """``real``, except that its n-th call raises ``exc``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise exc
        return real(*args, **kwargs)

    return wrapped


class FirstCholeskyFails:
    """``scipy.linalg``, except that its first ``cho_factor`` fails, as on a singular matrix."""

    def __init__(self, real):
        self.real = real
        self.cho_factor = fails_at(1, real.cho_factor, np.linalg.LinAlgError("forced"))

    def __getattr__(self, name):
        return getattr(self.real, name)


def test_summary_counts_every_recovery_path(tmp_path, monkeypatch):
    # each run forces a recovery path, and summary.csv's column reads its count
    def indefinite_third_admission():
        return {"policies.schur_extend": fails_at(3, schur_extend, NearSingularExtensionError("x"))}

    first_cholesky_fails = FirstCholeskyFails(linalg._lapack())
    runs = {  # label: (config keys, patches, counters other than rejected_duplicates)
        "singular": (
            {"policy.name": "ekucb"},
            {"policies.sherman_morrison_update": fails_at(
                10, sherman_morrison_update, SingularUpdateError("x")
            )},
            (1, 0, 0, 0),
        ),
        "indefinite": ({"policy.name": "ekucb"}, indefinite_third_admission(), (0, 1, 0, 0)),
        # the rebuild's Lam fails its first Cholesky and takes the jittered retry
        "jittered": (
            {"policy.name": "ekucb"},
            {**indefinite_third_admission(), "linalg._lapack": lambda: first_cholesky_fails},
            (0, 1, 1, 0),
        ),
        "resampled": ({"policy.name": "cbkb"}, {}, (0, 0, 0, 24)),
        # a linear kernel spans the 6-d joint space with 6 anchors and refuses the rest
        "duplicates": ({"policy.name": "ekucb", "kernel.family": "linear"}, {}, (0, 0, 0, 0)),
    }
    cells = []
    for label, (keys, patches, _) in runs.items():
        config = small_config(**keys, **{"run.label": label, "run.seeds": "0"})
        with monkeypatch.context() as patch:
            for name, value in patches.items():
                patch.setattr(f"bandit_lab.{name}", value)
            record = run_single(config, 0)
        assert record.error is None and record.rounds == 25
        cells.append(SweepCell(config, [record]))
    emit_outputs(cells, str(tmp_path))
    with open(tmp_path / "summary.csv") as fh:
        rows = {row["label"]: row for row in csv.DictReader(fh)}
    for label, (_, _, counts) in runs.items():
        assert tuple(int(rows[label][name]) for name in COUNTERS[:4]) == counts, label
    assert int(rows["duplicates"]["rejected_duplicates"]) > 0
    assert cells[-1].records[0].final_dictionary_size == 6


def test_summary_header_is_the_same_whatever_policies_ran(tmp_path):
    def sweep(names):
        configs = [small_config(**{"policy.name": n, "run.label": n, "run.T": "6"}) for n in names]
        cells = run_sweep(configs)
        emit_outputs(cells, str(tmp_path / "_".join(names)))
        with open(tmp_path / "_".join(names) / "summary.csv") as fh:
            return fh.readline(), cells

    few, _ = sweep(("kucb", "random"))
    every, cells = sweep(("kucb", "ekucb", "cbkb", "cbbkb", "random"))
    assert few == every and few.rstrip("\n").endswith(",errors," + ",".join(COUNTERS))
    # every name a policy reports has its column, and every column a reporter
    reported = {name for cell in cells for r in cell.records for name in r.counters}
    assert reported == set(COUNTERS)


def test_sweep_runs_each_cell_on_the_calling_thread_in_job_order(monkeypatch):
    calls = []

    def recording_run_single(config, seed):
        calls.append((threading.get_ident(), config.label, seed))
        return run_single(config, seed)

    monkeypatch.setattr("bandit_lab.harness.run_single", recording_run_single)
    configs = [
        small_config(**{"policy.name": name, "run.label": name, "run.seeds": "2,0,1"})
        for name in ("kucb", "ekucb", "random")
    ]
    cells = run_sweep(configs, 8)
    assert calls == [
        (threading.get_ident(), config.label, seed)
        for config in configs
        for seed in config.seeds
    ]
    assert [[r.seed for r in cell.records] for cell in cells] == [[2, 0, 1]] * 3
    assert max_parallelism(8) == max_parallelism(None) == 1


def test_trace_round_trip(tmp_path):
    record = run_single(small_config(**{"policy.name": "ekucb"}), 2)
    path = tmp_path / "trace.csv"
    write_trace(record, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == record.rounds
    assert tuple(rows[0]) == TRACE_COLUMNS
    for i, row in enumerate(rows):
        assert int(row["t"]) == i + 1
        assert int(row["chosen_action_index"]) == record.chosen[i]
        # repr round-trips floats exactly, so equality is exact
        assert float(row["reward"]) == record.rewards[i]
        assert float(row["cumulative_regret"]) == record.cumulative_regret[i]
        assert int(row["dictionary_size"]) == record.dictionary_sizes[i]


def strip_wall_columns(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = [rows[0].index(c) for c in NONDETERMINISTIC_COLUMNS]
    return [
        [v for j, v in enumerate(row) if j not in drop]
        for row in rows
        if not row[0].startswith("#")
    ]


def test_traces_are_deterministic_modulo_wall_time(tmp_path):
    config = small_config(**{"policy.name": "cbbkb"})
    for name in ("a.csv", "b.csv"):
        write_trace(run_single(config, 4), str(tmp_path / name))
    assert strip_wall_columns(tmp_path / "a.csv") == strip_wall_columns(
        tmp_path / "b.csv"
    )


def test_aborted_trace_carries_reason(tmp_path):
    from bandit_lab.harness import RunRecord

    record = RunRecord(label="x", policy="kucb", seed=0)
    record.error = "RuntimeError: boom"
    write_trace(record, str(tmp_path / "t.csv"))
    text = (tmp_path / "t.csv").read_text()
    assert text.splitlines()[-1] == "# aborted: RuntimeError: boom"


def test_emit_outputs(tmp_path):
    configs = [
        small_config(**{"policy.name": "kucb", "run.seeds": "0,1"}),
        small_config(
            **{
                "policy.name": "ekucb",
                "run.seeds": "0,1",
                "run.label": "sparse",
                "run.dump_dictionary": "true",
            }
        ),
    ]
    cells = run_sweep(configs)
    written = emit_outputs(cells, str(tmp_path))
    names = {os.path.basename(p) for p in written}
    assert {
        "trace_kucb_0.csv",
        "trace_kucb_1.csv",
        "trace_sparse_0.csv",
        "trace_sparse_1.csv",
        "dictionary_sparse_0.csv",
        "dictionary_sparse_1.csv",
        "summary.csv",
        "regret.svg",
        "time.svg",
    } == names
    assert all(os.path.exists(p) for p in written)
    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["label"] for r in rows] == ["kucb", "sparse"]
    for row in rows:
        assert int(row["errors"]) == 0
        assert float(row["mean_total_regret"]) >= 0.0
        assert float(row["mean_total_wall_s"]) > 0.0
        assert [row[name] for name in COUNTERS[:4]] == ["0"] * 4
    assert tuple(rows[0])[-5:] == COUNTERS
    assert rows[0]["rejected_duplicates"] == "0"
    assert float(rows[1]["mean_final_dictionary_size"]) > 0
    with open(tmp_path / "dictionary_sparse_0.csv") as fh:
        dict_rows = list(csv.DictReader(fh))
    assert set(dict_rows[0]) == {
        "anchor_index",
        "step_added",
        "inclusion_prob",
        "coord_0",
        "coord_1",
        "coord_2",
        "coord_3",
        "coord_4",
        "coord_5",
    }
    svg = (tmp_path / "regret.svg").read_text()
    assert svg.count("<polyline") == 2  # one mean curve per cell


def test_diagnostic_checkpoints():
    points = diagnostic_checkpoints(1000)
    assert points[0] == 10
    assert points[-1] == 1000
    assert points == sorted(set(points))
    ratios = [b / a for a, b in zip(points[:-2], points[1:-1])]
    assert all(1.3 < r < 2.1 for r in ratios)
    assert diagnostic_checkpoints(5) == [5]


def test_write_diagnostics(tmp_path):
    config = small_config(**{"run.T": "40"})
    path = write_diagnostics(config, str(tmp_path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(diagnostic_checkpoints(40))
    ts = [int(r["t"]) for r in rows]
    assert ts[-1] == 40
    d_effs = [float(r["d_eff"]) for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(d_effs, d_effs[1:]))
    for row in rows:
        assert float(row["lambda"]) == 10.0
        assert float(row["prop1_lhs"]) <= float(row["prop1_rhs"]) + 1e-9
        assert 2.0 * float(row["info_gain"]) >= float(row["d_eff"]) - 1e-9
        assert not math.isnan(float(row["valko_d"]))
