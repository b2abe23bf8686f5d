import csv
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from bandit_lab.config import build_run_config
from bandit_lab.dictionary import KorsParams, rebuild_dictionary
from bandit_lab.harness import (
    NONDETERMINISTIC_COLUMNS,
    TRACE_COLUMNS,
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
from bandit_lab.linalg import SingularUpdateError, sherman_morrison_update
from bandit_lab.policies import (
    ExactKernelUcb,
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
    assert (ekucb.rebuilds, ekucb.resamples) == (1, 0)
    cbkb = run_single(small_config(**{"policy.name": "cbkb"}), 0)
    assert (cbkb.rebuilds, cbkb.resamples) == (0, cbkb.rounds - 1)
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
    assert cbkb.error is None and len(dropped) == cbkb.resamples == cbkb.rounds - 1
    assert cbkb.rejected_duplicates == sum(dropped) > max(dropped)


def test_run_single_marks_failures(monkeypatch):
    # a policy that cannot be constructed fails before the first round
    config = small_config(**{"policy.name": "cbbkb"})

    def build_or_fail(cfg, seed):
        if cfg.policy == "cbbkb":
            raise ValueError("policy construction failed")
        return build_policy(cfg, seed)

    monkeypatch.setattr("bandit_lab.harness.build_policy", build_or_fail)
    with pytest.raises(ValueError):
        run_single(config, 0)
    cells = run_sweep([config, small_config()])
    assert all(r.error is not None for r in cells[0].records)
    assert all(r.error is None for r in cells[1].records)
    assert cells[0].total_regrets.size == 0  # failed runs never enter statistics


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
        assert (row["rebuilds"], row["resamples"]) == ("0", "0")
    assert list(rows[0])[-3:] == ["rebuilds", "resamples", "rejected_duplicates"]
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
