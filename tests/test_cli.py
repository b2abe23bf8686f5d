import csv
import json
import os

import pytest

from bandit_lab.cli import main
from bandit_lab.policies import NumericalDriftError, ResamplingKernelUcb

BASE = """
env.family = bump
env.action_grid = 12
kernel.bandwidth = 0.5
policy.name = kucb
policy.lambda = 10
policy.mu = 10
policy.gamma = 10
run.T = 15
run.seeds = 0
"""

SWEEP = BASE + """
variant.exact = policy.name=kucb
variant.sparse = policy.name=ekucb run.dump_dictionary=true
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE)
    return str(path)


def test_run_writes_outputs(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_file, "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert os.path.join(out, "trace_kucb_0.csv") in printed
    assert os.path.join(out, "summary.csv") in printed
    assert os.path.exists(os.path.join(out, "regret.svg"))


def test_flag_overrides_reach_the_run(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "run",
            "--config", config_file,
            "--out", out,
            "--policy", "ekucb",
            "--T", "9",
            "--seeds", "4,5",
            "--set", "run.label=probe",
            "--dump-dictionary",
        ]
    )
    assert code == 0
    capsys.readouterr()
    for seed in (4, 5):
        with open(os.path.join(out, f"trace_probe_{seed}.csv")) as fh:
            assert len(list(csv.DictReader(fh))) == 9
        assert os.path.exists(os.path.join(out, f"dictionary_probe_{seed}.csv"))


def test_sweep_runs_every_variant(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP)
    out = str(tmp_path / "out")
    code = main(["sweep", "--config", str(cfg), "--out", out])
    assert code == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "trace_exact_0.csv"))
    assert os.path.exists(os.path.join(out, "trace_sparse_0.csv"))
    assert os.path.exists(os.path.join(out, "dictionary_sparse_0.csv"))
    with open(os.path.join(out, "summary.csv")) as fh:
        assert {r["label"] for r in csv.DictReader(fh)} == {"exact", "sparse"}


def test_diag_writes_complexity_table(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["diag", "--config", config_file, "--out", out]) == 0
    path = capsys.readouterr().out.strip()
    assert path == os.path.join(out, "diagnostics.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and int(rows[-1]["t"]) == 15


def test_presets_are_loadable(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "run",
            "--config", "bump_sweep",
            "--out", out,
            "--T", "10",
            "--seeds", "0",
            "--set", "env.action_grid=10",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_unknown_config_is_a_json_error(capsys):
    assert main(["run", "--config", "no_such_file"]) == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert "no_such_file" in payload["error"]


def test_bad_key_is_a_json_error(config_file, capsys):
    assert main(["run", "--config", config_file, "--set", "policy.lamda=1"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert "policy.lamda" in payload["error"]


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_failed_run_exits_nonzero(verb, config_file, tmp_path, capsys, monkeypatch):
    def fail(self, s, reward):
        raise NumericalDriftError("injected")

    # the run ends inside its loop, as a drifting policy's would
    monkeypatch.setattr(ResamplingKernelUcb, "update", fail)
    out = str(tmp_path / "out")
    code = main(
        [
            verb,
            "--config", config_file,
            "--out", out,
            "--policy", "cbbkb",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "aborted" in json.loads(captured.err.strip())["error"]
    # the trace and summary still exist for post-mortem reading
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_run_twice_traces_identical_up_to_wall_time(config_file, tmp_path, capsys):
    outs = [str(tmp_path / name) for name in ("first", "second")]
    for out in outs:
        assert main(["run", "--config", config_file, "--out", out,
                     "--policy", "ekucb"]) == 0
    capsys.readouterr()

    def stripped(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        wall = rows[0].index("step_wall_time_ns")
        return [[v for j, v in enumerate(r) if j != wall] for r in rows]

    a = stripped(os.path.join(outs[0], "trace_ekucb_0.csv"))
    b = stripped(os.path.join(outs[1], "trace_ekucb_0.csv"))
    assert a == b
