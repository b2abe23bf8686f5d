"""The pinned run sets keep their records, and a moved run is named.

Runs ``scripts/record_digest.py --check`` on every set but ``presets_1d``,
one test per group of sets (about 10 s in all; see the script's docstring
for the sets, the table ``tests/pinned_records.json`` and the BLAS build the
pins hold for).  The benchmark bounds regret per round at 5%, which lets a last-bit change
through, so a "bit-identical" claim is checked here.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_digest.py"
spec = importlib.util.spec_from_file_location("record_digest", SCRIPT)
record_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_digest)


def assert_sets_match(*names):
    """``record_digest.py --check`` on ``names`` exits 0; its report on failure."""
    args = [sys.executable, str(SCRIPT), "--check", *names]
    proc = subprocess.run(args, capture_output=True, text=True, cwd=SCRIPT.parents[1])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bump_workload_records_match_the_pinned_digests():
    assert_sets_match("exact_bump", "nystrom_bump", "resample_bump")


def test_preset_resampling_records_match_the_pinned_digest():
    # presets_1d's 9 cbkb and cbbkb runs, about 0.5 s
    assert_sets_match("presets_1d:resampling")


def test_preset_ekucb_records_match_the_pinned_digest():
    # presets_1d's 15 ekucb runs cut at T = 400, about 1 s; 10 abort
    assert_sets_match("presets_1d:ekucb@400")


def test_tensor_kernel_records_match_the_pinned_digest():
    # 16 runs, about 0.3 s; 3 of them abort
    assert_sets_match("tensor")


def test_the_tests_check_every_set_but_the_whole_of_presets_1d():
    checked = {"exact_bump", "nystrom_bump", "resample_bump", "presets_1d:resampling",
               "presets_1d:ekucb@400", "tensor"}
    assert set(record_digest.SETS) - checked == {"presets_1d"}


def test_check_names_the_runs_that_moved(tmp_path, monkeypatch, capsys):
    pinned = json.loads(record_digest.TABLE.read_text())["tensor"]
    new = record_digest.entry(record_digest.tensor_jobs())
    assert record_digest.check(pinned, new) == []
    altered = copy.deepcopy(pinned)
    row = altered["runs"][5]
    row["rounds"] += 1
    row["chosen_sha256"] = "0" * 64
    assert record_digest.check(altered, new) == [(row, new["runs"][5])]
    monkeypatch.setattr(record_digest, "TABLE", tmp_path / "pinned.json")
    record_digest.TABLE.write_text(json.dumps({"tensor": altered}))
    assert record_digest.main(["--check", "tensor"]) == 1
    out = capsys.readouterr().out
    label, seed, rounds = row["label"], row["seed"], row["rounds"]
    assert f"{label} seed {seed}: rounds {rounds} -> {rounds - 1}, chosen actions\n" in out
    assert record_digest.entry_text("tensor", new) in out
    with pytest.raises(SystemExit) as exit_:
        record_digest.main(["tensor:nope"])
    assert exit_.value.code == 2
