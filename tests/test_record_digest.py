"""The benchmark's records keep their bits.

Runs ``scripts/record_digest.py --check`` on the three bump workloads of the
benchmark in a subprocess; the script exits 0 only when the SHA-256 over each
workload's records equals the digest pinned in its ``PINNED`` table.  The
benchmark bounds regret per round at 5%, which lets a last-bit change on these
workloads through, so a "bit-identical" claim is checked here.  The whole of
``presets_1d`` takes about 12 s on a 2-core host and is left to a manual
``--check``; its 9 ``cbkb`` and ``cbbkb`` runs, about 0.5 s, and its 15
``ekucb`` runs cut at T = 400, about 1 s, are digested here with the script's
``digest``.  10 of those ``ekucb`` runs abort with ``NumericalDriftError``, so
a rounding change that moves an abort round shows here.  Every workload uses
a gaussian kernel, which never splits a packed row, so 16 tensor-kernel runs,
whose kernel splits each row at the context dimension, are digested too.  The
digests were taken with numpy 2.4 and scipy 1.17 and their bundled
OpenBLAS on x86-64; another BLAS build may round differently, and then they
must be taken again from a commit known to be correct.
"""

import functools
import importlib.util
import subprocess
import sys
from pathlib import Path

from bandit_lab.config import build_run_config

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "record_digest.py"

# SHA-256 over the records of presets_1d's cbkb and cbbkb runs, in job order
PRESET_RESAMPLING_SHA256 = "a9d0207bc6e06026c1147887de6d722a10faace63e4330313f33b6f47396bdea"
# the same over its ekucb runs at horizon 400
PRESET_EKUCB_400_SHA256 = "487d00774d0d26aa296101c1e19ec3479287093878d787693ec92ecf4c0d5ae2"
# the same over the tensor-kernel runs of TENSOR_CELL, in job order
TENSOR_SHA256 = "0169913c4852475675070d50e0b6b231a73c2199463a1c4dafd3ac17b3b6cd78"

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
TENSOR_ACTION_FACTORS = (
    {"kernel.action_family": "gaussian", "kernel.action_bandwidth": "0.3"},
    {"kernel.action_family": "linear"},
)


@functools.cache
def record_digest():
    """``scripts/record_digest.py`` as a module."""
    spec = importlib.util.spec_from_file_location("record_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bump_workload_records_match_the_pinned_digests():
    names = ["exact_bump", "nystrom_bump", "resample_bump"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check", *names],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_preset_resampling_records_match_the_pinned_digest():
    d = record_digest().digest("presets_1d", policies=("cbkb", "cbbkb"))
    assert (d["runs"], d["sha256"]) == (9, PRESET_RESAMPLING_SHA256)


def test_preset_ekucb_records_match_the_pinned_digest():
    d = record_digest().digest("presets_1d", horizon=400, policies=("ekucb",))
    assert (d["runs"], d["sha256"]) == (15, PRESET_EKUCB_400_SHA256)


def test_tensor_kernel_records_match_the_pinned_digest():
    # 16 runs, about 0.3 s; 3 of them abort
    configs = [
        build_run_config(
            {
                **TENSOR_CELL,
                **action,
                "policy.name": policy,
                "run.label": f"{policy}_{action['kernel.action_family']}",
            }
        )
        for action in TENSOR_ACTION_FACTORS
        for policy in ("kucb", "ekucb", "cbkb", "cbbkb")
    ]
    d = record_digest().digest_configs(configs)
    assert (d["runs"], d["completed"], d["sha256"]) == (16, 13, TENSOR_SHA256)
