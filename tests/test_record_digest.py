"""The benchmark's records keep their bits.

Runs ``scripts/record_digest.py --check`` on the three bump workloads of the
benchmark in a subprocess; the script exits 0 only when the SHA-256 over each
workload's records equals the digest pinned in its ``PINNED`` table.  The
benchmark bounds regret per round at 5%, which lets a last-bit change on these
workloads through, so a "bit-identical" claim is checked here.  The whole of
``presets_1d`` takes about 12 s on a 2-core host and is left to a manual
``--check``; its 9 ``cbkb`` and ``cbbkb`` runs, about 0.5 s, and its 15
``ekucb`` runs cut at T = 400, about 1 s, are digested here with the script's
``record_fields``.  10 of those ``ekucb`` runs abort with
``NumericalDriftError``, so a rounding change that moves an abort round shows
here.  The digests were taken with numpy 2.4 and scipy 1.17 and their bundled
OpenBLAS on x86-64; another BLAS build may round differently, and then they
must be taken again from a commit known to be correct.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "record_digest.py"

# SHA-256 over the records of presets_1d's cbkb and cbbkb runs, in job order
PRESET_RESAMPLING_SHA256 = "a9d0207bc6e06026c1147887de6d722a10faace63e4330313f33b6f47396bdea"
# the same over its ekucb runs at horizon 400
PRESET_EKUCB_400_SHA256 = "487d00774d0d26aa296101c1e19ec3479287093878d787693ec92ecf4c0d5ae2"


def test_bump_workload_records_match_the_pinned_digests():
    names = ["exact_bump", "nystrom_bump", "resample_bump"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check", *names],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def preset_digest(policies, horizon=None):
    """Run count and SHA-256 over presets_1d's runs of ``policies``, in job order."""
    spec = importlib.util.spec_from_file_location("record_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = [
        config
        for _, config in script.workloads.build("presets_1d", horizon)
        if config.policy in policies
    ]
    sha, runs = hashlib.sha256(), 0
    for cell in script.harness.run_sweep(configs):
        for record in cell.records:
            sha.update(json.dumps(script.record_fields(cell.config, record)).encode())
            runs += 1
    return runs, sha.hexdigest()


def test_preset_resampling_records_match_the_pinned_digest():
    assert preset_digest(("cbkb", "cbbkb")) == (9, PRESET_RESAMPLING_SHA256)


def test_preset_ekucb_records_match_the_pinned_digest():
    assert preset_digest(("ekucb",), horizon=400) == (15, PRESET_EKUCB_400_SHA256)
