"""The bump workloads' records keep their bits.

Runs ``scripts/record_digest.py --check`` on the three bump workloads of the
benchmark in a subprocess; the script exits 0 only when the SHA-256 over each
workload's records equals the digest pinned in its ``PINNED`` table.  The
benchmark bounds regret per round at 5%, which lets a last-bit change on these
workloads through, so a "bit-identical" claim is checked here.  ``presets_1d``
takes about 12 s on a 2-core host and is left to a manual ``--check``.  The
digests were taken with numpy 2.4 and scipy 1.17 and their bundled OpenBLAS on
x86-64; another BLAS build may round differently, and then they must be taken
again from a commit known to be correct.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bump_workload_records_match_the_pinned_digests():
    script = ROOT / "scripts" / "record_digest.py"
    names = ["exact_bump", "nystrom_bump", "resample_bump"]
    proc = subprocess.run(
        [sys.executable, str(script), "--check", *names],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
