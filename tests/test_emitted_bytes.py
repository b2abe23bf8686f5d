"""The files a fixed small sweep writes keep their bytes.

One sweep covers every policy with dictionary dumps on and one record marked
aborted; ``emit_outputs`` and ``write_diagnostics`` write its files.  A second
sweep runs three short cells of the shipped presets that take the recovery
paths the first never reaches: dense rebuilds, rejected near-duplicates,
resamples and a drift abort.  Each file's SHA-256, taken after dropping the
wall-clock columns, must equal the digest pinned below, so a refactor that
changes one emitted bit, or the layout of one file, fails here.  ``time.svg`` plots wall time only and is not
pinned.  The digests hold for one BLAS build: ``scripts/record_digest.py``'s
docstring says which, and what to do on another.
"""

import hashlib
import os
from dataclasses import replace
from importlib import resources

from bandit_lab.config import build_run_config, expand_variants, parse_config_text
from bandit_lab.harness import emit_outputs, run_sweep, write_diagnostics

POLICIES = ("kucb", "ekucb", "cbkb", "cbbkb", "random")

# columns that hold wall-clock time, per file name prefix
WALL_COLUMNS = {
    "trace_": ("step_wall_time_ns",),
    "summary.csv": ("mean_total_wall_s", "std_total_wall_s"),
}

DIGESTS = {
    "diagnostics.csv": "0a00c6195205bd0e453d686c36ab22eb4667e6c73ab32e7d5ee39fd92420334f",
    "dictionary_cbbkb_0.csv": "01614b86b74356b12bc6439dcaffec25b85fb8c2a350d0ad08c6f8d799b0c30c",
    "dictionary_cbbkb_1.csv": "22a5b18c940bfbc1acb6a389d354a7a61661033a8ed36e5b857fb8c90ff9baf8",
    # re-pinned when the batch resample took leverage_score's kz / sqrt_probs
    # weighting: the last bits of some inclusion probabilities moved, no action
    "dictionary_cbkb_0.csv": "ef827e77bd0243f4cb44cd1417b081f41772ddae987ed93d1cf83a088cd599f8",
    "dictionary_cbkb_1.csv": "c744ebe48fb9af43b7e9182853091cee0ae0cc6c5da3f47f5d1d53a177eb8056",
    "dictionary_ekucb_0.csv": "6cf09ba9d416b0b785f17cf1729cab107602dfa79cf4d3ab46ca2e1ab0a0c402",
    "dictionary_ekucb_1.csv": "c43f3ed8c4100efd03966d37f14f5266ce018be08f4de390c08d4b3aae316aca",
    "regret.svg": "0f717da87417aab38ffdf6fa5929624ff72f13ccaae7bfd2961ca3df59f20a06",
    "summary.csv": "ca677d2032bef2f4e9dc839772e0487352f7cf925bb8f5df2f92d1377a04b855",
    "trace_cbbkb_0.csv": "cb4d862809cc20711e7a93041c87b8d13ef2539fb7d25e48387947196bbef776",
    "trace_cbbkb_1.csv": "53001520ebd864c9dff690ad2e3843b92e526d129f04a786cef52c8ad93ac620",
    "trace_cbkb_0.csv": "3d9f9a80b56afdece7b84f4549f3b9ad4bee2e67111fe051ca47b6838f644842",
    "trace_cbkb_1.csv": "68331558eb23cf189b0496236dab63d9dbba22d4a9cb09683ac121c4d6044ae2",
    "trace_ekucb_0.csv": "3d9f9a80b56afdece7b84f4549f3b9ad4bee2e67111fe051ca47b6838f644842",
    "trace_ekucb_1.csv": "97ac3c17713a48068a2dfaa0b5a287dff839850446c0591bd5874a6b6f2527b2",
    "trace_kucb_0.csv": "f090f8b7868aed6480ca8d1121dcbdb51a1c17b353047b57e11702804ea06c93",
    "trace_kucb_1.csv": "76ee9612060cce4e79adc7bd6d3de34ec6321fe9aecabeb4f2322671b251bc19",
    "trace_random_0.csv": "b24a2e2ac4d4af9bbbba16aabb09b551aab808936c08c2754fc8d1712c29521f",
    "trace_random_1.csv": "177ae41dabc1d70d2066a8638d4a4df0439c7391d020ee530aa407f52c973c7b",
}

# (preset, variant, seed): each runs at its preset settings until its policy
# aborts with NumericalDriftError, well short of the preset's 2,000 rounds
RECOVERY_CELLS = (
    # an ekucb cell that rebuilds and rejects near-duplicates before it aborts
    ("stepdiag_sweep", "ekucb_mu1", 2),
    ("chessboard_sweep", "cbkb", 2),
    ("stepdiag_sweep", "cbbkb_c10", 2),
)

# (rounds, rebuilds, resamples, rejected duplicates) of each recovery cell
RECOVERY_COUNTS = [(51, 5, 0, 9), (26, 0, 25, 10), (120, 0, 1, 39)]

# re-pinned when the projected update went to one rule per step: one
# Sherman-Morrison product, k(s, s) from diag_packed, plain column doubling
# and the dense score inverse by division.  cbkb's trace kept its bytes and
# its dump moved in the last bits of the inclusion probabilities
RECOVERY_DIGESTS = {
    "dictionary_cbbkb_c10_2.csv": "51fdd970b7ded257f01e07c63e19392d4646bc918b30ee5d79da325522a42003",
    "dictionary_cbkb_2.csv": "c01f745f28cbdaaef5ba1a31b6aa4fba1297c73129115932b1000e33496a9331",
    "dictionary_ekucb_mu1_2.csv": "9eda8a49cf0d1258772f545bfcd451be29209ba49f40c3b62b5ba3ef20f46f8d",
    "regret.svg": "32979ba379ae6d2c6c25ffad2cbf0d130b899842430f7aef6d5e6315255706e8",
    "summary.csv": "4b146a08bd7073f6b059c4d9b6c83d4478b3af93d1b58f4764c7475e6e2cfa67",
    "trace_cbbkb_c10_2.csv": "53184059e5a7942a9147de6f8eda419118180cd12e85ddda7609be510b7deeac",
    "trace_cbkb_2.csv": "5b5960378589ceb49dd21a05c3ef3a6e6ca0412e9235309014c22928be5773e2",
    "trace_ekucb_mu1_2.csv": "f1695a50be0ef784e00f0e3f7f49f7c09855ad16c0d014466a02002e53142452",
}


def sweep_configs():
    return [
        build_run_config(
            {
                "env.action_grid": "15",
                "kernel.bandwidth": "0.5",
                "policy.name": name,
                "policy.lambda": "10",
                "policy.mu": "10",
                "policy.gamma": "10",
                "policy.accumulation_threshold": "2",
                "run.T": "30",
                "run.seeds": "0,1",
                "run.label": name,
                "run.dump_dictionary": "true",
            }
        )
        for name in POLICIES
    ]


def mark_aborted(record, rounds: int, error: str) -> None:
    """Cut a record to its first rounds and mark it as a policy abort."""
    for name in (
        "chosen",
        "rewards",
        "instant_regret",
        "cumulative_regret",
        "dictionary_sizes",
        "wall_ns",
    ):
        del getattr(record, name)[rounds:]
    record.error = error


def without_wall_columns(name: str, text: str) -> str:
    drop = next((cols for prefix, cols in WALL_COLUMNS.items() if name.startswith(prefix)), ())
    lines = text.split("\n")
    header = lines[0].split(",")
    keep = [i for i, col in enumerate(header) if col not in drop]
    return "\n".join(
        line if line.startswith("#") or not line else ",".join(line.split(",")[i] for i in keep)
        for line in lines
    )


def digests(out_dir: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "time.svg":
            continue
        with open(os.path.join(out_dir, name)) as fh:
            text = without_wall_columns(name, fh.read())
        found[name] = hashlib.sha256(text.encode()).hexdigest()
    return found


def test_emitted_files_keep_their_bytes(tmp_path):
    configs = sweep_configs()
    cells = run_sweep(configs)
    mark_aborted(cells[1].records[1], 12, "NumericalDriftError: predicted variance -1.000e-03")
    out = str(tmp_path / "out")
    emit_outputs(cells, out)
    write_diagnostics(configs[0], out)
    assert digests(out) == DIGESTS


def recovery_configs():
    configs = []
    for preset, label, seed in RECOVERY_CELLS:
        text = resources.files("bandit_lab").joinpath("presets", f"{preset}.cfg").read_text()
        config = next(c for c in expand_variants(*parse_config_text(text)) if c.label == label)
        configs.append(replace(config, seeds=(seed,), dump_dictionary=True))
    return configs


def test_recovery_paths_keep_their_bytes(tmp_path):
    cells = run_sweep(recovery_configs())
    records = [cell.records[0] for cell in cells]
    counts = [(r.rounds, r.rebuilds, r.resamples, r.rejected_duplicates) for r in records]
    assert counts == RECOVERY_COUNTS
    assert all(r.error.startswith("NumericalDriftError") for r in records)
    out = str(tmp_path / "out")
    emit_outputs(cells, out)
    assert digests(out) == RECOVERY_DIGESTS
