"""Output checks: replay digests, emitted-file consistency and score drift.

``score_drift`` compares ``policy.scores`` with a dense posterior that this
module builds on its own from the run's ``history``, ``rewards`` and, for the
projected policies, ``dictionary.packed``, using ``kernels.gram_packed`` and
linear solves rather than the policy's maintained inverses.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
import scipy.linalg

# relative variance errors are taken against max(var, VAR_FLOOR)
VAR_FLOOR = 1e-12


def trace_digest(paths: list[str], root: str, nondeterministic: tuple[str, ...]) -> str:
    """Hash of every trace file with the nondeterministic columns removed."""
    h = hashlib.sha256()
    for path in sorted(p for p in paths if os.path.basename(p).startswith("trace_")):
        h.update(os.path.relpath(path, root).encode())
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            keep = [i for i, col in enumerate(header) if col not in nondeterministic]
            h.update(",".join(header[i] for i in keep).encode())
            for line in fh:
                if line.startswith("#"):
                    h.update(line.encode())
                    continue
                cells = line.rstrip("\n").split(",")
                h.update(",".join(cells[i] for i in keep).encode())
    return h.hexdigest()


def check_outputs(groups: dict, paths: list[str], out_dir: str) -> list[str]:
    """Problems with what emit_outputs wrote for ``groups`` (group -> cells)."""
    problems = []
    written = set(paths)
    for group, cells in groups.items():
        gdir = os.path.join(out_dir, group)
        for name in ("summary.csv", "regret.svg", "time.svg"):
            path = os.path.join(gdir, name)
            if path not in written or os.path.getsize(path) == 0:
                problems.append(f"{group}: {name} missing or empty")
        with open(os.path.join(gdir, "summary.csv")) as fh:
            rows = {row["label"]: row for row in csv.DictReader(fh)}
        for cell in cells:
            row = rows.get(cell.config.label)
            aborted = sum(1 for r in cell.records if r.error is not None)
            if row is None or int(row["errors"]) != aborted:
                problems.append(f"{group}/{cell.config.label}: summary errors != {aborted}")
            for r in cell.records:
                path = os.path.join(gdir, f"trace_{r.label}_{r.seed}.csv")
                with open(path) as fh:
                    lines = [ln for ln in fh.read().splitlines()[1:] if not ln.startswith("#")]
                if len(lines) != r.rounds:
                    problems.append(f"{path}: {len(lines)} rows for {r.rounds} rounds")
                regret = np.asarray(r.instant_regret)
                if regret.size and (
                    regret.min() < 0 or not math.isclose(
                        float(regret.sum()), r.total_regret, rel_tol=1e-9, abs_tol=1e-9
                    )
                ):
                    problems.append(f"{path}: regret is negative or does not add up")
    return problems


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve; minimum-norm least squares when ``a`` is numerically singular."""
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
    except np.linalg.LinAlgError:
        return scipy.linalg.lstsq(a, b)[0]


def dense_scores(policy, kernel, lam: float, context: np.ndarray, actions: np.ndarray):
    """Posterior mean and variance from the run's data, by solves."""
    from bandit_lab.kernels import diag_packed, gram_packed

    ctx_dim = context.size
    q = np.hstack([np.broadcast_to(context, (actions.shape[0], ctx_dim)), actions])
    s, y = policy.history, policy.rewards
    kqq = diag_packed(kernel, q, context_dim=ctx_dim)
    if not hasattr(policy, "dictionary"):
        k = gram_packed(kernel, s, s, context_dim=ctx_dim)
        ksq = gram_packed(kernel, s, q, context_dim=ctx_dim)
        sol = _solve_spd(k + lam * np.eye(k.shape[0]), np.column_stack([y, ksq]))
        return ksq.T @ sol[:, 0], (kqq - np.einsum("ij,ij->j", ksq, sol[:, 1:])) / lam
    z = policy.dictionary.packed
    kzs = gram_packed(kernel, z, s, context_dim=ctx_dim)
    kzz = gram_packed(kernel, z, z, context_dim=ctx_dim)
    kzq = gram_packed(kernel, z, q, context_dim=ctx_dim)
    sol = _solve_spd(kzs @ kzs.T + lam * kzz, np.column_stack([kzs @ y, kzq]))
    proj = _solve_spd(kzz, kzq)
    var = (
        kqq / lam
        + np.einsum("ij,ij->j", kzq, sol[:, 1:])
        - np.einsum("ij,ij->j", kzq, proj) / lam
    )
    return kzq.T @ sol[:, 0], var


def score_drift(policy, config, contexts: np.ndarray, actions: np.ndarray) -> tuple[float, float, int]:
    """(largest mean error, largest relative variance error, points probed)."""
    mean_err = var_err = 0.0
    for x in contexts:
        means, var = policy.scores(x, actions)
        ref_means, ref_var = dense_scores(policy, config.kernel, config.lam, x, actions)
        mean_err = max(mean_err, float(np.max(np.abs(means - ref_means))))
        rel = np.abs(var - ref_var) / np.maximum(np.abs(ref_var), VAR_FLOOR)
        var_err = max(var_err, float(np.max(rel)))
    return mean_err, var_err, contexts.shape[0] * actions.shape[0]
