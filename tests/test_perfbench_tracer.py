"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` patches bandit_lab functions and methods by name, so
renaming or moving one breaks the benchmark's per-layer metrics.  This is a
fast in-process check on two short sweeps; ``perfbench/test_smoke.py`` runs
the whole benchmark.
"""

import importlib
import importlib.util
import os

from bandit_lab.config import build_run_config
from bandit_lab.harness import run_sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_targets(tracer) -> list:
    """What each TARGETS entry names right now, in its module or class."""
    bound = []
    for _, module, attr, cls_name in tracer.TARGETS:
        mod = importlib.import_module(f"bandit_lab.{module}")
        owner = mod if cls_name is None else getattr(mod, cls_name)
        bound.append(vars(owner)[attr])
    return bound


def test_tracer_patches_every_target_and_records_kors_steps():
    tracer = load_tracer()
    configs = [
        build_run_config({"policy.name": name, "policy.gamma": "10", "run.T": "10"})
        for name in ("ekucb", "cbkb")
    ]
    originals = bound_targets(tracer)
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = bound_targets(tracer)
        cells = run_sweep(configs)
    finally:
        tr.uninstall()
    unpatched = [
        entry[0]
        for entry, before, during in zip(tracer.TARGETS, originals, patched)
        if during is before
    ]
    assert unpatched == []
    assert bound_targets(tracer) == originals

    ekucb, cbkb = (cell.records[0] for cell in cells)
    assert ekucb.error is None and cbkb.error is None
    calls, _, _ = tr.self_times()
    # every ekucb round after the bootstrap scores one state with kors_step
    assert calls["dictionary.kors_step"] == ekucb.rounds - 1
    # policies score candidates in choose only, once per round after the
    # bootstrap; the resampling update scores its state without scores()
    assert calls["policies.scores"] == (ekucb.rounds - 1) + (cbkb.rounds - 1)
    assert calls["dictionary.rebuild_dictionary"] == cbkb.resamples
    kept = tr.counts["dictionary.rebuild_kept"]
    assert tr.counts["dictionary.rebuild_states"] >= kept > 0
