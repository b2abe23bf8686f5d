"""Span tracer that wraps bandit_lab's layer functions from outside the package.

``Tracer.install()`` replaces each target function in every ``bandit_lab``
module namespace that binds it by name (``gram_packed`` is bound in
``kernels``, ``policies``, ``dictionary`` and ``harness``), and each target
method on the class that defines it.  Every wrapped call records one span:
id, parent id, name, start, end, run id (label and seed of the enclosing
``run_single``) and thread.  A parent stack is kept per thread because
``run_sweep`` runs cells on a thread pool.  Spans stay in memory until the
traced pass ends; ``layer_metrics`` then derives calls, self time (duration
minus the duration of direct children) and the layer counters.

Nothing is patched while the tracer is not installed, so timed runs execute
the unmodified program.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict

# (metric name, module, attribute, class or None).  Methods are patched on the
# class that defines them; the policy methods of every policy class share one
# metric name, as the layer is the module.  Metric names start with a letter,
# so the _grow layer reports as grow.
TARGETS = (
    ("kernels.gram_packed", "kernels", "gram_packed", None),
    ("kernels.diag_packed", "kernels", "diag_packed", None),
    ("kernels.evaluate", "kernels", "evaluate", None),
    ("linalg.schur_extend", "linalg", "schur_extend", None),
    ("linalg.schur_extend_jittered", "linalg", "schur_extend_jittered", None),
    ("linalg.sherman_morrison_update", "linalg", "sherman_morrison_update", None),
    ("linalg.dense_spd_inverse", "linalg", "dense_spd_inverse", None),
    ("dictionary.kors_step", "dictionary", "kors_step", None),
    ("dictionary.rebuild_dictionary", "dictionary", "rebuild_dictionary", None),
    ("policies.scores", "policies", "scores", "ExactKernelUcb"),
    ("policies.scores", "policies", "scores", "ProjectedKernelUcb"),
    ("policies.choose", "policies", "choose", "ExactKernelUcb"),
    ("policies.choose", "policies", "choose", "ProjectedKernelUcb"),
    ("policies.choose", "policies", "choose", "UniformRandomPolicy"),
    ("policies.update", "policies", "update", "ExactKernelUcb"),
    ("policies.update", "policies", "update", "ProjectedKernelUcb"),
    ("policies.update", "policies", "update", "ResamplingKernelUcb"),
    ("policies.update", "policies", "update", "UniformRandomPolicy"),
    ("policies.refactor", "policies", "refactor", "ProjectedKernelUcb"),
    ("environments.Environment.step", "environments", "step", "Environment"),
    ("environments.Environment.sample_context", "environments", "sample_context", "Environment"),
    ("grow.GrowableMatrix.append_row", "_grow", "append_row", "GrowableMatrix"),
    ("grow.GrowableMatrix.append_col", "_grow", "append_col", "GrowableMatrix"),
    ("harness.run_single", "harness", "run_single", None),
    ("harness.emit_outputs", "harness", "emit_outputs", None),
    ("svgplot.render", "svgplot", "render", None),
)

TIMED = sorted({name for name, *_ in TARGETS})

# functions whose second attempt, after a failed first one, is a jitter retry
_RETRYING = ("linalg.schur_extend_jittered", "linalg.dense_spd_inverse")


def package_modules(package: str = "bandit_lab") -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def patch_everywhere(original, replacement, patches: list) -> None:
    """Rebind ``original`` to ``replacement`` in every package namespace."""
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


class _Frame:
    __slots__ = ("sid", "name", "attempts")

    def __init__(self, sid: int, name: str):
        self.sid = sid
        self.name = name
        self.attempts = 0


class _View:
    """Stands in for a module inside one namespace, overriding some attributes."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: int = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _wrap(self, name: str, fn, before=None, after=None, run_of=None):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids), name)
            token = before(args) if before is not None else None
            if run_of is not None:
                local.run = run_of(args, kwargs)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(stack, frame, parent, start, time.perf_counter_ns())
                tracer._failed(name, exc)
                if run_of is not None:
                    local.run = None
                raise
            tracer._close(stack, frame, parent, start, time.perf_counter_ns())
            if run_of is not None:
                local.run = None
            if after is not None:
                after(result, args, token, parent)
            return result

        return traced

    def _close(self, stack, frame, parent, start, end) -> None:
        stack.pop()
        if frame.name in _RETRYING and frame.attempts > 1:
            self.count("linalg.jitter_retries", frame.attempts - 1)
        self.spans.append(
            (
                frame.sid,
                parent.sid if parent is not None else -1,
                frame.name,
                start,
                end,
                getattr(self._local, "run", None),
                threading.get_ident(),
            )
        )

    def _failed(self, name: str, exc: Exception) -> None:
        # an error passing through several linalg spans is counted once
        if name.startswith("linalg.") and not getattr(exc, "_perfbench_counted", False):
            from bandit_lab.linalg import LinalgError

            if isinstance(exc, LinalgError):
                exc._perfbench_counted = True
                self.count(f"linalg.errors.{type(exc).__name__}")

    def _attempt(self) -> None:
        stack = self._stack()
        if stack and stack[-1].name in _RETRYING:
            stack[-1].attempts += 1

    # -- per-target counters ---------------------------------------------

    def _hooks(self, name: str) -> dict:
        count = self.count

        def entries(result, args, token, parent):
            # the tensor family recurses into itself; count its output once
            if parent is None or parent.name != name:
                count("kernels.entries", result.size)

        def inverse_bytes(result, args, token, parent):
            count("linalg.bytes_out", result.matrix.nbytes)

        def schur_attempt(args):
            self._attempt()

        def kors_before(args):
            return args[0].rejected_duplicates

        def kors_after(result, args, token, parent):
            count("dictionary.kors_admits", int(bool(result)))
            count("dictionary.rejected_duplicates", args[0].rejected_duplicates - token)

        def rebuild_after(result, args, token, parent):
            count("dictionary.rebuild_states", len(args[0]))
            count("dictionary.rebuild_kept", result.size)
            count("dictionary.rejected_duplicates", result.rejected_duplicates)

        def row_before(args):
            m = args[0]
            buf = getattr(m, "_buf", None)
            if buf is not None and m.rows == buf.shape[0]:
                count("grow.copy_bytes", m.rows * buf.shape[1] * buf.itemsize)

        def col_before(args):
            m = args[0]
            buf = getattr(m, "_buf", m.view)
            count("grow.copy_bytes", buf.nbytes)

        def run_id(args, kwargs):
            config = args[0]
            seed = args[1] if len(args) > 1 else kwargs["seed"]
            return (config.label, seed)

        table = {
            "kernels.gram_packed": dict(after=entries),
            "kernels.diag_packed": dict(after=entries),
            "linalg.schur_extend": dict(before=schur_attempt, after=inverse_bytes),
            "linalg.schur_extend_jittered": dict(after=inverse_bytes),
            "linalg.sherman_morrison_update": dict(after=inverse_bytes),
            "linalg.dense_spd_inverse": dict(after=inverse_bytes),
            "dictionary.kors_step": dict(before=kors_before, after=kors_after),
            "dictionary.rebuild_dictionary": dict(after=rebuild_after),
            "grow.GrowableMatrix.append_row": dict(before=row_before),
            "grow.GrowableMatrix.append_col": dict(before=col_before),
            "harness.run_single": dict(run_of=run_id),
        }
        return table.get(name, {})

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import importlib

        import bandit_lab.svgplot  # noqa: F401 - emit_outputs imports it lazily

        for name, module, attr, cls_name in TARGETS:
            mod = importlib.import_module(f"bandit_lab.{module}")
            if cls_name is None:
                original = getattr(mod, attr)
                patch_everywhere(original, self._wrap(name, original, **self._hooks(name)), self._patches)
            else:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original, **self._hooks(name)))
                self._patches.append((cls, attr, original))
        # dense_spd_inverse factors through scipy.linalg.cho_factor and retries
        # once with jitter; count its attempts through a view of scipy seen
        # only by bandit_lab.linalg
        linalg = importlib.import_module("bandit_lab.linalg")
        real = linalg.scipy
        cho_factor = real.linalg.cho_factor

        def counted_cho_factor(*args, **kwargs):
            self._attempt()
            return cho_factor(*args, **kwargs)

        linalg.scipy = _View(real, linalg=_View(real.linalg, cho_factor=counted_cho_factor))
        self._patches.append((linalg, "scipy", real))

    def uninstall(self) -> None:
        restore(self._patches)

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV once the traced pass has ended."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns,run_label,run_seed,thread\n")
            for sid, parent, name, start, end, run, thread in self.spans:
                label, seed = run if run is not None else ("", "")
                fh.write(f"{sid},{parent},{name},{start},{end},{label},{seed},{thread}\n")

    def self_times(self) -> tuple[dict, dict, dict]:
        """(calls per name, self ns per name, self ns per thread)."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        per_thread: dict[int, int] = defaultdict(int)
        for sid, _, name, start, end, _, thread in self.spans:
            own = end - start - child_ns.get(sid, 0)
            calls[name] += 1
            self_ns[name] += own
            per_thread[thread] += own
        return calls, self_ns, per_thread

    def run_starts(self) -> list[int]:
        return [s[3] for s in self.spans if s[2] == "harness.run_single"]
