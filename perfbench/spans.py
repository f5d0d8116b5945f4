"""Span tracing for the traced run, installed from outside the program.

The traced run replaces a fixed list of public entry points -- class
methods and two module functions -- with timing wrappers, runs the
workload, and puts the originals back.  Nothing under ``src/`` is
edited and no observability switch of the program is turned on.

Every wrapped call is a span with a name, a start, an end and a parent.
A span's *self time* is its duration minus the time its child spans
cover.  Hot spans (millions of interpreter steps and interner calls)
are aggregated per name as they close; coarse spans (one per analysis
phase) are also kept individually so the run can write out the tree.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns


class Tracer:
    """Span stack, per-name aggregates and the kept coarse spans."""

    def __init__(self) -> None:
        #: Open spans: ``[child_ns, kept_id_of_nearest_kept_ancestor]``.
        self._stack: List[list] = []
        #: name -> ``[count, total_ns, self_ns]``.
        self.agg: Dict[str, List[int]] = {}
        #: Kept spans: ``(id, name, start_ns, end_ns, parent_id, label)``.
        self.spans: List[Tuple[int, str, int, int, Optional[int], str]] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _slot(self, name: str) -> List[int]:
        return self.agg.setdefault(name, [0, 0, 0])

    def _wrap(self, fn: Callable, name: str, keep: bool) -> Callable:
        if keep:
            span = self.span

            @functools.wraps(fn)
            def kept(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)

            return kept

        # Hot spans: the bookkeeping is inlined, because CPU.step and
        # the interner run millions of times per pass.
        stack = self._stack
        slot = self._slot(name)
        clock = _clock

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            frame = [0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                slot[0] += 1
                slot[1] += dur
                slot[2] += dur - frame[0]

        return hot

    # -- spans opened by the benchmark's own code ---------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a kept span *name*."""
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, label: str = ""):
        """A kept span around a ``with`` block; *label* names its input."""
        stack = self._stack
        slot = self._slot(name)
        parent = stack[-1][1] if stack else None
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [0, span_id]
        stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            slot[0] += 1
            slot[1] += dur
            slot[2] += dur - frame[0]
            self.spans[span_id] = (span_id, name, t0, t1, parent, label)

    # -- installing wrappers on the program ---------------------------------------

    def patch_method(self, cls, attr: str, name: str, keep: bool = False) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, keep))
        elif inspect.isfunction(raw):
            new = self._wrap(raw, name, keep)
        else:
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, new)

    def patch_function(self, module, attr: str, name: str, keep: bool = True) -> None:
        raw = getattr(module, attr)
        self._restore.append((module, attr, raw))
        setattr(module, attr, self._wrap(raw, name, keep))

    def install(self) -> None:
        """Wrap every entry point :func:`trace_points` lists."""
        for target, attrs, name, keep in trace_points():
            for attr in attrs:
                if inspect.ismodule(target):
                    self.patch_function(target, attr, name, keep)
                else:
                    self.patch_method(target, attr, name, keep)

    def restore(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------------

    def self_ms(self, name: str) -> float:
        slot = self.agg.get(name)
        return slot[2] / 1e6 if slot else 0.0

    def count(self, name: str) -> int:
        slot = self.agg.get(name)
        return slot[0] if slot else 0

    def dump(self) -> dict:
        return {
            "layers": {
                name: {"count": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in sorted(self.agg.items())
            },
            "spans": [
                {"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                 "parent": s[4], "label": s[5]}
                for s in self.spans if s is not None
            ],
        }


#: Shadow-memory operations timed as ``taint.shadow``.
SHADOW_OPS = (
    "get", "set", "get_range", "set_range", "clear_range", "append_range",
    "copy_range", "get_bytes", "set_bytes", "clear_bytes", "pages_clean",
    "bytes_clean", "range_clean", "page_dirty", "page_summary", "page_epoch",
)


def trace_points():
    """``(owner, attrs, span name, keep)`` for every wrapped entry point."""
    import repro.serve.pool as pool_module
    from repro.emulator.record_replay import Scenario
    from repro.emulator.snapshot import MachineSnapshot
    from repro.faros.detector import Detector
    from repro.isa.cpu import CPU
    from repro.isa.translate import BlockTranslator
    from repro.serve.pool import SnapshotPool
    from repro.taint.intern import ProvInterner
    from repro.taint.pipeline import TaintPipeline
    from repro.taint.shadow import ShadowMemory
    from repro.taint.tracker import TaintTracker

    return (
        (Scenario, ("build",), "emulator.boot", True),
        (CPU, ("step",), "isa.cpu.step", False),
        (BlockTranslator, ("run",), "isa.translate.run", False),
        (BlockTranslator, ("run_taint",), "isa.translate.run_taint", False),
        (TaintTracker, ("on_insn_exec",), "taint.tracker.on_insn_exec", False),
        (TaintTracker, ("consume",), "taint.tracker.consume", False),
        (ProvInterner, ("append", "union", "union_all", "seed", "intern"),
         "taint.intern", False),
        (ShadowMemory, SHADOW_OPS, "taint.shadow", False),
        (TaintPipeline, ("drain",), "taint.pipeline.drain", False),
        (Detector, ("observe_load",), "faros.detector.observe_load", False),
        (SnapshotPool, ("lease",), "serve.pool.lease", True),
        (MachineSnapshot, ("capture",), "emulator.snapshot.capture", True),
        # The warm path looks these two up in repro.serve.pool's namespace.
        (pool_module, ("snapshot_record",), "emulator.snapshot.record", True),
        (pool_module, ("snapshot_replay",), "emulator.snapshot.replay", True),
    )
