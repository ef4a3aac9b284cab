"""Call tracing from outside the package: spans, counters and self time.

The tracer replaces module attributes that the package resolves at call
time with timing wrappers, and puts the originals back on exit.  Every
wrapped call updates an aggregate (calls, inclusive time, self time,
errors, plus counters a hook adds).  Coarse calls also leave a span
``(id, parent_id, op_id, name, t0, t1, self_s)`` in memory; the per-step
calls (hundreds of thousands per run) keep only the aggregate, so a run
stays small.

Self time is a call's duration minus the time its wrapped children
cover.  The program under test is serial, so the children of one call
never overlap and their coverage is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class CallStats:
    """Aggregate of every traced call of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    counts: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=dict)  # name -> list of seconds

    def sample(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)


class Tracer:
    def __init__(self):
        self.stats: dict[str, CallStats] = {}
        self.spans: list[tuple] = []
        self.op_id = -1
        # one frame per open wrapped call: [child_seconds, enclosing_span_id]
        self._stack = [[0.0, -1]]
        self._next_span = 0

    def wrap(self, name: str, fn, span: bool = False, hook=None):
        """Timing wrapper for ``fn``; ``hook(stats, args, kwargs, result, seconds)`` adds counters."""
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[1]
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s = dt - frame[0]
                parent[0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += self_s
                if span:
                    self.spans.append((span_id, parent[1], self.op_id, name, t0, t1, self_s))
            if hook is not None:
                hook(stats, args, kwargs, result, dt)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``(module_name, attribute, trace_name, span, hook)`` targets for the block."""
        saved = []
        try:
            for module_name, attr, name, span, hook in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, span=span, hook=hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "t0", "t1", "self_s")
        return [dict(zip(keys, s)) for s in self.spans]
