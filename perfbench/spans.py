"""Span tracing around the library's public functions, installed from outside.

The tracer replaces selected module attributes and class methods of
``uctensor`` with thin wrappers for the duration of a ``with
tracer.installed():`` block and restores the originals afterwards, so
the library's own files stay untouched and untraced runs pay nothing.

Every wrapped call opens a frame on a stack.  When it closes, its
duration is added to the name's inclusive total (outermost calls of a
name only, so recursion is not double counted), its self time (duration
minus the time covered by wrapped calls nested in it) is added to its
module, and its duration is charged to the enclosing frame as child
time.  Calls of coarse functions are also kept as span records
``(name, start_ns, end_ns, parent)`` in memory and written out at the
end; calls of hot functions (per-cell lookups, per-query predictions)
are only counted, because keeping one record per call would cost more
memory than the measurement is worth.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

_now = time.perf_counter_ns

# a frame is a list [start_ns, child_ns, name, span index or -1]
_START, _CHILD, _NAME, _SPAN = range(4)


@dataclass
class OpStats:
    """What one traced operation did, layer by layer."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    incl_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    fits: list[dict] = field(default_factory=list)


class Tracer:
    """Collects spans and per-operation layer statistics.

    A wrapper may carry a ``hook(tracer, args, kwargs, result, error,
    duration_ns)`` that runs after the wrapped call returns or raises,
    inside an operation only.  Hooks record what only the call's arguments
    or result reveal (sweeps, artifact bytes, witness hits) and must stay
    cheap, because their time lands in the enclosing span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start_ns, end_ns, parent]
        self.ops: list[OpStats] = []
        self.op: OpStats | None = None
        self.suspended = False
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Callable]] = []
        self._recorders: dict[str, tuple[Callable, Callable]] = {}

    def _recorder(self, name: str, record: bool):
        """``(open, close)`` for frames of ``name``; ``close`` returns the duration.

        One pair per name, shared by every wrapper of that name, so calls
        nesting under the same name count once in the inclusive total.
        """
        if name in self._recorders:
            return self._recorders[name]
        module = name.split(".", 1)[0]
        nid = len(self.names)
        self.names.append(name)
        depth = [0]
        stack, spans = self._stack, self.spans

        def open_() -> list:
            start = _now()
            span = -1
            if record:
                parent = next((f[_SPAN] for f in reversed(stack) if f[_SPAN] >= 0), -1)
                span = len(spans)
                spans.append([nid, start, start, parent])
            frame = [start, 0, name, span]
            stack.append(frame)
            depth[0] += 1
            return frame

        def close(frame: list) -> int:
            end = _now()
            if stack.pop() is not frame:
                raise RuntimeError(f"span {name} closed out of order")
            depth[0] -= 1
            duration = end - frame[_START]
            if frame[_SPAN] >= 0:
                spans[frame[_SPAN]][2] = end
            op = self.op
            if op is not None:
                op.calls[name] += 1
                if not depth[0]:
                    op.incl_ns[name] += duration
                op.self_ns[module] += duration - frame[_CHILD]
            if stack:
                stack[-1][_CHILD] += duration
            return duration

        self._recorders[name] = open_, close
        return open_, close

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (operations, gates)."""
        open_, close = self._recorder(name, True)
        frame = open_()
        try:
            yield
        finally:
            close(frame)

    @contextlib.contextmanager
    def operation(self, name: str):
        """One benchmark operation: a root span plus a fresh :class:`OpStats`."""
        self.op = OpStats()
        try:
            with self.span(name):
                yield self.op
        finally:
            self.ops.append(self.op)
            self.op = None

    def within(self, prefix: str) -> bool:
        """Whether a call whose name starts with ``prefix`` is open."""
        return any(f[_NAME].startswith(prefix) for f in self._stack)

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (measurements of the benchmark's own)."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, hot: bool = False,
             hook: Callable | None = None) -> None:
        """Route ``owner.attr`` through frames named ``name`` while installed."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        open_, close = self._recorder(name, not hot)
        tracer = self

        if hook is None:
            def traced(*args, **kwargs):
                if tracer.suspended:
                    return original(*args, **kwargs)
                frame = open_()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(frame)
        else:
            def traced(*args, **kwargs):
                if tracer.suspended:
                    return original(*args, **kwargs)
                frame = open_()
                error = result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    duration = close(frame)
                    if tracer.op is not None:
                        hook(tracer, args, kwargs, result, error, duration)

        traced.__wrapped__ = original
        self._patches.append((owner, attr, traced))

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapped attribute in, and back out on exit."""
        saved = []
        try:
            for owner, attr, traced in self._patches:
                saved.append((owner, attr, traced.__wrapped__))
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def as_dict(self) -> dict:
        """Spans as plain lists, ready for ``json.dump``."""
        return {
            "names": list(self.names),
            "spans": [[self.names[n], s, e, p] for n, s, e, p in self.spans],
        }
