"""In-memory spans around calls into a program's layers.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, the span that was open when the call began, and an
optional size (samples, bytes, cells) computed from the arguments or the
result.  ``restore`` puts every original attribute back.  Nothing is written
while the traced code runs; the spans stay in a list until the caller reads
them.

A span's self time is its duration minus the part of it that its child spans
cover (``self_times``).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1   # index of the enclosing span, -1 at top level
    size: float = 0.0  # work measure of the call, when the layer has one

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield self.spans[sid]
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Record a span named ``name`` on every call of ``owner.attr``.

        ``size(args, kwargs, result)`` fills the span's size after the call.
        The wrapper is installed at the attribute the caller looks up, so a
        function imported by name elsewhere needs its own ``wrap``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid)
            if size is not None:
                self.spans[sid].size = float(size(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
