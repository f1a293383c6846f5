"""Spans and counters for the traced benchmark run.

Spans are kept in memory as ``[name, start, end, parent, op, calls]``
lists and written out when the run ends.  A workload opens one span per
operation and, inside it, one child span per batch of calls to a single
rackq function; a span per call would cost more than the calls it times
on the Laurent grid.  With tracing off, ``span`` returns a shared no-op
object and ``count`` does nothing, so the untraced run executes the same
workload code.
"""

import time
from collections import defaultdict, namedtuple

# One operation of a workload: ``run(tracer, state)`` returns None when
# every verdict matches its oracle, else a message.  ``families`` names
# the oracle families it consults; ``known_defect`` marks an op that
# fails at the seed because of a recorded rackq defect.
Op = namedtuple("Op", "kind families run known_defect", defaults=(False,))


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name, calls):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, None, tracer.op, calls]

    def __enter__(self):
        tr = self.tracer
        self.rec[3] = tr.stack[-1] if tr.stack else None
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self.op = None

    def span(self, name, calls=1):
        """Context manager timing a batch of ``calls`` calls."""
        return _Span(self, name, calls) if self.enabled else _NULL

    def count(self, name, n=1):
        if self.enabled:
            self.counters[name] += n

    def self_times(self):
        """{span name: (calls, self seconds)}; self time is a span's
        duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, calls) in enumerate(self.spans):
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + (end - start) - child[i])
        return out
