"""Layer spans recorded from outside the program.

The tracer replaces public functions of the package with wrappers that time
each call.  Every call is a span; spans nest through the call stack, and a
span's self time is its duration minus the time its child spans cover.  Spans
are aggregated in memory per (context, name) as they close, because a solve
makes hundreds of thousands of them.  The benchmark sets ``context`` to the
solver variant it is about to run, which attributes layer time per variant.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.context = ""
        # (context, name) -> [seconds, child_seconds, calls]
        self.totals = defaultdict(lambda: [0.0, 0.0, 0])
        # (context, name) -> summed size of the results, for wrappers given a size function
        self.sizes = defaultdict(int)
        self._open = []  # child time accumulated by each open span, innermost last

    def wrap(self, name, fn, size=None):
        """``fn`` recorded as span ``name``; ``size(result)`` is summed when given."""
        clock, totals, sizes, open_spans = self.clock, self.totals, self.sizes, self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                entry = totals[(self.context, name)]
                entry[0] += duration
                entry[1] += child
                entry[2] += 1
                if open_spans:
                    open_spans[-1] += duration
            if size is not None:
                sizes[(self.context, name)] += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Patch ``(owner, attribute, span name[, size])`` targets for the block's duration."""
        saved = []
        try:
            for owner, attr, name, *size in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer(self, name, contexts=None):
        """(seconds, self seconds, calls) of span ``name`` summed over ``contexts`` (all if None)."""
        seconds = child = 0.0
        calls = 0
        for (ctx, span), (s, c, n) in self.totals.items():
            if span == name and (contexts is None or ctx in contexts):
                seconds += s
                child += c
                calls += n
        return seconds, seconds - child, calls

    def size(self, name, contexts=None) -> int:
        return sum(v for (ctx, span), v in self.sizes.items()
                   if span == name and (contexts is None or ctx in contexts))

    def names(self):
        return sorted({span for _, span in self.totals})
