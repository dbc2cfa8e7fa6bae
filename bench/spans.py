"""In-memory spans recorded around the benchmark's calls into each layer.

A span holds a name, start, end, parent span index and operation id;
run.py writes them out as JSON lines at the end of a traced run. Untraced
runs use NullTracer, which records nothing, so their timings carry no
tracing cost; the difference between the two is reported as overhead.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    enabled = False
    op = None

    def span(self, name: str):
        return _NULL

    def count(self, name: str, k: float = 1) -> None:
        pass

    def rule(self, rule):
        return rule


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()


class Tracer:
    enabled = True

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def rule(self, rule):
        """The same audit Rule, with every call recorded as an
        `audit.rule` span; audits see it only through its public
        interface (name, callable, mode)."""
        from foldvote.audit import Rule

        fn, begin, end = rule.fn, self.begin, self.end

        def traced(profile):
            begin("audit.rule")
            try:
                return fn(profile)
            finally:
                end()

        return Rule(rule.name, traced, rule.mode)

    def busy_and_self(self, factors: dict) -> tuple[Counter, Counter]:
        """Summed duration per span name, and the same minus the time
        covered by each span's children; each span is scaled by its
        operation's host-speed factor."""
        busy, child = Counter(), Counter()
        for name, start, end, parent, op in self.spans:
            dur = (end - start) * factors.get(op, 1.0)
            busy[name] += dur
            if parent >= 0:
                child[parent] += dur
        own = Counter()
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            own[name] += (end - start) * factors.get(op, 1.0) - child[idx]
        return busy, own
