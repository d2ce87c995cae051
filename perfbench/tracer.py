"""Outside-in tracer: wraps public functions at the module attribute their
callers look them up through, so the package itself stays untouched.

Each call of a wrapped function records a span ``[name, start, end,
parent]``.  Spans stay in memory until :meth:`Tracer.fold` turns them into
per-name call counts and self times (a span's duration minus the spans it
directly caused).  Private helpers such as ``sudoku._promote`` and
``kernel._kernel_images`` are left unwrapped on purpose: their time shows up
as self time of the public function that called them.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        once the span has closed, to take counts at the same boundary."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`restore`.

        Class methods are unwrapped and re-wrapped so the class keeps
        binding ``cls``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fold(self) -> None:
        """Turn the recorded spans into call counts and self times."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            self.calls[name] += 1
            self.self_s[name] += end - start - inner
        spans.clear()
