"""Span recording around calls into trackmem, from outside the library.

The benchmark never edits trackmem. It swaps public functions, methods
and properties for timing wrappers in the namespaces that call them
(``trackmem.membank.mask_iou``, ``trackmem.harness.gen_sequence``, ...)
and puts the originals back afterwards.

A span is the plain tuple ``(seq, name, start_ns, end_ns, parent_seq,
scope)``; ``parent_seq`` is -1 for a root and ``scope`` names the scene
or scene/policy pair the span ran for. Tuples keep the hot path cheap:
a traced suite pass records several hundred thousand of them. Spans stay
in memory until the run ends; worker processes hand theirs over as
``(pid, spans)`` batches.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, defaultdict

SEQ, NAME, START, END, PARENT, SCOPE = range(6)


class Tracer:
    """Records nested spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.scope = ""
        self._stack: list[int] = []
        self._seq = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded; wrappers stay installed.

        A forked worker calls this so it does not report its parent's
        spans a second time.
        """
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.scope = ""

    # --- instrumentation ---------------------------------------------------

    def timed(self, fn, name, scope=None, after=None):
        """Return ``fn`` wrapped so that every call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``scope(args)`` names the work the call runs for, and nested
        spans inherit it; ``after(args, result)`` updates counters.
        """
        spans, stack, seq, clock = self.spans, self._stack, self._seq, time.perf_counter_ns
        tracer = self
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            sid = next(seq)
            parent = stack[-1] if stack else -1
            outer = tracer.scope
            if scope is not None:
                tracer.scope = scope(args)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name(args) if dynamic else name, t0, t1, parent,
                              tracer.scope))
                tracer.scope = outer
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, scope=None, after=None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by a timed wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.timed(raw.__func__, name, scope, after))
        else:
            new = self.timed(raw, name, scope, after)
        self.patch(owner, attr, raw, new)

    def count_property(self, owner: type, attr: str, counter: str) -> None:
        """Count reads of a property without timing them."""
        raw = vars(owner)[attr]
        counts, fget = self.counts, raw.fget

        def counted(obj):
            counts[counter] += 1
            return fget(obj)

        self.patch(owner, attr, raw, property(counted, doc=raw.__doc__))

    def patch(self, owner, attr, raw, new) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# --- arithmetic on recorded spans ------------------------------------------------


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Self time per span seq: its duration minus what its direct children cover.

    Only direct children count: a grandchild lies inside its own parent,
    which is already subtracted. Children that touch or overlap are
    merged before subtracting, so no instant is taken away twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SEQ]: (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(span[SEQ], ()))
        for span in spans
    }


def summarize(batches) -> dict[str, list[float]]:
    """Per span name: ``[calls, total_s, self_s]`` over ``(pid, spans)`` batches.

    Parents are looked up within a batch's own process only.
    """
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for _, spans in batches:
        own = self_times(spans)
        for span in spans:
            row = out[span[NAME]]
            row[0] += 1
            row[1] += (span[END] - span[START]) / 1e9
            row[2] += own[span[SEQ]] / 1e9
    return dict(out)


def percentile(samples, q: float) -> float:
    """The q-th percentile (nearest rank), refused unless ten samples lie beyond it.

    A tail percentile read from fewer than ten samples past it is one or
    two outliers, not a property of the workload.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it; need 10")
    return sorted(samples)[rank - 1]
