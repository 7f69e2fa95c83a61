"""The host's speed, read from a fixed reference kernel run between scenes.

The benchmark runs on a few cores of a shared host whose speed drifts
with its neighbours' load: on a 2-vCPU cloud VM the same replay pass
took 11.3 s and 6.1 s two minutes apart, with CPU time tracking wall
time, so no run of under a minute reads the program's speed alone. The
kernel below does a fixed amount of the kind of work trackmem does
(interval arithmetic on small Python objects, tiny numpy calls) and calls
no trackmem code. It runs between scenes, inside the timed passes; its
median time over a run, divided by ``REFERENCE_NS``, is that run's
slowness. The benchmark reports the timings the kernel tracks divided by
it, i.e. at the host speed at which the kernel takes ``REFERENCE_NS``. A change to trackmem does not
change the kernel, so it moves the reported timings in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_NS = 1_000_000


class _Box:
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x: int, y: int, w: int, h: int):
        self.x, self.y, self.w, self.h = x, y, w, h

    def area(self) -> int:
        return self.w * self.h


def kernel() -> float:
    """A fixed unit of work, under 1 ms on the host described above."""
    overlap = 0
    for i in range(200):
        s1, l1, s2, l2 = i * 7 % 97, 5 + i % 11, i * 5 % 89, 3 + i % 13
        lo, hi = max(s1, s2), min(s1 + l1, s2 + l2)
        if hi > lo:
            overlap += hi - lo
    boxes = [_Box(i % 13, i % 7, 1 + i % 5, 1 + i % 3) for i in range(300)]
    iou = 0.0
    for a, b in zip(boxes, boxes[1:]):
        iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
        ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
        if iw > 0 and ih > 0:
            iou += iw * ih / (a.area() + b.area() - iw * ih)
    m = np.arange(16, dtype=float).reshape(4, 4)
    for _ in range(20):
        m = m @ m.T
        m /= m.max()
    return overlap + iou + float(m[0, 0])


def tick(samples: list[int]) -> None:
    """Run the kernel once and append its duration in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    samples.append(time.perf_counter_ns() - t0)


def slowness(samples: list[int]) -> float:
    """How much slower than the reference speed the host ran: median kernel time / reference."""
    if not samples:
        raise ValueError("no kernel samples")
    return statistics.median(samples) / REFERENCE_NS
