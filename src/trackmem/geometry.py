"""Axis-aligned boxes and run-length-encoded binary masks.

Every score in the tracker stack (motion consistency, proposal
disagreement, evaluation overlap) reduces to the IoU algebra in this
module. Boxes are real-valued with a top-left (x, y, w, h) convention and
their IoU is computed analytically; masks are stored as row-major RLE so
memory entries stay small, with dense-array conversion kept around for
test oracles and rendering.

IoU involving a zero-area box, an empty mask, or two empty masks is
defined as 0: "no agreement" is the semantics every gate in the tracker
wants, and it avoids 0/0.

RLE text form (used by fixtures), one mask per string::

    W H; row:start+len,start+len; row:start+len

i.e. width and height in pixels, then one semicolon-separated group per
row that contains foreground, each group listing comma-separated
``start+length`` column runs. Rows with no foreground are omitted; a
fully empty mask is just ``"W H"``. Runs are sorted and non-overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BBox",
    "BitMask",
    "box_iou",
    "mask_iou",
    "mask_to_bbox",
]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, top-left corner (x, y), size (w, h), in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box size must be non-negative, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "BBox":
        return cls(cx - w / 2.0, cy - h / 2.0, w, h)


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Zero-area operands give 0 by convention. Identical boxes give exactly
    1.0 (the edge arithmetic alone would lose an ulp on fractional
    coordinates).
    """
    if a.area == 0.0 or b.area == 0.0:
        return 0.0
    if a == b:
        return 1.0
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return min(1.0, inter / (a.area + b.area - inter))


@dataclass(frozen=True)
class BitMask:
    """Binary mask as row-major RLE runs.

    ``runs`` is a sorted tuple of (row, start, length) triples; runs within
    a row never touch or overlap (maximal runs), and all runs lie inside
    the width x height grid. The empty tuple is a valid (empty) mask.
    """

    width: int
    height: int
    runs: tuple[tuple[int, int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError("mask dimensions must be non-negative")
        prev_row, prev_end = -1, -1
        for row, start, length in self.runs:
            if length < 1:
                raise ValueError(f"run length must be >= 1, got {length}")
            if not (0 <= row < self.height):
                raise ValueError(f"run row {row} outside height {self.height}")
            if start < 0 or start + length > self.width:
                raise ValueError(f"run [{start}, {start + length}) outside width {self.width}")
            if row < prev_row:
                raise ValueError("runs must be sorted by row")
            if row == prev_row and start < prev_end:
                raise ValueError("runs within a row must be sorted and disjoint")
            prev_row, prev_end = row, start + length

    @property
    def is_empty(self) -> bool:
        return not self.runs

    @property
    def area(self) -> int:
        """Foreground pixel count."""
        return sum(length for _, _, length in self.runs)

    @cached_property
    def _rows(self) -> dict[int, list[tuple[int, int]]]:
        # row -> [(start, end_exclusive), ...] sorted, for interval math
        rows: dict[int, list[tuple[int, int]]] = {}
        for row, start, length in self.runs:
            rows.setdefault(row, []).append((start, start + length))
        return rows

    # --- dense conversion (rendering + test oracles) ---

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMask":
        """Encode a (height, width) boolean/0-1 array into RLE runs."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        h, w = dense.shape
        padded = np.zeros((h, w + 2), dtype=np.int8)
        padded[:, 1:-1] = dense.astype(bool)
        edges = np.diff(padded, axis=1)
        rows, starts = np.nonzero(edges == 1)
        _, ends = np.nonzero(edges == -1)
        # nonzero is row-major sorted, so starts/ends pair up in order
        runs = tuple(zip(rows.tolist(), starts.tolist(), (ends - starts).tolist()))
        return cls(width=w, height=h, runs=runs)

    def to_dense(self) -> np.ndarray:
        """Decode to a (height, width) boolean array."""
        out = np.zeros((self.height, self.width), dtype=bool)
        for row, start, length in self.runs:
            out[row, start : start + length] = True
        return out

    # --- text form (fixture serialization) ---

    def to_text(self) -> str:
        """Serialize to the ``W H; row:start+len,...`` text form."""
        parts = [f"{self.width} {self.height}"]
        row_groups: dict[int, list[str]] = {}
        for row, start, length in self.runs:
            row_groups.setdefault(row, []).append(f"{start}+{length}")
        for row in sorted(row_groups):
            parts.append(f"{row}:" + ",".join(row_groups[row]))
        return "; ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "BitMask":
        """Parse the ``W H; row:start+len,...`` text form."""
        chunks = [c.strip() for c in text.strip().split(";")]
        try:
            w_str, h_str = chunks[0].split()
            width, height = int(w_str), int(h_str)
        except ValueError as exc:
            raise ValueError(f"bad mask header {chunks[0]!r}") from exc
        runs: list[tuple[int, int, int]] = []
        for chunk in chunks[1:]:
            if not chunk:
                continue
            row_str, _, run_list = chunk.partition(":")
            row = int(row_str)
            for item in run_list.split(","):
                start_str, _, len_str = item.partition("+")
                runs.append((row, int(start_str), int(len_str)))
        return cls(width=width, height=height, runs=tuple(runs))


def mask_iou(a: BitMask, b: BitMask) -> float:
    """IoU of two same-sized masks; 0 if either (or both) is empty.

    Raises ValueError on a dimension mismatch, which is a caller bug.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    area_a, area_b = a.area, b.area
    if area_a == 0 or area_b == 0:
        return 0.0
    inter = 0
    rows_b = b._rows
    for row, intervals_a in a._rows.items():
        intervals_b = rows_b.get(row)
        if not intervals_b:
            continue
        i = j = 0
        while i < len(intervals_a) and j < len(intervals_b):
            sa, ea = intervals_a[i]
            sb, eb = intervals_b[j]
            lo, hi = max(sa, sb), min(ea, eb)
            if hi > lo:
                inter += hi - lo
            if ea <= eb:
                i += 1
            else:
                j += 1
    return inter / (area_a + area_b - inter)


def mask_to_bbox(m: BitMask) -> BBox | None:
    """Tightest axis-aligned box covering all foreground; None when empty."""
    if m.is_empty:
        return None
    x0 = min(start for _, start, _ in m.runs)
    x1 = max(start + length for _, start, length in m.runs)
    y0 = m.runs[0][0]
    y1 = m.runs[-1][0] + 1
    return BBox(float(x0), float(y0), float(x1 - x0), float(y1 - y0))
