"""Axis-aligned boxes and run-length-encoded binary masks.

Every score in the tracker stack (motion consistency, proposal
disagreement, evaluation overlap) reduces to the IoU algebra in this
module. Boxes are real-valued with a top-left (x, y, w, h) convention, are
immutable tuple records (policies build several per frame), and
their IoU is computed analytically: one pair at a time by ``box_iou``
(the per-proposal gates) or a whole sequence's row pairs at once by
``box_ious`` (evaluation), with the same bits either way. Masks are
stored as row-major RLE so memory entries stay small; the dense-array
conversion serves the benchmark's instrumentation, the demos and the tests.

A mask's area and its column bounds are taken once, at construction, in
the same pass that validates its runs, so neither its area nor its box
walks the runs again. Mask IoU is a single two-pointer walk over both masks'
sorted runs, so it costs the two run counts and never touches pixels.

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

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "BBox",
    "BitMask",
    "box_iou",
    "box_ious",
    "mask_iou",
    "mask_to_bbox",
]


class _BoxFields(NamedTuple):
    x: float
    y: float
    w: float
    h: float


class BBox(_BoxFields):
    """Axis-aligned box, top-left corner (x, y), size (w, h), in pixels.

    An immutable tuple record: it unpacks as ``x, y, w, h``, compares and
    hashes by value (equal to a plain tuple of its fields), pickles, and
    refuses attribute assignment. Every constructor, ``_make`` and
    ``_replace`` included, rejects a negative width or height.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, w: float, h: float) -> "BBox":
        if w < 0 or h < 0:
            raise ValueError(f"box size must be non-negative, got w={w}, h={h}")
        return tuple.__new__(cls, (x, y, w, h))

    @classmethod
    def _make(cls, iterable) -> "BBox":
        return cls(*iterable)

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self
        return (x + w / 2.0, y + h / 2.0)

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "BBox":
        return cls(cx - w / 2.0, cy - h / 2.0, w, h)


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Zero-area operands give 0 by convention. Identical boxes give exactly
    1.0 (the edge arithmetic alone would lose an ulp on fractional
    coordinates). Each box is unpacked once into locals, and the
    conditional expressions pick what ``min`` and ``max`` would: this is
    the per-proposal gate's hot path.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    area_a, area_b = aw * ah, bw * bh
    if area_a == 0.0 or area_b == 0.0:
        return 0.0
    if ax == bx and ay == by and aw == bw and ah == bh:
        return 1.0
    right_a, right_b = ax + aw, bx + bw
    bottom_a, bottom_b = ay + ah, by + bh
    iw = (right_b if right_b < right_a else right_a) - (bx if bx > ax else ax)
    ih = (bottom_b if bottom_b < bottom_a else bottom_a) - (by if by > ay else ay)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    iou = inter / (area_a + area_b - inter)
    return iou if iou < 1.0 else 1.0


def box_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row pair of two ``(n, 4)`` float64 ``x, y, w, h`` arrays.

    The arithmetic of :func:`box_iou`, one array at a time, so each result
    has the bits ``box_iou`` gives the same pair of finite boxes (integer
    fields included, while their products stay below 2**53). The quotient
    is taken for every row, then the rules overwrite it from the last to
    the first, so each row keeps the value of the first rule that holds.
    Finite edges hold no nan, so ``np.minimum`` and ``np.maximum`` agree
    with ``min`` and ``max`` there; the clamp is a ``np.where``, which maps
    the nan an overflowing union can give to 1.0 as ``min(1.0, nan)`` does.
    """
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        area_a, area_b = aw * ah, bw * bh
        iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = iw * ih
        iou = inter / (area_a + area_b - inter)
    iou = np.where(iou < 1.0, iou, 1.0)
    iou[(iw <= 0.0) | (ih <= 0.0)] = 0.0
    iou[(a == b).all(axis=1)] = 1.0
    iou[(area_a == 0.0) | (area_b == 0.0)] = 0.0
    return iou


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
        area = 0
        col0, col1 = self.width, 0
        for row, start, length in self.runs:
            end = start + length
            if length < 1:
                raise ValueError(f"run length must be >= 1, got {length}")
            if not (0 <= row < self.height):
                raise ValueError(f"run row {row} outside height {self.height}")
            if start < 0 or end > self.width:
                raise ValueError(f"run [{start}, {end}) outside width {self.width}")
            if row < prev_row:
                raise ValueError("runs must be sorted by row")
            if row == prev_row and start < prev_end:
                raise ValueError("runs within a row must be sorted and disjoint")
            prev_row, prev_end = row, end
            area += length
            if start < col0:
                col0 = start
            if end > col1:
                col1 = end
        object.__setattr__(self, "_area", area)
        object.__setattr__(self, "_cols", (col0, col1))
        # set here, not on first use: CPython keeps a few attributes in a compact
        # per-instance array, and one added later can spill all into a dict
        object.__setattr__(self, "_text", None)
        object.__setattr__(self, "_sha1", None)

    @property
    def is_empty(self) -> bool:
        return not self.runs

    @property
    def area(self) -> int:
        """Foreground pixel count."""
        return self._area

    # --- dense conversion (benchmark instrumentation, demos and tests) ---

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMask":
        """Encode a (height, width) boolean/0-1 array into maximal RLE runs."""
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
        """Serialize to the ``W H; row:start+len,...`` text form.

        The text is encoded on the first call and kept on the mask.
        """
        text = self._text
        if text is None:
            parts = [f"{self.width} {self.height}"]
            last_row = -1
            for row, start, length in self.runs:
                if row == last_row:
                    parts.append(f",{start}+{length}")
                else:
                    parts.append(f"; {row}:{start}+{length}")
                    last_row = row
            text = "".join(parts)
            object.__setattr__(self, "_text", text)
        return text

    def text_sha1(self) -> str:
        """The sha1 hex digest of :meth:`to_text`, computed once and kept on the mask."""
        digest = self._sha1
        if digest is None:
            digest = hashlib.sha1(self.to_text().encode()).hexdigest()
            object.__setattr__(self, "_sha1", digest)
        return digest

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

    One merge walk over both sorted run lists: runs of the same row add
    their overlap, and whichever run ends first (or sits on the earlier
    row) advances. Masks whose row ranges are disjoint return at once.
    Raises ValueError on a dimension mismatch, which is a caller bug.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    runs_a, runs_b = a.runs, b.runs
    if not runs_a or not runs_b or runs_a[-1][0] < runs_b[0][0] \
            or runs_b[-1][0] < runs_a[0][0]:
        return 0.0
    inter = 0
    i = j = 0
    n_a, n_b = len(runs_a), len(runs_b)
    while i < n_a and j < n_b:
        row_a, start_a, len_a = runs_a[i]
        row_b, start_b, len_b = runs_b[j]
        if row_a < row_b:
            i += 1
        elif row_b < row_a:
            j += 1
        else:
            # conditional expressions, not min/max: this loop is the hot path
            lo = start_a if start_a > start_b else start_b
            end_a, end_b = start_a + len_a, start_b + len_b
            if end_a <= end_b:
                i += 1
                if end_a > lo:
                    inter += end_a - lo
            else:
                j += 1
                if end_b > lo:
                    inter += end_b - lo
    return inter / (a.area + b.area - inter)


def mask_to_bbox(m: BitMask) -> BBox | None:
    """Tightest axis-aligned box covering all foreground; None when empty."""
    if m.is_empty:
        return None
    x0, x1 = m._cols
    y0 = m.runs[0][0]
    y1 = m.runs[-1][0] + 1
    return BBox(float(x0), float(y0), float(x1 - x0), float(y1 - y0))
