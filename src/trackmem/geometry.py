"""Axis-aligned boxes and run-length-encoded binary masks.

Every score in the tracker stack (motion consistency, proposal
disagreement, evaluation overlap) reduces to the IoU algebra in this
module. Boxes are real-valued with a top-left (x, y, w, h) convention, are
immutable tuple records (policies build several per frame), and
their IoU is computed analytically: one pair at a time by ``box_iou``
(the per-proposal gates) or a whole sequence's row pairs at once by
``box_ious`` (evaluation), with the same bits either way. Masks are
stored as row-major RLE, each run three unsigned 16-bit values in one
``bytes`` string per mask, so a generated scene's masks stay small; the
dense-array conversion serves the benchmark's instrumentation, the demos
and the tests.

A mask's area and its column bounds are taken once, at construction, in
the same vectorized pass that validates its runs (one pass per batch of
masks), so neither its area nor its box walks the runs again. Mask IoU is a
single two-pointer walk over both masks' sorted runs, so it costs the two
run counts and never touches pixels.

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
import operator
from typing import NamedTuple

import numpy as np

from .checks import shown

__all__ = [
    "MAX_SIDE",
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


MAX_SIDE = 0xFFFF  # a mask's width and height: its runs are unsigned 16-bit values


def _run_error(width: int, height: int, run, prev: tuple[int, int]) -> str:
    """Why ``run`` is rejected, given ``prev``, the (row, end) of the mask's
    previous run ((-1, -1) for its first): the first rule it breaks."""
    row, start, length = run
    end = start + length
    if length < 1:
        return f"run length must be >= 1, got {shown(length)}"
    if not 0 <= row < height:
        return f"run row {shown(row)} outside height {height}"
    if start < 0 or end > width:
        return f"run [{shown(start)}, {shown(end)}) outside width {width}"
    if row < prev[0]:
        return "runs must be sorted by row"
    return "runs within a row must be sorted and disjoint"


def _packed(width: int, height: int, values: np.ndarray, cuts: list[int], given=None
            ) -> tuple[bytes, list[int], list[int], list[int]]:
    """Check the runs of a batch of masks and pack them: the one run validator.

    ``values`` is an (n, 3) int64 array of (row, start, length) runs, and
    mask k has rows ``cuts[k]:cuts[k + 1]`` (``cuts[0]`` is 0, ``cuts[-1]``
    is n). Each run must lie inside the grid with a length of at least 1,
    and follow its mask's previous run in row order, disjoint from it on a
    shared row. The first run that breaks a rule raises ValueError, worded
    from ``given[i]`` (the runs as the caller gave them) or else from
    ``values[i]``. Returns the runs as one ``bytes`` string of native
    16-bit row, start and length values, and per mask its area, its first
    column and the end of its last column (``width`` and 0 for an empty mask).
    """
    if width < 0 or height < 0:
        raise ValueError("mask dimensions must be non-negative")
    for name, side in (("width", width), ("height", height)):
        if side > MAX_SIDE:
            raise ValueError(f"mask {name} {shown(side)} exceeds {MAX_SIDE}, the largest"
                             " side of 16-bit runs")
    rows, starts, lengths = values.T
    ends = starts + lengths
    bad = (lengths < 1) | (rows < 0) | (rows >= height) | (starts < 0) | (ends > width)
    first = np.asarray(cuts[:-1], dtype=np.intp)
    # per run after the first: whether it follows a run of its own mask
    follows = np.ones(len(values), dtype=bool)
    follows[first[first < len(values)]] = False
    follows = follows[1:]
    prev_rows, prev_ends = rows[:-1], ends[:-1]
    bad[1:] |= follows & ((rows[1:] < prev_rows)
                          | ((rows[1:] == prev_rows) & (starts[1:] < prev_ends)))
    if bad.any():
        i = int(bad.argmax())
        prev = (int(prev_rows[i - 1]), int(prev_ends[i - 1])) if i and follows[i - 1] \
            else (-1, -1)
        raise ValueError(_run_error(width, height, values[i].tolist() if given is None
                                    else given[i], prev))
    packed = values.astype(np.uint16).tobytes()
    n_masks = len(cuts) - 1
    areas = np.zeros(n_masks, dtype=np.int64)
    col0 = np.full(n_masks, width, dtype=np.int64)
    col1 = np.zeros(n_masks, dtype=np.int64)
    full = first < np.asarray(cuts[1:])
    if full.any():
        # runs of masks without runs lie between the firsts of their neighbours
        first = first[full]
        areas[full] = np.add.reduceat(lengths, first)
        col0[full] = np.minimum.reduceat(starts, first)
        col1[full] = np.maximum.reduceat(ends, first)
    return packed, areas.tolist(), col0.tolist(), col1.tolist()


def _triples(runs) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """``runs`` as given to :class:`BitMask`: an (n, 3) int64 array for
    :func:`_packed`, and the triples of Python ints it words errors from.

    A value outside [-1, MAX_SIDE + 1] breaks a rule of every run it can
    sit in, so the array holds it clipped to that range and fails where
    the value does.
    """
    given = []
    for run in runs:
        try:
            row, start, length = (operator.index(v) for v in run)
        except (TypeError, ValueError):
            raise ValueError("runs must be (row, start, length) triples of integers,"
                             f" got {shown(run)}") from None
        given.append((row, start, length))
    values = np.array([[min(max(v, -1), MAX_SIDE + 1) for v in run] for run in given],
                      dtype=np.int64).reshape(-1, 3)
    return values, given


class BitMask:
    """Binary mask as row-major RLE runs.

    ``packed`` holds the runs as one ``bytes`` string of native unsigned
    16-bit (row, start, length) values, read as ``memoryview(packed).cast("H")``,
    6 bytes a run, sorted by row; runs within a row never touch or overlap
    (maximal runs), and all runs lie inside the width x height grid.
    ``runs`` gives the same runs as a tuple of triples, built on each
    access, for tests and demos; a mask with no runs is empty. 16-bit values
    bound a side at ``MAX_SIDE`` (65,535) px, and every constructor rejects
    a larger one.

    ``BitMask(width, height, runs)`` takes the triples; :meth:`batch`
    builds the masks of one (n, 3) run array, slicing one packed buffer.
    Masks are immutable, and compare and hash by width, height and runs.
    A mask's area and its column bounds are taken once, when it is built.
    """

    __slots__ = ("width", "height", "packed", "_area", "_col0", "_col1", "_text", "_sha1")

    def __init__(self, width: int, height: int, runs=()) -> None:
        values, given = _triples(runs)
        packed, (area,), (col0,), (col1,) = _packed(width, height, values,
                                                   [0, len(values)], given)
        self._set(width, height, packed, area, col0, col1)

    def _set(self, width: int, height: int, packed: bytes, area: int, col0: int,
             col1: int) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "width", width)
        setattr_(self, "height", height)
        setattr_(self, "packed", packed)
        setattr_(self, "_area", area)
        setattr_(self, "_col0", col0)
        setattr_(self, "_col1", col1)
        setattr_(self, "_text", None)
        setattr_(self, "_sha1", None)

    @classmethod
    def batch(cls, width: int, height: int, runs: np.ndarray, cuts: list[int]
              ) -> list["BitMask"]:
        """The width x height masks whose runs are rows ``cuts[k]:cuts[k + 1]``
        of ``runs``, an (n, 3) integer array of (row, start, length) runs;
        ``cuts`` runs from 0 to n. One check covers the whole batch, and the
        masks' packed runs are slices of one ``bytes`` string."""
        runs = np.asarray(runs, dtype=np.int64).reshape(-1, 3)
        packed, areas, col0s, col1s = _packed(width, height, runs, cuts)
        new = object.__new__
        masks = []
        for i, j, area, col0, col1 in zip(cuts, cuts[1:], areas, col0s, col1s):
            mask = new(cls)
            mask._set(width, height, packed[6 * i:6 * j], area, col0, col1)
            masks.append(mask)
        return masks

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not BitMask:
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and self.packed == other.packed)

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.packed))

    def __repr__(self) -> str:
        return f"BitMask.from_text({self.to_text()!r})"

    def __reduce__(self):
        return BitMask.from_text, (self.to_text(),)

    @property
    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """The (row, start, length) triples, built on each access."""
        values = iter(memoryview(self.packed).cast("H"))
        return tuple(zip(values, values, values))

    @property
    def is_empty(self) -> bool:
        return not self.packed

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
        runs = np.stack([rows, starts, ends - starts], axis=1)
        return cls.batch(w, h, runs, [0, len(runs)])[0]

    def to_dense(self) -> np.ndarray:
        """Decode to a (height, width) boolean array."""
        out = np.zeros((self.height, self.width), dtype=bool)
        values = iter(memoryview(self.packed).cast("H"))
        for row, start, length in zip(values, values, values):
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
            values = iter(memoryview(self.packed).cast("H"))
            for row, start, length in zip(values, values, values):
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
        """Parse the ``W H; row:start+len,...`` text form.

        A header or a row's group of runs that does not parse raises
        ValueError quoting it; the runs are then checked as
        ``BitMask(width, height, runs)`` checks them.
        """
        chunks = [c.strip() for c in text.strip().split(";")]
        try:
            w_str, h_str = chunks[0].split()
            width, height = int(w_str), int(h_str)
        except ValueError as exc:
            raise ValueError(f"bad mask header {shown(chunks[0])}") from exc
        runs: list[tuple[int, int, int]] = []
        for chunk in chunks[1:]:
            if not chunk:
                continue
            row_str, _, run_list = chunk.partition(":")
            try:
                row = int(row_str)
                for item in run_list.split(","):
                    start_str, _, len_str = item.partition("+")
                    runs.append((row, int(start_str), int(len_str)))
            except ValueError as exc:
                raise ValueError(f"bad mask run group {shown(chunk)}") from exc
        return cls(width, height, runs)


def mask_iou(a: BitMask, b: BitMask) -> float:
    """IoU of two same-sized masks; 0 if either (or both) is empty.

    One merge walk over both sorted packed runs, read as triples: runs of
    the same row add their overlap, and whichever run ends first (or sits
    on the earlier row) advances; the walk ends when either mask runs out.
    Masks whose row ranges are disjoint return at once. Raises ValueError
    on a dimension mismatch, which is a caller bug.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    packed_a, packed_b = memoryview(a.packed).cast("H"), memoryview(b.packed).cast("H")
    if not packed_a or not packed_b or packed_a[-3] < packed_b[0] \
            or packed_b[-3] < packed_a[0]:
        return 0.0
    values_a, values_b = iter(packed_a), iter(packed_b)
    runs_a = zip(values_a, values_a, values_a)
    runs_b = zip(values_b, values_b, values_b)
    row_a, start_a, len_a = next(runs_a)
    row_b, start_b, len_b = next(runs_b)
    inter = 0
    try:
        while True:
            if row_a < row_b:
                row_a, start_a, len_a = next(runs_a)
            elif row_b < row_a:
                row_b, start_b, len_b = next(runs_b)
            else:
                # conditional expressions, not min/max: this loop is the hot path
                lo = start_a if start_a > start_b else start_b
                end_a, end_b = start_a + len_a, start_b + len_b
                if end_a <= end_b:
                    if end_a > lo:
                        inter += end_a - lo
                    row_a, start_a, len_a = next(runs_a)
                else:
                    if end_b > lo:
                        inter += end_b - lo
                    row_b, start_b, len_b = next(runs_b)
    except StopIteration:  # a mask has no run left to overlap the other's
        pass
    return inter / (a.area + b.area - inter)


def mask_to_bbox(m: BitMask) -> BBox | None:
    """Tightest axis-aligned box covering all foreground; None when empty."""
    values = memoryview(m.packed).cast("H")
    if not values:
        return None
    x0, x1 = m._col0, m._col1
    y0, y1 = values[0], values[-3] + 1
    return BBox(float(x0), float(y0), float(x1 - x0), float(y1 - y0))
