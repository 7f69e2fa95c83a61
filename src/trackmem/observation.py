"""Per-frame segmenter output consumed by every memory policy.

A frame observation is the mocked decoder's product: exactly three mask
proposals (the usual multi-mask convention), each carrying an affinity /
predicted-quality score ``s_mask`` in [0, 1] and a sign-meaningful object
score ``s_obj``, plus a frame-level object presence score ``o`` and an
optional feature grid for prototype extraction. Nothing here knows about
neural backbones; the types decouple the memory framework from whatever
produced the scores.

Observation sequences serialize to JSON-lines (one frame per line) with
masks in the RLE text form from :mod:`trackmem.geometry`; that is the
golden-fixture format used by the regression tests.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import finite, shown
from .geometry import BBox, BitMask, mask_to_bbox

__all__ = [
    "Proposal",
    "FrameObservation",
    "FeatureGrid",
    "Prototype",
    "covered_labels",
    "pooled_prototype",
    "extract_prototypes",
    "cosine",
    "observation_to_line",
    "observation_from_line",
]

PROPOSALS_PER_FRAME = 3


@dataclass(frozen=True)
class Prototype:
    """Pooled appearance vector; zero vector when pooled over nothing.

    ``norm`` is the vector's Euclidean norm as a Python float, computed once
    here as ``math.sqrt(vec.dot(vec))``: for a 1-D real vector that is what
    ``np.linalg.norm`` computes, and both square roots are correctly
    rounded, so the bits are the same. ``vec`` is a read-only C-contiguous
    float64 copy of the input, the order in which ``np.linalg.norm`` reads
    it. Prototypes compare and hash by the bits of ``vec``.

    A vector with a NaN or infinite element is rejected, and so is a finite
    one whose squared norm overflows: its norm would be ``inf`` and every
    cosine against it ``nan``. The elements are scanned only when the
    squared norm is not finite, which is the only case where either holds.
    numpy warns of the overflow before the ``ValueError``; where warnings
    are errors, the ``ValueError`` is raised in place of that warning.
    """

    vec: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vec = np.array(self.vec, dtype=float, order="C")
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)
        if vec.ndim != 1:
            raise ValueError("prototype must be a 1-D vector")
        try:
            sq = float(vec.dot(vec))
        except RuntimeWarning:  # numpy's overflow warning, where warnings are errors
            sq = math.inf
        if not math.isfinite(sq):
            if not np.isfinite(vec).all():
                raise ValueError("prototype must be finite")
            raise ValueError("prototype norm overflows: its squared norm exceeds the float64 range")
        object.__setattr__(self, "norm", math.sqrt(sq))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prototype):
            return NotImplemented
        return self.vec.tobytes() == other.vec.tobytes()

    def __hash__(self) -> int:
        return hash(self.vec.tobytes())

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass(frozen=True, init=False)
class FeatureGrid:
    """A (height, width, dim) feature map at cell resolution, as a palette.

    ``palette`` is a (k, dim) float64 array of cell vectors and ``labels`` a
    (height, width) array, of the smallest unsigned integer type that can
    index k rows, naming each cell's row; ``values`` is ``palette[labels]``.
    A scene's cells take only a few distinct vectors, so a grid costs one
    small integer per cell, and the frames of a scene can share one palette.

    ``FeatureGrid(values)`` factorizes a dense array on the exact bytes of
    its cells, so ``values`` gives back the same bits (``-0.0`` stays apart
    from ``0.0``); :meth:`from_labels` takes the two arrays as they are.
    Grids compare equal when their ``values`` are bit-identical. Treat both
    arrays as read-only.
    """

    palette: np.ndarray
    labels: np.ndarray

    def __init__(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 3:
            raise ValueError("feature grid must have shape (height, width, dim)")
        height, width, dim = values.shape
        if dim < 1:
            raise ValueError("feature grid must have dim >= 1")
        cells = np.ascontiguousarray(values).reshape(height * width, dim)
        keys = cells.view(np.dtype((np.void, cells.itemsize * dim))).reshape(-1)
        _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
        label_type = np.min_scalar_type(max(len(first) - 1, 0))
        self._set(cells[first], labels.astype(label_type).reshape(height, width))

    @classmethod
    def from_labels(cls, palette, labels) -> "FeatureGrid":
        """The grid whose cell (i, j) holds ``palette[labels[i, j]]``."""
        grid = cls.__new__(cls)
        grid._set(np.asarray(palette, dtype=float), np.asarray(labels))
        return grid

    def _set(self, palette: np.ndarray, labels: np.ndarray) -> None:
        if palette.ndim != 2 or palette.shape[1] < 1:
            raise ValueError("feature palette must have shape (k, dim) with dim >= 1")
        if not np.all(np.isfinite(palette)):
            raise ValueError("feature grid must be finite")
        if labels.ndim != 2 or labels.dtype.kind != "u":
            raise ValueError("feature labels must be a (height, width) unsigned integer array")
        if labels.size and labels.max() >= len(palette):
            raise ValueError(f"feature label {labels.max()} outside a palette of {len(palette)}")
        object.__setattr__(self, "palette", palette)
        object.__setattr__(self, "labels", labels)

    @property
    def values(self) -> np.ndarray:
        """The dense (height, width, dim) array, built on each call."""
        return self.palette[self.labels]

    def __eq__(self, other) -> bool:
        """Equal when the dense ``values`` are, bit for bit: palette order does
        not matter, and ``-0.0`` differs from ``0.0``."""
        if not isinstance(other, FeatureGrid):
            return NotImplemented
        return (self.labels.shape == other.labels.shape and self.dim == other.dim
                and self.values.tobytes() == other.values.tobytes())

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def dim(self) -> int:
        return self.palette.shape[1]


@dataclass(frozen=True)
class Proposal:
    """One candidate mask with its decoder scores and cached bbox."""

    mask: BitMask
    s_mask: float
    s_obj: float
    bbox: BBox | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.s_mask <= 1.0):
            raise ValueError(f"s_mask must lie in [0, 1], got {self.s_mask}")
        if not finite(self.s_obj):
            raise ValueError(f"s_obj must be finite, got {self.s_obj}")

    @classmethod
    def from_mask(cls, mask: BitMask, s_mask: float, s_obj: float) -> "Proposal":
        return cls(mask=mask, s_mask=s_mask, s_obj=s_obj, bbox=mask_to_bbox(mask))


@dataclass(frozen=True)
class FrameObservation:
    """Decoder output for one frame: 3 proposals plus presence score.

    The proposals' masks share one size and ``o`` is finite; anything else
    is rejected here, naming the frame.

    ``_min_pair_iou`` is the minimum pairwise IoU of the three proposal
    masks, a pure function of the observation; :mod:`trackmem.membank`
    fills it in the first time a DRM gate needs it, so every policy
    stepping over the same observation shares one computation.
    """

    frame_idx: int
    proposals: tuple[Proposal, Proposal, Proposal]
    o: float
    features: FeatureGrid | None = None
    _min_pair_iou: float | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        if self.frame_idx < 0:
            raise ValueError("frame_idx must be >= 0")
        if len(self.proposals) != PROPOSALS_PER_FRAME:
            raise ValueError(
                f"expected exactly {PROPOSALS_PER_FRAME} proposals, got {len(self.proposals)}"
            )
        sizes = {(p.mask.width, p.mask.height) for p in self.proposals}
        if len(sizes) > 1:
            raise ValueError(
                f"frame {self.frame_idx}: proposal masks differ in size: "
                + ", ".join(f"{p.mask.width}x{p.mask.height}" for p in self.proposals)
            )
        if not finite(self.o):
            raise ValueError(f"frame {self.frame_idx}: o must be finite, got {self.o}")


@functools.lru_cache(maxsize=None)
def _cell_spans(grid_h: int, grid_w: int, mask_h: int, mask_w: int
                ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Where each grid cell samples the mask: the pixel nearest its center.

    Returns ``(sample_rows, rows, cols)``. Grid row i samples mask row
    ``sample_rows[i]``. Sample rows and columns never decrease along the
    grid, so the grid rows that sample mask row r are ``rows[r]:rows[r + 1]``,
    and the grid columns whose sample falls in mask columns [a, b) are
    ``cols[a]:cols[b]``. Built once per (grid, mask) size and shared.
    """
    sample_rows = np.minimum((np.arange(grid_h) * 2 + 1) * mask_h // (2 * grid_h), mask_h - 1)
    sample_cols = np.minimum((np.arange(grid_w) * 2 + 1) * mask_w // (2 * grid_w), mask_w - 1)
    return (tuple(sample_rows.tolist()),
            tuple(np.searchsorted(sample_rows, np.arange(mask_h + 1)).tolist()),
            tuple(np.searchsorted(sample_cols, np.arange(mask_w + 1)).tolist()))


def covered_labels(f: FeatureGrid, m: BitMask) -> np.ndarray:
    """The labels of the grid cells ``m`` covers, in row-major cell order.

    The mask is resampled to the grid resolution by nearest neighbor, read
    straight from its runs: only the grid rows inside the mask's row span
    are visited, and each finds the runs of the mask row it samples by
    bisection in the packed runs' rows. Several grid rows may sample one
    mask row.
    """
    labels = f.labels
    packed = memoryview(m.packed).cast("H")
    if not packed:
        return labels.reshape(-1)[:0]
    height, width = labels.shape
    sample_rows, rows, cols = _cell_spans(height, width, m.height, m.width)
    run_rows = packed[::3]
    cells: list[int] = []
    for i in range(rows[packed[0]], rows[packed[-3] + 1]):
        row = sample_rows[i]
        lo = bisect.bisect_left(run_rows, row)
        hi = bisect.bisect_left(run_rows, row + 1, lo)
        base = i * width
        for k in range(3 * lo + 1, 3 * hi, 3):
            start = packed[k]
            cells.extend(range(base + cols[start], base + cols[start + packed[k + 1]]))
    return labels.take(cells)  # indexes the flattened grid


def pooled_prototype(f: FeatureGrid, labels: np.ndarray) -> Prototype:
    """The mean of the palette rows that ``labels`` names, one per covered
    cell; no label yields the zero vector.

    The mean is the sum of the gathered rows divided by their count, which
    is how ``ndarray.mean`` computes it, so the bits are the same.
    """
    n = len(labels)
    if not n:
        return Prototype(np.zeros(f.dim))
    return Prototype(np.add.reduce(f.palette.take(labels, 0), 0) / n)


def extract_prototypes(f: FeatureGrid, m: BitMask) -> Prototype:
    """Mean feature vector over the foreground cells (:func:`covered_labels`),
    pooled by :func:`pooled_prototype`; a mask that covers no cell yields the
    zero vector."""
    return pooled_prototype(f, covered_labels(f, m))


def cosine(a: Prototype, b: Prototype) -> float:
    """Cosine similarity in [-1, 1]; 0 when either vector has zero norm.

    The quotient is taken in numpy float64, so a norm product that
    underflows to zero gives what numpy's division gives, not an error.
    """
    va, vb = a.vec, b.vec
    if len(va) != len(vb):
        raise ValueError(f"prototype dims differ: {a.dim} vs {b.dim}")
    na, nb = a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va.dot(vb) / (na * nb))


# --- JSON-lines fixture format -------------------------------------------


def observation_to_line(obs: FrameObservation) -> str:
    """Serialize one frame to a single JSON line."""
    payload: dict = {
        "frame": obs.frame_idx,
        "o": obs.o,
        "proposals": [
            {"mask": p.mask.to_text(), "s_mask": p.s_mask, "s_obj": p.s_obj}
            for p in obs.proposals
        ],
    }
    if obs.features is not None:
        payload["features"] = {
            "height": obs.features.height,
            "width": obs.features.width,
            "dim": obs.features.dim,
            "values": obs.features.values.reshape(-1).tolist(),
        }
    return json.dumps(payload, separators=(",", ":"))


_NUMBER = (int, float)


def _features_from(fobj) -> FeatureGrid:
    """The ``features`` object of a JSON line as a grid; errors name the key."""
    if not isinstance(fobj, dict):
        raise ValueError(f"features must be a JSON object, got {type(fobj).__name__}")
    shape = []
    for key in ("height", "width", "dim"):
        if key not in fobj:
            raise ValueError(f"features.{key} is missing")
        v = fobj[key]
        if type(v) is not int or v < 1:
            raise ValueError(f"features.{key} must be an integer >= 1, got {shown(v)}")
        shape.append(v)
    if "values" not in fobj:
        raise ValueError("features.values is missing")
    values = fobj["values"]
    n = shape[0] * shape[1] * shape[2]
    if not isinstance(values, list) or len(values) != n:
        got = f"{len(values)} items" if isinstance(values, list) else type(values).__name__
        raise ValueError(f"features.values must be a flat list of height*width*dim = {n}"
                         f" numbers, got {got}")
    bad = next((i for i, v in enumerate(values)
                if type(v) not in _NUMBER or not finite(v)), None)
    if bad is not None:
        raise ValueError(f"features.values[{bad}] must be a finite number,"
                         f" got {shown(values[bad])}")
    return FeatureGrid(np.array(values, dtype=float).reshape(shape))


def _field(obj: dict, key: str, want: tuple[type, ...], what: str, prefix: str = ""):
    """``obj[key]`` if its type is one of ``want`` (a bool is not an int);
    errors name the key as ``prefix + key``."""
    name = prefix + key
    if key not in obj:
        raise ValueError(f"{name} is missing")
    v = obj[key]
    if type(v) not in want or (type(v) is int and not finite(v)):
        raise ValueError(f"{name} must be {what}, got {shown(v)}")
    return v


def _proposal_from(pobj, i: int) -> Proposal:
    """Entry ``i`` of a line's ``proposals``; errors name ``proposals[i].<key>``."""
    prefix = f"proposals[{i}]."
    if not isinstance(pobj, dict):
        raise ValueError(f"proposals[{i}] must be a JSON object, got {type(pobj).__name__}")
    text = _field(pobj, "mask", (str,), "a mask string", prefix)
    try:
        mask = BitMask.from_text(text)
    except ValueError as exc:
        raise ValueError(f"{prefix}mask: {exc}") from exc
    s_mask = _field(pobj, "s_mask", _NUMBER, "a number", prefix)
    s_obj = _field(pobj, "s_obj", _NUMBER, "a number", prefix)
    try:
        return Proposal.from_mask(mask, s_mask, s_obj)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from exc


def observation_from_line(line: str) -> FrameObservation:
    """Parse one JSON line; a malformed field raises ValueError naming its key.

    Numbers must be JSON numbers (bools are refused) and ``frame`` an
    integer; score ranges and mask sizes are checked by the dataclasses.
    """
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError(f"observation line must be a JSON object, got {type(payload).__name__}")
    frame = _field(payload, "frame", (int,), "an integer")
    o = _field(payload, "o", _NUMBER, "a number")
    pobjs = _field(payload, "proposals", (list,), "a JSON array")
    proposals = tuple(_proposal_from(p, i) for i, p in enumerate(pobjs))
    features = None
    if payload.get("features") is not None:
        features = _features_from(payload["features"])
    return FrameObservation(frame_idx=frame, proposals=proposals, o=o, features=features)
