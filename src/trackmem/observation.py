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

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BBox, BitMask, mask_to_bbox

__all__ = [
    "Proposal",
    "FrameObservation",
    "FeatureGrid",
    "Prototype",
    "extract_prototypes",
    "cosine",
    "observation_to_line",
    "observation_from_line",
]

PROPOSALS_PER_FRAME = 3


@dataclass(frozen=True)
class Prototype:
    """Pooled appearance vector; zero vector when pooled over nothing.

    ``norm`` is the vector's Euclidean norm, computed once here; treat
    ``vec`` as read-only.
    """

    vec: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=float))
        if self.vec.ndim != 1:
            raise ValueError("prototype must be a 1-D vector")
        if not np.all(np.isfinite(self.vec)):
            raise ValueError("prototype must be finite")
        object.__setattr__(self, "norm", np.linalg.norm(self.vec))

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass(frozen=True)
class FeatureGrid:
    """Dense (height, width, dim) feature map at cell resolution."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 3:
            raise ValueError("feature grid must have shape (height, width, dim)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature grid must be finite")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


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
        if not math.isfinite(self.s_obj):
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
        if not math.isfinite(self.o):
            raise ValueError(f"frame {self.frame_idx}: o must be finite, got {self.o}")


@functools.lru_cache(maxsize=None)
def _cell_pixels(grid_h: int, grid_w: int, mask_h: int, mask_w: int) -> np.ndarray:
    """Row-major flat index of the mask pixel nearest each grid cell's center.

    Built once per (grid, mask) size and shared, so the array is read-only.
    """
    rows = np.minimum((np.arange(grid_h) * 2 + 1) * mask_h // (2 * grid_h), mask_h - 1)
    cols = np.minimum((np.arange(grid_w) * 2 + 1) * mask_w // (2 * grid_w), mask_w - 1)
    flat = (rows[:, None] * mask_w + cols[None, :]).reshape(-1)
    flat.flags.writeable = False
    return flat


def extract_prototypes(f: FeatureGrid, m: BitMask) -> Prototype:
    """Mean feature vector over the foreground cells.

    The mask is resampled to the grid resolution by nearest neighbor; a
    mask that covers no cell yields the zero vector.
    """
    sel = m.to_dense().reshape(-1)[_cell_pixels(f.height, f.width, m.height, m.width)]
    if not sel.any():
        return Prototype(np.zeros(f.dim))
    return Prototype(f.values.reshape(f.height * f.width, f.dim)[sel].mean(axis=0))


def cosine(a: Prototype, b: Prototype) -> float:
    """Cosine similarity in [-1, 1]; 0 when either vector has zero norm."""
    if a.dim != b.dim:
        raise ValueError(f"prototype dims differ: {a.dim} vs {b.dim}")
    na, nb = a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a.vec, b.vec) / (na * nb))


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


def observation_from_line(line: str) -> FrameObservation:
    payload = json.loads(line)
    proposals = tuple(
        Proposal.from_mask(BitMask.from_text(p["mask"]), p["s_mask"], p["s_obj"])
        for p in payload["proposals"]
    )
    features = None
    if payload.get("features") is not None:
        fobj = payload["features"]
        values = np.array(fobj["values"], dtype=float).reshape(
            fobj["height"], fobj["width"], fobj["dim"]
        )
        features = FeatureGrid(values)
    return FrameObservation(
        frame_idx=payload["frame"], proposals=proposals, o=payload["o"], features=features
    )

