"""Deterministic synthetic scenes and a mock multi-mask decoder.

Stands in for real benchmark videos: a target (rendered as a filled
ellipse) moves through a pixel grid under a configured motion model,
optional rectangular distractors wander independently, and optional
occlusion windows hide the target. Per frame the mock decoder emits the
usual three proposals:

1. a target-aligned mask, jittered in proportion to the score noise,
   whose quality score is its true overlap with the ground truth plus
   clamped Gaussian noise;
2. a nearest-distractor mask whose score is pulled into the target's
   score range in proportion to the configured appearance similarity
   (that overlap is what fools affinity-only selection);
3. a merged target-plus-distractor mask (or an inflated target mask when
   there are no distractors), honestly scored by its own overlap.

During occlusion the target-aligned proposal degrades: its area shrinks,
its score mean drops well below 0.3, and the frame-level presence score
goes non-positive with probability 0.8, while distractor proposals
persist. Feature grids label each cell with the prototype of whichever
object covers it, so prototype extraction recovers appearance vectors
whose cosine to the target prototype equals the configured similarity.
A scene's cells take only its ``n_distractors + 2`` prototypes, so its
grids are one (frames, cells_h, cells_w) array of small integer labels
into one shared palette of those vectors, and each frame's
:class:`~trackmem.observation.FeatureGrid` is a view of it. A record's
ground truth is one box per frame, None while the target is occluded,
and its visibility flags are read off those boxes; the GT sidecar's
``visible`` field must agree with its ``box``.

Masks are rendered with the full-grid per-pixel predicate (is the pixel
center inside the shape?), and every shape row yields at most one run in
grid coordinates. A scene renders each kind of mask for all its frames at
once: one call of the ellipse kernel per set of boxes (ground truth, the
target-aligned proposals, and the no-distractor fillers), and one call of
the rectangle kernel for the nearest-distractor proposals. Per box, the
kernels hold one term per grid column and one per grid row, never a
frame's pixels. A rectangle's runs come straight from the spans of its
two per-axis tests. An ellipse row passes where the column term plus the
row term is at most 1; that sum falls and then rises along the row (each
float step is monotone on either side of the center), so the row's
passing pixels form one run around its least column term, and a
vectorized binary search finds both ends. The merged proposal is the union
of two such masks, merged row by row, and both ground-truth IoUs count the
pixels the ground truth's run on each row shares with the other mask's
runs there, then divide as :func:`trackmem.geometry.mask_iou` does. These
steps work on the runs alone, never on a (frames, rows) array. Every mask
matches a full-grid render run for run, and the whole sequence matches a
per-frame dense render (``tests/reference.py`` keeps both references).
Only the masks a record exposes become :class:`~trackmem.geometry.BitMask`
objects: the three proposals of every frame and the frame-0 prompt, each
kind's masks packed from one buffer of 16-bit run values. The feature
labels of all frames, each frame's nearest distractor and the decoder's
scores are computed on (frames, ...) arrays too; the frame loop only
builds the objects.

A scene is a world and a decoder. The world (:func:`_world`) is the
prototypes, the target's and distractors' paths and the occlusion flags;
the ground truth and the feature grids depend on it alone. The decoder
(:func:`_decode`) maps a world and its ground truth to the proposals and
their scores. Randomness comes from one Philox counter-based generator
keyed by the scene seed (no global RNG). The world draws from it first:
the target prototype, each distractor's prototype, the background, the
target's path, then each distractor's scale, start, heading and speed.
The decoder draws next, whatever its branches take: per frame the jitter
(4 values), the score noise (3), the presence noise, the occlusion coin,
the absent-presence noise (2) and the object-score noise (2), each kind
for all frames at once. So a config is a pure function of its fields:
the same config always yields a byte-identical sequence.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import check_label, check_numbers, finite, from_json, shown, to_json
from .geometry import MAX_SIDE, BBox, BitMask
# Generation no longer calls mask_iou, but the benchmark's instrumentation
# (perfbench/workloads.py) wraps the name in this module's namespace.
from .geometry import mask_iou  # noqa: F401
from .observation import (
    FeatureGrid,
    FrameObservation,
    Proposal,
    observation_from_line,
    observation_to_line,
)

__all__ = [
    "MotionSpec",
    "SceneConfig",
    "SequenceRecord",
    "gen_sequence",
    "suite_standard",
    "write_record",
    "read_record",
    "config_to_dict",
    "config_from_dict",
]


@dataclass(frozen=True)
class MotionSpec:
    """Target trajectory model plus the rendered box size."""

    kind: str = "linear"  # linear | sinusoid | random_walk
    speed: float = 2.0
    amplitude: float = 48.0
    frequency: float = 0.05
    step_sigma: float = 2.5
    size: tuple[float, float] = (36.0, 28.0)

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.kind not in ("linear", "sinusoid", "random_walk"):
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.size[0] <= 0 or self.size[1] <= 0:
            raise ValueError("target size must be positive")
        if self.step_sigma < 0:
            raise ValueError(f"step_sigma must be >= 0, got {shown(self.step_sigma)}")
        if not -1e100 <= self.frequency <= 1e100:  # the sinusoid's phase must stay finite
            raise ValueError(f"frequency must lie in [-1e100, 1e100], got {shown(self.frequency)}")


@dataclass(frozen=True)
class SceneConfig:
    """Seeded scenario description; the whole sequence derives from it."""

    seed: int
    frames: int = 110
    grid: tuple[int, int] = (256, 256)  # (width, height) px
    target_motion: MotionSpec = field(default_factory=MotionSpec)
    n_distractors: int = 0
    distractor_similarity: float = 0.0
    occlusions: tuple[tuple[int, int], ...] = ()
    score_noise: float = 0.05
    proto_dim: int = 8
    family: str = "custom"

    def __post_init__(self) -> None:
        check_numbers(self)
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed!r}")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        # the bounds below keep a scene's arrays within memory and its generation
        # within seconds: its paths and masks grow with frames, its feature labels
        # with frames x cells, and its distractors' paths and labeling, one Python
        # pass each, with distractors x frames x cells
        if self.frames > 100_000:
            raise ValueError(f"frames must be <= 100,000, got {self.frames!r}")
        if min(self.grid) < 1:
            raise ValueError(f"grid must have sides >= 1, got {self.grid!r}")
        if max(self.grid) > MAX_SIDE:
            raise ValueError(f"grid must have sides <= {MAX_SIDE} (masks hold 16-bit runs),"
                             f" got {shown(self.grid)}")
        cells_w, cells_h = _feature_cells(self.grid)
        if self.frames * cells_w * cells_h > 2 ** 25:
            raise ValueError(f"frames and grid must give at most 2**25 feature cells in all,"
                             f" got {self.frames!r} frames of {cells_w} x {cells_h} cells")
        if self.n_distractors * self.frames * cells_w * cells_h > 2 ** 25:
            raise ValueError(f"n_distractors must give at most 2**25 distractor feature cells"
                             f" in all, got {self.n_distractors!r} distractors on {self.frames!r}"
                             f" frames of {cells_w} x {cells_h} cells")
        # a side under 2 px can render an empty prompt (a 1 x 1 ellipse between
        # pixel centers)
        size = self.target_motion.size
        if min(size) < 2.0:
            raise ValueError(f"target_motion.size must have sides >= 2, got {size!r}")
        # the paths keep each box 1 px inside the grid: the target, and the
        # distractors, scaled by up to 1.2 (same float steps as the paths)
        scale = 1.2 if self.n_distractors > 0 else 1.0
        for side, extent in zip(self.grid, size):
            half = extent * scale / 2.0
            if side - half - 1.0 < half + 1.0:
                raise ValueError(
                    f"grid must exceed target_motion.size{' x 1.2' * (scale > 1.0)} by 2 px"
                    f" per side, got grid {self.grid!r} and target_motion.size {size!r}")
        if not 0 <= self.score_noise <= 1e100:  # it scales the jitter: keep far from overflow
            raise ValueError(f"score_noise must lie in [0, 1e100], got {shown(self.score_noise)}")
        if not (0.0 <= self.distractor_similarity <= 1.0):
            raise ValueError("distractor similarity must lie in [0, 1]")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be >= 0")
        if not 2 <= self.proto_dim <= 1024:
            raise ValueError(f"proto_dim must lie in [2, 1024], got {self.proto_dim!r}")
        # the harness names log files after the family
        check_label(self.family, "family")
        if not isinstance(self.occlusions, tuple):
            raise ValueError("occlusions must be an array of [start, end] pairs,"
                             f" got {self.occlusions!r}")
        for interval in self.occlusions:
            if not (isinstance(interval, tuple) and len(interval) == 2
                    and all(type(v) is int for v in interval)):
                raise ValueError(f"occlusions must be pairs of integers, got {interval!r}")
            start, end = interval
            if not (1 <= start < end <= self.frames):
                raise ValueError(
                    f"occlusion [{start}, {end}) must lie within [1, frames);"
                    " frame 0 is the prompt and cannot be occluded"
                )


@dataclass
class SequenceRecord:
    """A generated scenario: config, per-frame GT boxes (None while occluded),
    and observations."""

    config: SceneConfig
    gt_boxes: list[BBox | None]
    observations: list[FrameObservation]
    init_mask: BitMask

    @property
    def gt_visible(self) -> list[bool]:
        """Per frame: whether the target is visible, i.e. has a GT box."""
        return [box is not None for box in self.gt_boxes]


# --- rendering helpers -------------------------------------------------------

# A batch of masks as runs: (mask, row, start, end) arrays, one run per entry
# in mask-then-row order, each covering columns [start, end). A span is a run
# that may be empty (end <= start).
Runs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=None)
def _centers(n: int) -> np.ndarray:
    """Center coordinates ``i + 0.5`` of the ``n`` pixels along one axis.

    Built once per size and shared, so the array is read-only.
    """
    centers = np.arange(n) + 0.5
    centers.flags.writeable = False
    return centers


def _ellipse_runs(x: np.ndarray, y: np.ndarray, w: np.ndarray, h: np.ndarray,
                  width: int, height: int) -> Runs:
    """The ellipses inscribed in boxes (x, y, w, h), given as (n,) arrays."""
    cx, cy = x + w / 2.0, y + h / 2.0
    # np.maximum as max(): both keep a NaN half-size
    a, b = np.maximum(w / 2.0, 1e-9), np.maximum(h / 2.0, 1e-9)
    tx = ((_centers(width) - cx[:, None]) / a[:, None]) ** 2    # (n, width)
    ty = ((_centers(height) - cy[:, None]) / b[:, None]) ** 2   # (n, height)
    # each float step of tx + ty is monotone on either side of the center, so
    # along a row the sum falls to the column of least tx and then rises: the
    # row's passing pixels are one run around that column, if it passes
    low = tx.argmin(axis=1)
    masks, rows = np.nonzero(tx[np.arange(len(low)), low, None] + ty <= 1.0)
    row_term = ty[masks, rows]
    flat, base = tx.ravel(), masks * width

    def passes(col: np.ndarray) -> np.ndarray:
        return flat[base + col] + row_term <= 1.0

    # binary searches that keep a passing column at one end of the interval:
    # the run's first column lies in [lo, first], its last in [last, hi]
    first = last = low[masks]
    lo, hi = np.zeros_like(first), np.full_like(last, width - 1)
    for _ in range(width.bit_length()):
        mid = (lo + first) >> 1
        ok = passes(mid)
        first, lo = np.where(ok, mid, first), np.where(ok, lo, mid + 1)
        mid = (last + hi + 1) >> 1
        ok = passes(mid)
        last, hi = np.where(ok, mid, last), np.where(ok, hi, mid - 1)
    return masks, rows, first, last + 1


def _cover(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per box, the first of the ``n`` pixels whose centers c satisfy
    ``lo <= c < hi``, and how many there are (they are contiguous)."""
    centers = _centers(n)
    inside = (centers >= lo[:, None]) & (centers < hi[:, None])
    return inside.argmax(axis=1), inside.sum(axis=1)


def _rect_runs(x: np.ndarray, y: np.ndarray, w: np.ndarray, h: np.ndarray,
               width: int, height: int) -> Runs:
    """The pixels whose centers lie in boxes (x, y, w, h), given as (n,) arrays."""
    col0, n_cols = _cover(x, x + w, width)
    row0, n_rows = _cover(y, y + h, height)
    n_rows = np.where(n_cols > 0, n_rows, 0)
    masks = np.repeat(np.arange(len(x)), n_rows)
    first_run = np.cumsum(n_rows) - n_rows
    rows = row0[masks] + np.arange(len(masks)) - first_run[masks]
    return masks, rows, col0[masks], (col0 + n_cols)[masks]


def _common(a: Runs, b: Runs, height: int) -> Runs:
    """The spans two batches share on each row where both have a run.

    ``a`` has at most one run per row; ``b`` may have several. The result is
    in ``b``'s order and has one span per run of ``b`` on a row of ``a``,
    empty where the two runs miss each other.
    """
    key_a, key_b = a[0] * height + a[1], b[0] * height + b[1]
    at = np.searchsorted(key_a, key_b)
    hit = at < len(key_a)
    hit[hit] = key_a[at[hit]] == key_b[hit]
    ia, ib = at[hit], hit.nonzero()[0]
    return b[0][ib], b[1][ib], np.maximum(a[2][ia], b[2][ib]), np.minimum(a[3][ia], b[3][ib])


def _pixels(spans: Runs, n: int) -> np.ndarray:
    """Per mask of ``n``, the pixels its spans cover, as exact float counts."""
    return np.bincount(spans[0], weights=np.maximum(spans[3] - spans[2], 0), minlength=n)


def _ratio(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union`` per mask, the division :func:`~trackmem.geometry.mask_iou`
    makes; 0 when both masks are empty (then both counts are 0)."""
    return inter / np.maximum(union, 1.0)


def _iou(a: Runs, b: Runs, n: int, height: int) -> np.ndarray:
    """Per mask, the IoU of two batches: ``a`` of at most one run per row,
    ``b`` of disjoint runs."""
    inter = _pixels(_common(a, b, height), n)
    return _ratio(inter, _pixels(a, n) + _pixels(b, n) - inter)


def _union_runs(a: Runs, b: Runs, width: int, height: int) -> Runs:
    """Pixelwise OR of two batches of at most one run per row.

    A row's two runs merge when they overlap or touch, so runs stay maximal.
    """
    masks, rows, start, end = (np.concatenate(pair) for pair in zip(a, b))
    order = np.argsort((masks * height + rows) * (width + 1) + start)
    masks, rows, start, end = masks[order], rows[order], start[order], end[order]
    # a row has at most two runs: the right one joins the left one when it
    # starts no later than the left one ends
    joins = (masks[1:] == masks[:-1]) & (rows[1:] == rows[:-1]) & (start[1:] <= end[:-1])
    end[:-1][joins] = np.maximum(end[:-1], end[1:])[joins]
    keep = np.ones(len(masks), dtype=bool)
    keep[1:] = ~joins
    return masks[keep], rows[keep], start[keep], end[keep]


def _masks(runs: Runs, n: int, width: int, height: int) -> list[BitMask]:
    """The first ``n`` masks of a batch, as BitMasks packed from one buffer."""
    masks, rows, start, end = runs
    cuts = np.searchsorted(masks, np.arange(n + 1)).tolist()
    stop = cuts[-1]
    return BitMask.batch(width, height,
                         np.stack([rows[:stop], start[:stop], end[:stop] - start[:stop]], axis=1),
                         cuts)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _bounce(pos: np.ndarray, vel: np.ndarray, frames: int, size: tuple[float, float],
            grid: tuple[int, int]) -> np.ndarray:
    """Per-frame centers, shape (frames, 2), of a box of ``size`` moving from ``pos``
    by ``vel`` per frame, reflected (``vel`` flipped in place) at a 1 px margin."""
    centers = np.zeros((frames, 2))
    for t in range(frames):
        centers[t] = pos
        pos = pos + vel
        for axis, (extent, half) in enumerate(
            ((grid[0], size[0] / 2.0 + 1.0), (grid[1], size[1] / 2.0 + 1.0))
        ):
            if pos[axis] < half or pos[axis] > extent - half:
                vel[axis] = -vel[axis]
                pos[axis] = min(max(pos[axis], half), extent - half)
    return centers


def _target_path(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-frame target centers, shape (frames, 2), kept inside the grid."""
    gw, gh = cfg.grid
    spec = cfg.target_motion
    start = np.array([
        gw * 0.5 + rng.uniform(-0.15, 0.15) * gw,
        gh * 0.5 + rng.uniform(-0.15, 0.15) * gh,
    ])
    if spec.kind == "linear":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        vel = spec.speed * np.array([np.cos(theta), np.sin(theta)])
        centers = _bounce(start, vel, cfg.frames, spec.size, cfg.grid)
    elif spec.kind == "sinusoid":
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        t = np.arange(cfg.frames)
        centers = np.zeros((cfg.frames, 2))
        centers[:, 0] = start[0] + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * t + phase[0])
        centers[:, 1] = start[1] + 0.6 * spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * 1.7 * t + phase[1])
    else:  # random_walk
        # finite steps, since inf - inf is NaN; an overflowed sum is pinned below.
        # abs() only turns -0.0 into 0.0, a scale numpy refuses
        top = np.finfo(np.float64).max
        steps = np.clip(rng.normal(0.0, abs(spec.step_sigma), size=(cfg.frames, 2)), -top, top)
        steps[0] = 0.0
        with np.errstate(over="ignore"):
            centers = start[None, :] + np.cumsum(steps, axis=0)
    w, h = spec.size
    # np.minimum(np.maximum(...)) as min(max(...)): the bounds are positive
    return np.minimum(np.maximum(centers, (w / 2.0 + 1.0, h / 2.0 + 1.0)),
                      (gw - w / 2.0 - 1.0, gh - h / 2.0 - 1.0))


def _distractor_paths(cfg: SceneConfig, rng: np.random.Generator
                      ) -> list[tuple[np.ndarray, tuple[float, float]]]:
    """Independent bouncing-linear paths, one per distractor."""
    gw, gh = cfg.grid
    out = []
    for _ in range(cfg.n_distractors):
        scale = rng.uniform(0.8, 1.2)
        size = (cfg.target_motion.size[0] * scale, cfg.target_motion.size[1] * scale)
        start = np.array([
            rng.uniform(size[0] / 2.0 + 1.0, gw - size[0] / 2.0 - 1.0),
            rng.uniform(size[1] / 2.0 + 1.0, gh - size[1] / 2.0 - 1.0),
        ])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        vel = rng.uniform(1.0, 3.0) * np.array([np.cos(theta), np.sin(theta)])
        out.append((_bounce(start, vel, cfg.frames, size, cfg.grid), size))
    return out


def _feature_cells(grid: tuple[int, int]) -> tuple[int, int]:
    gw, gh = grid
    return max(4, gw // 16), max(4, gh // 16)


def _nearest_distractors(target_centers: np.ndarray,
                         distractors: list[tuple[np.ndarray, tuple[float, float]]]
                         ) -> list[int]:
    """Per frame, the index of the distractor whose center is nearest the
    target's (the first on ties); empty when there are none."""
    if not distractors:
        return []
    d_centers = np.stack([centers for centers, _ in distractors])  # (n, frames, 2)
    dists = np.hypot(d_centers[:, :, 0] - target_centers[:, 0],
                     d_centers[:, :, 1] - target_centers[:, 1])
    return np.argmin(dists, axis=0).tolist()


def _feature_grids(cfg: SceneConfig, target_centers: np.ndarray, occluded: np.ndarray,
                   distractors: list[tuple[np.ndarray, tuple[float, float]]],
                   distractor_protos: list[np.ndarray], target_proto: np.ndarray,
                   background: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All frames' feature grids as ``(labels, palette)``.

    ``palette`` stacks ``[background, *distractor_protos, target_proto]``;
    ``labels`` has shape (frames, cells_h, cells_w) and names each cell's
    palette row, as uint8 unless the scene has more than 254 distractors.
    Each cell center is labeled by the covering object: the background,
    overwritten by each distractor's box in order, then by the target's
    ellipse on frames where it is visible.
    """
    gw, gh = cfg.grid
    tw, th = cfg.target_motion.size
    cells_w, cells_h = _feature_cells(cfg.grid)
    cell_cx = _centers(cells_w) * (gw / cells_w)             # (cells_w,), pixel coords
    cell_cy = _centers(cells_h)[:, None] * (gh / cells_h)    # (cells_h, 1)
    palette = np.stack([background, *distractor_protos, target_proto])
    labels = np.zeros((cfg.frames, cells_h, cells_w),
                      dtype=np.min_scalar_type(len(palette) - 1))
    for label, (d_centers, d_size) in enumerate(distractors, start=1):
        dcx, dcy = d_centers[:, 0, None, None], d_centers[:, 1, None, None]
        inside = (np.abs(cell_cx - dcx) <= d_size[0] / 2.0) & \
                 (np.abs(cell_cy - dcy) <= d_size[1] / 2.0)
        labels[inside] = label
    cx, cy = target_centers[:, 0, None, None], target_centers[:, 1, None, None]
    inside = ((cell_cx - cx) / (tw / 2.0)) ** 2 + \
             ((cell_cy - cy) / (th / 2.0)) ** 2 <= 1.0
    labels[inside & ~occluded[:, None, None]] = len(palette) - 1
    return labels, palette


# --- generation ----------------------------------------------------------------


class _World(NamedTuple):
    """What a scene is, whatever decodes it: appearance, paths and occlusion."""

    target_proto: np.ndarray
    distractor_protos: list[np.ndarray]
    background: np.ndarray
    target_centers: np.ndarray                                # (frames, 2)
    distractors: list[tuple[np.ndarray, tuple[float, float]]]  # (centers, size)
    occluded: np.ndarray                                      # (frames,) bool


def _world(cfg: SceneConfig, rng: np.random.Generator) -> _World:
    """The scene's world draws from ``rng``, in a fixed order, and its occlusion flags."""
    sim = cfg.distractor_similarity
    # appearance prototypes: target, per-distractor at the configured
    # cosine to the target, and a background vector
    u = _unit(rng.normal(size=cfg.proto_dim))
    distractor_protos = []
    for _ in range(cfg.n_distractors):
        w = rng.normal(size=cfg.proto_dim)
        w = _unit(w - np.dot(w, u) * u)
        distractor_protos.append(sim * u + np.sqrt(max(0.0, 1.0 - sim * sim)) * w)
    background = _unit(rng.normal(size=cfg.proto_dim))
    target_centers = _target_path(cfg, rng)
    distractors = _distractor_paths(cfg, rng)
    occluded = np.zeros(cfg.frames, dtype=bool)
    for start, end in cfg.occlusions:
        occluded[start:end] = True
    return _World(u, distractor_protos, background, target_centers, distractors, occluded)


def _decode(cfg: SceneConfig, world: _World, gt: Runs, rng: np.random.Generator
            ) -> tuple[list[list[BitMask]], np.ndarray, np.ndarray]:
    """The mock decoder's output for a world whose ground truth renders as ``gt``.

    Returns each proposal's masks, and each proposal's ``s_mask`` and object
    score as two (3, frames) arrays; proposal 1's object score is the frame
    presence score ``o``. The decoder draws its noise from ``rng`` in a fixed
    order, whatever the branches take, and the run arrays behind the masks
    die on return.
    """
    frames = cfg.frames
    gw, gh = cfg.grid
    tw, th = cfg.target_motion.size
    sigma = cfg.score_noise
    sim = cfg.distractor_similarity
    jitter = rng.normal(0.0, 1.0, size=(frames, 4)).T  # dx, dy, dw, dh
    eps = rng.normal(0.0, 1.0, size=(frames, 3)).T
    o_eps = rng.normal(0.0, 1.0, size=frames)
    occ_u = rng.random(frames)
    occ_eps = rng.normal(0.0, 1.0, size=(frames, 2)).T
    sobj_eps = rng.normal(0.0, 1.0, size=(frames, 2)).T

    visible = ~world.occluded
    cx, cy = world.target_centers[:, 0], world.target_centers[:, 1]
    jit_cx, jit_cy = cx + jitter[0] * 40.0 * sigma, cy + jitter[1] * 40.0 * sigma
    # np.maximum as max(): the jitter is finite, so no NaN reaches it
    jit_w = np.maximum(tw * (1.0 + jitter[2] * 0.5 * sigma), 2.0)
    jit_h = np.maximum(th * (1.0 + jitter[3] * 0.5 * sigma), 2.0)
    # proposal 1: target-aligned, jitter scaled by the score noise; while
    # occluded, a shrunken footprint at the hidden position
    w1, h1 = np.where(visible, jit_w, jit_w * 0.4), np.where(visible, jit_h, jit_h * 0.4)
    runs1 = _ellipse_runs(jit_cx - w1 / 2.0, jit_cy - h1 / 2.0, w1, h1, gw, gh)
    iou1 = _iou(gt, runs1, frames, gh)
    if world.distractors:
        # proposal 2: the nearest distractor's box, its score pulled into the
        # target's range by the similarity (0.85 stands in for proposal 1's
        # IoU while occluded); proposal 3: its union with proposal 1
        nearest = np.asarray(_nearest_distractors(world.target_centers, world.distractors))
        centers = np.stack([c for c, _ in world.distractors])[nearest, np.arange(frames)]
        dw, dh = np.array([size for _, size in world.distractors])[nearest].T
        runs2 = _rect_runs(centers[:, 0] - dw / 2.0, centers[:, 1] - dh / 2.0, dw, dh, gw, gh)
        runs3 = _union_runs(runs1, runs2, gw, gh)
        pulled = np.clip(np.where(visible, iou1, 0.85) + eps[1] * sigma, 0.0, 1.0)
        s2 = sim * pulled + (1.0 - sim) * 0.1
        s_obj2 = 0.8 + sobj_eps[0] * 0.2
    else:
        # proposal 2: a shifted off-target filler; proposal 3: an inflated target
        x2, y2 = (jit_cx + tw * 0.75) - tw / 2.0, (jit_cy + th * 0.5) - th / 2.0
        runs2 = _ellipse_runs(x2, y2, np.full(frames, tw), np.full(frames, th), gw, gh)
        w3, h3 = jit_w * 1.6, jit_h * 1.6
        runs3 = _ellipse_runs(jit_cx - w3 / 2.0, jit_cy - h3 / 2.0, w3, h3, gw, gh)
        s2 = 0.1 + eps[1] * sigma
        s_obj2 = -0.2 + sobj_eps[0] * 0.1
    # while occluded, proposals 1 and 3 score low stand-in levels
    s1 = np.where(visible, iou1 + eps[0] * sigma, 0.15 + eps[0] * max(sigma, 0.05))
    s3 = np.where(visible, _iou(gt, runs3, frames, gh), 0.2) + eps[2] * sigma
    o = np.where(visible, 1.0 + o_eps * 0.25,
                 np.where(occ_u < 0.8, -0.5 - np.abs(occ_eps[0]) * 0.3,
                          0.2 + np.abs(occ_eps[1]) * 0.2))
    s_obj3 = 0.3 + sobj_eps[1] * 0.2
    masks = [_masks(runs, frames, gw, gh) for runs in (runs1, runs2, runs3)]
    # np.clip as min(max(...)): each sum has at most one infinite term, so no NaN
    return masks, np.clip([s1, s2, s3], 0.0, 1.0), np.array([o, s_obj2, s_obj3])


def gen_sequence(cfg: SceneConfig) -> SequenceRecord:
    """Generate the full scenario; a pure function of the config."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    world = _world(cfg, rng)
    gw, gh = cfg.grid
    tw, th = cfg.target_motion.size
    gt_x = world.target_centers[:, 0] - tw / 2.0
    gt_y = world.target_centers[:, 1] - th / 2.0
    gt = _ellipse_runs(gt_x, gt_y, np.full(cfg.frames, tw), np.full(cfg.frames, th), gw, gh)
    init_mask = _masks(gt, 1, gw, gh)[0]
    # the masks before the feature grids, so that the grids and the arrays
    # the masks are rendered from are never held at once
    masks, s_mask, s_obj = _decode(cfg, world, gt, rng)
    del gt
    labels, palette = _feature_grids(cfg, world.target_centers, world.occluded,
                                     world.distractors, world.distractor_protos,
                                     world.target_proto, world.background)

    gt_boxes = [None if hidden else BBox(x, y, tw, th)
                for hidden, x, y in zip(world.occluded.tolist(), gt_x.tolist(), gt_y.tolist())]
    observations = [
        FrameObservation(t, (Proposal(m1, s1, o), Proposal(m2, s2, o2), Proposal(m3, s3, o3)), o,
                         FeatureGrid.from_labels(palette, labels[t]))
        for t, (m1, m2, m3, s1, s2, s3, o, o2, o3)
        in enumerate(zip(*masks, *s_mask.tolist(), *s_obj.tolist()))]
    return SequenceRecord(config=cfg, gt_boxes=gt_boxes, observations=observations,
                          init_mask=init_mask)


# --- the frozen benchmark suite --------------------------------------------------


def suite_standard(n_seeds: int = 20) -> list[SceneConfig]:
    """The versioned stress suite: 3 families x ``n_seeds`` scenarios.

    Family axes: long occlusions, fast sinusoidal motion, and many
    highly similar distractors. Seeds and parameters are frozen
    constants; changing them invalidates all locked baselines.
    """
    configs: list[SceneConfig] = []
    for i in range(n_seeds):
        configs.append(SceneConfig(
            seed=101 + i, family="occlusion",
            target_motion=MotionSpec(kind="linear", speed=2.0),
            n_distractors=1, distractor_similarity=0.5,
            occlusions=((30, 50), (70, 85)),
        ))
    for i in range(n_seeds):
        configs.append(SceneConfig(
            seed=201 + i, family="fast_motion",
            target_motion=MotionSpec(kind="sinusoid", amplitude=64.0, frequency=0.15),
            n_distractors=1, distractor_similarity=0.3,
        ))
    for i in range(n_seeds):
        configs.append(SceneConfig(
            seed=301 + i, family="distractor",
            target_motion=MotionSpec(kind="linear", speed=2.0),
            n_distractors=4, distractor_similarity=0.9,
            score_noise=0.06,
        ))
    return configs


# --- (de)serialization -------------------------------------------------------------


def config_to_dict(cfg: SceneConfig) -> dict:
    """``cfg`` as a JSON object: :func:`~trackmem.checks.to_json`, so the keys
    follow the fields' declaration order, ``target_motion`` included."""
    return to_json(cfg)


def config_from_dict(d: dict) -> SceneConfig:
    """Inverse of :func:`config_to_dict`: :func:`~trackmem.checks.from_json`.

    Missing keys take the dataclass defaults; a missing ``seed`` raises
    KeyError. Unknown keys in the scene or its ``target_motion`` raise
    ValueError, so a misspelt field cannot silently fall back to its
    default.
    """
    return from_json(SceneConfig, d, "scene")


def write_record(record: SequenceRecord, obs_path, gt_path) -> None:
    """Write the observation JSONL plus a ground-truth sidecar.

    The sidecar's first line holds the scene config; per-frame lines give
    visibility and the GT box, and frame 0 also carries the prompt mask.
    """
    with open(obs_path, "w", encoding="utf-8") as fh:
        for obs in record.observations:
            fh.write(observation_to_line(obs) + "\n")
    with open(gt_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config_to_dict(record.config)},
                            separators=(",", ":")) + "\n")
        for t, box in enumerate(record.gt_boxes):
            line = {
                "frame": t,
                "visible": box is not None,
                "box": None if box is None else list(box),
            }
            if t == 0:
                line["mask"] = record.init_mask.to_text()
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


def _located(path, lineno: int, exc: Exception) -> ValueError:
    """``exc`` as a ValueError that names the file and line it came from."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{path}:{lineno}: {what}")


def _gt_frame(d, frame: int) -> tuple[BBox | None, BitMask | None]:
    """Parse the GT line of ``frame``: (box or None, prompt mask on frame 0)."""
    if not isinstance(d, dict):
        raise ValueError("GT line must be a JSON object")
    got = d["frame"]
    if type(got) is not int or got != frame:
        if frame == 0:
            raise ValueError(f"no frame-0 line, so no prompt mask (got frame {shown(got)})")
        raise ValueError(f"frame {shown(got)} out of order, expected {frame}")
    visible = d["visible"]
    if not isinstance(visible, bool):
        raise ValueError(f"'visible' must be true or false, got {shown(visible)}")
    box = d["box"]
    if box is not None:
        if not (isinstance(box, list) and len(box) == 4 and all(
                type(v) in (int, float) and finite(v) for v in box)):
            raise ValueError(f"'box' must be null or 4 finite numbers, got {shown(box)}")
        box = BBox(*box)
        if box.w == 0 or box.h == 0:
            raise ValueError(f"'box' must have positive width and height, got {shown(d['box'])}")
    if visible != (box is not None):
        raise ValueError(f"'visible' is {'true' if visible else 'false'} but 'box' is "
                         f"{'null' if visible else 'not null'}")
    mask = None
    if frame == 0:
        if "mask" not in d:
            raise ValueError("frame-0 line has no prompt mask")
        if not isinstance(d["mask"], str):
            raise ValueError(f"'mask' must be RLE text, got {shown(d['mask'])}")
        mask = BitMask.from_text(d["mask"])
    return box, mask


def read_record(obs_path, gt_path) -> SequenceRecord:
    """Read back what :func:`write_record` wrote.

    Raises ValueError naming the file and line of the first bad line. In
    either file that is a line that is not UTF-8. In the observations it
    is also a frame that does not parse or is malformed (a field missing
    or of the wrong type, named by its key; mismatched mask sizes,
    non-finite scores), or frame numbers that do not run 0, 1, 2, ... in
    order. In the GT sidecar it is a line that is not JSON, a
    header whose config does not load, a frame line missing ``frame``,
    ``visible`` or ``box``, a box that is not four finite numbers of
    positive width and height, a ``visible`` that is not true exactly when
    ``box`` is not null, frame numbers that do not run 0, 1, 2, ... in
    order, or a frame-0 line without the prompt mask. A GT file with no
    frame lines at all is rejected too, since no session can start
    without a prompt, and so is a pair of files whose observation and GT
    frame counts differ (the error names both files).
    """
    observations = []
    with open(obs_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                obs = observation_from_line(line)
                if obs.frame_idx != len(observations):
                    raise ValueError(f"frame {obs.frame_idx} out of order, "
                                     f"expected {len(observations)}")
            except (KeyError, TypeError, ValueError) as exc:
                raise _located(obs_path, lineno, exc) from exc
            observations.append(obs)
    gt_boxes: list[BBox | None] = []
    init_mask = None
    config = None
    with open(gt_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line and lineno > 1:
                    continue
                d = json.loads(line)
                if lineno == 1:
                    config = config_from_dict(d["config"])
                    continue
                box, mask = _gt_frame(d, len(gt_boxes))
            except (KeyError, TypeError, ValueError) as exc:
                raise _located(gt_path, lineno, exc) from exc
            gt_boxes.append(box)
            if mask is not None:
                init_mask = mask
    if init_mask is None:
        raise ValueError(f"{gt_path}: no frame-0 line, so no prompt mask")
    if len(observations) != len(gt_boxes):
        raise ValueError(f"{obs_path} holds {len(observations)} frames but "
                         f"{gt_path} holds {len(gt_boxes)}")
    return SequenceRecord(config=config, gt_boxes=gt_boxes, observations=observations,
                          init_mask=init_mask)
