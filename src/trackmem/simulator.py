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

Masks are rendered with the full-grid per-pixel predicate (is the pixel
center inside the shape?), and every shape row yields one run in grid
coordinates. The window is the span of rows and columns whose per-axis
predicate term can pass, which bounds the shape exactly for any float box.
A rectangle is that window, so its runs come straight from the two spans.
An ellipse evaluates the predicate on the window only and reads each
row's single run off it (a row's passing pixels are contiguous, since
each float step of the predicate is monotone on either side of the
center). A mask thus costs its own size rather than the grid's and matches
a full-grid render run for run (:mod:`trackmem.oracles` keeps that dense
reference). Merged proposals are unions taken run by run. Work that does
not depend on the rendered masks runs once per scene on (frames, ...)
arrays: the feature grids of all frames and each frame's nearest
distractor.

Randomness comes from a Philox counter-based generator keyed by the
scene seed (no global RNG), and all draws happen in a fixed order up
front, so a config is a pure function of its fields: the same config
always yields a byte-identical sequence.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .checks import check_numbers
from .geometry import BBox, BitMask, mask_iou
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
        if min(self.grid) < 1:
            raise ValueError(f"grid must have sides >= 1, got {self.grid!r}")
        if self.score_noise < 0:
            raise ValueError("score noise must be >= 0")
        if not (0.0 <= self.distractor_similarity <= 1.0):
            raise ValueError("distractor similarity must lie in [0, 1]")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be >= 0")
        if self.proto_dim < 2:
            raise ValueError("proto_dim must be >= 2")
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
    """A generated scenario: config, ground truth, and observations."""

    config: SceneConfig
    gt_boxes: list[BBox | None]
    gt_visible: list[bool]
    observations: list[FrameObservation]
    init_mask: BitMask


# --- rendering helpers -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _centers(n: int) -> np.ndarray:
    """Center coordinates ``i + 0.5`` of the ``n`` pixels along one axis.

    Built once per size and shared, so the array is read-only.
    """
    centers = np.arange(n) + 0.5
    centers.flags.writeable = False
    return centers


def _span(inside: np.ndarray) -> tuple[int, int]:
    """``[first, last + 1)`` of the True entries of a 1-D array; (0, 0) if none."""
    idx = inside.nonzero()[0]
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _render_ellipse(box: BBox, width: int, height: int) -> BitMask:
    cx, cy = box.center
    a, b = max(box.w / 2.0, 1e-9), max(box.h / 2.0, 1e-9)
    tx = ((_centers(width) - cx) / a) ** 2
    ty = ((_centers(height) - cy) / b) ** 2
    # a pixel passes only if its column term does: adding the non-negative
    # row term can never round the sum below it (likewise for rows)
    c0, c1 = _span(tx <= 1.0)
    r0, r1 = _span(ty <= 1.0)
    if c0 == c1 or r0 == r1:
        return BitMask(width, height)
    window = tx[c0:c1] + ty[r0:r1, None] <= 1.0
    # every float step of a row's sum is monotone on each side of the
    # center, so the row's passing pixels are one contiguous run
    lengths = window.sum(axis=1)
    starts = window.argmax(axis=1) + c0
    rows = lengths.nonzero()[0]
    return BitMask(width, height, tuple(zip(
        (rows + r0).tolist(), starts[rows].tolist(), lengths[rows].tolist())))


def _render_rect(box: BBox, width: int, height: int) -> BitMask:
    xs, ys = _centers(width), _centers(height)
    # each axis term is an AND of two monotone tests, so its span is exact
    c0, c1 = _span((xs >= box.x) & (xs < box.x + box.w))
    r0, r1 = _span((ys >= box.y) & (ys < box.y + box.h))
    if c0 == c1:
        return BitMask(width, height)
    return BitMask(width, height, tuple((row, c0, c1 - c0) for row in range(r0, r1)))


def _union(a: BitMask, b: BitMask) -> BitMask:
    """Pixelwise OR of two same-sized masks, merged run by run.

    Overlapping and touching runs of a row coalesce, so runs stay maximal.
    """
    runs: list[tuple[int, int, int]] = []
    for row, start, length in sorted(a.runs + b.runs):
        if runs and runs[-1][0] == row and start <= runs[-1][1] + runs[-1][2]:
            _, prev_start, prev_length = runs[-1]
            runs[-1] = (row, prev_start, max(prev_length, start + length - prev_start))
        else:
            runs.append((row, start, length))
    return BitMask(a.width, a.height, tuple(runs))


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, float(v)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _clamp_center(cx: float, cy: float, size: tuple[float, float],
                  grid: tuple[int, int]) -> tuple[float, float]:
    w, h = size
    gw, gh = grid
    cx = min(max(cx, w / 2.0 + 1.0), gw - w / 2.0 - 1.0)
    cy = min(max(cy, h / 2.0 + 1.0), gh - h / 2.0 - 1.0)
    return cx, cy


def _target_path(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-frame target centers, shape (frames, 2), kept inside the grid."""
    gw, gh = cfg.grid
    spec = cfg.target_motion
    start = np.array([
        gw * 0.5 + rng.uniform(-0.15, 0.15) * gw,
        gh * 0.5 + rng.uniform(-0.15, 0.15) * gh,
    ])
    centers = np.zeros((cfg.frames, 2))
    if spec.kind == "linear":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        vel = spec.speed * np.array([np.cos(theta), np.sin(theta)])
        pos = start.copy()
        for t in range(cfg.frames):
            centers[t] = pos
            pos = pos + vel
            for axis, (extent, half) in enumerate(
                ((gw, spec.size[0] / 2.0 + 1.0), (gh, spec.size[1] / 2.0 + 1.0))
            ):
                if pos[axis] < half or pos[axis] > extent - half:
                    vel[axis] = -vel[axis]
                    pos[axis] = min(max(pos[axis], half), extent - half)
    elif spec.kind == "sinusoid":
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        t = np.arange(cfg.frames)
        centers[:, 0] = start[0] + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * t + phase[0])
        centers[:, 1] = start[1] + 0.6 * spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * 1.7 * t + phase[1])
    else:  # random_walk
        steps = rng.normal(0.0, spec.step_sigma, size=(cfg.frames, 2))
        steps[0] = 0.0
        centers = start[None, :] + np.cumsum(steps, axis=0)
    for t in range(cfg.frames):
        centers[t] = _clamp_center(centers[t, 0], centers[t, 1], spec.size, cfg.grid)
    return centers


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
        centers = np.zeros((cfg.frames, 2))
        pos = start.copy()
        for t in range(cfg.frames):
            centers[t] = pos
            pos = pos + vel
            for axis, (extent, half) in enumerate(
                ((gw, size[0] / 2.0 + 1.0), (gh, size[1] / 2.0 + 1.0))
            ):
                if pos[axis] < half or pos[axis] > extent - half:
                    vel[axis] = -vel[axis]
                    pos[axis] = min(max(pos[axis], half), extent - half)
        out.append((centers, size))
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
                   background: np.ndarray) -> np.ndarray:
    """All frames' feature grids, shape (frames, cells_h, cells_w, proto_dim).

    Each cell center is labeled by the covering object: the background,
    overwritten by each distractor's box in order, then by the target's
    ellipse on frames where it is visible.
    """
    gw, gh = cfg.grid
    tw, th = cfg.target_motion.size
    cells_w, cells_h = _feature_cells(cfg.grid)
    cell_cx = _centers(cells_w) * (gw / cells_w)             # (cells_w,), pixel coords
    cell_cy = _centers(cells_h)[:, None] * (gh / cells_h)    # (cells_h, 1)
    feats = np.broadcast_to(
        background, (cfg.frames, cells_h, cells_w, cfg.proto_dim)).copy()
    for (d_centers, d_size), proto in zip(distractors, distractor_protos):
        dcx, dcy = d_centers[:, 0, None, None], d_centers[:, 1, None, None]
        inside = (np.abs(cell_cx - dcx) <= d_size[0] / 2.0) & \
                 (np.abs(cell_cy - dcy) <= d_size[1] / 2.0)
        feats[inside] = proto
    cx, cy = target_centers[:, 0, None, None], target_centers[:, 1, None, None]
    inside = ((cell_cx - cx) / (tw / 2.0)) ** 2 + \
             ((cell_cy - cy) / (th / 2.0)) ** 2 <= 1.0
    feats[inside & ~occluded[:, None, None]] = target_proto
    return feats


# --- generation ----------------------------------------------------------------


def gen_sequence(cfg: SceneConfig) -> SequenceRecord:
    """Generate the full scenario; a pure function of the config."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    gw, gh = cfg.grid
    sigma = cfg.score_noise
    sim = cfg.distractor_similarity

    # appearance prototypes: target, per-distractor at the configured
    # cosine to the target, and a background vector
    u = _unit(rng.normal(size=cfg.proto_dim))
    distractor_protos = []
    for _ in range(cfg.n_distractors):
        w = rng.normal(size=cfg.proto_dim)
        w = w - np.dot(w, u) * u
        w = _unit(w)
        distractor_protos.append(sim * u + np.sqrt(max(0.0, 1.0 - sim * sim)) * w)
    background = _unit(rng.normal(size=cfg.proto_dim))

    target_centers = _target_path(cfg, rng)
    distractors = _distractor_paths(cfg, rng)

    # fixed-order noise draws so branches never shift the stream
    jitter = rng.normal(0.0, 1.0, size=(cfg.frames, 4))  # dx, dy, dw, dh
    score_eps = rng.normal(0.0, 1.0, size=(cfg.frames, 3))
    o_eps = rng.normal(0.0, 1.0, size=cfg.frames)
    occ_u = rng.random(cfg.frames)
    occ_eps = rng.normal(0.0, 1.0, size=(cfg.frames, 2))
    sobj_eps = rng.normal(0.0, 1.0, size=(cfg.frames, 2))

    occluded = np.zeros(cfg.frames, dtype=bool)
    for start, end in cfg.occlusions:
        occluded[start:end] = True

    tw, th = cfg.target_motion.size
    nearest_idx = _nearest_distractors(target_centers, distractors)
    features = _feature_grids(cfg, target_centers, occluded, distractors,
                              distractor_protos, u, background)

    gt_boxes: list[BBox | None] = []
    gt_visible: list[bool] = []
    observations: list[FrameObservation] = []
    init_mask: BitMask | None = None

    for t in range(cfg.frames):
        cx, cy = target_centers[t]
        gt_box = BBox.from_center(cx, cy, tw, th)
        visible = not occluded[t]
        gt_boxes.append(gt_box if visible else None)
        gt_visible.append(visible)
        gt_mask = _render_ellipse(gt_box, gw, gh) if visible else None
        if t == 0:
            init_mask = gt_mask

        # nearest distractor this frame (if any)
        nearest = None
        if distractors:
            d_centers, d_size = distractors[nearest_idx[t]]
            nearest = BBox.from_center(d_centers[t, 0], d_centers[t, 1], *d_size)

        # proposal 1: target-aligned, jitter scaled by the score noise
        jit_cx = cx + jitter[t, 0] * 40.0 * sigma
        jit_cy = cy + jitter[t, 1] * 40.0 * sigma
        jit_w = max(tw * (1.0 + jitter[t, 2] * 0.5 * sigma), 2.0)
        jit_h = max(th * (1.0 + jitter[t, 3] * 0.5 * sigma), 2.0)
        if visible:
            mask1 = _render_ellipse(BBox.from_center(jit_cx, jit_cy, jit_w, jit_h), gw, gh)
            true_iou1 = mask_iou(mask1, gt_mask)
            s1 = _clamp01(true_iou1 + score_eps[t, 0] * sigma)
        else:
            # degraded: shrunken footprint at the hidden position, low score
            mask1 = _render_ellipse(
                BBox.from_center(jit_cx, jit_cy, jit_w * 0.4, jit_h * 0.4), gw, gh)
            true_iou1 = 0.85  # stand-in level for the distractor score pull
            s1 = _clamp01(0.15 + score_eps[t, 0] * max(sigma, 0.05))

        # proposal 2: nearest-distractor-aligned (or a shifted off-target
        # filler when the scene has no distractors)
        if nearest is not None:
            mask2 = _render_rect(nearest, gw, gh)
            s2 = _clamp01(sim * _clamp01(true_iou1 + score_eps[t, 1] * sigma)
                          + (1.0 - sim) * 0.1)
        else:
            mask2 = _render_ellipse(
                BBox.from_center(jit_cx + tw * 0.75, jit_cy + th * 0.5, tw, th), gw, gh)
            s2 = _clamp01(0.1 + score_eps[t, 1] * sigma)

        # proposal 3: merged with the distractor, or inflated when alone
        if nearest is not None:
            mask3 = _union(mask1, mask2)
        else:
            mask3 = _render_ellipse(
                BBox.from_center(jit_cx, jit_cy, jit_w * 1.6, jit_h * 1.6), gw, gh)
        if visible:
            s3 = _clamp01(mask_iou(mask3, gt_mask) + score_eps[t, 2] * sigma)
        else:
            s3 = _clamp01(0.2 + score_eps[t, 2] * sigma)

        # frame presence score and per-proposal object scores
        if visible:
            o = 1.0 + o_eps[t] * 0.25
        elif occ_u[t] < 0.8:
            o = -0.5 - abs(occ_eps[t, 0]) * 0.3
        else:
            o = 0.2 + abs(occ_eps[t, 1]) * 0.2
        s_obj2 = 0.8 + sobj_eps[t, 0] * 0.2 if nearest is not None \
            else -0.2 + sobj_eps[t, 0] * 0.1
        s_obj3 = 0.3 + sobj_eps[t, 1] * 0.2

        observations.append(FrameObservation(
            frame_idx=t,
            proposals=(
                Proposal.from_mask(mask1, s1, float(o)),
                Proposal.from_mask(mask2, s2, float(s_obj2)),
                Proposal.from_mask(mask3, s3, float(s_obj3)),
            ),
            o=float(o),
            features=FeatureGrid(features[t]),
        ))

    return SequenceRecord(
        config=cfg,
        gt_boxes=gt_boxes,
        gt_visible=gt_visible,
        observations=observations,
        init_mask=init_mask,
    )


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
    d = {
        "seed": cfg.seed,
        "frames": cfg.frames,
        "grid": list(cfg.grid),
        "target_motion": {
            "kind": cfg.target_motion.kind,
            "speed": cfg.target_motion.speed,
            "amplitude": cfg.target_motion.amplitude,
            "frequency": cfg.target_motion.frequency,
            "step_sigma": cfg.target_motion.step_sigma,
            "size": list(cfg.target_motion.size),
        },
        "n_distractors": cfg.n_distractors,
        "distractor_similarity": cfg.distractor_similarity,
        "occlusions": [list(iv) for iv in cfg.occlusions],
        "score_noise": cfg.score_noise,
        "proto_dim": cfg.proto_dim,
        "family": cfg.family,
    }
    return d


def _check_keys(d: dict, cls: type, what: str) -> None:
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}")


def _tuple(value):
    """A JSON array as a tuple; anything else is left for the config checks."""
    return tuple(value) if isinstance(value, list) else value


def config_from_dict(d: dict) -> SceneConfig:
    """Inverse of :func:`config_to_dict`; missing keys take their defaults.

    Unknown keys in the scene or its ``target_motion`` raise ValueError,
    so a misspelt field cannot silently fall back to its default.
    """
    _check_keys(d, SceneConfig, "scene")
    motion = d.get("target_motion", {})
    _check_keys(motion, MotionSpec, "target_motion")
    try:
        target_motion = MotionSpec(
            kind=motion.get("kind", "linear"),
            speed=motion.get("speed", 2.0),
            amplitude=motion.get("amplitude", 48.0),
            frequency=motion.get("frequency", 0.05),
            step_sigma=motion.get("step_sigma", 2.5),
            size=_tuple(motion.get("size", (36.0, 28.0))),
        )
    except ValueError as exc:
        raise ValueError(f"target_motion: {exc}") from exc
    return SceneConfig(
        seed=d["seed"],
        frames=d.get("frames", 110),
        grid=_tuple(d.get("grid", (256, 256))),
        target_motion=target_motion,
        n_distractors=d.get("n_distractors", 0),
        distractor_similarity=d.get("distractor_similarity", 0.0),
        occlusions=tuple(_tuple(iv) for iv in _tuple(d.get("occlusions", ()))),
        score_noise=d.get("score_noise", 0.05),
        proto_dim=d.get("proto_dim", 8),
        family=d.get("family", "custom"),
    )


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
        for t, (box, visible) in enumerate(zip(record.gt_boxes, record.gt_visible)):
            line = {
                "frame": t,
                "visible": visible,
                "box": None if box is None else [box.x, box.y, box.w, box.h],
            }
            if t == 0:
                line["mask"] = record.init_mask.to_text()
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


def _located(path, lineno: int, exc: Exception) -> ValueError:
    """``exc`` as a ValueError that names the file and line it came from."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{path}:{lineno}: {what}")


def _gt_frame(d, frame: int) -> tuple[BBox | None, bool, BitMask | None]:
    """Parse the GT line of ``frame``: (box or None, visible, prompt mask on frame 0)."""
    if not isinstance(d, dict):
        raise ValueError("GT line must be a JSON object")
    got = d["frame"]
    if type(got) is not int or got != frame:
        if frame == 0:
            raise ValueError(f"no frame-0 line, so no prompt mask (got frame {got!r})")
        raise ValueError(f"frame {got!r} out of order, expected {frame}")
    visible = d["visible"]
    if not isinstance(visible, bool):
        raise ValueError(f"'visible' must be true or false, got {visible!r}")
    box = d["box"]
    if box is not None:
        if not (isinstance(box, list) and len(box) == 4 and all(
                type(v) in (int, float) and math.isfinite(v) for v in box)):
            raise ValueError(f"'box' must be null or 4 finite numbers, got {box!r}")
        box = BBox(*box)
    mask = None
    if frame == 0:
        if "mask" not in d:
            raise ValueError("frame-0 line has no prompt mask")
        if not isinstance(d["mask"], str):
            raise ValueError(f"'mask' must be RLE text, got {d['mask']!r}")
        mask = BitMask.from_text(d["mask"])
    return box, visible, mask


def read_record(obs_path, gt_path) -> SequenceRecord:
    """Read back what :func:`write_record` wrote.

    Raises ValueError naming the file and line of the first bad line. In
    the observations that is a frame that does not parse or is malformed
    (mismatched mask sizes, non-finite scores). In the GT sidecar it is a
    line that is not JSON, a header whose config does not load, a frame
    line missing ``frame``, ``visible`` or ``box``, a box that is not four
    finite numbers of non-negative size, frame numbers that do not run 0,
    1, 2, ... in order, or a frame-0 line without the prompt mask. A GT
    file with no frame lines at all is rejected too, since no session can
    start without a prompt.
    """
    observations = []
    with open(obs_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                observations.append(observation_from_line(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise _located(obs_path, lineno, exc) from exc
    gt_boxes: list[BBox | None] = []
    gt_visible: list[bool] = []
    init_mask = None
    config = None
    with open(gt_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line and lineno > 1:
                continue
            try:
                d = json.loads(line)
                if lineno == 1:
                    config = config_from_dict(d["config"])
                    continue
                box, visible, mask = _gt_frame(d, len(gt_boxes))
            except (KeyError, TypeError, ValueError) as exc:
                raise _located(gt_path, lineno, exc) from exc
            gt_boxes.append(box)
            gt_visible.append(visible)
            if mask is not None:
                init_mask = mask
    if init_mask is None:
        raise ValueError(f"{gt_path}: no frame-0 line, so no prompt mask")
    return SequenceRecord(
        config=config,
        gt_boxes=gt_boxes,
        gt_visible=gt_visible,
        observations=observations,
        init_mask=init_mask,
    )
