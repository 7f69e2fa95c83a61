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
center inside the shape?), evaluated only on the shape's bounding window
and encoded there; the window's runs are then shifted into the grid. The
window is the span of rows and columns whose per-axis predicate term can
pass, which bounds the shape exactly for any float box, so a mask costs
its own size rather than the grid's and matches a full-grid render run
for run (:mod:`trackmem.oracles` keeps that dense reference). Merged
proposals are unions taken run by run.

Randomness comes from a Philox counter-based generator keyed by the
scene seed (no global RNG), and all draws happen in a fixed order up
front, so a config is a pure function of its fields: the same config
always yields a byte-identical sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if self.score_noise < 0:
            raise ValueError("score noise must be >= 0")
        if not (0.0 <= self.distractor_similarity <= 1.0):
            raise ValueError("distractor similarity must lie in [0, 1]")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be >= 0")
        if self.proto_dim < 2:
            raise ValueError("proto_dim must be >= 2")
        for start, end in self.occlusions:
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


def _pixel_centers(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    yy = np.arange(height)[:, None] + 0.5
    xx = np.arange(width)[None, :] + 0.5
    return xx, yy


def _span(inside: np.ndarray) -> tuple[int, int]:
    """``[first, last + 1)`` of the True entries of a 1-D array; (0, 0) if none."""
    idx = np.flatnonzero(inside)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _encode_window(window: np.ndarray, r0: int, c0: int,
                   width: int, height: int) -> BitMask:
    """RLE of a dense window whose top-left pixel is (r0, c0) of the grid."""
    local = BitMask.from_dense(window)
    return BitMask(width, height, tuple((r + r0, c + c0, n) for r, c, n in local.runs))


def _render_ellipse(box: BBox, width: int, height: int) -> BitMask:
    xx, yy = _pixel_centers(width, height)
    cx, cy = box.center
    a, b = max(box.w / 2.0, 1e-9), max(box.h / 2.0, 1e-9)
    tx = ((xx - cx) / a) ** 2
    ty = ((yy - cy) / b) ** 2
    # a pixel passes only if its column term does: adding the non-negative
    # row term can never round the sum below it (likewise for rows)
    c0, c1 = _span(tx[0] <= 1.0)
    r0, r1 = _span(ty[:, 0] <= 1.0)
    return _encode_window(tx[:, c0:c1] + ty[r0:r1] <= 1.0, r0, c0, width, height)


def _render_rect(box: BBox, width: int, height: int) -> BitMask:
    xx, yy = _pixel_centers(width, height)
    inside_x = (xx >= box.x) & (xx < box.x + box.w)
    inside_y = (yy >= box.y) & (yy < box.y + box.h)
    c0, c1 = _span(inside_x[0])
    r0, r1 = _span(inside_y[:, 0])
    return _encode_window(inside_x[:, c0:c1] & inside_y[r0:r1], r0, c0, width, height)


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
    cells_w, cells_h = _feature_cells(cfg.grid)
    cell_xx, cell_yy = _pixel_centers(cells_w, cells_h)
    cell_cx = cell_xx * (gw / cells_w)   # cell centers in pixel coords
    cell_cy = cell_yy * (gh / cells_h)

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
            dists = [np.hypot(c[t, 0] - cx, c[t, 1] - cy) for c, _ in distractors]
            j = int(np.argmin(dists))
            d_centers, d_size = distractors[j]
            nearest = (j, BBox.from_center(d_centers[t, 0], d_centers[t, 1], *d_size))

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
            mask2 = _render_rect(nearest[1], gw, gh)
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

        # feature grid: cell centers labeled by the covering object
        feats = np.broadcast_to(background, (cells_h, cells_w, cfg.proto_dim)).copy()
        for (d_centers, d_size), proto in zip(distractors, distractor_protos):
            dcx, dcy = d_centers[t]
            inside = (np.abs(cell_cx - dcx) <= d_size[0] / 2.0) & \
                     (np.abs(cell_cy - dcy) <= d_size[1] / 2.0)
            feats[inside] = proto
        if visible:
            inside = ((cell_cx - cx) / (tw / 2.0)) ** 2 + \
                     ((cell_cy - cy) / (th / 2.0)) ** 2 <= 1.0
            feats[inside] = u

        observations.append(FrameObservation(
            frame_idx=t,
            proposals=(
                Proposal.from_mask(mask1, s1, float(o)),
                Proposal.from_mask(mask2, s2, float(s_obj2)),
                Proposal.from_mask(mask3, s3, float(s_obj3)),
            ),
            o=float(o),
            features=FeatureGrid(feats),
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


def config_from_dict(d: dict) -> SceneConfig:
    motion = d.get("target_motion", {})
    return SceneConfig(
        seed=d["seed"],
        frames=d.get("frames", 110),
        grid=tuple(d.get("grid", (256, 256))),
        target_motion=MotionSpec(
            kind=motion.get("kind", "linear"),
            speed=motion.get("speed", 2.0),
            amplitude=motion.get("amplitude", 48.0),
            frequency=motion.get("frequency", 0.05),
            step_sigma=motion.get("step_sigma", 2.5),
            size=tuple(motion.get("size", (36.0, 28.0))),
        ),
        n_distractors=d.get("n_distractors", 0),
        distractor_similarity=d.get("distractor_similarity", 0.0),
        occlusions=tuple(tuple(iv) for iv in d.get("occlusions", ())),
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


def read_record(obs_path, gt_path) -> SequenceRecord:
    """Read back what :func:`write_record` wrote.

    Raises ValueError naming the GT file (and line) when its frame-0 line
    is missing or carries no prompt mask, since no session can start
    without one.
    """
    observations = []
    with open(obs_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                observations.append(observation_from_line(line))
    gt_boxes: list[BBox | None] = []
    gt_visible: list[bool] = []
    init_mask = None
    config = None
    with open(gt_path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        config = config_from_dict(header["config"])
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            gt_boxes.append(None if d["box"] is None else BBox(*d["box"]))
            gt_visible.append(d["visible"])
            if d["frame"] == 0:
                if "mask" not in d:
                    raise ValueError(f"{gt_path}:{lineno}: frame-0 line has no prompt mask")
                init_mask = BitMask.from_text(d["mask"])
    if init_mask is None:
        raise ValueError(f"{gt_path}: no frame-0 line, so no prompt mask")
    return SequenceRecord(
        config=config,
        gt_boxes=gt_boxes,
        gt_visible=gt_visible,
        observations=observations,
        init_mask=init_mask,
    )
