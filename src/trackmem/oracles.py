"""Brute-force reference implementations for the oracle tests.

Everything in here deliberately avoids the library's own code paths:
box IoU comes from rasterized pixel counting, mask IoU from dense
arrays, the simulator's shapes from their per-pixel predicates evaluated
on the whole grid, its feature grids from a cell-by-cell labeling of one
frame, the motion filter from a literal textbook recursion with
explicit matrix inverses, the pathway optimum from full 3^T
enumeration, and the selection rules from plain argmax loops. When a
test disagrees with one of these, the library is wrong, not the oracle;
oracle outputs are never regenerated to match the code under test.

The one exception is :func:`dense_gen_sequence`, the simulator's
per-frame loop with every mask a dense grid and every feature grid
labeled cell by cell: it shares the scene's random draws with
:mod:`trackmem.simulator`, so that it checks only what the simulator
computes from them.

A few references are the library's own earlier, slower forms, kept so
that a rewrite can be held to the same bits: the RLE text encoder that
groups runs by row, the motion filter with its full measurement-matrix
products, and the prototype calibration that recomputes both anchor
cosines for every window frame.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import simulator
from .geometry import BBox, BitMask
from .observation import FeatureGrid, FrameObservation, Proposal

__all__ = [
    "dense_box_iou",
    "dense_mask_iou",
    "dense_ellipse",
    "dense_rect",
    "feature_grid_labels",
    "dense_gen_sequence",
    "DenseKalmanOracle",
    "rle_text_by_row",
    "matrix_kf_predict",
    "matrix_kf_update",
    "matrix_kf_box",
    "samite_calibrate_recomputed",
    "exhaustive_best_trajectory",
    "topk_window_oracle",
    "samurai_choice_oracle",
    "him_choice_oracle",
]


def dense_box_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Pixel-count IoU of two integer-aligned boxes via rasterization.

    Boxes are (x, y, w, h) with integer fields; a pixel belongs to a box
    when its integer coordinates satisfy x <= px < x + w (likewise for
    y). Exact for integer-aligned inputs.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    x0, y0 = min(ax, bx), min(ay, by)
    width = max(ax + aw, bx + bw) - x0
    height = max(ay + ah, by + bh) - y0
    if width <= 0 or height <= 0:
        return 0.0
    ga = np.zeros((height, width), dtype=bool)
    gb = np.zeros((height, width), dtype=bool)
    ga[ay - y0: ay - y0 + ah, ax - x0: ax - x0 + aw] = True
    gb[by - y0: by - y0 + bh, bx - x0: bx - x0 + bw] = True
    union = int((ga | gb).sum())
    if union == 0:
        return 0.0
    return int((ga & gb).sum()) / union


def dense_mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Pixel-count IoU of two dense boolean masks; 0 when either is empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError("mask shapes differ")
    if not a.any() or not b.any():
        return 0.0
    return int((a & b).sum()) / int((a | b).sum())


def _pixel_centers(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(width)[None, :] + 0.5, np.arange(height)[:, None] + 0.5


def dense_ellipse(box: tuple[float, float, float, float], width: int, height: int
                  ) -> np.ndarray:
    """(height, width) boolean grid of the ellipse inscribed in box (x, y, w, h).

    A pixel is inside when its center satisfies the ellipse inequality;
    semi-axes are clamped to 1e-9 so a zero-size box divides safely.
    """
    x, y, w, h = box
    xx, yy = _pixel_centers(width, height)
    cx, cy = x + w / 2.0, y + h / 2.0
    a, b = max(w / 2.0, 1e-9), max(h / 2.0, 1e-9)
    return ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0


def dense_rect(box: tuple[float, float, float, float], width: int, height: int
               ) -> np.ndarray:
    """(height, width) boolean grid of the pixels whose centers lie in box (x, y, w, h)."""
    x, y, w, h = box
    xx, yy = _pixel_centers(width, height)
    return (xx >= x) & (xx < x + w) & (yy >= y) & (yy < y + h)


def feature_grid_labels(
    grid: tuple[int, int],
    cells: tuple[int, int],
    target_center: tuple[float, float] | None,
    target_size: tuple[float, float],
    distractors: list[tuple[tuple[float, float], tuple[float, float]]],
    distractor_protos: list[np.ndarray],
    target_proto: np.ndarray,
    background: np.ndarray,
) -> np.ndarray:
    """One frame's (cells_h, cells_w, dim) feature grid, labeled cell by cell.

    ``grid`` is (width, height) in pixels, ``cells`` (cells_w, cells_h);
    cell (i, j) has its center at ((j + 0.5) * width / cells_w,
    (i + 0.5) * height / cells_h). A cell takes the background vector,
    then the prototype of the last distractor (center, size) whose box
    contains its center, then the target prototype when the target is
    visible (``target_center`` not None) and its inscribed ellipse
    contains the center.
    """
    (gw, gh), (cells_w, cells_h) = grid, cells
    out = np.empty((cells_h, cells_w, len(background)))
    for i in range(cells_h):
        y = (i + 0.5) * (gh / cells_h)
        for j in range(cells_w):
            x = (j + 0.5) * (gw / cells_w)
            label = background
            for ((dcx, dcy), (dw, dh)), proto in zip(distractors, distractor_protos):
                if abs(x - dcx) <= dw / 2.0 and abs(y - dcy) <= dh / 2.0:
                    label = proto
            if target_center is not None:
                ex = (x - target_center[0]) / (target_size[0] / 2.0)
                ey = (y - target_center[1]) / (target_size[1] / 2.0)
                if ex * ex + ey * ey <= 1.0:
                    label = target_proto
            out[i, j] = label
    return out


def dense_gen_sequence(cfg: simulator.SceneConfig) -> simulator.SequenceRecord:
    """The simulator's scene, one frame at a time, every mask a dense grid.

    Same draws and formulas as :func:`trackmem.simulator.gen_sequence`;
    shapes come from :func:`dense_ellipse` and :func:`dense_rect`, the merged
    proposal is a dense OR, scores use :func:`dense_mask_iou`, and feature
    grids come from :func:`feature_grid_labels`.
    """
    d = simulator._draw_scene(cfg)
    clamp01 = simulator._clamp01
    gw, gh = cfg.grid
    tw, th = cfg.target_motion.size
    sigma = cfg.score_noise
    sim = cfg.distractor_similarity
    nearest_idx = simulator._nearest_distractors(d.target_centers, d.distractors)
    cells = (max(4, gw // 16), max(4, gh // 16))

    def box(cx, cy, w, h):
        return (cx - w / 2.0, cy - h / 2.0, w, h)

    gt_boxes, gt_visible, observations, init_mask = [], [], [], None
    for t in range(cfg.frames):
        cx, cy = d.target_centers[t]
        visible = not d.occluded[t]
        gt_boxes.append(BBox(*box(cx, cy, tw, th)) if visible else None)
        gt_visible.append(visible)
        gt = dense_ellipse(box(cx, cy, tw, th), gw, gh) if visible else None
        if t == 0:
            init_mask = BitMask.from_dense(gt)

        jit_cx = cx + d.jitter[t, 0] * 40.0 * sigma
        jit_cy = cy + d.jitter[t, 1] * 40.0 * sigma
        jit_w = max(tw * (1.0 + d.jitter[t, 2] * 0.5 * sigma), 2.0)
        jit_h = max(th * (1.0 + d.jitter[t, 3] * 0.5 * sigma), 2.0)
        if visible:
            mask1 = dense_ellipse(box(jit_cx, jit_cy, jit_w, jit_h), gw, gh)
            true_iou1 = dense_mask_iou(mask1, gt)
            s1 = clamp01(true_iou1 + d.score_eps[t, 0] * sigma)
        else:
            mask1 = dense_ellipse(box(jit_cx, jit_cy, jit_w * 0.4, jit_h * 0.4), gw, gh)
            true_iou1 = 0.85
            s1 = clamp01(0.15 + d.score_eps[t, 0] * max(sigma, 0.05))

        if d.distractors:
            d_centers, d_size = d.distractors[nearest_idx[t]]
            mask2 = dense_rect(box(d_centers[t, 0], d_centers[t, 1], *d_size), gw, gh)
            s2 = clamp01(sim * clamp01(true_iou1 + d.score_eps[t, 1] * sigma)
                          + (1.0 - sim) * 0.1)
            mask3 = mask1 | mask2
        else:
            mask2 = dense_ellipse(box(jit_cx + tw * 0.75, jit_cy + th * 0.5, tw, th), gw, gh)
            s2 = clamp01(0.1 + d.score_eps[t, 1] * sigma)
            mask3 = dense_ellipse(box(jit_cx, jit_cy, jit_w * 1.6, jit_h * 1.6), gw, gh)
        if visible:
            s3 = clamp01(dense_mask_iou(mask3, gt) + d.score_eps[t, 2] * sigma)
        else:
            s3 = clamp01(0.2 + d.score_eps[t, 2] * sigma)

        if visible:
            o = 1.0 + d.o_eps[t] * 0.25
        elif d.occ_u[t] < 0.8:
            o = -0.5 - abs(d.occ_eps[t, 0]) * 0.3
        else:
            o = 0.2 + abs(d.occ_eps[t, 1]) * 0.2
        s_obj2 = 0.8 + d.sobj_eps[t, 0] * 0.2 if d.distractors \
            else -0.2 + d.sobj_eps[t, 0] * 0.1
        s_obj3 = 0.3 + d.sobj_eps[t, 1] * 0.2
        observations.append(FrameObservation(
            frame_idx=t,
            proposals=(
                Proposal.from_mask(BitMask.from_dense(mask1), s1, float(o)),
                Proposal.from_mask(BitMask.from_dense(mask2), s2, float(s_obj2)),
                Proposal.from_mask(BitMask.from_dense(mask3), s3, float(s_obj3)),
            ),
            o=float(o),
            features=FeatureGrid(feature_grid_labels(
                cfg.grid, cells, (cx, cy) if visible else None, (tw, th),
                [((c[t, 0], c[t, 1]), size) for c, size in d.distractors],
                d.distractor_protos, d.target_proto, d.background)),
        ))
    return simulator.SequenceRecord(config=cfg, gt_boxes=gt_boxes, gt_visible=gt_visible,
                                    observations=observations, init_mask=init_mask)


class DenseKalmanOracle:
    """Textbook constant-velocity filter recursion, matrices spelled out.

    State [cx, cy, w, h, vcx, vcy, vw, vh], dt = 1, explicit inverse in
    the gain. Independent of :mod:`trackmem.motion` by construction.
    """

    def __init__(self, box: tuple[float, float, float, float],
                 process_noise: float, measurement_noise: float,
                 initial_cov_scale: float):
        x, y, w, h = box
        self.x = np.array([x + w / 2.0, y + h / 2.0, w, h, 0.0, 0.0, 0.0, 0.0])
        self.P = initial_cov_scale * np.eye(8)
        self.q = process_noise
        self.r = measurement_noise
        self.F = np.eye(8)
        for i in range(4):
            self.F[i, i + 4] = 1.0
        self.H = np.hstack([np.eye(4), np.zeros((4, 4))])

    def predict(self) -> tuple[float, float, float, float]:
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.q * np.eye(8)
        cx, cy, w, h = self.x[:4]
        w = max(w, 1e-6)
        h = max(h, 1e-6)
        return (cx - w / 2.0, cy - h / 2.0, w, h)

    def update(self, box: tuple[float, float, float, float]) -> None:
        x, y, w, h = box
        z = np.array([x + w / 2.0, y + h / 2.0, w, h])
        innovation = z - self.H @ self.x
        s = self.H @ self.P @ self.H.T + self.r * np.eye(4)
        gain = self.P @ self.H.T @ np.linalg.inv(s)
        self.x = self.x + gain @ innovation
        self.P = (np.eye(8) - gain @ self.H) @ self.P


def rle_text_by_row(width: int, height: int, runs) -> str:
    """The ``W H; row:start+len,...`` text, built by grouping runs by row."""
    rows = (
        f"{row}:" + ",".join(f"{start}+{length}" for _, start, length in row_runs)
        for row, row_runs in itertools.groupby(runs, key=lambda run: run[0])
    )
    return "; ".join([f"{width} {height}", *rows])


_KF_F = np.eye(8)
_KF_F[:4, 4:] = np.eye(4)
_KF_H = np.zeros((4, 8))
_KF_H[:4, :4] = np.eye(4)


def matrix_kf_predict(mean: np.ndarray, cov: np.ndarray, process_noise: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity prediction with the full transition products."""
    mean = _KF_F @ mean
    cov = _KF_F @ cov @ _KF_F.T + process_noise * np.eye(8)
    return mean, (cov + cov.T) / 2.0


def matrix_kf_update(mean: np.ndarray, cov: np.ndarray,
                     z: tuple[float, float, float, float], measurement_noise: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Correction with measurement ``z = (cx, cy, w, h)``, every product with H spelled out."""
    r = measurement_noise * np.eye(4)
    innovation = np.array(z, dtype=float) - _KF_H @ mean
    innovation_cov = _KF_H @ cov @ _KF_H.T + r
    gain = np.linalg.solve(innovation_cov.T, (cov @ _KF_H.T).T).T
    mean = mean + gain @ innovation
    cov = (np.eye(8) - gain @ _KF_H) @ cov
    return mean, (cov + cov.T) / 2.0


def matrix_kf_box(mean: np.ndarray) -> tuple[float, float, float, float]:
    """Top-left (x, y, w, h) of a state mean, size clamped to 1e-6."""
    cx, cy, w, h = mean[:4]
    w = max(float(w), 1e-6)
    h = max(float(h), 1e-6)
    return (float(cx) - w / 2.0, float(cy) - h / 2.0, w, h)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def samite_calibrate_recomputed(
    window: list[tuple[int, np.ndarray]], anchor_first: np.ndarray,
    anchor_prev: np.ndarray, alpha: float,
) -> list[tuple[int, float]]:
    """(frame, (1 - alpha) * cos(P, P_first) + alpha * cos(P, P_prev)) per window frame."""
    return [
        (frame, (1.0 - alpha) * _cosine(vec, anchor_first) + alpha * _cosine(vec, anchor_prev))
        for frame, vec in window
    ]


def exhaustive_best_trajectory(
    s_mask_rows: list[list[float]], epsilon: float
) -> tuple[tuple[int, ...], float]:
    """Enumerate all 3^T proposal choices; return the score-maximal one.

    Scores accumulate left to right exactly like the beam recursion.
    Ties resolve to the lexicographically smallest index sequence, which
    enumeration order provides for free with a strict comparison.
    """
    best_traj: tuple[int, ...] | None = None
    best_score = -math.inf
    for traj in itertools.product(range(3), repeat=len(s_mask_rows)):
        score = 0.0
        for t, k in enumerate(traj):
            score = score + math.log(s_mask_rows[t][k] + epsilon)
        if score > best_score:
            best_score = score
            best_traj = traj
    return best_traj, best_score


def topk_window_oracle(
    scored: list[tuple[int, float]], k: int
) -> list[int]:
    """Top-k window frames by (score desc, frame desc), output chronological."""
    ranked = sorted(scored, key=lambda item: (-item[1], -item[0]))
    return sorted(frame for frame, _ in ranked[:k])


def samurai_choice_oracle(
    s_mask: list[float], s_obj: list[float], s_kf: list[float], alpha: float
) -> int | None:
    """Plain loop over the three proposals; None when none qualifies."""
    best_idx = None
    best_score = None
    for i in range(len(s_mask)):
        if s_obj[i] <= 0.0:
            continue
        score = alpha * s_kf[i] + (1.0 - alpha) * s_mask[i]
        if best_score is None or score > best_score:
            best_idx, best_score = i, score
    return best_idx


def him_choice_oracle(
    s_coarse: list[float], s_fine: list[float], s_iou: list[float],
    alpha: float, beta: float, tau_conf: float,
) -> tuple[int, float, bool]:
    """Two-stage confidence logic replayed with plain loops."""
    stage1 = [alpha * c + (1.0 - alpha) * i for c, i in zip(s_coarse, s_iou)]
    if max(stage1) >= tau_conf:
        confs, used_fine = stage1, False
    else:
        confs = [alpha * c + beta * f + (1.0 - alpha - beta) * i
                 for c, f, i in zip(s_coarse, s_fine, s_iou)]
        used_fine = True
    best = 0
    for i in range(1, len(confs)):
        if confs[i] > confs[best]:
            best = i
    return best, confs[best], used_fine
