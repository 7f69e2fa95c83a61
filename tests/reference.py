"""Test-only references that share the library's draws or arithmetic.

Unlike the brute-force oracles of the sibling ``oracles`` module, which
avoid the library's code paths, these hold the library to the same bits.

:func:`dense_gen_sequence` is the simulator's per-frame loop with every
mask a dense grid (:func:`dense_ellipse`, :func:`dense_rect`, each shape
from its per-pixel predicate evaluated on the whole grid) and every
feature grid labeled cell by cell (:func:`feature_grid_labels`). It
shares the scene's world with :mod:`trackmem.simulator` (its draws,
paths and occlusion flags) and makes the decoder's draws itself, in the
order the simulator documents, so that it checks that order and what the
simulator computes from the draws. Since it shares the world, it shares
the target's path as well; that path's clamp into the grid is held to
:func:`target_path_clamped_per_frame`, which clamps one frame at a time.

The rest are the library's own earlier, slower forms, kept so that a
rewrite can be held to the same bits: the RLE text encoder that groups
runs by row, the motion filter with its full measurement-matrix
products, a prototype's mean by ``ndarray.mean`` (:func:`numpy_mean`),
its norm by ``np.linalg.norm`` and the cosine of two such norms
(:func:`numpy_cosine`), the window ranking sorted with lambda keys
(:func:`samite_select_ram_lambda_keyed`), the prototype calibration that
recomputes both anchor cosines for every window frame, the per-frame
scoring loop (one ``box_iou`` and one scalar ``np.hypot`` per frame)
that whole-sequence array scoring must match, the prototype-calibrated
admission that rebuilds its pool, window and unscored set every frame
(:class:`RebuildingSamite`), and the beam that takes one log per
(pathway, proposal) pair and copies every survivor's whole trajectory
(:func:`pathway_expand_per_pair`, :func:`pathway_prune_copying`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from trackmem import simulator
from trackmem.geometry import BBox, BitMask
from trackmem.membank import MemoryBank, MemoryEntry
from trackmem.metrics import NORM_PRECISION_THRESHOLDS, SUCCESS_THRESHOLDS, EvalOutcome
from trackmem.observation import FeatureGrid, FrameObservation, Proposal
from trackmem.pathways import PathwayCandidate
from trackmem.policies import (
    AdmissionReason,
    PolicyConfig,
    sam2long_admit,
    samite_calibrate,
    samite_select_ram,
)
from trackmem.selection import SamitePolicy

from oracles import dense_mask_iou


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

    Same draws and formulas as :func:`trackmem.simulator.gen_sequence`, but
    only the world comes from the simulator: the decoder's noise is drawn
    here after it, shapes come from :func:`dense_ellipse` and
    :func:`dense_rect`, the nearest distractor from one ``np.hypot`` per
    distractor, the merged proposal is a dense OR, scores use
    :func:`dense_mask_iou` and a scalar clamp, and feature grids come from
    :func:`feature_grid_labels`.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    d = simulator._world(cfg, rng)
    # the decoder's draws, in the documented order
    jitter = rng.normal(0.0, 1.0, size=(cfg.frames, 4))
    score_eps = rng.normal(0.0, 1.0, size=(cfg.frames, 3))
    o_eps = rng.normal(0.0, 1.0, size=cfg.frames)
    occ_u = rng.random(cfg.frames)
    occ_eps = rng.normal(0.0, 1.0, size=(cfg.frames, 2))
    sobj_eps = rng.normal(0.0, 1.0, size=(cfg.frames, 2))
    gw, gh = cfg.grid
    tw, th = cfg.target_motion.size
    sigma = cfg.score_noise
    sim = cfg.distractor_similarity
    cells = (max(4, gw // 16), max(4, gh // 16))

    def clamp01(v):
        return min(1.0, max(0.0, float(v)))

    def box(cx, cy, w, h):
        return (cx - w / 2.0, cy - h / 2.0, w, h)

    gt_boxes, observations, init_mask = [], [], None
    for t in range(cfg.frames):
        cx, cy = d.target_centers[t]
        visible = not d.occluded[t]
        gt_boxes.append(BBox(*box(cx, cy, tw, th)) if visible else None)
        gt = dense_ellipse(box(cx, cy, tw, th), gw, gh) if visible else None
        if t == 0:
            init_mask = BitMask.from_dense(gt)

        jit_cx = cx + jitter[t, 0] * 40.0 * sigma
        jit_cy = cy + jitter[t, 1] * 40.0 * sigma
        jit_w = max(tw * (1.0 + jitter[t, 2] * 0.5 * sigma), 2.0)
        jit_h = max(th * (1.0 + jitter[t, 3] * 0.5 * sigma), 2.0)
        if visible:
            mask1 = dense_ellipse(box(jit_cx, jit_cy, jit_w, jit_h), gw, gh)
            true_iou1 = dense_mask_iou(mask1, gt)
            s1 = clamp01(true_iou1 + score_eps[t, 0] * sigma)
        else:
            mask1 = dense_ellipse(box(jit_cx, jit_cy, jit_w * 0.4, jit_h * 0.4), gw, gh)
            true_iou1 = 0.85
            s1 = clamp01(0.15 + score_eps[t, 0] * max(sigma, 0.05))

        if d.distractors:
            # the distractor whose center is nearest the target's, the first on ties
            dists = [np.hypot(c[t, 0] - cx, c[t, 1] - cy) for c, _ in d.distractors]
            d_centers, d_size = d.distractors[int(np.argmin(dists))]
            mask2 = dense_rect(box(d_centers[t, 0], d_centers[t, 1], *d_size), gw, gh)
            s2 = clamp01(sim * clamp01(true_iou1 + score_eps[t, 1] * sigma)
                          + (1.0 - sim) * 0.1)
            mask3 = mask1 | mask2
        else:
            mask2 = dense_ellipse(box(jit_cx + tw * 0.75, jit_cy + th * 0.5, tw, th), gw, gh)
            s2 = clamp01(0.1 + score_eps[t, 1] * sigma)
            mask3 = dense_ellipse(box(jit_cx, jit_cy, jit_w * 1.6, jit_h * 1.6), gw, gh)
        if visible:
            s3 = clamp01(dense_mask_iou(mask3, gt) + score_eps[t, 2] * sigma)
        else:
            s3 = clamp01(0.2 + score_eps[t, 2] * sigma)

        if visible:
            o = 1.0 + o_eps[t] * 0.25
        elif occ_u[t] < 0.8:
            o = -0.5 - abs(occ_eps[t, 0]) * 0.3
        else:
            o = 0.2 + abs(occ_eps[t, 1]) * 0.2
        s_obj2 = 0.8 + sobj_eps[t, 0] * 0.2 if d.distractors \
            else -0.2 + sobj_eps[t, 0] * 0.1
        s_obj3 = 0.3 + sobj_eps[t, 1] * 0.2
        observations.append(FrameObservation(
            frame_idx=t,
            proposals=(
                Proposal(BitMask.from_dense(mask1), s1, float(o)),
                Proposal(BitMask.from_dense(mask2), s2, float(s_obj2)),
                Proposal(BitMask.from_dense(mask3), s3, float(s_obj3)),
            ),
            o=float(o),
            features=FeatureGrid(feature_grid_labels(
                cfg.grid, cells, (cx, cy) if visible else None, (tw, th),
                [((c[t, 0], c[t, 1]), size) for c, size in d.distractors],
                d.distractor_protos, d.target_proto, d.background)),
        ))
    return simulator.SequenceRecord(config=cfg, gt_boxes=gt_boxes,
                                    observations=observations, init_mask=init_mask)


def _clamp_center(cx: float, cy: float, size: tuple[float, float],
                  grid: tuple[int, int]) -> tuple[float, float]:
    w, h = size
    gw, gh = grid
    cx = min(max(cx, w / 2.0 + 1.0), gw - w / 2.0 - 1.0)
    cy = min(max(cy, h / 2.0 + 1.0), gh - h / 2.0 - 1.0)
    return cx, cy


def target_path_clamped_per_frame(cfg: simulator.SceneConfig, rng: np.random.Generator
                                  ) -> np.ndarray:
    """:func:`trackmem.simulator._target_path` with each frame's center clamped
    into the grid by a scalar ``min(max(...))``, one frame at a time.

    Same draws in the same order; the random walk bounds its steps to the
    float range and lets their sum overflow, as the simulator does.
    """
    gw, gh = cfg.grid
    spec = cfg.target_motion
    start = np.array([
        gw * 0.5 + rng.uniform(-0.15, 0.15) * gw,
        gh * 0.5 + rng.uniform(-0.15, 0.15) * gh,
    ])
    if spec.kind == "linear":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        vel = spec.speed * np.array([np.cos(theta), np.sin(theta)])
        centers = simulator._bounce(start, vel, cfg.frames, spec.size, cfg.grid)
    elif spec.kind == "sinusoid":
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        t = np.arange(cfg.frames)
        centers = np.zeros((cfg.frames, 2))
        centers[:, 0] = start[0] + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * t + phase[0])
        centers[:, 1] = start[1] + 0.6 * spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * 1.7 * t + phase[1])
    else:  # random_walk
        top = np.finfo(np.float64).max
        steps = np.clip(rng.normal(0.0, spec.step_sigma, size=(cfg.frames, 2)), -top, top)
        steps[0] = 0.0
        with np.errstate(over="ignore"):
            centers = start[None, :] + np.cumsum(steps, axis=0)
    for t in range(cfg.frames):
        centers[t] = _clamp_center(centers[t, 0], centers[t, 1], spec.size, cfg.grid)
    return centers


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


def numpy_mean(palette: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The mean of the palette rows ``labels`` names, by ``ndarray.mean``."""
    return palette[labels].mean(axis=0)


def numpy_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors with both norms from ``np.linalg.norm``; 0 when
    either is zero."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def samite_select_ram_lambda_keyed(
    scored_window: list[tuple[MemoryEntry, float]],
    k_ram: int,
    first_entry: MemoryEntry,
    prev_entry: MemoryEntry | None,
) -> list[MemoryEntry]:
    """{first, prev} anchors plus the ``k_ram - 2`` best window frames, ranked
    by a lambda's ``(-score, -frame_idx)`` key and returned in frame order."""
    anchors = [first_entry] + ([prev_entry] if prev_entry is not None else [])
    anchor_frames = {e.frame_idx for e in anchors}
    candidates = [(e, s) for e, s in scored_window if e.frame_idx not in anchor_frames]
    candidates.sort(key=lambda item: (-item[1], -item[0].frame_idx))
    picked = [e for e, _ in candidates[: k_ram - 2]]
    return sorted(anchors + picked, key=lambda e: e.frame_idx)


def samite_calibrate_recomputed(
    window: list[tuple[int, np.ndarray]], anchor_first: np.ndarray,
    anchor_prev: np.ndarray, alpha: float,
) -> list[tuple[int, float]]:
    """(frame, (1 - alpha) * cos(P, P_first) + alpha * cos(P, P_prev)) per window frame."""
    return [
        (frame, (1.0 - alpha) * numpy_cosine(vec, anchor_first)
         + alpha * numpy_cosine(vec, anchor_prev))
        for frame, vec in window
    ]


def per_frame_box_iou(a: BBox, b: BBox) -> float:
    """Box IoU through ``BBox.area`` and the dataclass ``==``: the scalar form
    before it read each field once into a local."""
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


def _per_frame_visible_ious(pred: list[BBox | None], gt: list[BBox | None]) -> np.ndarray:
    return np.array([
        per_frame_box_iou(p, g) if p is not None else 0.0
        for p, g in zip(pred, gt) if g is not None
    ])


def _per_frame_success_rates(ious: np.ndarray) -> np.ndarray:
    if ious.size == 0:
        return np.zeros_like(SUCCESS_THRESHOLDS)
    rates = (ious[None, :] >= SUCCESS_THRESHOLDS[:, None]).mean(axis=1)
    rates[0] = (ious > 0.0).mean()
    return rates


def per_frame_success_curve(pred: list[BBox | None], gt: list[BBox | None]) -> np.ndarray:
    """The success curve from one ``box_iou`` call per visible frame."""
    return _per_frame_success_rates(_per_frame_visible_ious(pred, gt))


def per_frame_precision(pred: list[BBox | None], gt: list[BBox | None]) -> tuple[float, float]:
    """(precision at 20 px, normalized-precision AUC), one scalar ``np.hypot`` per frame."""
    errors = []
    norm_errors = []
    for p, g in zip(pred, gt):
        if g is None:
            continue
        if p is None:
            errors.append(np.inf)
            norm_errors.append(np.inf)
            continue
        pc, gc = p.center, g.center
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as Python floats are
            err = float(np.hypot(pc[0] - gc[0], pc[1] - gc[1]))
            errors.append(err)
            norm_errors.append(err / float(np.hypot(g.w, g.h)))
    if not errors:
        return 0.0, 0.0
    errors_arr = np.array(errors)
    norm_arr = np.array(norm_errors)
    p20 = float((errors_arr <= 20.0).mean())
    np_auc = float((norm_arr[None, :] <= NORM_PRECISION_THRESHOLDS[:, None]).mean())
    return p20, np_auc


def per_frame_evaluate(
    pred: list[BBox | None],
    pred_present: list[bool],
    gt: list[BBox | None],
    gt_visible: list[bool],
) -> EvalOutcome:
    """Every column of :func:`trackmem.metrics.evaluate`, scored frame by frame.

    ``gt_visible`` holds the flags ``evaluate`` derives from the GT boxes
    (true where the box is not None). Each frame's quality, accuracy and
    robustness term is built in the loop below and the terms are averaged
    with numpy's mean, as ``vot_qar`` averages its arrays. Inputs are
    assumed valid: this loop does not check them.
    """
    pred_iou = [
        per_frame_box_iou(p, g) if (p is not None and g is not None) else 0.0
        for p, g in zip(pred, gt)
    ]
    visible_ious = np.array([iou for iou, g in zip(pred_iou, gt) if g is not None])
    s = float(_per_frame_success_rates(visible_ious).mean())
    p20, np_auc = per_frame_precision(pred, gt)
    if visible_ious.size:
        ao = float(visible_ious.mean())
        sr50, sr75 = float((visible_ious > 0.5).mean()), float((visible_ious > 0.75).mean())
    else:
        ao = sr50 = sr75 = 0.0
    q_terms, acc_terms, rob_terms = [], [], []
    for iou, present, visible in zip(pred_iou, pred_present, gt_visible):
        if visible:
            q_terms.append(iou)
            rob_terms.append(iou > 0.0)
            if present:
                acc_terms.append(iou)
        else:
            q_terms.append(0.0 if present else 1.0)
    q = float(np.mean(q_terms)) if q_terms else 0.0
    acc = float(np.mean(acc_terms)) if acc_terms else 0.0
    rob = float(np.mean(rob_terms)) if rob_terms else 0.0
    return EvalOutcome(
        success_auc=s, precision_at_20=p20, norm_precision_auc=np_auc,
        ao=ao, sr50=sr50, sr75=sr75, q=q, acc=acc, rob=rob,
    )


class RebuildingSamite(SamitePolicy):
    """The prototype-calibrated RAM rule with its pool, window and unscored
    set rebuilt as new lists and a dict on every frame."""

    def admit(self, obs, chosen, present) -> AdmissionReason:
        cfg = self.cfg.policy_cfg
        item = self._interned(obs, chosen.mask) if present else None
        if item is not None:
            index, proto, cos_first = item
            entry = MemoryEntry.from_proposal(obs.frame_idx, chosen, fg_prototype=proto)
            self.pool.append((entry, index, cos_first))
            decision = AdmissionReason.ADMITTED
        else:
            decision = AdmissionReason.TARGET_ABSENT
        # entries older than the sliding window can never be selected again
        horizon = obs.frame_idx - cfg.window_m
        self.pool = [item for item in self.pool if item[0].frame_idx >= horizon]
        prev, prev_index, _ = self.pool[-1] if self.pool else (None, None, None)
        window = [(e, index, cos_first) for e, index, cos_first in self.pool
                  if e is not prev and e.frame_idx > horizon]
        scores = self.scores.setdefault(prev_index, {})
        if window:
            unscored = {index: (e.frame_idx, e.fg_prototype, cos_first)
                        for e, index, cos_first in window if index not in scores}
            scored = samite_calibrate(list(unscored.values()), prev.fg_prototype, cfg.alpha)
            for index, (_, score) in zip(unscored, scored):
                scores[index] = score
        self.bank.replace_ram(samite_select_ram(
            [(e, scores[index]) for e, index, _ in window],
            self.cfg.k_ram, self.first, prev,
        ))
        return decision


@dataclass(frozen=True)
class CopiedPathway:
    """A pathway that holds its whole trajectory, copied from its parent's on
    every frame."""

    bank: MemoryBank
    score: float
    trajectory: tuple[tuple[int, int], ...]
    parent_id: int
    decision: AdmissionReason | None = None


def copying_pathway_init(bank: MemoryBank) -> list[CopiedPathway]:
    return [CopiedPathway(bank=bank, score=0.0, trajectory=(), parent_id=0)]


def pathway_expand_per_pair(beam: list[CopiedPathway], obs: FrameObservation,
                            epsilon: float) -> list[PathwayCandidate]:
    """Branch every pathway into the frame's proposals, one log per pair."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    candidates = []
    for parent_id, pathway in enumerate(beam):
        for k, proposal in enumerate(obs.proposals):
            score = pathway.score + math.log(proposal.s_mask + epsilon)
            candidates.append(PathwayCandidate(parent_id, k, score))
    return candidates


def pathway_prune_copying(
    beam: list[CopiedPathway],
    candidates: list[PathwayCandidate],
    obs: FrameObservation,
    cfg: PolicyConfig,
) -> list[CopiedPathway]:
    """Keep the top-``cfg.beam_width`` candidates, each with a copy of its
    parent's trajectory plus this frame's choice."""
    if not candidates:
        raise ValueError("cannot prune an empty candidate list")
    ranked = sorted(candidates, key=lambda c: (-c.score, c.parent_id, c.proposal_index))
    survivors = []
    for cand in ranked[: cfg.beam_width]:
        parent = beam[cand.parent_id]
        chosen = obs.proposals[cand.proposal_index]
        bank = parent.bank.copy()
        decision = sam2long_admit(obs, chosen, cfg)
        if decision.admit:
            bank.insert_ram(MemoryEntry.from_proposal(obs.frame_idx, chosen))
        survivors.append(CopiedPathway(
            bank=bank,
            score=cand.score,
            trajectory=parent.trajectory + ((obs.frame_idx, cand.proposal_index),),
            parent_id=cand.parent_id,
            decision=decision,
        ))
    return survivors
