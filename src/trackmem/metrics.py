"""Tracking evaluation metrics over per-frame box predictions.

Three metric families, all computed from (predicted box or absent,
ground-truth box or absent) pairs:

- success / precision / normalized precision: success is the AUC of the
  overlap-success curve on a fixed 21-point threshold grid [0, 0.05, ...,
  1.0]; a frame succeeds at threshold t when IoU >= t, except at t = 0
  where only strictly positive overlap counts (so perfect tracking gives
  exactly 1.0 and zero-overlap tracking exactly 0.0); precision is the
  fraction of frames with center error within 20 px; normalized
  precision is the AUC over the 101-point grid [0, 0.005, ..., 0.5] of
  center error divided by the ground-truth box diagonal;
- average overlap / success rates: mean IoU, plus the fraction of frames
  with IoU above 0.5 and 0.75;
- quality / accuracy / robustness: simplified surrogates of the VOT-style
  decomposition. Accuracy is mean IoU where ground truth is visible and
  a prediction was made; robustness is the fraction of visible frames
  with any overlap at all; quality averages, over all frames, the IoU on
  visible frames and the absence-prediction correctness on invisible
  ones. These are deliberately not the anchor-based toolkit protocol.

Frames whose ground truth is absent (occluded) are excluded everywhere
except the quality term; a missing prediction on a visible frame counts
as zero overlap and infinite center error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BBox, box_iou

__all__ = [
    "EvalOutcome",
    "success_curve",
    "success_auc",
    "precision_metrics",
    "ao_sr",
    "vot_qar",
    "evaluate",
    "SUCCESS_THRESHOLDS",
    "NORM_PRECISION_THRESHOLDS",
]

SUCCESS_THRESHOLDS = np.linspace(0.0, 1.0, 21)
NORM_PRECISION_THRESHOLDS = np.linspace(0.0, 0.5, 101)


@dataclass(frozen=True)
class EvalOutcome:
    """All reported columns for one sequence (or an aggregate)."""

    success_auc: float
    precision_at_20: float
    norm_precision_auc: float
    ao: float
    sr50: float
    sr75: float
    q: float
    acc: float
    rob: float


def _check_lengths(pred, gt) -> None:
    if len(pred) != len(gt):
        raise ValueError(f"prediction/ground-truth length mismatch: {len(pred)} vs {len(gt)}")


def _visible_ious(pred: list[BBox | None], gt: list[BBox | None]) -> np.ndarray:
    """Per-frame IoU restricted to visible-GT frames; absent pred -> 0."""
    _check_lengths(pred, gt)
    return np.array([
        box_iou(p, g) if p is not None else 0.0
        for p, g in zip(pred, gt) if g is not None
    ])


def _success_rates(ious: np.ndarray) -> np.ndarray:
    if ious.size == 0:
        return np.zeros_like(SUCCESS_THRESHOLDS)
    rates = (ious[None, :] >= SUCCESS_THRESHOLDS[:, None]).mean(axis=1)
    rates[0] = (ious > 0.0).mean()
    return rates


def success_curve(pred: list[BBox | None], gt: list[BBox | None]) -> np.ndarray:
    """Success rate at each overlap threshold of the 21-point grid.

    IoU >= t at positive thresholds; strictly positive IoU at t = 0.
    """
    return _success_rates(_visible_ious(pred, gt))


def success_auc(pred: list[BBox | None], gt: list[BBox | None]) -> float:
    """Area under the overlap-success curve (mean of the 21 rates)."""
    return float(success_curve(pred, gt).mean())


def precision_metrics(pred: list[BBox | None], gt: list[BBox | None]) -> tuple[float, float]:
    """(precision at 20 px, normalized-precision AUC) over visible frames."""
    _check_lengths(pred, gt)
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


def _ao_sr(ious: np.ndarray) -> tuple[float, float, float]:
    if ious.size == 0:
        return 0.0, 0.0, 0.0
    return float(ious.mean()), float((ious > 0.5).mean()), float((ious > 0.75).mean())


def ao_sr(pred: list[BBox | None], gt: list[BBox | None]) -> tuple[float, float, float]:
    """(average overlap, success rate above 0.5, above 0.75)."""
    return _ao_sr(_visible_ious(pred, gt))


def vot_qar(
    pred_present: list[bool],
    pred_iou: list[float],
    gt_visible: list[bool],
) -> tuple[float, float, float]:
    """(quality, accuracy, robustness) surrogates; see module docs."""
    if not (len(pred_present) == len(pred_iou) == len(gt_visible)):
        raise ValueError("vot_qar inputs must have equal lengths")
    present = np.asarray(pred_present, dtype=bool)
    iou = np.asarray(pred_iou, dtype=float)
    visible = np.asarray(gt_visible, dtype=bool)
    both = visible & present
    acc = float(iou[both].mean()) if both.any() else 0.0
    rob = float((iou[visible] > 0.0).mean()) if visible.any() else 0.0
    q_terms = np.where(visible, iou, np.where(present, 0.0, 1.0))
    q = float(q_terms.mean()) if q_terms.size else 0.0
    return q, acc, rob


def evaluate(
    pred: list[BBox | None],
    pred_present: list[bool],
    gt: list[BBox | None],
    gt_visible: list[bool],
) -> EvalOutcome:
    """All columns for one sequence of per-frame predictions.

    Each frame's box IoU is computed once; the success, overlap and
    quality metrics all read that one list.
    """
    _check_lengths(pred, gt)
    pred_iou = [
        box_iou(p, g) if (p is not None and g is not None) else 0.0
        for p, g in zip(pred, gt)
    ]
    visible_ious = np.array([iou for iou, g in zip(pred_iou, gt) if g is not None])
    s = float(_success_rates(visible_ious).mean())
    p20, np_auc = precision_metrics(pred, gt)
    ao, sr50, sr75 = _ao_sr(visible_ious)
    q, acc, rob = vot_qar(pred_present, pred_iou, gt_visible)
    return EvalOutcome(
        success_auc=s, precision_at_20=p20, norm_precision_auc=np_auc,
        ao=ao, sr50=sr50, sr75=sr75, q=q, acc=acc, rob=rob,
    )
