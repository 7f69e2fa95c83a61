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

A frame's ground truth is visible exactly when its GT box is present, so
the GT boxes are the only GT input. Frames whose ground truth is absent
(occluded) are excluded everywhere except the quality term; a missing
prediction on a visible frame counts as zero overlap and infinite center
error.

Each call scores its whole sequence at once. The prediction and GT lists
become ``(n, 4)`` float64 arrays, absent boxes as zero rows under a
presence mask, and the IoUs (:func:`~trackmem.geometry.box_ious`), the
center errors, the GT diagonals and the success rates are array
operations. Every element goes through the per-frame code's operations
in its order, every mean runs over the frames in their order, and every
rate is an exact count over its frame count, so each column has the bits
of a per-frame loop (``per_frame_evaluate`` in ``tests/reference.py``
keeps one). A non-finite box coordinate, a GT box of zero width or
height and a list of the wrong length are rejected with a ValueError that
names the frame or the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import BBox, box_ious
# Scoring no longer calls box_iou; perfbench/workloads.py still wraps the name here.
from .geometry import box_iou  # noqa: F401

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
_ABSENT = (0.0, 0.0, 0.0, 0.0)


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


class _Scores(NamedTuple):
    """One sequence scored as whole arrays, frame order kept throughout."""

    ious: np.ndarray  # every frame; 0 where the prediction or the GT is absent
    visible: np.ndarray  # per frame: the GT box is present
    visible_ious: np.ndarray
    success_rates: np.ndarray  # on SUCCESS_THRESHOLDS, over the visible frames
    center_errors: np.ndarray  # visible frames; inf where the prediction is absent
    norm_errors: np.ndarray  # center error over the GT diagonal, likewise


def _check_length(name: str, seq, gt) -> None:
    if len(seq) != len(gt):
        raise ValueError(f"{name} holds {len(seq)} frames but gt holds {len(gt)}")


def _rows(boxes: list[BBox | None], side: str) -> tuple[np.ndarray, np.ndarray]:
    """``(n, 4)`` float64 rows of x, y, w, h (zeros where absent) and the presence mask."""
    there = np.array([b is not None for b in boxes], dtype=bool)
    fields = [(b.x, b.y, b.w, b.h) if b is not None else _ABSENT for b in boxes]
    rows = np.fromiter(chain.from_iterable(fields), np.float64, 4 * len(boxes)).reshape(-1, 4)
    if not np.isfinite(rows).all():
        t = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise ValueError(f"{side} box at frame {t} has a non-finite coordinate: {boxes[t]}")
    return rows, there


def _success_rates(ious: np.ndarray) -> np.ndarray:
    # a count over n has the bits of the boolean mean: the mean's float sum
    # of zeros and ones is exact, and so is the count
    n = ious.size
    if n == 0:
        return np.zeros_like(SUCCESS_THRESHOLDS)
    rates = np.count_nonzero(ious[None, :] >= SUCCESS_THRESHOLDS[:, None], axis=1) / n
    rates[0] = np.count_nonzero(ious > 0.0) / n
    return rates


def _score(pred: list[BBox | None], gt: list[BBox | None]) -> _Scores:
    """Every per-frame score of one sequence, in one pass of array operations.

    Each element is computed by the operations the scalar code applies to
    that frame, in its order, so every value has the scalar code's bits.
    """
    _check_length("pred", pred, gt)
    p_rows, p_there = _rows(pred, "pred")
    g_rows, visible = _rows(gt, "GT")
    flat = np.flatnonzero(visible & ((g_rows[:, 2] == 0.0) | (g_rows[:, 3] == 0.0)))
    if flat.size:
        t = int(flat[0])
        raise ValueError(f"GT box at frame {t} must have positive width and height: {gt[t]}")
    ious = box_ious(p_rows, g_rows)
    visible_ious = ious[visible]
    p, g = p_rows.compress(visible, axis=0), g_rows.compress(visible, axis=0)
    # overflow to inf, and inf - inf to NaN, without a warning, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.hypot((p[:, 0] + p[:, 2] / 2.0) - (g[:, 0] + g[:, 2] / 2.0),
                          (p[:, 1] + p[:, 3] / 2.0) - (g[:, 1] + g[:, 3] / 2.0))
        norm_errors = errors / np.hypot(g[:, 2], g[:, 3])
    absent = ~p_there[visible]
    errors[absent] = np.inf
    norm_errors[absent] = np.inf
    return _Scores(ious, visible, visible_ious, _success_rates(visible_ious),
                   errors, norm_errors)


def success_curve(pred: list[BBox | None], gt: list[BBox | None]) -> np.ndarray:
    """Success rate at each overlap threshold of the 21-point grid.

    IoU >= t at positive thresholds; strictly positive IoU at t = 0.
    """
    return _score(pred, gt).success_rates


def success_auc(pred: list[BBox | None], gt: list[BBox | None]) -> float:
    """Area under the overlap-success curve (mean of the 21 rates)."""
    return float(success_curve(pred, gt).mean())


def _precision(scores: _Scores) -> tuple[float, float]:
    errors, norm_errors = scores.center_errors, scores.norm_errors
    if errors.size == 0:
        return 0.0, 0.0
    within = norm_errors[None, :] <= NORM_PRECISION_THRESHOLDS[:, None]
    return (float(np.count_nonzero(errors <= 20.0) / errors.size),
            float(np.count_nonzero(within) / within.size))


def precision_metrics(pred: list[BBox | None], gt: list[BBox | None]) -> tuple[float, float]:
    """(precision at 20 px, normalized-precision AUC) over visible frames."""
    return _precision(_score(pred, gt))


def _ao_sr(ious: np.ndarray) -> tuple[float, float, float]:
    if ious.size == 0:
        return 0.0, 0.0, 0.0
    return float(ious.mean()), float((ious > 0.5).mean()), float((ious > 0.75).mean())


def ao_sr(pred: list[BBox | None], gt: list[BBox | None]) -> tuple[float, float, float]:
    """(average overlap, success rate above 0.5, above 0.75)."""
    return _ao_sr(_score(pred, gt).visible_ious)


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
) -> EvalOutcome:
    """All columns for one sequence of per-frame predictions.

    The sequence is scored once; the success, precision, overlap and
    quality metrics all read that one set of arrays, and a frame's GT is
    visible where its box is not None. Raises ValueError, naming the
    frame, for a non-finite box coordinate or a GT box of zero width or
    height; and, naming the list and both lengths, for a list whose
    length is not the GT's.
    """
    _check_length("pred_present", pred_present, gt)
    scores = _score(pred, gt)
    p20, np_auc = _precision(scores)
    ao, sr50, sr75 = _ao_sr(scores.visible_ious)
    q, acc, rob = vot_qar(pred_present, scores.ious, scores.visible)
    return EvalOutcome(
        success_auc=float(scores.success_rates.mean()), precision_at_20=p20,
        norm_precision_auc=np_auc, ao=ao, sr50=sr50, sr75=sr75, q=q, acc=acc, rob=rob,
    )
