"""RAM admission policies: the pluggable short-term memory rules.

Six policies share one decision contract. Each returns a
:class:`RamPolicyDecision` whose reason names the first gate that failed,
so traces are auditable after the fact (:mod:`trackmem.selection` holds
the policy objects that apply these rules):

- plain FIFO: every frame is stored, reliability ignored;
- gated-sparse: store only when the target is predicted present and a
  minimum temporal gap since the last store has elapsed;
- motion-gated: store only when mask quality, object score, and the
  Kalman motion-consistency score all clear their thresholds;
- best-pathway: store only frames chosen by the highest-scoring memory
  pathway that also clear quality and presence (see
  :mod:`trackmem.pathways`);
- prototype-calibrated: rebuild RAM every frame from the first-frame and
  previous-frame anchors plus the top scoring window frames, scored by
  cosine consistency against both anchors;
- two-stage motion confidence: blend a coarse motion estimate with the
  decoder quality score, refine with a fine estimate when the coarse
  stage is unconvincing, and store only high-confidence frames.

Scoring formulas implemented here:

- motion-consistency s_kf = IoU(predicted box, candidate box);
- blended selection score alpha * s_kf + (1 - alpha) * s_mask;
- calibration score (1 - alpha) * cos(P, P_first) + alpha * cos(P, P_prev);
- two-stage confidence alpha * s_coarse + (1 - alpha) * s_iou, refined to
  alpha * s_coarse + beta * s_fine + (1 - alpha - beta) * s_iou when the
  best coarse-stage confidence in the frame falls below ``tau_conf``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

from .checks import check_numbers
from .geometry import BBox, box_iou
from .membank import MemoryEntry
from .observation import FrameObservation, Proposal, Prototype, cosine

__all__ = [
    "AdmissionReason",
    "RamPolicyDecision",
    "PolicyConfig",
    "dam_admit",
    "motion_consistency",
    "samurai_score",
    "samurai_admit",
    "sam2long_admit",
    "samite_anchor_first",
    "samite_calibrate",
    "samite_select_ram",
    "him_stage1",
    "him_stage2",
    "him_confidence",
    "him_admit",
]


class AdmissionReason(enum.Enum):
    ADMITTED = "admitted"
    TARGET_ABSENT = "target_absent"
    BELOW_MASK_THR = "below_mask_thr"
    BELOW_OBJ_THR = "below_obj_thr"
    BELOW_KF_THR = "below_kf_thr"
    GAP_NOT_ELAPSED = "gap_not_elapsed"
    BELOW_IOU_THR = "below_iou_thr"
    BELOW_CONF_THR = "below_conf_thr"


@dataclass(frozen=True)
class RamPolicyDecision:
    """A RAM admission outcome: the reason, ``ADMITTED`` or the first gate that failed.

    :meth:`admitted` and :meth:`rejected` return one shared instance per
    reason.
    """

    reason: AdmissionReason

    @property
    def admit(self) -> bool:
        """Whether the frame was admitted: true exactly for ``ADMITTED``."""
        return self.reason is AdmissionReason.ADMITTED

    @classmethod
    def admitted(cls) -> "RamPolicyDecision":
        return _DECISIONS[AdmissionReason.ADMITTED]

    @classmethod
    def rejected(cls, reason: AdmissionReason) -> "RamPolicyDecision":
        if reason is AdmissionReason.ADMITTED:
            raise ValueError("a rejection needs a reason other than ADMITTED")
        return _DECISIONS[reason]


_DECISIONS = {reason: RamPolicyDecision(reason) for reason in AdmissionReason}


@dataclass(frozen=True)
class PolicyConfig:
    """Thresholds and weights shared across the admission policies.

    ``alpha`` weights motion against affinity in the blended selection
    score and is also the previous-frame anchor weight in calibration;
    ``alpha_him``/``beta`` are the coarse/fine weights of the two-stage
    confidence. The remaining fields are the admission thresholds, the
    calibration window length ``window_m``, the gated-sparse store gap
    ``delta_ram``, the pathway log-score offset ``epsilon``, and the
    number of retained pathways ``beam_width``.
    """

    alpha: float = 0.25
    beta: float = 0.3
    alpha_him: float = 0.4
    tau_mask: float = 0.5
    tau_obj: float = 0.0
    tau_kf: float = 0.3
    tau_iou: float = 0.5
    tau_conf: float = 0.5
    tau_mem: float = 0.6
    window_m: int = 16
    delta_ram: int = 5
    epsilon: float = 1e-6
    beam_width: int = 3

    def __post_init__(self) -> None:
        check_numbers(self)
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0
                and 0.0 <= self.alpha_him <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if self.alpha + self.beta > 1.0 or self.alpha_him + self.beta > 1.0:
            raise ValueError("alpha + beta must not exceed 1")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be strictly positive")
        if self.window_m < 3:
            raise ValueError("window_m must be >= 3")
        if self.delta_ram < 1:
            raise ValueError("delta_ram must be >= 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")


# --- gated-sparse ------------------------------------------------------------


def dam_admit(obs: FrameObservation, chosen: Proposal, last_ram_frame: int,
              cfg: PolicyConfig) -> RamPolicyDecision:
    """Gated-sparse: target present and the store gap elapsed."""
    if chosen.mask.is_empty or obs.o <= 0.0:
        return RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
    if obs.frame_idx - last_ram_frame < cfg.delta_ram:
        return RamPolicyDecision.rejected(AdmissionReason.GAP_NOT_ELAPSED)
    return RamPolicyDecision.admitted()


# --- motion-gated ----------------------------------------------------------


def motion_consistency(kf_pred: BBox | None, p: Proposal) -> float:
    """s_kf: IoU of the motion-predicted box with the candidate's box.

    0 when either box is unavailable (no prediction yet, empty mask).
    """
    if kf_pred is None or p.bbox is None:
        return 0.0
    return box_iou(kf_pred, p.bbox)


def samurai_score(kf_pred: BBox | None, p: Proposal, alpha: float) -> float:
    """Blend of motion consistency and affinity: a*s_kf + (1-a)*s_mask."""
    return alpha * motion_consistency(kf_pred, p) + (1.0 - alpha) * p.s_mask


def samurai_admit(chosen: Proposal, s_kf: float, cfg: PolicyConfig) -> RamPolicyDecision:
    """Three-threshold gate, checked in order mask, obj, kf."""
    if chosen.s_mask < cfg.tau_mask:
        return RamPolicyDecision.rejected(AdmissionReason.BELOW_MASK_THR)
    if chosen.s_obj < cfg.tau_obj:
        return RamPolicyDecision.rejected(AdmissionReason.BELOW_OBJ_THR)
    if s_kf < cfg.tau_kf:
        return RamPolicyDecision.rejected(AdmissionReason.BELOW_KF_THR)
    return RamPolicyDecision.admitted()


# --- best-pathway ------------------------------------------------------------


def sam2long_admit(obs: FrameObservation, chosen: Proposal,
                   cfg: PolicyConfig) -> RamPolicyDecision:
    """Quality and presence gate applied along a pathway's trajectory."""
    if obs.o <= 0.0:
        return RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
    if chosen.s_mask < cfg.tau_iou:
        return RamPolicyDecision.rejected(AdmissionReason.BELOW_IOU_THR)
    return RamPolicyDecision.admitted()


# --- prototype-calibrated ----------------------------------------------------


def samite_anchor_first(proto: Prototype, anchor_first: Prototype | None) -> float:
    """cos(P, P_first) of one prototype, taken once per session.

    The first-frame anchor is fixed for the session, so
    :class:`~trackmem.selection.SamitePolicy` calls this only when it first
    meets a prototype and keeps the term beside it. A first anchor without
    a prototype counts as the zero vector, whose cosine is 0.0.
    """
    if anchor_first is None:
        anchor_first = Prototype([0.0] * proto.dim)
    return cosine(proto, anchor_first)


def samite_calibrate(
    window: Sequence[tuple[int, Prototype, float]],
    anchor_prev: Prototype,
    alpha: float,
) -> list[tuple[int, float]]:
    """Score window frames against the first- and previous-frame anchors.

    score = (1 - alpha) * cos(P, P_first) + alpha * cos(P, P_prev)

    Each window item is ``(frame_idx, P, cos(P, P_first))``, its first-anchor
    term from :func:`samite_anchor_first`; only the previous-anchor term,
    whose anchor moves every frame, is computed here. A score depends only on
    P and P_prev within a session, so :class:`~trackmem.selection.SamitePolicy`
    memoizes it and passes only the window's prototypes not yet scored
    against this P_prev, which may be none.
    """
    return [
        (frame_idx, (1.0 - alpha) * cos_first + alpha * cosine(proto, anchor_prev))
        for frame_idx, proto, cos_first in window
    ]


def samite_select_ram(
    scored_window: Sequence[tuple[MemoryEntry, float]],
    k_ram: int,
    first_entry: MemoryEntry,
    prev_entry: MemoryEntry | None,
) -> list[MemoryEntry]:
    """Build RAM as {first, prev} anchors plus the top window frames.

    Takes the ``k_ram - 2`` highest-scoring window frames, breaking score
    ties toward the larger frame index (recency), and returns the result
    in chronological order. Window items that duplicate an anchor frame
    are skipped.
    """
    if k_ram < 2:
        raise ValueError("prototype-calibrated RAM needs k_ram >= 2 for its anchors")
    anchors = [first_entry] + ([prev_entry] if prev_entry is not None else [])
    anchor_frames = {e.frame_idx for e in anchors}
    candidates = [(e, s) for e, s in scored_window if e.frame_idx not in anchor_frames]
    candidates.sort(key=lambda item: (-item[1], -item[0].frame_idx))
    picked = [e for e, _ in candidates[: k_ram - 2]]
    return sorted(anchors + picked, key=lambda e: e.frame_idx)


# --- two-stage motion confidence ---------------------------------------------


def him_stage1(s_coarse: float, s_iou: float, cfg: PolicyConfig) -> float:
    a = cfg.alpha_him
    return a * s_coarse + (1.0 - a) * s_iou


def him_stage2(s_coarse: float, s_fine: float, s_iou: float, cfg: PolicyConfig) -> float:
    a, b = cfg.alpha_him, cfg.beta
    return a * s_coarse + b * s_fine + (1.0 - a - b) * s_iou


def him_confidence(
    s_coarse: Sequence[float],
    s_fine: Callable[[], Sequence[float]],
    s_iou: Sequence[float],
    cfg: PolicyConfig,
) -> tuple[list[float], bool]:
    """Two-stage confidence for one frame's proposals.

    Computes the coarse-stage confidences first; when their maximum falls
    below ``tau_conf`` the fine stage replaces them for every proposal.
    ``s_fine`` returns the fine-stage motion scores and is called only
    then. Returns the final confidences and whether the fine stage was used.
    """
    stage1 = [him_stage1(c, i, cfg) for c, i in zip(s_coarse, s_iou)]
    if max(stage1) >= cfg.tau_conf:
        return stage1, False
    stage2 = [him_stage2(c, f, i, cfg) for c, f, i in zip(s_coarse, s_fine(), s_iou)]
    return stage2, True


def him_admit(chosen: Proposal, s_conf: float, cfg: PolicyConfig) -> RamPolicyDecision:
    """Store only non-empty, high-confidence selections."""
    if chosen.mask.is_empty:
        return RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
    if s_conf < cfg.tau_mem:
        return RamPolicyDecision.rejected(AdmissionReason.BELOW_CONF_THR)
    return RamPolicyDecision.admitted()
