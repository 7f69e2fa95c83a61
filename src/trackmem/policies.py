"""RAM admission policies: the pluggable short-term memory rules.

Six policies share one decision contract. Each returns an
:class:`AdmissionReason`: ``ADMITTED`` or the first gate that failed,
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

Scoring formulas implemented here (the blended selection score and the
two-stage confidence are stated by the choice rules that compute them,
:func:`~trackmem.selection.select_samurai` and
:func:`~trackmem.selection.select_him`):

- motion-consistency s_kf = IoU(predicted box, candidate box);
- calibration score (1 - alpha) * cos(P, P_first) + alpha * cos(P, P_prev).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .checks import check_numbers
from .geometry import BBox, box_iou
from .membank import MemoryEntry
from .observation import FrameObservation, Proposal, Prototype, cosine

__all__ = [
    "AdmissionReason",
    "PolicyConfig",
    "dam_admit",
    "motion_consistency",
    "samurai_admit",
    "sam2long_admit",
    "samite_anchor_first",
    "samite_calibrate",
    "samite_select_ram",
    "him_admit",
]


class AdmissionReason(enum.Enum):
    """A RAM admission decision: ``ADMITTED`` or the first gate that failed."""

    ADMITTED = "admitted"
    TARGET_ABSENT = "target_absent"
    BELOW_MASK_THR = "below_mask_thr"
    BELOW_OBJ_THR = "below_obj_thr"
    BELOW_KF_THR = "below_kf_thr"
    GAP_NOT_ELAPSED = "gap_not_elapsed"
    BELOW_IOU_THR = "below_iou_thr"
    BELOW_CONF_THR = "below_conf_thr"

    @property
    def admit(self) -> bool:
        """Whether the frame was admitted: true exactly for ``ADMITTED``."""
        return self is AdmissionReason.ADMITTED


# The beam triples every frame until it holds beam_width pathways, each with
# its own bank: on a 2-core VM one 110-frame suite scene's sam2long_drm
# session takes 0.03 s at 64, 0.12 s at 256, 0.5-0.6 s at 1,024 (peak RSS
# about 42 MB) and 3.6-3.8 s at 4,096 (50-53 MB).
MAX_BEAM_WIDTH = 1024


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
        if self.alpha_him + self.beta > 1.0:
            raise ValueError("alpha_him + beta must not exceed 1")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be strictly positive")
        if self.window_m < 3:
            raise ValueError("window_m must be >= 3")
        if self.delta_ram < 1:
            raise ValueError("delta_ram must be >= 1")
        if not 1 <= self.beam_width <= MAX_BEAM_WIDTH:
            raise ValueError(f"beam_width must lie in [1, {MAX_BEAM_WIDTH}]")


# --- gated-sparse ------------------------------------------------------------


def dam_admit(obs: FrameObservation, chosen: Proposal, last_ram_frame: int,
              cfg: PolicyConfig) -> AdmissionReason:
    """Gated-sparse: target present and the store gap elapsed."""
    if chosen.mask.is_empty or obs.o <= 0.0:
        return AdmissionReason.TARGET_ABSENT
    if obs.frame_idx - last_ram_frame < cfg.delta_ram:
        return AdmissionReason.GAP_NOT_ELAPSED
    return AdmissionReason.ADMITTED


# --- motion-gated ----------------------------------------------------------


def motion_consistency(kf_pred: BBox | None, p: Proposal) -> float:
    """s_kf: IoU of the motion-predicted box with the candidate's box.

    0 when either box is unavailable (no prediction yet, empty mask).
    """
    if kf_pred is None or p.bbox is None:
        return 0.0
    return box_iou(kf_pred, p.bbox)


def samurai_admit(chosen: Proposal, s_kf: float, cfg: PolicyConfig) -> AdmissionReason:
    """Three-threshold gate, checked in order mask, obj, kf."""
    if chosen.s_mask < cfg.tau_mask:
        return AdmissionReason.BELOW_MASK_THR
    if chosen.s_obj < cfg.tau_obj:
        return AdmissionReason.BELOW_OBJ_THR
    if s_kf < cfg.tau_kf:
        return AdmissionReason.BELOW_KF_THR
    return AdmissionReason.ADMITTED


# --- best-pathway ------------------------------------------------------------


def sam2long_admit(obs: FrameObservation, chosen: Proposal,
                   cfg: PolicyConfig) -> AdmissionReason:
    """Quality and presence gate applied along a pathway's trajectory."""
    if obs.o <= 0.0:
        return AdmissionReason.TARGET_ABSENT
    if chosen.s_mask < cfg.tau_iou:
        return AdmissionReason.BELOW_IOU_THR
    return AdmissionReason.ADMITTED


# --- prototype-calibrated ----------------------------------------------------


def samite_anchor_first(proto: Prototype, anchor_first: Prototype | None) -> float:
    """cos(P, P_first) of one prototype, taken once per session.

    The first-frame anchor is fixed for the session, so
    :class:`~trackmem.selection.SamitePolicy` calls this only when it first
    meets a prototype and keeps the term beside it. A first anchor without
    a prototype counts as the zero vector, whose cosine is 0.0.
    """
    return 0.0 if anchor_first is None else cosine(proto, anchor_first)


def samite_calibrate(
    window: Sequence[tuple[Prototype, float]],
    anchor_prev: Prototype,
    alpha: float,
) -> list[float]:
    """Score window prototypes against the first- and previous-frame anchors.

    score = (1 - alpha) * cos(P, P_first) + alpha * cos(P, P_prev)

    Each window item is ``(P, cos(P, P_first))``, its first-anchor term
    from :func:`samite_anchor_first`; only the previous-anchor term, whose
    anchor moves every frame, is computed here. The scores come back in the
    window's order. A score depends only on P and P_prev within a session,
    so :class:`~trackmem.selection.SamitePolicy` memoizes it, passes only
    the window's prototypes not yet scored against this P_prev, and calls
    this only when there is at least one.
    """
    return [(1.0 - alpha) * cos_first + alpha * cosine(proto, anchor_prev)
            for proto, cos_first in window]


# a ranked window frame is ``(-score, -frame_idx, entry)``; a MemoryEntry's
# ``frame_idx`` is its field 0
_RANK = itemgetter(0, 1)
_FRAME_IDX = itemgetter(0)


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
    are skipped. The ``(-score, -frame_idx)`` keys are built once, and both
    sorts read their keys with ``itemgetter``.
    """
    if k_ram < 2:
        raise ValueError("prototype-calibrated RAM needs k_ram >= 2 for its anchors")
    anchors = [first_entry] if prev_entry is None else [first_entry, prev_entry]
    anchor_frames = {e.frame_idx for e in anchors}
    ranked = [(-s, -e.frame_idx, e) for e, s in scored_window
              if e.frame_idx not in anchor_frames]
    ranked.sort(key=_RANK)
    anchors += [e for _, _, e in ranked[: k_ram - 2]]
    anchors.sort(key=_FRAME_IDX)
    return anchors


# --- two-stage motion confidence ---------------------------------------------


def him_admit(chosen: Proposal, s_conf: float, cfg: PolicyConfig) -> AdmissionReason:
    """Store only non-empty, high-confidence selections."""
    if chosen.mask.is_empty:
        return AdmissionReason.TARGET_ABSENT
    if s_conf < cfg.tau_mem:
        return AdmissionReason.BELOW_CONF_THR
    return AdmissionReason.ADMITTED
