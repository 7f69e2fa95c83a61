"""Per-frame output selection and the tracker session orchestrator.

:class:`TrackerSession` is the glue: it owns the memory bank, the motion
filter, and any per-policy state, and advances them one observation at a
time. The per-frame pipeline order is fixed as

    predict -> select -> DRM-consider -> RAM-admit -> motion-update

so that a frame's own RAM copy can never shift the RAM-area median used
by its DRM gate. Every step returns an audited :class:`FrameResult`; a
replayed (config, observation) pair reproduces the result sequence
byte-for-byte in serialized form.

Frame 0 is the prompt: the initialization mask is the output, lands in
the reserved init slot, and seeds the motion filter. Target-absent frames
report ``present=False`` and are fed to metrics as empty predictions;
no policy admits them to RAM except the unconditional FIFO baseline.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from .geometry import BBox, BitMask
from .membank import DrmConfig, EntryKind, MemoryBank, MemoryEntry
from .motion import KalmanState, MotionConfig, kf_init, kf_predict, kf_update
from .observation import FrameObservation, Proposal, Prototype, extract_prototypes
from .pathways import PathwaySet, pathway_best, pathway_expand, pathway_init, pathway_prune
from .policies import (
    AdmissionReason,
    PolicyConfig,
    RamPolicyDecision,
    dam_admit,
    fifo_admit,
    him_admit,
    him_confidence,
    him_stage1,
    motion_consistency,
    sam2long_admit,
    samite_anchor_first,
    samite_calibrate,
    samite_select_ram,
    samurai_admit,
    samurai_score,
)

__all__ = [
    "PolicyKind",
    "TrackerConfig",
    "FrameResult",
    "TrackerSession",
    "select_default",
    "select_samurai",
    "select_him",
    "frame_result_to_line",
]


class PolicyKind(enum.Enum):
    SAM2_FIFO = "sam2_fifo"
    DAM4SAM = "dam4sam"
    SAMURAI_DRM = "samurai_drm"
    SAM2LONG_DRM = "sam2long_drm"
    SAMITE_DRM = "samite_drm"
    HIM2SAM_DRM = "him2sam_drm"


@dataclass(frozen=True)
class TrackerConfig:
    """Everything a session needs: policy choice plus all knobs.

    The FIFO baseline never carries a DRM, so ``drm_enabled`` is forced
    off for it.
    """

    policy: PolicyKind
    drm_enabled: bool = True
    k_ram: int = 6
    k_drm: int = 3
    policy_cfg: PolicyConfig = field(default_factory=PolicyConfig)
    motion_cfg: MotionConfig = field(default_factory=MotionConfig)
    drm_cfg: DrmConfig = field(default_factory=DrmConfig)

    def __post_init__(self) -> None:
        if self.policy is PolicyKind.SAM2_FIFO and self.drm_enabled:
            object.__setattr__(self, "drm_enabled", False)
        if self.policy is PolicyKind.SAMITE_DRM and self.k_ram < 2:
            raise ValueError(
                "the prototype-calibrated policy needs k_ram >= 2 for its anchors")


@dataclass(frozen=True)
class FrameResult:
    """Audited outcome of one step: output, presence, scores, decisions."""

    frame_idx: int
    chosen: Proposal | None
    present: bool
    decision: RamPolicyDecision
    drm_admitted: bool
    s_kf: float | None = None
    s_conf: float | None = None
    used_fine: bool = False


# one encoder for every line: json.dumps with separators builds a new one per call
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def frame_result_to_line(res: FrameResult) -> str:
    """Serialize a result to one JSON line (the golden-trace format).

    Masks are reduced to a digest of their RLE text; everything else is
    carried verbatim so reruns must match byte-for-byte.
    """
    chosen = res.chosen
    payload = {
        "frame": res.frame_idx,
        "present": res.present,
        "bbox": None if chosen is None or chosen.bbox is None
        else [chosen.bbox.x, chosen.bbox.y, chosen.bbox.w, chosen.bbox.h],
        "mask_sha1": None if chosen is None
        else hashlib.sha1(chosen.mask.to_text().encode()).hexdigest(),
        "s_mask": None if chosen is None else chosen.s_mask,
        "s_obj": None if chosen is None else chosen.s_obj,
        "s_kf": res.s_kf,
        "s_conf": res.s_conf,
        "used_fine": res.used_fine,
        "admit": res.decision.admit,
        "reason": res.decision.reason.value,
        "drm": res.drm_admitted,
    }
    return _LINE_ENCODER.encode(payload)


# --- per-frame choice rules --------------------------------------------------


def select_default(obs: FrameObservation) -> tuple[Proposal, bool]:
    """Argmax of s_mask (ties to the lower index) plus a presence flag.

    The frame counts as target-absent only when the presence score is
    non-positive and every proposal is empty; the argmax proposal is
    still returned so unconditional policies have something to store.
    """
    best = max(range(len(obs.proposals)), key=lambda i: (obs.proposals[i].s_mask, -i))
    present = not (obs.o <= 0.0 and all(p.mask.is_empty for p in obs.proposals))
    return obs.proposals[best], present


def select_samurai(
    obs: FrameObservation, kf_pred: BBox | None, cfg: PolicyConfig
) -> tuple[Proposal | None, float | None]:
    """Best blended motion+affinity score among positive-object proposals.

    Returns (None, None) when no proposal has a positive object score,
    which is the target-lost outcome; otherwise also returns the chosen
    proposal's motion-consistency score.
    """
    qualified = [i for i, p in enumerate(obs.proposals) if p.s_obj > 0.0]
    if not qualified:
        return None, None
    best = max(qualified,
               key=lambda i: (samurai_score(kf_pred, obs.proposals[i], cfg.alpha), -i))
    return obs.proposals[best], motion_consistency(kf_pred, obs.proposals[best])


def select_him(
    obs: FrameObservation,
    coarse_pred: BBox | None,
    fine_pred: Callable[[], BBox | None],
    cfg: PolicyConfig,
) -> tuple[Proposal | None, float | None, bool]:
    """Two-stage confidence argmax with a lazily evaluated fine stage.

    ``fine_pred`` is only called when the best coarse-stage confidence
    falls below ``tau_conf``. Returns (chosen, confidence, used_fine);
    chosen is None when the winning mask is empty and the frame-level
    presence score is non-positive.
    """
    s_iou = [p.s_mask for p in obs.proposals]
    s_coarse = [motion_consistency(coarse_pred, p) for p in obs.proposals]
    stage1 = [him_stage1(c, i, cfg) for c, i in zip(s_coarse, s_iou)]
    if max(stage1) >= cfg.tau_conf:
        confs, used_fine = stage1, False
    else:
        fine_box = fine_pred()
        s_fine = [motion_consistency(fine_box, p) for p in obs.proposals]
        confs, used_fine = him_confidence(s_coarse, s_fine, s_iou, cfg)
    best = max(range(len(confs)), key=lambda i: (confs[i], -i))
    chosen = obs.proposals[best]
    if chosen.mask.is_empty and obs.o <= 0.0:
        return None, None, used_fine
    return chosen, confs[best], used_fine


# --- the session ---------------------------------------------------------------


class TrackerSession:
    """Single-object tracking session for one configured policy.

    Construct with the frame-0 prompt mask, then feed observations in
    strictly increasing frame order starting at frame 0. The session is
    strictly sequential; run one per sequence.
    """

    def __init__(self, cfg: TrackerConfig, init_mask: BitMask):
        if init_mask.is_empty:
            raise ValueError("frame-0 prompt mask must be non-empty")
        self.cfg = cfg
        self.init_mask = init_mask
        self.bank = MemoryBank.new(init_mask, cfg.k_ram, cfg.k_drm)
        self._last_frame = -1
        self._kf: KalmanState | None = None
        self._absent_streak = 0
        self._uses_motion = cfg.policy in (PolicyKind.SAMURAI_DRM, PolicyKind.HIM2SAM_DRM)
        # two-stage fine estimator state: last two accepted (frame, box)
        self._accepted_boxes: list[tuple[int, BBox]] = []
        # prototype-calibrated state: frame-0 anchor entry and the stored
        # pool, each entry beside its first-anchor term cos(P, P_first)
        self._samite_first: MemoryEntry | None = None
        self._samite_pool: list[tuple[MemoryEntry, float]] = []
        # multi-pathway state
        self._pathways: PathwaySet | None = None
        if cfg.policy is PolicyKind.SAM2LONG_DRM:
            self._pathways = pathway_init(
                MemoryBank.new(init_mask, cfg.k_ram, 0), cfg.policy_cfg.beam_width
            )

    # -- public views --

    def memory_entries(self) -> list[MemoryEntry]:
        """Composed conditioning set: init, DRM, RAM, in that order.

        For the multi-pathway policy the RAM belongs to the current best
        pathway while the DRM is session-shared.
        """
        if self._pathways is not None:
            best = pathway_best(self._pathways)
            return [self.bank.init, *self.bank.drm, *best.bank.ram]
        return self.bank.compose()

    # -- stepping --

    def step(self, obs: FrameObservation) -> FrameResult:
        if obs.frame_idx <= self._last_frame:
            raise ValueError(
                f"observations must arrive in strictly increasing frame order; "
                f"got {obs.frame_idx} after {self._last_frame}"
            )
        if self._last_frame < 0 and obs.frame_idx != 0:
            raise ValueError("the first observation must be frame 0 (the prompt frame)")
        self._last_frame = obs.frame_idx

        if obs.frame_idx == 0:
            return self._step_prompt(obs)

        policy = self.cfg.policy
        if policy is PolicyKind.SAM2_FIFO:
            return self._step_fifo(obs)
        if policy is PolicyKind.DAM4SAM:
            return self._step_dam(obs)
        if policy is PolicyKind.SAMURAI_DRM:
            return self._step_samurai(obs)
        if policy is PolicyKind.SAM2LONG_DRM:
            return self._step_sam2long(obs)
        if policy is PolicyKind.SAMITE_DRM:
            return self._step_samite(obs)
        if policy is PolicyKind.HIM2SAM_DRM:
            return self._step_him(obs)
        raise AssertionError(f"unhandled policy {policy}")

    def run(self, observations) -> list[FrameResult]:
        """Step through a whole observation sequence."""
        return [self.step(obs) for obs in observations]

    # -- frame 0: the prompt --

    def _step_prompt(self, obs: FrameObservation) -> FrameResult:
        prompt = Proposal.from_mask(self.init_mask, 1.0, 1.0)
        if self._uses_motion:
            self._kf = kf_init(prompt.bbox, self.cfg.motion_cfg, frame_idx=0)
            self._accepted_boxes = [(0, prompt.bbox)]
        if self.cfg.policy is PolicyKind.SAMITE_DRM:
            proto = self._prototype_for(obs, self.init_mask)
            self._samite_first = MemoryEntry(
                frame_idx=0, mask=self.init_mask, s_mask=1.0, kind=EntryKind.RAM,
                bbox=prompt.bbox, fg_prototype=proto,
            )
        return FrameResult(
            frame_idx=0, chosen=prompt, present=True,
            decision=RamPolicyDecision.admitted(), drm_admitted=False,
        )

    # -- shared helpers --

    def _prototype_for(self, obs: FrameObservation, mask: BitMask) -> Prototype | None:
        if obs.features is None or mask.is_empty:
            return None
        return extract_prototypes(obs.features, mask)

    def _consider_drm(self, obs: FrameObservation, chosen: Proposal | None,
                      present: bool, ram_areas: list[int] | None = None) -> bool:
        if not (self.cfg.drm_enabled and present and chosen is not None):
            return False
        return self.bank.consider_drm(obs, chosen, self.cfg.drm_cfg, ram_areas=ram_areas)

    def _motion_predict(self) -> BBox | None:
        if self._kf is None:
            return None
        self._kf, box = kf_predict(self._kf)
        return box

    def _motion_observe(self, frame_idx: int, present: bool, box: BBox | None) -> None:
        """Update on confirmed boxes; re-initialize after a long absence."""
        if not self._uses_motion:
            return
        if not present or box is None or box.area == 0.0:
            self._absent_streak += 1
            return
        if self._absent_streak >= self.cfg.motion_cfg.n_lost or self._kf is None:
            self._kf = kf_init(box, self.cfg.motion_cfg, frame_idx=frame_idx)
        else:
            self._kf = kf_update(self._kf, box, frame_idx=frame_idx)
        self._absent_streak = 0

    def _ram_entry(self, obs: FrameObservation, chosen: Proposal,
                   with_prototype: bool = False) -> MemoryEntry:
        proto = self._prototype_for(obs, chosen.mask) if with_prototype else None
        return MemoryEntry.from_proposal(obs.frame_idx, chosen, EntryKind.RAM,
                                         fg_prototype=proto)

    # -- policy steps --

    def _step_fifo(self, obs: FrameObservation) -> FrameResult:
        chosen, present = select_default(obs)
        decision = fifo_admit(obs, chosen)
        self.bank.insert_ram(self._ram_entry(obs, chosen))
        return FrameResult(
            frame_idx=obs.frame_idx, chosen=chosen if present else None,
            present=present, decision=decision, drm_admitted=False,
        )

    def _step_dam(self, obs: FrameObservation) -> FrameResult:
        chosen, present = select_default(obs)
        drm_admitted = self._consider_drm(obs, chosen, present)
        decision = dam_admit(obs, chosen, self.bank.last_ram_frame, self.cfg.policy_cfg)
        if decision.admit:
            self.bank.insert_ram(self._ram_entry(obs, chosen))
        return FrameResult(
            frame_idx=obs.frame_idx, chosen=chosen if present else None,
            present=present, decision=decision, drm_admitted=drm_admitted,
        )

    def _step_samurai(self, obs: FrameObservation) -> FrameResult:
        kf_box = self._motion_predict()
        chosen, s_kf = select_samurai(obs, kf_box, self.cfg.policy_cfg)
        present = chosen is not None
        drm_admitted = self._consider_drm(obs, chosen, present)
        if present:
            decision = samurai_admit(chosen, s_kf, self.cfg.policy_cfg)
            if decision.admit:
                self.bank.insert_ram(self._ram_entry(obs, chosen))
        else:
            decision = RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
        self._motion_observe(obs.frame_idx, present, chosen.bbox if chosen else None)
        return FrameResult(
            frame_idx=obs.frame_idx, chosen=chosen, present=present,
            decision=decision, drm_admitted=drm_admitted, s_kf=s_kf,
        )

    def _step_sam2long(self, obs: FrameObservation) -> FrameResult:
        cfg = self.cfg.policy_cfg
        candidates = pathway_expand(self._pathways, obs, cfg.epsilon)
        self._pathways = pathway_prune(self._pathways, candidates, obs, cfg)
        best = pathway_best(self._pathways)
        chosen = obs.proposals[best.trajectory[-1][1]]
        present = not (obs.o <= 0.0 and chosen.mask.is_empty)
        decision = sam2long_admit(obs, chosen, cfg)
        ram_areas = [e.mask.area for e in best.bank.ram]
        drm_admitted = self._consider_drm(obs, chosen, present, ram_areas=ram_areas)
        return FrameResult(
            frame_idx=obs.frame_idx, chosen=chosen if present else None,
            present=present, decision=decision, drm_admitted=drm_admitted,
        )

    def _step_samite(self, obs: FrameObservation) -> FrameResult:
        cfg = self.cfg.policy_cfg
        chosen, present = select_default(obs)
        drm_admitted = self._consider_drm(obs, chosen, present)

        proto = self._prototype_for(obs, chosen.mask) if present else None
        if present and proto is not None:
            entry = MemoryEntry.from_proposal(obs.frame_idx, chosen, EntryKind.RAM,
                                              fg_prototype=proto)
            cos_first = samite_anchor_first(proto, self._samite_first.fg_prototype)
            self._samite_pool.append((entry, cos_first))
            decision = RamPolicyDecision.admitted()
        else:
            decision = RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
        # entries older than the sliding window can never be selected again
        horizon = obs.frame_idx - cfg.window_m
        self._samite_pool = [item for item in self._samite_pool
                             if item[0].frame_idx >= horizon]

        first = self._samite_first
        prev = self._samite_pool[-1][0] if self._samite_pool else None
        start = obs.frame_idx + 1 - cfg.window_m
        window = [(e, cos_first) for e, cos_first in self._samite_pool
                  if e is not prev and e.frame_idx >= start]
        if window:
            scored = samite_calibrate(
                [(e.frame_idx, e.fg_prototype, cos_first) for e, cos_first in window],
                prev.fg_prototype, cfg.alpha,
            )
        else:
            scored = []
        ram = samite_select_ram(
            [(e, score) for (e, _), (_, score) in zip(window, scored)],
            self.cfg.k_ram, first, prev,
        )
        self.bank.replace_ram(ram)
        return FrameResult(
            frame_idx=obs.frame_idx, chosen=chosen if present else None,
            present=present, decision=decision, drm_admitted=drm_admitted,
        )

    def _step_him(self, obs: FrameObservation) -> FrameResult:
        cfg = self.cfg.policy_cfg
        coarse_box = self._motion_predict()
        chosen, s_conf, used_fine = select_him(obs, coarse_box, self._fine_extrapolation, cfg)
        present = chosen is not None
        drm_admitted = self._consider_drm(obs, chosen, present)
        if present:
            decision = him_admit(chosen, s_conf, cfg)
            if decision.admit:
                self.bank.insert_ram(self._ram_entry(obs, chosen))
                if chosen.bbox is not None:
                    self._accepted_boxes = (self._accepted_boxes + [(obs.frame_idx, chosen.bbox)])[-2:]
        else:
            decision = RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
        self._motion_observe(obs.frame_idx, present, chosen.bbox if chosen else None)
        return FrameResult(
            frame_idx=obs.frame_idx, chosen=chosen, present=present,
            decision=decision, drm_admitted=drm_admitted,
            s_conf=s_conf, used_fine=used_fine,
        )

    def _fine_extrapolation(self) -> BBox | None:
        """Short-window estimate: extrapolate the last two accepted boxes.

        Falls back to the single accepted box (no velocity) and to None
        when nothing has been accepted yet.
        """
        if not self._accepted_boxes:
            return None
        if len(self._accepted_boxes) == 1:
            return self._accepted_boxes[0][1]
        (t0, b0), (t1, b1) = self._accepted_boxes
        gap = self._last_frame - t1
        scale = gap / (t1 - t0)
        cx0, cy0 = b0.center
        cx1, cy1 = b1.center
        return BBox.from_center(
            cx1 + (cx1 - cx0) * scale,
            cy1 + (cy1 - cy0) * scale,
            max(b1.w + (b1.w - b0.w) * scale, 1e-6),
            max(b1.h + (b1.h - b0.h) * scale, 1e-6),
        )
