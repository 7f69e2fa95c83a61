"""Per-frame output selection, the policy objects, and the tracker session.

Each :class:`PolicyKind` has one policy class, registered in
:data:`POLICIES` (the one place to add a policy). A policy owns its state
(a motion filter, an anchor pool, memory pathways); ``select(obs)``
returns the frame's output and whether the target is present (any scores
it computed stay on the policy for the frame's result), and ``admit``
applies its RAM rule. Every policy keeps its RAM in the session bank, so
``bank.compose()`` is the conditioning set (init, DRM, RAM) for all of
them; the multi-pathway policy copies its best pathway's RAM there once
it has pruned.

:class:`TrackerSession.step` is the one pipeline for every policy:

    select -> DRM-consider -> RAM-admit

Motion filters predict and update inside ``select``. RAM is admitted
after the DRM gate, so a frame's own RAM copy can never shift the RAM-area
median used by its DRM gate. A present target is offered once to the
session bank's DRM gates, whose area gate reads the bank's own RAM; the
FIFO baseline has no DRM. Every step returns an audited
:class:`FrameResult`, an immutable NamedTuple built by position (one per
frame per policy); a replayed (config, observation) pair reproduces the
result sequence byte-for-byte in serialized form.

Frame 0 is the prompt: the initialization mask is the output, lands in
the reserved init slot, and seeds the policy's state. Target-absent
frames report ``present=False`` and are fed to metrics as empty
predictions; no policy admits them to RAM except the FIFO baseline.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .checks import check_numbers, shown
from .geometry import BBox, BitMask
from .membank import DrmConfig, MemoryBank, MemoryEntry
from .motion import MotionConfig, kf_init, kf_predict, kf_update
from .observation import (
    FrameObservation,
    Proposal,
    Prototype,
    covered_labels,
    extract_prototypes,
)
from .pathways import pathway_expand, pathway_init, pathway_prune
from .policies import (
    AdmissionReason,
    PolicyConfig,
    RamPolicyDecision,
    dam_admit,
    him_admit,
    him_confidence,
    motion_consistency,
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
    "Policy",
    "POLICIES",
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
    """Everything a session needs: policy choice plus all knobs; a bad field
    raises ValueError naming it."""

    policy: PolicyKind
    k_ram: int = 6
    k_drm: int = 3
    policy_cfg: PolicyConfig = field(default_factory=PolicyConfig)
    motion_cfg: MotionConfig = field(default_factory=MotionConfig)
    drm_cfg: DrmConfig = field(default_factory=DrmConfig)

    def __post_init__(self) -> None:
        check_numbers(self)
        if not isinstance(self.policy, PolicyKind):
            raise ValueError(f"policy must be a PolicyKind, got {shown(self.policy)}")
        if self.k_ram < 1:
            raise ValueError("k_ram must be >= 1")
        if self.k_drm < 0:
            raise ValueError("k_drm must be >= 0")
        if self.policy is PolicyKind.SAMITE_DRM and self.k_ram < 2:
            raise ValueError(
                "the prototype-calibrated policy needs k_ram >= 2 for its anchors")


class FrameResult(NamedTuple):
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
        "mask_sha1": None if chosen is None else chosen.mask.text_sha1(),
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
    def s_fine() -> list[float]:
        fine_box = fine_pred()
        return [motion_consistency(fine_box, p) for p in obs.proposals]

    s_iou = [p.s_mask for p in obs.proposals]
    s_coarse = [motion_consistency(coarse_pred, p) for p in obs.proposals]
    confs, used_fine = him_confidence(s_coarse, s_fine, s_iou, cfg)
    best = max(range(len(confs)), key=lambda i: (confs[i], -i))
    chosen = obs.proposals[best]
    if chosen.mask.is_empty and obs.o <= 0.0:
        return None, None, used_fine
    return chosen, confs[best], used_fine


# --- the policies ----------------------------------------------------------------


def _prototype(obs: FrameObservation, mask: BitMask) -> Prototype | None:
    if obs.features is None or mask.is_empty:
        return None
    return extract_prototypes(obs.features, mask)


_ABSENT = RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)


class Policy:
    """One memory policy: its state, its selection and its RAM rule.

    It is given the session's bank and config, never the session, so a
    finished session is freed as soon as its last reference goes.
    """

    uses_drm = True
    # scores of the last selection, reported in the frame's result
    s_kf: float | None = None
    s_conf: float | None = None
    used_fine = False

    def __init__(self, bank: MemoryBank, cfg: TrackerConfig):
        self.bank = bank
        self.cfg = cfg

    def prompt(self, obs: FrameObservation) -> None:
        """Seed any state that needs the frame-0 observation."""

    def select(self, obs: FrameObservation) -> tuple[Proposal | None, bool]:
        return select_default(obs)

    def admit(self, obs: FrameObservation, chosen: Proposal | None,
              present: bool) -> RamPolicyDecision:
        """Insert the chosen proposal into RAM when :meth:`gate` admits it."""
        decision = self.gate(obs, chosen, present)
        if decision.admit:
            self.bank.insert_ram(MemoryEntry.from_proposal(obs.frame_idx, chosen))
        return decision

    def gate(self, obs: FrameObservation, chosen: Proposal | None,
             present: bool) -> RamPolicyDecision:
        """The RAM rule: admit or reject this frame's chosen proposal."""
        raise NotImplementedError


class FifoPolicy(Policy):
    """Store every frame, reliability ignored; no DRM."""

    uses_drm = False

    def gate(self, obs, chosen, present) -> RamPolicyDecision:
        return RamPolicyDecision.admitted()


class DamPolicy(Policy):
    """Gated-sparse: store a present target once the store gap has elapsed."""

    def gate(self, obs, chosen, present) -> RamPolicyDecision:
        return dam_admit(obs, chosen, self.bank.last_ram_frame, self.cfg.policy_cfg)


class _MotionPolicy(Policy):
    """A policy with a Kalman filter on the target box, seeded from the prompt box,
    updated on every confirmed box, and re-seeded from the next one after
    ``n_lost`` frames without."""

    def __init__(self, bank: MemoryBank, cfg: TrackerConfig):
        super().__init__(bank, cfg)
        self.kf = kf_init(bank.init.bbox, cfg.motion_cfg)
        self.absent_streak = 0

    def predict(self) -> BBox:
        self.kf, box = kf_predict(self.kf)
        return box

    def observe(self, chosen: Proposal | None) -> None:
        box = None if chosen is None else chosen.bbox
        if box is None or box.area == 0.0:
            self.absent_streak += 1
            return
        if self.absent_streak >= self.cfg.motion_cfg.n_lost:
            self.kf = kf_init(box, self.cfg.motion_cfg)
        else:
            self.kf = kf_update(self.kf, box)
        self.absent_streak = 0


class SamuraiPolicy(_MotionPolicy):
    """Motion-gated: blended motion+affinity choice, three-threshold store."""

    def select(self, obs: FrameObservation) -> tuple[Proposal | None, bool]:
        chosen, self.s_kf = select_samurai(obs, self.predict(), self.cfg.policy_cfg)
        self.observe(chosen)
        return chosen, chosen is not None

    def gate(self, obs, chosen, present) -> RamPolicyDecision:
        if not present:
            return _ABSENT
        return samurai_admit(chosen, self.s_kf, self.cfg.policy_cfg)


class Sam2LongPolicy(Policy):
    """Best of ``beam_width`` memory pathways, each with its own RAM; the
    session bank's RAM is the best pathway's."""

    def __init__(self, bank: MemoryBank, cfg: TrackerConfig):
        super().__init__(bank, cfg)
        self.pathways = pathway_init(MemoryBank(bank.init, cfg.k_ram, 0))

    def select(self, obs: FrameObservation) -> tuple[Proposal | None, bool]:
        cfg = self.cfg.policy_cfg
        candidates = pathway_expand(self.pathways, obs, cfg.epsilon)
        self.pathways = pathway_prune(self.pathways, candidates, obs, cfg)
        best = self.pathways[0]
        self.bank.replace_ram(best.bank.ram)
        chosen = obs.proposals[best.history.proposal_index]
        return chosen, not (obs.o <= 0.0 and chosen.mask.is_empty)

    def admit(self, obs, chosen, present) -> RamPolicyDecision:
        # the survivors' banks were advanced while pruning; the best one's gate decided
        return self.pathways[0].decision


class SamitePolicy(Policy):
    """Prototype-calibrated: rebuild RAM every frame from anchors and a window.

    Each prototype and each window score is computed once per session. A
    prototype is a function of the grid's palette and the labels of the
    cells its mask covers, so the session interns prototypes keyed by the
    palette's value and those labels, each as ``(index, prototype,
    cos(P, P_first))``: the first-anchor term is taken once, when the
    prototype is first seen. Alpha and the first anchor are fixed for the
    session, so a calibration score depends only on the entry's prototype
    and the previous anchor's, and is memoized by their two indices. Both
    tables live on the policy and are freed with it; they grow with the
    distinct prototypes and pairs a session meets.
    """

    def prompt(self, obs: FrameObservation) -> None:
        init = self.bank.init
        self.first = init._replace(fg_prototype=_prototype(obs, init.mask))
        # (entry, prototype index, cos(P, P_first)) of each stored frame
        self.pool: list[tuple[MemoryEntry, int, float]] = []
        self.interned: dict[tuple, tuple[int, Prototype, float]] = {}
        self.scores: dict[tuple[int, int], float] = {}

    def _interned(self, obs: FrameObservation, mask: BitMask
                  ) -> tuple[int, Prototype, float] | None:
        """``(index, P, cos(P, P_first))`` of the mask's prototype; None where
        :func:`_prototype` gives none."""
        f = obs.features
        if f is None or mask.is_empty:
            return None
        labels = covered_labels(f, mask)
        palette = f.palette
        key = (palette.dtype.str, palette.shape, palette.tobytes(),
               labels.dtype.str, labels.tobytes())
        item = self.interned.get(key)
        if item is None:
            proto = extract_prototypes(f, mask)
            item = (len(self.interned), proto,
                    samite_anchor_first(proto, self.first.fg_prototype))
            self.interned[key] = item
        return item

    def admit(self, obs, chosen, present) -> RamPolicyDecision:
        cfg = self.cfg.policy_cfg
        pool = self.pool
        item = self._interned(obs, chosen.mask) if present else None
        if item is not None:
            index, proto, cos_first = item
            entry = MemoryEntry.from_proposal(obs.frame_idx, chosen, proto)
            pool.append((entry, index, cos_first))
            decision = RamPolicyDecision.admitted()
        else:
            decision = _ABSENT
        # the pool is chronological: entries older than the sliding window, which
        # can never be selected again, are all at its front
        horizon = obs.frame_idx - cfg.window_m
        while pool and pool[0][0].frame_idx < horizon:
            del pool[0]
        prev, prev_index, _ = pool[-1] if pool else (None, None, None)
        # the window: every pool entry but prev that is newer than the horizon;
        # unscored: its prototypes not yet scored against prev's, once each
        scores = self.scores
        window, unscored = [], {}
        for e, index, cos_first in pool[:-1]:
            if e.frame_idx > horizon:
                key = (index, prev_index)
                window.append((e, key))
                if key not in scores:
                    unscored[key] = (e.frame_idx, e.fg_prototype, cos_first)
        if window:
            scored = samite_calibrate(list(unscored.values()), prev.fg_prototype, cfg.alpha)
            for key, (_, score) in zip(unscored, scored):
                scores[key] = score
        self.bank.replace_ram(samite_select_ram(
            [(e, scores[key]) for e, key in window], self.cfg.k_ram, self.first, prev))
        return decision


class HimPolicy(_MotionPolicy):
    """Two-stage motion confidence; the fine stage extrapolates accepted boxes."""

    def __init__(self, bank: MemoryBank, cfg: TrackerConfig):
        super().__init__(bank, cfg)
        self.accepted_boxes: list[tuple[int, BBox]] = [(0, bank.init.bbox)]  # the last two

    def select(self, obs: FrameObservation) -> tuple[Proposal | None, bool]:
        chosen, self.s_conf, self.used_fine = select_him(
            obs, self.predict(), lambda: self._fine_box(obs.frame_idx), self.cfg.policy_cfg)
        self.observe(chosen)
        return chosen, chosen is not None

    def gate(self, obs, chosen, present) -> RamPolicyDecision:
        if not present:
            return _ABSENT
        decision = him_admit(chosen, self.s_conf, self.cfg.policy_cfg)
        if decision.admit and chosen.bbox is not None:
            self.accepted_boxes = (self.accepted_boxes + [(obs.frame_idx, chosen.bbox)])[-2:]
        return decision

    def _fine_box(self, frame_idx: int) -> BBox:
        """Extrapolate the last two accepted boxes to ``frame_idx``, or repeat the only one."""
        if len(self.accepted_boxes) == 1:
            return self.accepted_boxes[0][1]
        (t0, b0), (t1, b1) = self.accepted_boxes
        scale = (frame_idx - t1) / (t1 - t0)
        cx0, cy0 = b0.center
        cx1, cy1 = b1.center
        return BBox.from_center(
            cx1 + (cx1 - cx0) * scale,
            cy1 + (cy1 - cy0) * scale,
            max(b1.w + (b1.w - b0.w) * scale, 1e-6),
            max(b1.h + (b1.h - b0.h) * scale, 1e-6),
        )


POLICIES: dict[PolicyKind, type[Policy]] = {
    PolicyKind.SAM2_FIFO: FifoPolicy,
    PolicyKind.DAM4SAM: DamPolicy,
    PolicyKind.SAMURAI_DRM: SamuraiPolicy,
    PolicyKind.SAM2LONG_DRM: Sam2LongPolicy,
    PolicyKind.SAMITE_DRM: SamitePolicy,
    PolicyKind.HIM2SAM_DRM: HimPolicy,
}


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
        self.bank = MemoryBank.new(init_mask, cfg.k_ram, cfg.k_drm)
        self.policy = POLICIES[cfg.policy](self.bank, cfg)
        self._last_frame = -1

    def step(self, obs: FrameObservation) -> FrameResult:
        if obs.frame_idx <= self._last_frame:
            raise ValueError(
                f"observations must arrive in strictly increasing frame order; "
                f"got {obs.frame_idx} after {self._last_frame}"
            )
        if self._last_frame < 0 and obs.frame_idx != 0:
            raise ValueError("the first observation must be frame 0 (the prompt frame)")
        self._last_frame = obs.frame_idx
        policy = self.policy

        if obs.frame_idx == 0:
            policy.prompt(obs)
            init = self.bank.init
            return FrameResult(0, Proposal(init.mask, 1.0, 1.0, init.bbox), True,
                               RamPolicyDecision.admitted(), False)

        chosen, present = policy.select(obs)
        drm_admitted = policy.uses_drm and present and self.bank.consider_drm(
            obs, chosen, self.cfg.drm_cfg)
        decision = policy.admit(obs, chosen, present)
        return FrameResult(obs.frame_idx, chosen if present else None, present, decision,
                           drm_admitted, policy.s_kf, policy.s_conf, policy.used_fine)

    def run(self, observations) -> list[FrameResult]:
        """Step through a whole observation sequence."""
        return [self.step(obs) for obs in observations]
