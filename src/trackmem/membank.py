"""Object-centric memory bank: init slot, bounded RAM, sparse DRM.

The bank holds entries in three places, and the place that holds an
entry is its kind: an entry carries no kind of its own. One slot is
permanently reserved for the initialization prompt and is never evicted
or mutated. RAM is a short, capacity-bounded chronological list of recent
reliable target appearances; which frames get in is the pluggable
policy's business (:mod:`trackmem.policies`), the bank only enforces
ordering and capacity.
DRM is a small long-lived list of anchor frames admitted when the mask
proposals disagree with each other, i.e. when a look-alike distractor is
in play; those anchors are what a downstream reader would use to keep the
target and the distractor apart.

Entries are immutable :class:`MemoryEntry` NamedTuples, built by
position on every admission, held in RAM and DRM tuples that a copied
bank shares; one entry may sit in several banks. The frames of the last
RAM and DRM admissions are read off the tuples, which are chronological.

DRM admission requires all four gates to pass:

1. quality: the chosen proposal's ``s_mask`` is at least ``tau_q``;
2. sparsity: at least ``min_gap`` frames since the last DRM admission;
3. area consistency: chosen mask area over the median RAM mask area lies
   inside ``[area_lo, area_hi]`` (waived while RAM is empty; fails when
   the median is zero, since no ratio can be formed);
4. disagreement: the minimum pairwise mask IoU among the frame's three
   proposals is below ``tau_div``.

The gates are pure and admission is their AND, so
:func:`drm_gates_pass` checks them cheapest first, in the order listed,
and stops at the first that fails: the RAM's mask areas are read only on
frames that pass quality and sparsity, and the three pairwise IoUs only
on frames that pass the other three gates. The IoUs' minimum depends on
the observation alone, not on the bank or the thresholds, so it is
computed at most once per observation and kept on it (the value, not the
verdict, since ``tau_div`` varies by config): every policy stepping over
the same observation reuses it.

DRM eviction, when the cap is reached, is FIFO over DRM slots.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .checks import check_numbers
from .geometry import BBox, BitMask, mask_iou, mask_to_bbox
from .observation import FrameObservation, Proposal, Prototype

__all__ = [
    "MemoryEntry",
    "DrmConfig",
    "MemoryBank",
    "drm_gates_pass",
    "NEVER",
]

# Sentinel frame index meaning "no admission has happened yet"; far enough
# in the past that every temporal-gap gate passes on the first frame.
NEVER = -1_000_000_000


class MemoryEntry(NamedTuple):
    """One stored frame: mask, quality score, prototype."""

    frame_idx: int
    mask: BitMask
    s_mask: float
    fg_prototype: Prototype | None = None

    @property
    def bbox(self) -> BBox | None:
        """The mask's tightest box, computed on each read."""
        return mask_to_bbox(self.mask)

    @classmethod
    def from_proposal(cls, frame_idx: int, p: Proposal,
                      fg_prototype: Prototype | None = None) -> "MemoryEntry":
        return cls(frame_idx, p.mask, p.s_mask, fg_prototype)


@dataclass(frozen=True)
class DrmConfig:
    """Gate thresholds for DRM anchor admission."""

    tau_div: float = 0.5
    tau_q: float = 0.7
    area_lo: float = 0.5
    area_hi: float = 2.0
    min_gap: int = 5

    def __post_init__(self) -> None:
        check_numbers(self)
        if not (0.0 <= self.tau_div <= 1.0 and 0.0 <= self.tau_q <= 1.0):
            raise ValueError("tau_div and tau_q must lie in [0, 1]")
        if not (0 < self.area_lo < self.area_hi):
            raise ValueError("need 0 < area_lo < area_hi")
        if self.min_gap < 1:
            raise ValueError("min_gap must be >= 1")


def drm_gates_pass(
    obs: FrameObservation,
    chosen: Proposal,
    ram: Sequence[MemoryEntry],
    last_drm_frame: int,
    cfg: DrmConfig,
) -> bool:
    """Evaluate the four DRM admission gates, cheapest first (no bank mutation).

    ``ram`` is the RAM the area gate compares against; its mask areas are
    read only when the quality and sparsity gates pass.
    """
    if chosen.s_mask < cfg.tau_q:
        return False
    if obs.frame_idx - last_drm_frame < cfg.min_gap:
        return False
    if ram:
        median = float(statistics.median([e.mask.area for e in ram]))
        if median == 0.0:
            return False
        ratio = chosen.mask.area / median
        if not (cfg.area_lo <= ratio <= cfg.area_hi):
            return False
    return _min_pair_iou(obs) < cfg.tau_div


def _min_pair_iou(obs: FrameObservation) -> float:
    """Minimum pairwise mask IoU of the frame's proposals, kept on ``obs``."""
    value = obs._min_pair_iou
    if value is None:
        masks = [p.mask for p in obs.proposals]
        value = min(mask_iou(masks[i], masks[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        object.__setattr__(obs, "_min_pair_iou", value)
    return value


class MemoryBank:
    """Init slot plus bounded chronological RAM and DRM tuples.

    The bank is a session-local container whose operations replace its
    tuples; ``copy()`` gives an independent bank that starts out sharing
    them, which is what pathway branching needs.
    """

    def __init__(self, init: MemoryEntry, k_ram: int, k_drm: int):
        if init.frame_idx != 0:
            raise ValueError("init entry must be at frame 0")
        if k_ram < 1:
            raise ValueError("k_ram must be >= 1")
        if k_drm < 0:
            raise ValueError("k_drm must be >= 0")
        self.init = init
        self.k_ram = k_ram
        self.k_drm = k_drm
        self.ram: tuple[MemoryEntry, ...] = ()
        self.drm: tuple[MemoryEntry, ...] = ()

    @property
    def last_ram_frame(self) -> int:
        """Frame of the newest RAM entry; ``NEVER`` while RAM is empty."""
        return self.ram[-1].frame_idx if self.ram else NEVER

    @property
    def last_drm_frame(self) -> int:
        """Frame of the newest DRM entry; ``NEVER`` while DRM is empty."""
        return self.drm[-1].frame_idx if self.drm else NEVER

    @classmethod
    def new(cls, init_mask: BitMask, k_ram: int, k_drm: int) -> "MemoryBank":
        """Fresh bank holding only the frame-0 initialization prompt."""
        if init_mask.is_empty:
            raise ValueError("initialization prompt requires a non-empty mask")
        return cls(MemoryEntry(0, init_mask, 1.0), k_ram, k_drm)

    def copy(self) -> "MemoryBank":
        dup = MemoryBank(self.init, self.k_ram, self.k_drm)
        dup.ram, dup.drm = self.ram, self.drm
        return dup

    def insert_ram(self, entry: MemoryEntry) -> None:
        """Append a RAM entry, evicting the oldest past capacity.

        Inserts must arrive in strictly increasing frame order; anything
        else is a caller bug.
        """
        if self.ram and entry.frame_idx <= self.ram[-1].frame_idx:
            raise ValueError(f"out-of-order RAM insert: frame {entry.frame_idx} after "
                             f"{self.ram[-1].frame_idx}")
        self.ram = (self.ram + (entry,))[-self.k_ram:]

    def replace_ram(self, entries: Sequence[MemoryEntry]) -> None:
        """Set the whole RAM at once (rebuild-style policies).

        Entries must be chronological and within capacity.
        """
        if len(entries) > self.k_ram:
            raise ValueError(f"{len(entries)} entries exceed RAM capacity {self.k_ram}")
        for prev, cur in zip(entries, entries[1:]):
            if cur.frame_idx <= prev.frame_idx:
                raise ValueError("RAM entries must be strictly increasing in frame")
        self.ram = tuple(entries)

    def consider_drm(self, obs: FrameObservation, chosen: Proposal, cfg: DrmConfig) -> bool:
        """Run the DRM gates; on admission store the chosen proposal.

        Returns whether the frame was admitted. A bank with ``k_drm == 0``
        never admits. The area-consistency gate reads this bank's own RAM,
        which every policy keeps current (the multi-pathway tracker sets it
        to the best pathway's RAM before the gate runs).
        """
        if self.k_drm == 0:
            return False
        if not drm_gates_pass(obs, chosen, self.ram, self.last_drm_frame, cfg):
            return False
        self.drm = (self.drm + (MemoryEntry.from_proposal(obs.frame_idx, chosen),))[-self.k_drm:]
        return True

    def compose(self) -> list[MemoryEntry]:
        """Conditioning set in fixed order: init, DRM, then RAM."""
        return [self.init, *self.drm, *self.ram]
