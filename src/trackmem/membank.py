"""Object-centric memory bank: init slot, bounded RAM, sparse DRM.

The bank holds three kinds of entries. One slot is permanently reserved
for the initialization prompt and is never evicted or mutated. RAM is a
short, capacity-bounded chronological list of recent reliable target
appearances; which frames get in is the pluggable policy's business
(:mod:`trackmem.policies`), the bank only enforces ordering and capacity.
DRM is a small long-lived list of anchor frames admitted when the mask
proposals disagree with each other, i.e. when a look-alike distractor is
in play; those anchors are what a downstream reader would use to keep the
target and the distractor apart.

DRM admission requires all four gates to pass:

1. quality: the chosen proposal's ``s_mask`` is at least ``tau_q``;
2. sparsity: at least ``min_gap`` frames since the last DRM admission;
3. area consistency: chosen mask area over the median RAM mask area lies
   inside ``[area_lo, area_hi]`` (waived while RAM is empty; fails when
   the median is zero, since no ratio can be formed);
4. disagreement: the minimum pairwise mask IoU among the frame's three
   proposals is below ``tau_div``.

The gates are pure and admission is their AND, so they are checked
cheapest first: the three pairwise IoUs are computed only on frames that
pass the other three gates.

DRM eviction, when the cap is reached, is FIFO over DRM slots.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass, replace

from .geometry import BBox, BitMask, mask_iou, mask_to_bbox
from .observation import FrameObservation, Proposal, Prototype

__all__ = [
    "EntryKind",
    "MemoryEntry",
    "DrmConfig",
    "MemoryBank",
    "drm_gates_pass",
    "NEVER",
]

# Sentinel frame index meaning "no admission has happened yet"; far enough
# in the past that every temporal-gap gate passes on the first frame.
NEVER = -1_000_000_000


class EntryKind(enum.Enum):
    INIT = "init"
    RAM = "ram"
    DRM = "drm"


@dataclass(frozen=True)
class MemoryEntry:
    """One stored frame: mask, cached box, quality score, prototype."""

    frame_idx: int
    mask: BitMask
    s_mask: float
    kind: EntryKind
    bbox: BBox | None = None
    fg_prototype: Prototype | None = None

    @classmethod
    def from_proposal(cls, frame_idx: int, p: Proposal, kind: EntryKind,
                      fg_prototype: Prototype | None = None) -> "MemoryEntry":
        return cls(frame_idx=frame_idx, mask=p.mask, s_mask=p.s_mask, kind=kind,
                   bbox=p.bbox, fg_prototype=fg_prototype)


@dataclass(frozen=True)
class DrmConfig:
    """Gate thresholds for DRM anchor admission."""

    tau_div: float = 0.5
    tau_q: float = 0.7
    area_lo: float = 0.5
    area_hi: float = 2.0
    min_gap: int = 5

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau_div <= 1.0 and 0.0 <= self.tau_q <= 1.0):
            raise ValueError("tau_div and tau_q must lie in [0, 1]")
        if not (0 < self.area_lo < self.area_hi):
            raise ValueError("need 0 < area_lo < area_hi")
        if self.min_gap < 1:
            raise ValueError("min_gap must be >= 1")


def drm_gates_pass(
    obs: FrameObservation,
    chosen: Proposal,
    ram_areas: list[int],
    last_drm_frame: int,
    cfg: DrmConfig,
) -> bool:
    """Evaluate the four DRM admission gates, cheapest first (no bank mutation)."""
    if chosen.s_mask < cfg.tau_q:
        return False
    if obs.frame_idx - last_drm_frame < cfg.min_gap:
        return False
    if ram_areas:
        median = float(statistics.median(ram_areas))
        if median == 0.0:
            return False
        ratio = chosen.mask.area / median
        if not (cfg.area_lo <= ratio <= cfg.area_hi):
            return False
    masks = [p.mask for p in obs.proposals]
    min_pair_iou = min(mask_iou(masks[i], masks[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    return min_pair_iou < cfg.tau_div


class MemoryBank:
    """Init slot plus bounded chronological RAM and DRM lists.

    The bank is a session-local mutable container; ``copy()`` produces an
    independent bank sharing only the immutable entries, which is what
    pathway branching needs.
    """

    def __init__(self, init: MemoryEntry, k_ram: int, k_drm: int):
        if init.kind is not EntryKind.INIT:
            raise ValueError("bank init entry must have kind INIT")
        if init.frame_idx != 0:
            raise ValueError("init entry must be at frame 0")
        if k_ram < 1:
            raise ValueError("k_ram must be >= 1")
        if k_drm < 0:
            raise ValueError("k_drm must be >= 0")
        self.init = init
        self.k_ram = k_ram
        self.k_drm = k_drm
        self.ram: list[MemoryEntry] = []
        self.drm: list[MemoryEntry] = []
        self.last_ram_frame: int = NEVER
        self.last_drm_frame: int = NEVER

    @classmethod
    def new(cls, init_mask: BitMask, k_ram: int, k_drm: int) -> "MemoryBank":
        """Fresh bank holding only the frame-0 initialization prompt."""
        if init_mask.is_empty:
            raise ValueError("initialization prompt requires a non-empty mask")
        init = MemoryEntry(
            frame_idx=0,
            mask=init_mask,
            s_mask=1.0,
            kind=EntryKind.INIT,
            bbox=mask_to_bbox(init_mask),
        )
        return cls(init, k_ram, k_drm)

    def copy(self) -> "MemoryBank":
        dup = MemoryBank(self.init, self.k_ram, self.k_drm)
        dup.ram = list(self.ram)
        dup.drm = list(self.drm)
        dup.last_ram_frame = self.last_ram_frame
        dup.last_drm_frame = self.last_drm_frame
        return dup

    def insert_ram(self, entry: MemoryEntry) -> None:
        """Append a RAM entry, evicting the oldest past capacity.

        Inserts must arrive in strictly increasing frame order; anything
        else is a caller bug.
        """
        if self.ram and entry.frame_idx <= self.ram[-1].frame_idx:
            raise ValueError(
                f"out-of-order RAM insert: frame {entry.frame_idx} after "
                f"{self.ram[-1].frame_idx}"
            )
        if entry.kind is not EntryKind.RAM:
            entry = replace(entry, kind=EntryKind.RAM)
        self.ram.append(entry)
        if len(self.ram) > self.k_ram:
            del self.ram[0]
        self.last_ram_frame = entry.frame_idx

    def replace_ram(self, entries: list[MemoryEntry]) -> None:
        """Set the whole RAM at once (rebuild-style policies).

        Entries must be chronological and within capacity.
        """
        if len(entries) > self.k_ram:
            raise ValueError(f"{len(entries)} entries exceed RAM capacity {self.k_ram}")
        for prev, cur in zip(entries, entries[1:]):
            if cur.frame_idx <= prev.frame_idx:
                raise ValueError("RAM entries must be strictly increasing in frame")
        self.ram = [
            e if e.kind is EntryKind.RAM else replace(e, kind=EntryKind.RAM)
            for e in entries
        ]
        self.last_ram_frame = entries[-1].frame_idx if entries else NEVER

    def consider_drm(self, obs: FrameObservation, chosen: Proposal, cfg: DrmConfig,
                     ram_areas: list[int] | None = None) -> bool:
        """Run the DRM gates; on admission store the chosen proposal.

        Returns whether the frame was admitted. A bank with ``k_drm == 0``
        never admits. The area-consistency gate normally uses this bank's
        own RAM; ``ram_areas`` overrides that for callers whose RAM lives
        elsewhere (the multi-pathway tracker keeps one shared DRM while
        RAM sits in the winning pathway's bank).
        """
        if self.k_drm == 0:
            return False
        if ram_areas is None:
            ram_areas = [e.mask.area for e in self.ram]
        if not drm_gates_pass(obs, chosen, ram_areas, self.last_drm_frame, cfg):
            return False
        entry = MemoryEntry.from_proposal(obs.frame_idx, chosen, EntryKind.DRM)
        self.drm.append(entry)
        if len(self.drm) > self.k_drm:
            del self.drm[0]
        self.last_drm_frame = entry.frame_idx
        return True

    def compose(self) -> list[MemoryEntry]:
        """Conditioning set in fixed order: init, DRM, then RAM."""
        return [self.init, *self.drm, *self.ram]

    def snapshot(self) -> str:
        """One-line structured-text snapshot for golden-trace tests.

        Lists every composed entry as ``kind:frame:s_mask`` in compose
        order, so regression diffs show which frames were held and why.
        """
        return ";".join(
            f"{e.kind.value}:{e.frame_idx}:{e.s_mask!r}" for e in self.compose()
        )

    def __len__(self) -> int:
        return 1 + len(self.drm) + len(self.ram)
