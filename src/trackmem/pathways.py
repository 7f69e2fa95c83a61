"""Multi-hypothesis memory pathways with cumulative log-score pruning.

A pathway is one hypothesis about which proposal was the target at every
frame so far: it owns a full memory bank, the trajectory of (frame,
proposal) choices that produced it, and a cumulative score

    S[t] = S[t-1] + log(s_mask + epsilon)

accumulated over its choices. Each frame every retained pathway branches
into the frame's three proposals, all branches are scored, and only the
top ``P`` survive. Ties are broken by (parent index ascending, proposal
index ascending), which keeps pruning fully deterministic; the retained
set stays sorted in exactly that order, so the best pathway is always
element 0.

Banks are copied on branching; entries are immutable so the copies share
them structurally. Survivors advance their bank by the quality-and-
presence admission gate (:func:`trackmem.policies.sam2long_admit`). Beam
collapse (every survivor sharing one parent) is allowed; no re-seeding or
deduplication happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .membank import EntryKind, MemoryBank, MemoryEntry
from .observation import FrameObservation
from .policies import PolicyConfig, sam2long_admit

__all__ = ["Pathway", "PathwayCandidate", "PathwaySet",
           "pathway_init", "pathway_expand", "pathway_prune", "pathway_best"]


@dataclass(frozen=True)
class Pathway:
    """One hypothesis branch: bank, cumulative score, choice history."""

    bank: MemoryBank
    score: float
    trajectory: tuple[tuple[int, int], ...]
    parent_id: int


@dataclass(frozen=True)
class PathwayCandidate:
    """A scored (parent, proposal) branch prior to pruning."""

    parent_id: int
    proposal_index: int
    score: float


@dataclass
class PathwaySet:
    """Retained pathways after pruning; sorted, at most ``cap`` of them."""

    pathways: list[Pathway]
    cap: int


def pathway_init(bank: MemoryBank, cap: int) -> PathwaySet:
    """Single root pathway holding the freshly initialized bank."""
    if cap < 1:
        raise ValueError("pathway cap must be >= 1")
    root = Pathway(bank=bank, score=0.0, trajectory=(), parent_id=0)
    return PathwaySet(pathways=[root], cap=cap)


def pathway_expand(pset: PathwaySet, obs: FrameObservation,
                   epsilon: float) -> list[PathwayCandidate]:
    """Branch every pathway into the frame's proposals and score them."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    candidates = []
    for parent_id, pathway in enumerate(pset.pathways):
        for k, proposal in enumerate(obs.proposals):
            score = pathway.score + math.log(proposal.s_mask + epsilon)
            candidates.append(PathwayCandidate(parent_id, k, score))
    return candidates


def pathway_prune(
    pset: PathwaySet,
    candidates: list[PathwayCandidate],
    obs: FrameObservation,
    cfg: PolicyConfig,
) -> PathwaySet:
    """Keep the top-``cap`` candidates and advance their banks.

    Survivor order (and the tie order) is score descending, then parent
    index, then proposal index. Each survivor copies its parent's bank
    and inserts the chosen proposal into RAM when the admission gate
    passes.
    """
    if not candidates:
        raise ValueError("cannot prune an empty candidate list")
    ranked = sorted(candidates, key=lambda c: (-c.score, c.parent_id, c.proposal_index))
    survivors = []
    for cand in ranked[: pset.cap]:
        parent = pset.pathways[cand.parent_id]
        chosen = obs.proposals[cand.proposal_index]
        bank = parent.bank.copy()
        if sam2long_admit(obs, chosen, cfg).admit:
            bank.insert_ram(MemoryEntry.from_proposal(obs.frame_idx, chosen, EntryKind.RAM))
        survivors.append(Pathway(
            bank=bank,
            score=cand.score,
            trajectory=parent.trajectory + ((obs.frame_idx, cand.proposal_index),),
            parent_id=cand.parent_id,
        ))
    return PathwaySet(pathways=survivors, cap=pset.cap)


def pathway_best(pset: PathwaySet) -> Pathway:
    """Highest-scoring pathway under the deterministic tie order."""
    if not pset.pathways:
        raise RuntimeError("pathway set is empty")
    return pset.pathways[0]
