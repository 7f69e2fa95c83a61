"""Multi-hypothesis memory pathways with cumulative log-score pruning.

A pathway is one hypothesis about which proposal was the target at every
frame so far: it owns a full memory bank, the trajectory of (frame,
proposal) choices that produced it, and a cumulative score

    S[t] = S[t-1] + log(s_mask + epsilon)

accumulated over its choices. A beam is a plain list of pathways. Each
frame every pathway in it branches into the frame's three proposals, all
branches are scored, and only the top ``beam_width`` survive. Ties are
broken by (parent index ascending, proposal index ascending), which keeps
pruning fully deterministic; the beam stays sorted in exactly that order,
so the best pathway is always element 0.

Banks are copied on branching; entries are immutable so the copies share
them structurally. Survivors advance their own fresh copy by the quality-
and-presence admission gate (:func:`trackmem.policies.sam2long_admit`)
and keep its decision, so a pathway's bank never changes once pruning
returns it, and a caller may hold on to its RAM list. Beam collapse
(every survivor sharing one parent) is allowed; no re-seeding or
deduplication happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .membank import EntryKind, MemoryBank, MemoryEntry
from .observation import FrameObservation
from .policies import PolicyConfig, RamPolicyDecision, sam2long_admit

__all__ = ["Pathway", "PathwayCandidate", "pathway_init", "pathway_expand", "pathway_prune"]


@dataclass(frozen=True)
class Pathway:
    """One hypothesis branch: bank, cumulative score, choice history, and the
    admission decision on its latest choice (None for the root)."""

    bank: MemoryBank
    score: float
    trajectory: tuple[tuple[int, int], ...]
    parent_id: int
    decision: RamPolicyDecision | None = None


@dataclass(frozen=True)
class PathwayCandidate:
    """A scored (parent, proposal) branch prior to pruning."""

    parent_id: int
    proposal_index: int
    score: float


def pathway_init(bank: MemoryBank) -> list[Pathway]:
    """A beam of one root pathway holding the freshly initialized bank."""
    return [Pathway(bank=bank, score=0.0, trajectory=(), parent_id=0)]


def pathway_expand(beam: list[Pathway], obs: FrameObservation,
                   epsilon: float) -> list[PathwayCandidate]:
    """Branch every pathway into the frame's proposals and score them."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    candidates = []
    for parent_id, pathway in enumerate(beam):
        for k, proposal in enumerate(obs.proposals):
            score = pathway.score + math.log(proposal.s_mask + epsilon)
            candidates.append(PathwayCandidate(parent_id, k, score))
    return candidates


def pathway_prune(
    beam: list[Pathway],
    candidates: list[PathwayCandidate],
    obs: FrameObservation,
    cfg: PolicyConfig,
) -> list[Pathway]:
    """Keep the top-``cfg.beam_width`` candidates and advance their banks.

    Survivor order (and the tie order) is score descending, then parent
    index, then proposal index, so the best survivor comes first. Each
    survivor copies its parent's bank and inserts the chosen proposal into
    RAM when the admission gate passes; a parent's bank is never changed.
    """
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
            bank.insert_ram(MemoryEntry.from_proposal(obs.frame_idx, chosen, EntryKind.RAM))
        survivors.append(Pathway(
            bank=bank,
            score=cand.score,
            trajectory=parent.trajectory + ((obs.frame_idx, cand.proposal_index),),
            parent_id=cand.parent_id,
            decision=decision,
        ))
    return survivors
