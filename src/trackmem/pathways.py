"""Multi-hypothesis memory pathways with cumulative log-score pruning.

A pathway is one hypothesis about which proposal was the target at every
frame so far: it owns a full memory bank, the history of (frame,
proposal) choices that produced it, and a cumulative score

    S[t] = S[t-1] + log(s_mask + epsilon)

accumulated over its choices. A beam is a plain list of pathways. Each
frame every pathway in it branches into the frame's three proposals, all
branches are scored, and only the top ``beam_width`` survive. Ties are
broken by (parent index ascending, proposal index ascending), which keeps
pruning fully deterministic; the beam stays sorted in exactly that order,
so the best pathway is always element 0.

A pathway's history is a :class:`Choice` node: its latest (frame,
proposal) choice and a link to the node of the choice before it, so a
survivor adds one node per frame and survivors of one parent share its
nodes. A node links nodes, never pathways, so a branch that no survivor
extends frees its bank and its own nodes as soon as the beam that held it
is dropped. :attr:`Pathway.trajectory` rebuilds the full choice tuple by
walking the links.

The quality-and-presence admission gate
(:func:`trackmem.policies.sam2long_admit`) runs once per survivor, which
keeps its decision. A survivor it admits advances its own copy of the
parent's bank, which shares the parent's RAM and DRM tuples until the
insert replaces its RAM. A survivor it rejects would hold a copy equal to
the parent's bank, so it shares that bank instead: pruning changes no
bank it is given. Beam collapse (every survivor sharing one parent) is
allowed; no re-seeding or deduplication happens.

:class:`Pathway` and :class:`PathwayCandidate` are immutable NamedTuples,
built by position: several are made per frame.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .membank import MemoryBank, MemoryEntry
from .observation import FrameObservation
from .policies import PolicyConfig, RamPolicyDecision, sam2long_admit

__all__ = ["Choice", "Pathway", "PathwayCandidate", "pathway_init", "pathway_expand",
           "pathway_prune"]


class Choice:
    """One history node: the proposal chosen at a frame, and the node before it
    (None at the first choice)."""

    __slots__ = ("frame_idx", "proposal_index", "parent", "__weakref__")

    def __init__(self, frame_idx: int, proposal_index: int, parent: Choice | None):
        self.frame_idx = frame_idx
        self.proposal_index = proposal_index
        self.parent = parent


class Pathway(NamedTuple):
    """One hypothesis branch: bank, cumulative score, latest choice (None for
    the root), and the admission decision on that choice (None for the root)."""

    bank: MemoryBank
    score: float
    history: Choice | None
    parent_id: int
    decision: RamPolicyDecision | None = None

    @property
    def trajectory(self) -> tuple[tuple[int, int], ...]:
        """Every (frame, proposal) choice of the pathway, oldest first."""
        choices = []
        node = self.history
        while node is not None:
            choices.append((node.frame_idx, node.proposal_index))
            node = node.parent
        return tuple(reversed(choices))


class PathwayCandidate(NamedTuple):
    """A scored (parent, proposal) branch prior to pruning."""

    parent_id: int
    proposal_index: int
    score: float


_PARENT_AND_PROPOSAL = itemgetter(0, 1)
_SCORE = itemgetter(2)


def pathway_init(bank: MemoryBank) -> list[Pathway]:
    """A beam of one root pathway holding the freshly initialized bank."""
    return [Pathway(bank, 0.0, None, 0)]


def pathway_expand(beam: list[Pathway], obs: FrameObservation,
                   epsilon: float) -> list[PathwayCandidate]:
    """Branch every pathway into the frame's proposals and score them."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    gains = [math.log(proposal.s_mask + epsilon) for proposal in obs.proposals]
    return [PathwayCandidate(parent_id, k, pathway.score + gain)
            for parent_id, pathway in enumerate(beam) for k, gain in enumerate(gains)]


def pathway_prune(
    beam: list[Pathway],
    candidates: list[PathwayCandidate],
    obs: FrameObservation,
    cfg: PolicyConfig,
) -> list[Pathway]:
    """Keep the top-``cfg.beam_width`` candidates and advance their banks.

    Survivor order (and the tie order) is score descending, then parent
    index, then proposal index, so the best survivor comes first. A
    survivor whose choice the admission gate admits gets a copy of its
    parent's bank with the chosen proposal inserted into RAM; one whose
    choice it rejects shares its parent's bank. A parent's bank is never
    changed.
    """
    if not candidates:
        raise ValueError("cannot prune an empty candidate list")
    # two stable sorts with C keys: the second keeps the first's order among equal scores
    ranked = sorted(candidates, key=_PARENT_AND_PROPOSAL)
    ranked.sort(key=_SCORE, reverse=True)
    frame_idx = obs.frame_idx
    survivors = []
    for parent_id, k, score in ranked[: cfg.beam_width]:
        parent = beam[parent_id]
        chosen = obs.proposals[k]
        decision = sam2long_admit(obs, chosen, cfg)
        if decision.admit:
            bank = parent.bank.copy()
            bank.insert_ram(MemoryEntry.from_proposal(frame_idx, chosen))
        else:
            bank = parent.bank
        survivors.append(Pathway(bank, score, Choice(frame_idx, k, parent.history),
                                 parent_id, decision))
    return survivors
