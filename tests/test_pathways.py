import gc
import itertools
import math
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmem.membank import MemoryBank, MemoryEntry
from trackmem.pathways import (
    Choice,
    Pathway,
    PathwayCandidate,
    pathway_expand,
    pathway_init,
    pathway_prune,
)
from trackmem.policies import PolicyConfig, sam2long_admit

from conftest import obs, prop, rect_mask
from oracles import exhaustive_best_trajectory
from reference import copying_pathway_init, pathway_expand_per_pair, pathway_prune_copying

INIT = rect_mask(16, 16, 2, 2, 5, 5)
MASKS = [rect_mask(16, 16, 1, 1, 4, 4),
         rect_mask(16, 16, 6, 6, 4, 4),
         rect_mask(16, 16, 10, 10, 4, 4)]
CFG = PolicyConfig(epsilon=1e-6)


def score_obs(frame, s, o=1.0):
    return obs(frame, [prop(m, v) for m, v in zip(MASKS, s)], o=o)


def fresh_beam():
    return pathway_init(MemoryBank.new(INIT, 4, 0))


def run_beam(rows, cap, cfg=CFG):
    cfg = replace(cfg, beam_width=cap)
    beam = fresh_beam()
    for t, s in enumerate(rows, start=1):
        o = score_obs(t, s)
        beam = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon), o, cfg)
    return beam


# --- expansion -----------------------------------------------------------------


def test_expand_perfect_scores_keep_parent_score():
    beam = fresh_beam()
    cands = pathway_expand(beam, score_obs(1, (1.0, 1.0, 1.0)), epsilon=1e-12)
    assert len(cands) == 3
    for c in cands:
        assert abs(c.score - 0.0) <= 1e-9  # log(1 + eps) ~ eps


def test_expand_zero_score_adds_log_epsilon():
    beam = fresh_beam()
    cands = pathway_expand(beam, score_obs(1, (0.0, 1.0, 1.0)), epsilon=1e-6)
    assert cands[0].score == math.log(1e-6)


def test_expand_counts_and_matches_nested_loop(rng):
    cfg = PolicyConfig(epsilon=1e-6)
    beam = run_beam([[0.9, 0.5, 0.2]], cap=2)
    s = [float(v) for v in rng.random(3)]
    o = score_obs(2, s)
    cands = pathway_expand(beam, o, cfg.epsilon)
    assert len(cands) == 3 * len(beam)
    for c in cands:
        want = beam[c.parent_id].score + math.log(s[c.proposal_index] + 1e-6)
        assert abs(c.score - want) < 1e-12


def test_expand_requires_positive_epsilon():
    with pytest.raises(ValueError):
        pathway_expand(fresh_beam(), score_obs(1, (0.5, 0.5, 0.5)), epsilon=0.0)


# --- pruning -----------------------------------------------------------------------


def test_prune_all_ties_keep_lexicographic_order():
    beam = run_beam([[0.5, 0.5, 0.5]], cap=2)
    ids = [(p.parent_id, p.trajectory[-1][1]) for p in beam]
    assert ids == [(0, 0), (0, 1)]


def test_prune_keeps_everything_when_cap_large():
    beam = run_beam([[0.9, 0.5, 0.2]], cap=10)
    assert len(beam) == 3


def test_prune_matches_full_sort_oracle(rng):
    for _ in range(50):
        rows = [[float(v) for v in rng.choice([0.1, 0.4, 0.4, 0.8], size=3)]
                for _ in range(3)]
        cap = int(rng.integers(1, 4))
        cfg = replace(CFG, beam_width=cap)
        beam = fresh_beam()
        for t, s in enumerate(rows, start=1):
            o = score_obs(t, s)
            cands = pathway_expand(beam, o, cfg.epsilon)
            ranked = sorted(cands, key=lambda c: (-c.score, c.parent_id, c.proposal_index))
            beam = pathway_prune(beam, cands, o, cfg)
            got = [(p.score, p.parent_id, p.trajectory[-1][1]) for p in beam]
            want = [(c.score, c.parent_id, c.proposal_index) for c in ranked[:cap]]
            assert got == want


def test_prune_advances_banks_under_admission_gate():
    cfg = PolicyConfig(tau_iou=0.5, epsilon=1e-6, beam_width=3)
    beam = fresh_beam()
    o = score_obs(1, (0.9, 0.45, 0.2))  # only proposal 0 clears tau_iou
    beam = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon), o, cfg)
    for p in beam:
        chosen_idx = p.trajectory[-1][1]
        frames = [e.frame_idx for e in p.bank.ram]
        assert frames == ([1] if chosen_idx == 0 else [])
    # absent frame admits nowhere
    o2 = score_obs(2, (0.9, 0.9, 0.9), o=-1.0)
    beam = pathway_prune(beam, pathway_expand(beam, o2, cfg.epsilon), o2, cfg)
    for p in beam:
        assert 2 not in [e.frame_idx for e in p.bank.ram]


def test_branching_does_not_leak_bank_state():
    cfg = PolicyConfig(tau_iou=0.1, epsilon=1e-6, beam_width=2)
    beam = fresh_beam()
    o = score_obs(1, (0.9, 0.8, 0.2))
    beam = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon), o, cfg)
    banks = [p.bank for p in beam]
    assert banks[0] is not banks[1]
    banks[0].ram.clear()
    assert [e.frame_idx for e in banks[1].ram] == [1]


# --- best pathway ----------------------------------------------------------------------


def test_best_tie_prefers_lower_parent():
    beam = run_beam([[0.7, 0.7, 0.1]], cap=2)
    best = beam[0]
    assert best.trajectory == ((1, 0),)


def test_best_matches_exhaustive_enumeration(rng):
    for frames in (1, 2, 3, 4):
        for cap in (1, 2, 3):
            for _ in range(20):
                rows = [[float(v) for v in rng.choice([0.2, 0.5, 0.5, 0.9], size=3)]
                        for _ in range(frames)]
                beam = run_beam(rows, cap)
                best = beam[0]
                want_traj, want_score = exhaustive_best_trajectory(rows, CFG.epsilon)
                assert tuple(k for _, k in best.trajectory) == want_traj
                assert best.score == want_score


# --- structural properties -----------------------------------------------------------------


def test_child_scores_never_exceed_parent_plus_log1p_eps(rng):
    cfg = replace(CFG, beam_width=3)
    beam = fresh_beam()
    bound = math.log(1.0 + cfg.epsilon)
    for t in range(1, 20):
        s = [float(v) for v in rng.random(3)]
        o = score_obs(t, s)
        cands = pathway_expand(beam, o, cfg.epsilon)
        for c in cands:
            assert c.score <= beam[c.parent_id].score + bound
        beam = pathway_prune(beam, cands, o, cfg)


def test_unpruned_beam_reproduces_full_enumeration(rng):
    frames = 3
    rows = [[float(v) for v in rng.random(3)] for _ in range(frames)]
    beam = run_beam(rows, cap=3 ** frames)
    got = {tuple(k for _, k in p.trajectory): p.score for p in beam}
    assert len(got) == 3 ** frames
    for traj in itertools.product(range(3), repeat=frames):
        score = 0.0
        for t, k in enumerate(traj):
            score += math.log(rows[t][k] + CFG.epsilon)
        assert traj in got
        assert abs(got[traj] - score) < 1e-12


def test_beam_of_one_is_greedy_argmax(rng):
    for _ in range(30):
        rows = [[float(v) for v in rng.choice([0.2, 0.6, 0.6, 0.9], size=3)]
                for _ in range(5)]
        beam = run_beam(rows, cap=1)
        traj = tuple(k for _, k in beam[0].trajectory)
        want = tuple(max(range(3), key=lambda i: (row[i], -i)) for row in rows)
        assert traj == want


def test_pruning_is_deterministic(rng):
    rows = [[float(v) for v in rng.choice([0.3, 0.3, 0.7], size=3)] for _ in range(6)]
    a = run_beam(rows, cap=2)
    b = run_beam(rows, cap=2)
    assert [(p.score, p.trajectory) for p in a] == [(p.score, p.trajectory) for p in b]


# --- records and history links -------------------------------------------------------------


def test_pathway_records_are_immutable_named_tuples():
    assert PathwayCandidate._fields == ("parent_id", "proposal_index", "score")
    assert PathwayCandidate._field_defaults == {}
    assert Pathway._fields == ("bank", "score", "history", "parent_id", "decision")
    assert Pathway._field_defaults == {"decision": None}
    beam = run_beam([[0.9, 0.5, 0.2]], cap=2)
    cand = pathway_expand(beam, score_obs(2, (0.5, 0.5, 0.5)), CFG.epsilon)[0]
    assert cand == PathwayCandidate(parent_id=0, proposal_index=0, score=cand.score)
    for record in (cand, beam[0]):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_survivors_link_their_parents_history():
    cfg = replace(CFG, beam_width=2)
    beam = run_beam([[0.9, 0.8, 0.1]], cap=2)
    o = score_obs(2, (0.9, 0.85, 0.01))
    survivors = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon), o, cfg)
    for p in survivors:
        assert p.history.parent is beam[p.parent_id].history
        assert p.trajectory == beam[p.parent_id].trajectory + ((2, p.history.proposal_index),)


def test_pruned_branch_is_freed_without_the_cycle_collector():
    cfg = replace(CFG, beam_width=2)
    gc.collect()
    gc.disable()
    try:
        beam = run_beam([[0.9, 0.8, 0.1]], cap=2)
        dead = beam[1]
        history, bank = weakref.ref(dead.history), weakref.ref(dead.bank)
        del dead
        # both survivors of frame 2 extend pathway 0
        o = score_obs(2, (0.9, 0.85, 0.01))
        beam = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon), o, cfg)
        assert [p.parent_id for p in beam] == [0, 0]
        assert history() is None
        assert bank() is None
    finally:
        gc.enable()


s_masks = st.one_of(st.sampled_from([0.0, 0.1, 0.4, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(s_masks, s_masks, s_masks, st.sampled_from([1.0, 0.5, 0.0, -1.0])),
                     min_size=1, max_size=12),
       width=st.integers(1, 4), k_ram=st.integers(1, 4),
       tau_iou=st.sampled_from([0.0, 0.45, 0.85]))
def test_beam_matches_the_copying_reference(rows, width, k_ram, tau_iou):
    cfg = PolicyConfig(epsilon=1e-6, beam_width=width, tau_iou=tau_iou)
    beam = pathway_init(MemoryBank.new(INIT, k_ram, 0))
    reference = copying_pathway_init(MemoryBank.new(INIT, k_ram, 0))

    def summary(p):
        return (p.score, p.parent_id, p.trajectory, p.decision,
                [e.frame_idx for e in p.bank.ram], p.bank.last_ram_frame)

    returned = []
    for t, (*s, o) in enumerate(rows, start=1):
        ob = score_obs(t, s, o)
        beam = pathway_prune(beam, pathway_expand(beam, ob, cfg.epsilon), ob, cfg)
        reference = pathway_prune_copying(
            reference, pathway_expand_per_pair(reference, ob, cfg.epsilon), ob, cfg)
        assert [summary(p) for p in beam] == [summary(p) for p in reference], t
        returned += [(p, list(p.bank.ram), p.bank.last_ram_frame) for p in beam]
    for p, ram, last_ram_frame in returned:
        assert p.bank.ram == ram
        assert p.bank.last_ram_frame == last_ram_frame


# --- pruning on drawn beams and candidate lists ---------------------------------------------


@st.composite
def prune_cases(draw):
    """A beam of 1-4 parents with their own RAM and DRM, every (parent, proposal)
    candidate or a subset, scores from a small set (so ties occur), in any order."""
    t = 10
    k_ram = draw(st.integers(1, 4))
    beam = []
    for parent_id in range(draw(st.integers(1, 4))):
        bank = MemoryBank.new(INIT, k_ram, 2)
        for frame in sorted(draw(st.sets(st.integers(1, t - 1), max_size=5))):
            bank.insert_ram(MemoryEntry(frame, MASKS[frame % 3], 0.9))
        bank.drm.extend(MemoryEntry(frame, MASKS[0], 0.8)
                        for frame in sorted(draw(st.sets(st.integers(1, t - 1), max_size=2))))
        beam.append(Pathway(bank, -float(parent_id), Choice(t - 1, 0, None), parent_id))
    pairs = [(parent_id, k) for parent_id in range(len(beam)) for k in range(3)]
    chosen_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    scores = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0])
    candidates = draw(st.permutations(
        [PathwayCandidate(parent_id, k, draw(scores)) for parent_id, k in chosen_pairs]))
    s = [draw(st.sampled_from([0.2, 0.5, 0.9])) for _ in range(3)]
    ob = score_obs(t, s, o=draw(st.sampled_from([1.0, 0.0, -1.0])))
    cfg = PolicyConfig(epsilon=1e-6, beam_width=draw(st.integers(1, 6)),
                       tau_iou=draw(st.sampled_from([0.0, 0.5, 0.95])))
    return beam, candidates, ob, cfg


@settings(max_examples=300, deadline=None)
@given(prune_cases())
def test_prune_ranks_candidates_in_any_order(case):
    beam, candidates, ob, cfg = case
    survivors = pathway_prune(beam, candidates, ob, cfg)
    want = sorted(candidates, key=lambda c: (-c.score, c.parent_id, c.proposal_index))
    assert [(p.score, p.parent_id, p.history.proposal_index) for p in survivors] == \
        [(c.score, c.parent_id, c.proposal_index) for c in want[:cfg.beam_width]]


@settings(max_examples=300, deadline=None)
@given(prune_cases())
def test_rejected_survivors_share_the_parent_bank_and_no_parent_bank_changes(case):
    beam, candidates, ob, cfg = case
    before = [(list(p.bank.ram), list(p.bank.drm)) for p in beam]
    survivors = pathway_prune(beam, candidates, ob, cfg)
    parent_banks = [p.bank for p in beam]
    new_banks = []
    for p in survivors:
        parent = beam[p.parent_id]
        chosen = ob.proposals[p.history.proposal_index]
        assert p.decision == sam2long_admit(ob, chosen, cfg)
        assert p.history.parent is parent.history
        ram, drm = before[p.parent_id]
        if p.decision.admit:
            assert all(p.bank is not bank for bank in parent_banks)
            assert p.bank.ram == (ram + [MemoryEntry.from_proposal(ob.frame_idx, chosen)]
                                  )[-p.bank.k_ram:]
            assert p.bank.drm == drm
            new_banks.append(p.bank)
        else:
            assert p.bank is parent.bank
    assert len({id(bank) for bank in new_banks}) == len(new_banks)
    assert [(p.bank.ram, p.bank.drm) for p in beam] == before
