import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trackmem.geometry import BitMask, mask_iou
from trackmem.membank import (
    NEVER,
    DrmConfig,
    EntryKind,
    MemoryBank,
    MemoryEntry,
    drm_gates_pass,
)
from trackmem.oracles import dense_mask_iou

from conftest import empty_mask, obs, prop, random_mask, rect_mask, rng_for

INIT = rect_mask(32, 32, 2, 2, 6, 6)


def entry(frame: int, mask=None, s_mask=0.9) -> MemoryEntry:
    mask = mask if mask is not None else rect_mask(32, 32, 4, 4, 5, 5)
    return MemoryEntry(frame_idx=frame, mask=mask, s_mask=s_mask, kind=EntryKind.RAM)


# --- construction ------------------------------------------------------------


def test_new_bank_holds_only_init():
    bank = MemoryBank.new(INIT, 6, 3)
    assert len(bank.ram) == 0 and len(bank.drm) == 0
    assert bank.init.kind is EntryKind.INIT
    assert bank.init.frame_idx == 0
    assert bank.last_ram_frame == NEVER and bank.last_drm_frame == NEVER
    assert bank.compose() == [bank.init]


def test_new_bank_rejects_empty_prompt():
    with pytest.raises(ValueError):
        MemoryBank.new(empty_mask(), 6, 3)


def test_bank_capacity_validation():
    with pytest.raises(ValueError):
        MemoryBank.new(INIT, 0, 3)
    with pytest.raises(ValueError):
        MemoryBank.new(INIT, 6, -1)


# --- RAM insertion -----------------------------------------------------------


def test_ram_fifo_eviction():
    bank = MemoryBank.new(INIT, 3, 3)
    for f in range(1, 6):
        bank.insert_ram(entry(f))
    assert [e.frame_idx for e in bank.ram] == [3, 4, 5]
    assert bank.init.frame_idx == 0  # init survives


def test_ram_out_of_order_rejected():
    bank = MemoryBank.new(INIT, 3, 3)
    bank.insert_ram(entry(5))
    with pytest.raises(ValueError):
        bank.insert_ram(entry(5))
    with pytest.raises(ValueError):
        bank.insert_ram(entry(2))


def test_ram_random_gap_inserts_match_slicing_oracle():
    rng = rng_for(41)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        bank = MemoryBank.new(INIT, k, 2)
        frames = np.cumsum(rng.integers(1, 7, size=100)).tolist()
        for f in frames:
            bank.insert_ram(entry(int(f)))
        assert [e.frame_idx for e in bank.ram] == frames[-k:]
        assert bank.last_ram_frame == frames[-1]


def test_single_slot_ram_is_previous_accepted_frame_only():
    bank = MemoryBank.new(INIT, 1, 0)
    for f in (1, 4, 9, 10):
        bank.insert_ram(entry(f))
        assert [e.frame_idx for e in bank.ram] == [f]


def test_replace_ram_validates():
    bank = MemoryBank.new(INIT, 3, 0)
    with pytest.raises(ValueError):
        bank.replace_ram([entry(1), entry(2), entry(3), entry(4)])
    with pytest.raises(ValueError):
        bank.replace_ram([entry(2), entry(1)])
    bank.replace_ram([entry(1), entry(5)])
    assert [e.frame_idx for e in bank.ram] == [1, 5]
    bank.replace_ram([])
    assert bank.last_ram_frame == NEVER


# --- DRM admission -------------------------------------------------------------


def drm_obs(frame, masks, s_masks, o=1.0):
    return obs(frame, [prop(m, s) for m, s in zip(masks, s_masks)], o=o)


def test_identical_proposals_never_admitted():
    bank = MemoryBank.new(INIT, 6, 3)
    m = rect_mask(32, 32, 5, 5, 8, 8)
    o = drm_obs(10, [m, m, m], [0.9, 0.9, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig()) is False
    assert bank.drm == []


def test_disjoint_high_quality_admitted_on_empty_ram():
    bank = MemoryBank.new(INIT, 6, 3)
    a = rect_mask(32, 32, 1, 1, 6, 6)
    b = rect_mask(32, 32, 20, 20, 6, 6)
    o = drm_obs(10, [a, b, a], [0.9, 0.8, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig()) is True
    assert [e.frame_idx for e in bank.drm] == [10]
    assert bank.drm[0].kind is EntryKind.DRM
    assert bank.last_drm_frame == 10


def test_drm_disabled_with_zero_capacity():
    bank = MemoryBank.new(INIT, 6, 0)
    a = rect_mask(32, 32, 1, 1, 6, 6)
    b = rect_mask(32, 32, 20, 20, 6, 6)
    o = drm_obs(10, [a, b, a], [0.9, 0.8, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig()) is False


def test_drm_randomized_gate_sweep_matches_predicate_oracle(rng):
    """Re-evaluate all four predicates independently per admission."""
    cfg = DrmConfig(tau_div=0.55, tau_q=0.6, area_lo=0.5, area_hi=2.0, min_gap=4)
    for trial in range(60):
        bank = MemoryBank.new(INIT, 4, 3)
        # random RAM history
        for i in range(int(rng.integers(0, 5))):
            bank.insert_ram(entry(i + 1, mask=random_mask(rng, 32, 32,
                                                          float(rng.uniform(0.05, 0.5)))))
        last_drm = bank.last_drm_frame
        for frame in range(6, 40, int(rng.integers(1, 6))):
            masks = [random_mask(rng, 32, 32, float(rng.uniform(0.05, 0.6)))
                     for _ in range(3)]
            s = [float(rng.uniform(0.3, 1.0)) for _ in range(3)]
            o = drm_obs(frame, masks, s)
            chosen = o.proposals[int(rng.integers(0, 3))]

            # independent four-predicate oracle on dense arrays
            dense = [m.to_dense() for m in masks]
            min_iou = min(dense_mask_iou(dense[i], dense[j])
                          for i, j in ((0, 1), (0, 2), (1, 2)))
            ram_areas = [e.mask.area for e in bank.ram]
            gates = min_iou < cfg.tau_div and chosen.s_mask >= cfg.tau_q
            if ram_areas:
                med = float(np.median(ram_areas))
                gates = gates and med > 0 and \
                    cfg.area_lo <= chosen.mask.area / med <= cfg.area_hi
            gates = gates and (frame - last_drm >= cfg.min_gap)

            admitted = bank.consider_drm(o, chosen, cfg)
            assert admitted == gates
            if admitted:
                last_drm = frame


def gates_in_written_order(obs, chosen, ram_areas, last_drm_frame, cfg) -> bool:
    """The gates as first written: disagreement first, numpy median."""
    min_pair_iou = min(mask_iou(obs.proposals[i].mask, obs.proposals[j].mask)
                       for i, j in ((0, 1), (0, 2), (1, 2)))
    if min_pair_iou >= cfg.tau_div:
        return False
    if chosen.s_mask < cfg.tau_q:
        return False
    if ram_areas:
        median = float(np.median(ram_areas))
        if median == 0.0:
            return False
        ratio = chosen.mask.area / median
        if not (cfg.area_lo <= ratio <= cfg.area_hi):
            return False
    if obs.frame_idx - last_drm_frame < cfg.min_gap:
        return False
    return True


@st.composite
def gate_cases(draw):
    dense = st.lists(st.lists(st.booleans(), min_size=6, max_size=6),
                     min_size=5, max_size=5)
    # proposals drawn with repeats from three random masks and the union of
    # two, so every pair can be the one that decides the disagreement gate
    pool = [np.array(draw(dense)) for _ in range(3)]
    pool.append(pool[0] | pool[1])
    masks = [BitMask.from_dense(pool[draw(st.integers(0, 3))]) for _ in range(3)]
    scores = st.sampled_from([0.0, 0.3, 0.69, 0.7, 0.71, 1.0])
    frame = draw(st.integers(0, 40))
    o = drm_obs(frame, masks, [draw(scores) for _ in range(3)])
    chosen = o.proposals[draw(st.integers(0, 2))]
    ram_areas = draw(st.lists(st.integers(0, 30), max_size=6))
    last_drm = draw(st.sampled_from([NEVER, 0, frame - 5, frame - 4, frame]))
    cfg = DrmConfig(tau_div=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                    tau_q=draw(scores),
                    area_lo=draw(st.sampled_from([0.25, 0.5, 1.0])),
                    area_hi=draw(st.sampled_from([1.5, 2.0, 4.0])),
                    min_gap=draw(st.integers(1, 6)))
    return o, chosen, ram_areas, last_drm, cfg


@given(gate_cases())
def test_drm_gates_match_written_order(case):
    assert drm_gates_pass(*case) == gates_in_written_order(*case)


@pytest.mark.parametrize("union_at", [0, 1, 2])
def test_each_proposal_pair_can_decide_disagreement(union_at):
    # two disjoint halves and their union: only the pair of halves disagrees
    left, right = rect_mask(32, 32, 0, 0, 8, 8), rect_mask(32, 32, 8, 0, 8, 8)
    masks = [left, right]
    masks.insert(union_at, BitMask.from_dense(left.to_dense() | right.to_dense()))
    o = drm_obs(10, masks, [0.9, 0.9, 0.9])
    assert drm_gates_pass(o, o.proposals[0], [], NEVER, DrmConfig(tau_div=0.4))
    assert not drm_gates_pass(o, o.proposals[0], [], NEVER, DrmConfig(tau_div=0.0))


@given(st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=9))
def test_statistics_median_matches_numpy_on_integers(areas):
    assert float(statistics.median(areas)) == float(np.median(areas))


def test_drm_fifo_eviction_and_min_gap():
    cfg = DrmConfig(min_gap=3, tau_q=0.5)
    bank = MemoryBank.new(INIT, 6, 2)
    a = rect_mask(32, 32, 1, 1, 6, 6)
    b = rect_mask(32, 32, 20, 20, 6, 6)
    admitted_frames = []
    for frame in range(1, 20):
        o = drm_obs(frame, [a, b, a], [0.9, 0.8, 0.9])
        if bank.consider_drm(o, o.proposals[0], cfg):
            admitted_frames.append(frame)
        assert len(bank.drm) <= 2
        frames = [e.frame_idx for e in bank.drm]
        assert frames == sorted(frames)
        for prev, cur in zip(frames, frames[1:]):
            assert cur - prev >= cfg.min_gap
    assert admitted_frames[0] == 1
    assert all(b - a >= cfg.min_gap for a, b in zip(admitted_frames, admitted_frames[1:]))
    assert [e.frame_idx for e in bank.drm] == admitted_frames[-2:]


# --- composition -----------------------------------------------------------------


def test_compose_order_and_duplicates():
    bank = MemoryBank.new(INIT, 3, 2)
    a = rect_mask(32, 32, 1, 1, 6, 6)
    b = rect_mask(32, 32, 20, 20, 6, 6)
    o = drm_obs(4, [a, b, a], [0.9, 0.8, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig(min_gap=1))
    # the same frame also enters RAM: duplicate allowed, RAM copy last
    bank.insert_ram(entry(4, mask=a))
    bank.insert_ram(entry(7))
    composed = bank.compose()
    kinds = [e.kind for e in composed]
    frames = [e.frame_idx for e in composed]
    assert kinds == [EntryKind.INIT, EntryKind.DRM, EntryKind.RAM, EntryKind.RAM]
    assert frames == [0, 4, 4, 7]
    assert len(composed) <= 1 + bank.k_drm + bank.k_ram


def test_bank_copy_is_independent():
    bank = MemoryBank.new(INIT, 3, 2)
    bank.insert_ram(entry(1))
    dup = bank.copy()
    dup.insert_ram(entry(2))
    assert [e.frame_idx for e in bank.ram] == [1]
    assert [e.frame_idx for e in dup.ram] == [1, 2]


def test_snapshot_format():
    bank = MemoryBank.new(INIT, 3, 2)
    bank.insert_ram(entry(3, s_mask=0.75))
    assert bank.snapshot() == "init:0:1.0;ram:3:0.75"


# --- fuzzed invariants ---------------------------------------------------------


def test_fuzzed_admissions_never_violate_invariants(rng):
    cfg = DrmConfig(min_gap=2, tau_q=0.4, tau_div=0.7)
    for _ in range(20):
        k_ram = int(rng.integers(1, 6))
        k_drm = int(rng.integers(0, 4))
        bank = MemoryBank.new(INIT, k_ram, k_drm)
        init_before = bank.init
        frame = 0
        for _ in range(200):
            frame += int(rng.integers(1, 4))
            masks = [random_mask(rng, 32, 32, 0.3) for _ in range(3)]
            s = [float(rng.uniform(0, 1)) for _ in range(3)]
            o = drm_obs(frame, masks, s)
            bank.consider_drm(o, o.proposals[int(rng.integers(0, 3))], cfg)
            if rng.random() < 0.7:
                bank.insert_ram(entry(frame, mask=masks[0], s_mask=s[0]))
            # capacity, ordering, init immutability, DRM gap
            assert len(bank.ram) <= k_ram and len(bank.drm) <= k_drm
            ram_frames = [e.frame_idx for e in bank.ram]
            drm_frames = [e.frame_idx for e in bank.drm]
            assert ram_frames == sorted(ram_frames)
            assert all(b > a for a, b in zip(ram_frames, ram_frames[1:]))
            assert all(b - a >= cfg.min_gap for a, b in zip(drm_frames, drm_frames[1:]))
            assert bank.init is init_before
