import contextlib
import statistics

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from trackmem import membank
from trackmem.geometry import BitMask, mask_iou
from trackmem.membank import (
    NEVER,
    DrmConfig,
    MemoryBank,
    MemoryEntry,
    drm_gates_pass,
)
from trackmem.observation import Prototype, _cell_spans
from trackmem.selection import PolicyKind, TrackerConfig, TrackerSession
from trackmem.simulator import MotionSpec, SceneConfig, gen_sequence

from conftest import empty_mask, obs, prop, random_mask, rect_mask, rng_for
from oracles import dense_mask_iou

INIT = rect_mask(32, 32, 2, 2, 6, 6)


def entry(frame: int, mask=None, s_mask=0.9) -> MemoryEntry:
    mask = mask if mask is not None else rect_mask(32, 32, 4, 4, 5, 5)
    return MemoryEntry(frame_idx=frame, mask=mask, s_mask=s_mask)


# --- construction ------------------------------------------------------------


def test_memory_entry_is_an_immutable_record():
    assert MemoryEntry._fields == ("frame_idx", "mask", "s_mask", "bbox", "fg_prototype")
    assert MemoryEntry._field_defaults == {"bbox": None, "fg_prototype": None}
    p = prop(rect_mask(32, 32, 4, 4, 5, 5), 0.75)
    e = MemoryEntry.from_proposal(5, p)
    assert e == MemoryEntry(frame_idx=5, mask=p.mask, s_mask=0.75, bbox=p.bbox)
    for name in MemoryEntry._fields:
        with pytest.raises(AttributeError):
            setattr(e, name, None)
    later = e._replace(frame_idx=6)
    assert e.frame_idx == 5 and later.frame_idx == 6 and later[1:] == e[1:]


def test_new_bank_holds_only_init():
    bank = MemoryBank.new(INIT, 6, 3)
    assert len(bank.ram) == 0 and len(bank.drm) == 0
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


def test_last_admission_frames_are_read_off_the_lists():
    bank = MemoryBank.new(INIT, 2, 1)
    for f in (3, 5, 8):
        bank.insert_ram(entry(f))
    assert bank.last_ram_frame == 8
    bank.replace_ram([entry(2)])
    assert bank.last_ram_frame == 2
    bank.drm = (entry(4),)
    assert bank.last_drm_frame == 4
    for name in ("last_ram_frame", "last_drm_frame"):
        with pytest.raises(AttributeError):
            setattr(bank, name, 1)


# --- DRM admission -------------------------------------------------------------


def drm_obs(frame, masks, s_masks, o=1.0):
    return obs(frame, [prop(m, s) for m, s in zip(masks, s_masks)], o=o)


def test_identical_proposals_never_admitted():
    bank = MemoryBank.new(INIT, 6, 3)
    m = rect_mask(32, 32, 5, 5, 8, 8)
    o = drm_obs(10, [m, m, m], [0.9, 0.9, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig()) is False
    assert bank.drm == ()


def test_disjoint_high_quality_admitted_on_empty_ram():
    bank = MemoryBank.new(INIT, 6, 3)
    a = rect_mask(32, 32, 1, 1, 6, 6)
    b = rect_mask(32, 32, 20, 20, 6, 6)
    o = drm_obs(10, [a, b, a], [0.9, 0.8, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig()) is True
    assert bank.drm == (MemoryEntry.from_proposal(10, o.proposals[0]),)
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


def gates_in_written_order(obs, chosen, ram, last_drm_frame, cfg) -> bool:
    """The gates as first written: disagreement first, numpy median."""
    ram_areas = [e.mask.area for e in ram]
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


def area_mask(area: int) -> BitMask:
    """A 32 x 32 mask of ``area`` pixels (at most 32)."""
    return BitMask(32, 32, ((0, 0, area),) if area else ())


GATE_SCORES = st.sampled_from([0.0, 0.3, 0.69, 0.7, 0.71, 1.0])


@st.composite
def gate_cases(draw):
    dense = st.lists(st.lists(st.booleans(), min_size=6, max_size=6),
                     min_size=5, max_size=5)
    # proposals drawn with repeats from three random masks and the union of
    # two, so every pair can be the one that decides the disagreement gate
    pool = [np.array(draw(dense)) for _ in range(3)]
    pool.append(pool[0] | pool[1])
    masks = [BitMask.from_dense(pool[draw(st.integers(0, 3))]) for _ in range(3)]
    frame = draw(st.integers(0, 40))
    o = drm_obs(frame, masks, [draw(GATE_SCORES) for _ in range(3)])
    return (o, *draw(gate_contexts(o)))


@st.composite
def gate_contexts(draw, o):
    """Everything a gate call takes besides the observation."""
    frame = o.frame_idx
    chosen = o.proposals[draw(st.integers(0, 2))]
    ram = [entry(i + 1, mask=area_mask(area))
           for i, area in enumerate(draw(st.lists(st.integers(0, 30), max_size=6)))]
    last_drm = draw(st.sampled_from([NEVER, 0, frame - 5, frame - 4, frame]))
    cfg = DrmConfig(tau_div=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                    tau_q=draw(GATE_SCORES),
                    area_lo=draw(st.sampled_from([0.25, 0.5, 1.0])),
                    area_hi=draw(st.sampled_from([1.5, 2.0, 4.0])),
                    min_gap=draw(st.integers(1, 6)))
    return chosen, ram, last_drm, cfg


@given(gate_cases())
def test_drm_gates_match_written_order(case):
    assert drm_gates_pass(*case) == gates_in_written_order(*case)


@given(st.data())
def test_gates_called_again_on_one_observation_match_written_order(data):
    # the disagreement IoU is kept on the observation after the first call
    # that needs it; later calls with other choices, RAM, gaps and
    # thresholds must decide as if it were recomputed
    case = data.draw(gate_cases())
    o = case[0]
    for _ in range(5):
        assert drm_gates_pass(*case) == gates_in_written_order(*case)
        case = (o, *data.draw(gate_contexts(o)))


@contextlib.contextmanager
def counted_area_reads():
    """Record the mask of every ``BitMask.area`` read while the block runs."""
    reads = []
    area = vars(BitMask)["area"]

    def counted(mask):
        reads.append(mask)
        return area.fget(mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BitMask, "area", property(counted))
        yield reads


@given(gate_cases())
def test_gates_read_ram_areas_only_past_quality_and_sparsity(case):
    o, chosen, ram, last_drm, cfg = case
    decided_early = (chosen.s_mask < cfg.tau_q
                     or o.frame_idx - last_drm < cfg.min_gap)
    event(f"decided by quality or sparsity: {decided_early}")
    with counted_area_reads() as reads:
        drm_gates_pass(o, chosen, ram, last_drm, cfg)
    if decided_early:
        assert reads == []
    elif ram:
        assert all(any(m is e.mask for m in reads) for e in ram)


def test_consider_drm_reads_no_area_when_quality_decides():
    bank = MemoryBank.new(INIT, 6, 3)
    for frame in (1, 2, 3):
        bank.insert_ram(entry(frame, mask=rect_mask(32, 32, 4, 4, 8, 8)))
    o = drm_obs(10, [rect_mask(32, 32, 0, 0, 8, 8), rect_mask(32, 32, 20, 20, 8, 8),
                     rect_mask(32, 32, 10, 0, 8, 8)], [0.5, 0.9, 0.9])
    with counted_area_reads() as reads:
        assert not bank.consider_drm(o, o.proposals[0], DrmConfig(tau_q=0.7))
    assert reads == []
    with counted_area_reads() as reads:
        assert bank.consider_drm(o, o.proposals[1], DrmConfig(tau_q=0.7))
    assert reads[:3] == [e.mask for e in bank.ram]


def test_sessions_of_one_scene_share_each_observations_disagreement(monkeypatch):
    scene = SceneConfig(seed=5, frames=60, grid=(96, 96),
                        target_motion=MotionSpec(size=(18.0, 14.0)),
                        n_distractors=2, distractor_similarity=0.9,
                        occlusions=((20, 26),), proto_dim=4)
    record = gen_sequence(scene)
    calls = []

    def counted(a, b):
        calls.append(1)
        return mask_iou(a, b)

    monkeypatch.setattr(membank, "mask_iou", counted)
    sessions = [TrackerSession(TrackerConfig(policy=kind), record.init_mask)
                for kind in PolicyKind]
    per_observation = []
    for o in record.observations:
        before = len(calls)
        for session in sessions:
            session.step(o)
        per_observation.append(len(calls) - before)
    assert max(per_observation) == 3  # the disagreement gate was reached


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
    frames = [e.frame_idx for e in composed]
    assert composed == [bank.init, *bank.drm, *bank.ram]
    assert len(bank.drm) == 1 and len(bank.ram) == 2
    assert frames == [0, 4, 4, 7]
    assert len(composed) <= 1 + bank.k_drm + bank.k_ram


def test_bank_copy_is_independent():
    bank = MemoryBank.new(INIT, 3, 2)
    bank.insert_ram(entry(1))
    dup = bank.copy()
    dup.insert_ram(entry(2))
    assert [e.frame_idx for e in bank.ram] == [1]
    assert [e.frame_idx for e in dup.ram] == [1, 2]


# --- values that cannot change -------------------------------------------------

RUNS = ((1, 2, 3), (2, 0, 8))


def generated_mask() -> BitMask:
    record = gen_sequence(SceneConfig(seed=4, frames=2, grid=(40, 30), proto_dim=2,
                                      target_motion=MotionSpec(size=(12.0, 9.0))))
    return record.observations[1].proposals[0].mask


def packed_refuses_assignment(mask: BitMask) -> None:
    assert mask.runs
    with pytest.raises(TypeError):
        mask.packed[2] = 6


def prototype_vec_refuses_writes() -> None:
    p = Prototype([3.0, 4.0])
    with pytest.raises(ValueError, match="read-only"):
        p.vec[0] = 0.0


def prototype_keeps_its_values_when_the_input_changes() -> None:
    v = np.array([4.0, 3.0])
    p = Prototype(v)
    v[0] = 0.0
    assert p.vec.tolist() == [4.0, 3.0] and p.norm == 5.0


def bank_holds_tuples() -> None:
    bank = MemoryBank.new(INIT, 2, 1)
    seen = [bank.ram, bank.drm]
    bank.insert_ram(entry(1))
    seen.append(bank.ram)
    bank.replace_ram([entry(2)])
    seen.append(bank.ram)
    o = drm_obs(10, [rect_mask(32, 32, 1, 1, 6, 6), rect_mask(32, 32, 20, 20, 6, 6),
                     rect_mask(32, 32, 1, 1, 6, 6)], [0.9, 0.8, 0.9])
    assert bank.consider_drm(o, o.proposals[0], DrmConfig())
    dup = bank.copy()
    seen += [bank.drm, dup.ram, dup.drm]
    assert all(type(value) is tuple for value in seen), seen


def cell_spans_are_tuples() -> None:
    assert [type(value) for value in _cell_spans(4, 5, 30, 40)] == [tuple] * 3


IMMUTABLE = {
    "packed_from_init": lambda: packed_refuses_assignment(BitMask(8, 4, RUNS)),
    "packed_from_batch": lambda: packed_refuses_assignment(
        BitMask.batch(8, 4, np.array(RUNS * 2), [0, 2, 4])[1]),
    "packed_from_text": lambda: packed_refuses_assignment(BitMask.from_text("8 4; 1:2+3; 2:0+8")),
    "packed_from_simulator": lambda: packed_refuses_assignment(generated_mask()),
    "prototype_vec": prototype_vec_refuses_writes,
    "prototype_input": prototype_keeps_its_values_when_the_input_changes,
    "bank_ram_and_drm": bank_holds_tuples,
    "cell_spans": cell_spans_are_tuples,
}


@pytest.mark.parametrize("check", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_shared_values_cannot_change(check):
    check()


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


PALETTE = [empty_mask(), rect_mask(32, 32, 1, 1, 6, 6), rect_mask(32, 32, 2, 2, 6, 6),
           rect_mask(32, 32, 20, 20, 6, 6), rect_mask(32, 32, 0, 0, 12, 12),
           rect_mask(32, 32, 5, 3, 3, 9)]


def bank_state(bank: MemoryBank):
    return list(bank.ram), list(bank.drm), bank.last_ram_frame, bank.last_drm_frame, bank.init


def assert_bank_invariants(bank: MemoryBank, init: MemoryEntry) -> None:
    assert len(bank.ram) <= bank.k_ram and len(bank.drm) <= bank.k_drm
    for entries in (bank.ram, bank.drm):
        frames = [e.frame_idx for e in entries]
        assert all(b > a for a, b in zip(frames, frames[1:])), frames
    assert bank.init is init and bank.init == MemoryEntry(
        frame_idx=0, mask=INIT, s_mask=1.0, bbox=init.bbox)
    assert bank.last_ram_frame == (bank.ram[-1].frame_idx if bank.ram else NEVER)
    assert bank.last_drm_frame == (bank.drm[-1].frame_idx if bank.drm else NEVER)


@settings(max_examples=120, deadline=None)
@given(k_ram=st.integers(1, 5), k_drm=st.integers(0, 3), min_gap=st.integers(1, 4),
       data=st.data())
def test_bank_invariants_hold_under_arbitrary_operation_streams(k_ram, k_drm, min_gap, data):
    """insert_ram, replace_ram, consider_drm and copy in any order, any frames.

    Rejected calls (a stale RAM insert, a RAM rebuild over capacity) must
    leave the bank exactly as it was; a copy must share no state with its
    source in either direction.
    """
    cfg = DrmConfig(tau_div=0.5, tau_q=0.5, min_gap=min_gap)
    bank = MemoryBank.new(INIT, k_ram, k_drm)
    init = bank.init
    clock = 0
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        clock += data.draw(st.integers(1, 3), label="advance")
        op = data.draw(st.sampled_from(["insert", "stale", "replace", "drm", "copy"]), label="op")
        if op == "insert":
            bank.insert_ram(entry(clock, mask=data.draw(st.sampled_from(PALETTE[1:]))))
            assert bank.ram[-1].frame_idx == clock
        elif op == "stale" and bank.ram:
            before = bank_state(bank)
            with pytest.raises(ValueError, match="out-of-order"):
                bank.insert_ram(entry(data.draw(st.integers(1, bank.ram[-1].frame_idx))))
            assert bank_state(bank) == before
        elif op == "replace":
            frames = sorted(data.draw(st.sets(st.integers(1, clock), max_size=k_ram + 1)))
            entries = [entry(f) for f in frames]
            if len(entries) > k_ram:
                before = bank_state(bank)
                with pytest.raises(ValueError, match="capacity"):
                    bank.replace_ram(entries)
                assert bank_state(bank) == before
            else:
                bank.replace_ram(entries)
                assert [e.frame_idx for e in bank.ram] == frames
        elif op == "drm":
            # any frame, past ones included: the gap gate keeps DRM chronological
            frame = data.draw(st.integers(1, clock), label="frame")
            masks = data.draw(st.lists(st.sampled_from(PALETTE), min_size=3, max_size=3))
            scores = data.draw(st.lists(st.sampled_from([0.2, 0.6, 0.9]), min_size=3,
                                        max_size=3))
            o = obs(frame, [prop(m, s) for m, s in zip(masks, scores)])
            before = bank_state(bank)
            admitted = bank.consider_drm(o, o.proposals[data.draw(st.integers(0, 2))], cfg)
            ram, drm, last_ram, last_drm, _ = bank_state(bank)
            assert (ram, last_ram) == (before[0], before[2])
            if admitted:
                event("admitted")
                assert drm[-1].frame_idx == frame
                assert drm == (before[1] + drm[-1:])[-bank.k_drm:]
            else:
                assert (drm, last_drm) == (before[1], before[3])
        elif op == "copy":
            dup = bank.copy()
            assert dup is not bank and bank_state(dup) == bank_state(bank)
            changed, other = (dup, bank) if data.draw(st.booleans()) else (bank, dup)
            before = bank_state(other)
            changed.insert_ram(entry(clock))
            far = obs(clock, [prop(PALETTE[1], 0.9), prop(PALETTE[3], 0.9),
                              prop(PALETTE[1], 0.9)])
            # the one RAM entry left passes the area gate, so the copy can admit
            changed.replace_ram(changed.ram[-1:])
            if changed.consider_drm(far, far.proposals[0], cfg):
                event("copy admitted")
            assert bank_state(other) == before
            assert_bank_invariants(other, init)
            bank = changed if data.draw(st.booleans()) else other
        assert_bank_invariants(bank, init)
