import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from trackmem import observation, selection
from trackmem.geometry import BBox, BitMask, box_iou
from trackmem.membank import MemoryEntry
from trackmem.motion import MotionConfig
from trackmem.observation import (
    FeatureGrid,
    Proposal,
    Prototype,
    covered_labels,
    observation_from_line,
    observation_to_line,
)
from trackmem.policies import (
    AdmissionReason,
    PolicyConfig,
    RamPolicyDecision,
    motion_consistency,
    sam2long_admit,
    samite_calibrate,
    samite_select_ram,
)
from trackmem.selection import (
    FrameResult,
    HimPolicy,
    PolicyKind,
    SamitePolicy,
    SamuraiPolicy,
    TrackerConfig,
    TrackerSession,
    _prototype,
    frame_result_to_line,
    select_default,
    select_him,
    select_samurai,
)
from trackmem.simulator import MotionSpec, SceneConfig, gen_sequence

from conftest import empty_mask, obs, rect_mask
from oracles import him_choice_oracle, samurai_choice_oracle
from reference import (
    RebuildingSamite,
    matrix_kf_box,
    matrix_kf_predict,
    matrix_kf_update,
    samite_calibrate_recomputed,
)

INIT = rect_mask(32, 32, 4, 4, 8, 8)
MASKS = [rect_mask(32, 32, 2, 2, 6, 6),
         rect_mask(32, 32, 12, 12, 6, 6),
         rect_mask(32, 32, 22, 22, 6, 6)]


def frame(idx, s=(0.9, 0.5, 0.2), s_obj=(1.0, 1.0, 1.0), o=1.0, masks=None):
    masks = masks or MASKS
    return obs(idx, [Proposal.from_mask(m, sm, so)
                     for m, sm, so in zip(masks, s, s_obj)], o=o)


def config(policy, **kw):
    return TrackerConfig(policy=policy, **kw)


def scene_record(seed=301, **kw):
    defaults = dict(seed=seed, frames=60, grid=(128, 128),
                    target_motion=MotionSpec(size=(20.0, 16.0)),
                    n_distractors=2, distractor_similarity=0.8,
                    occlusions=((20, 32),), proto_dim=4)
    defaults.update(kw)
    return gen_sequence(SceneConfig(**defaults))


# --- choice rules ---------------------------------------------------------------


def test_select_default_argmax_and_ties():
    chosen, present = select_default(frame(1, s=(0.9, 0.1, 0.1)))
    assert chosen.s_mask == 0.9 and present
    chosen, _ = select_default(frame(1, s=(0.5, 0.5, 0.5)))
    assert chosen is frame(1, s=(0.5, 0.5, 0.5)).proposals[0] or chosen.mask == MASKS[0]


def test_select_default_absent_only_when_all_empty_and_no_presence():
    empty = [empty_mask(32, 32)] * 3
    _, present = select_default(frame(1, masks=empty, o=-0.5))
    assert not present
    _, present = select_default(frame(1, masks=empty, o=0.5))
    assert present
    _, present = select_default(frame(1, o=-0.5))
    assert present


def test_select_samurai_single_qualifier_wins():
    o = frame(1, s=(0.1, 0.9, 0.9), s_obj=(1.0, -1.0, -1.0))
    chosen, s_kf = select_samurai(o, BBox(0, 0, 4, 4), PolicyConfig())
    assert chosen is o.proposals[0]
    assert s_kf is not None


def test_select_samurai_none_qualify_is_target_lost():
    o = frame(1, s_obj=(-1.0, -0.5, 0.0))
    chosen, s_kf = select_samurai(o, BBox(0, 0, 4, 4), PolicyConfig())
    assert chosen is None and s_kf is None


def test_select_samurai_alpha_zero_matches_default_restricted(rng):
    cfg = PolicyConfig(alpha=0.0)
    for _ in range(200):
        s = tuple(float(v) for v in rng.random(3))
        s_obj = tuple(float(v) for v in rng.uniform(-1, 1, size=3))
        o = frame(1, s=s, s_obj=s_obj)
        chosen, _ = select_samurai(o, BBox(0, 0, 4, 4), cfg)
        qualified = [i for i in range(3) if s_obj[i] > 0]
        if not qualified:
            assert chosen is None
        else:
            want = max(qualified, key=lambda i: (s[i], -i))
            assert chosen is o.proposals[want]


def test_select_samurai_matches_brute_force(rng):
    cfg = PolicyConfig(alpha=0.25)
    kf_pred = BBox(10, 10, 8, 8)
    for _ in range(500):
        s = tuple(float(v) for v in rng.random(3))
        s_obj = tuple(float(v) for v in rng.uniform(-1, 1, size=3))
        o = frame(1, s=s, s_obj=s_obj)
        chosen, _ = select_samurai(o, kf_pred, cfg)
        s_kf = [0.0 if p.bbox is None else box_iou(kf_pred, p.bbox)
                for p in o.proposals]
        want = samurai_choice_oracle(list(s), list(s_obj), s_kf, cfg.alpha)
        assert (None if chosen is None else o.proposals.index(chosen)) == want


def test_select_him_laziness_observable():
    calls = []

    def fine():
        calls.append(1)
        return BBox(0, 0, 4, 4)

    # coarse stage already confident: fine must not be evaluated
    o = frame(1, s=(0.95, 0.1, 0.1))
    cfg = PolicyConfig(alpha_him=0.4, beta=0.3, tau_conf=0.5)
    chosen, s_conf, used_fine = select_him(o, o.proposals[0].bbox, fine, cfg)
    assert not used_fine and calls == []
    # unconvincing coarse stage activates it
    o2 = frame(2, s=(0.3, 0.2, 0.1))
    _, _, used_fine = select_him(o2, BBox(0, 0, 1, 1), fine, cfg)
    assert used_fine and calls == [1]


def test_select_him_beta_zero_stages_identical(rng):
    cfg = PolicyConfig(alpha_him=0.4, beta=0.0, tau_conf=2.0)  # always "refine"
    cfg_hi = PolicyConfig(alpha_him=0.4, beta=0.0, tau_conf=-1.0)  # never
    for _ in range(100):
        s = tuple(float(v) for v in rng.random(3))
        o = frame(1, s=s)
        pred = BBox(5, 5, 10, 10)
        a, ca, _ = select_him(o, pred, lambda: BBox(1, 1, 2, 2), cfg)
        b, cb, _ = select_him(o, pred, lambda: BBox(1, 1, 2, 2), cfg_hi)
        assert a is b and ca == cb


def test_select_him_matches_brute_force(rng):
    cfg = PolicyConfig(alpha_him=0.4, beta=0.3, tau_conf=0.5)
    coarse = BBox(8, 8, 10, 10)
    fine_box = BBox(12, 12, 10, 10)
    for _ in range(500):
        s = tuple(float(v) for v in rng.random(3))
        o = frame(1, s=s)
        chosen, s_conf, used_fine = select_him(o, coarse, lambda: fine_box, cfg)
        s_coarse = [box_iou(coarse, p.bbox) for p in o.proposals]
        s_fine = [box_iou(fine_box, p.bbox) for p in o.proposals]
        want_idx, want_conf, want_fine = him_choice_oracle(
            s_coarse, s_fine, list(s), cfg.alpha_him, cfg.beta, cfg.tau_conf)
        assert o.proposals.index(chosen) == want_idx
        assert s_conf == want_conf
        assert used_fine == want_fine


@st.composite
def tied_frames(draw):
    """A frame whose proposals often tie: masks and scores drawn from small sets,
    with repeated and empty masks."""
    masks = [draw(st.sampled_from(MASKS + [MASKS[0], empty_mask(32, 32)])) for _ in range(3)]
    s = [draw(st.sampled_from([0.0, 0.3, 0.5, 0.5, 1.0])) for _ in range(3)]
    s_obj = [draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0])) for _ in range(3)]
    return frame(1, s=s, s_obj=s_obj, masks=masks, o=draw(st.sampled_from([-1.0, 0.0, 1.0])))


PREDICTED = st.sampled_from([None, BBox(2, 2, 6, 6), BBox(8, 8, 10, 10), BBox(0, 0, 32, 32)])


def written_argmax(indices, score):
    """The argmax as written with a key: highest score, ties to the lower index."""
    return max(indices, key=lambda i: (score(i), -i))


@given(tied_frames())
@example(frame(1, s=(0.5, 0.5, 0.5), masks=[MASKS[0]] * 3))
def test_select_default_picks_the_written_key(o):
    chosen, _ = select_default(o)
    assert chosen is o.proposals[written_argmax(range(3), lambda i: o.proposals[i].s_mask)]


@given(tied_frames(), PREDICTED, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
@example(frame(1, s=(0.5, 0.5, 0.5), masks=[MASKS[0]] * 3), BBox(2, 2, 6, 6), 0.25)
@example(frame(1, s=(0.5, 0.5, 0.5), s_obj=(-1.0, 1.0, 1.0), masks=[MASKS[0]] * 3), None, 0.5)
def test_select_samurai_picks_the_written_key(o, kf_pred, alpha):
    chosen, s_kf = select_samurai(o, kf_pred, PolicyConfig(alpha=alpha, beta=0.0))
    best = samurai_choice_oracle(
        [p.s_mask for p in o.proposals], [p.s_obj for p in o.proposals],
        [motion_consistency(kf_pred, p) for p in o.proposals], alpha)
    if best is None:
        assert chosen is None and s_kf is None
        return
    want = o.proposals[best]
    assert chosen is want
    assert s_kf == motion_consistency(kf_pred, want)


@given(tied_frames(), PREDICTED, PREDICTED, st.sampled_from([-1.0, 0.3, 0.5, 2.0]))
@example(frame(1, s=(0.5, 0.5, 0.5), masks=[MASKS[0]] * 3), BBox(2, 2, 6, 6), None, 0.5)
@example(frame(1, s=(0.0, 0.0, 0.0), masks=[empty_mask(32, 32)] * 3, o=-1.0), None, None, 0.5)
def test_select_him_picks_the_written_key(o, coarse, fine, tau_conf):
    cfg = PolicyConfig(tau_conf=tau_conf)
    chosen, s_conf, used_fine = select_him(o, coarse, lambda: fine, cfg)
    best, conf, want_fine = him_choice_oracle(
        [motion_consistency(coarse, p) for p in o.proposals],
        [motion_consistency(fine, p) for p in o.proposals],
        [p.s_mask for p in o.proposals], cfg.alpha_him, cfg.beta, cfg.tau_conf)
    assert used_fine == want_fine
    if o.proposals[best].mask.is_empty and o.o <= 0.0:
        assert chosen is None and s_conf is None
    else:
        assert chosen is o.proposals[best] and s_conf == conf


# --- session basics ---------------------------------------------------------------


def test_frame_zero_is_the_prompt():
    session = TrackerSession(config(PolicyKind.DAM4SAM), INIT)
    res = session.step(frame(0))
    assert res.present and res.frame_idx == 0
    assert res.decision.admit
    assert res.chosen.mask == INIT
    assert session.bank.compose() == [session.bank.init]


@pytest.mark.parametrize("kw, message", [
    ({"policy": PolicyKind.SAMITE_DRM, "k_ram": 2.5}, "k_ram must be an integer, got 2.5"),
    ({"policy": PolicyKind.DAM4SAM, "k_ram": True}, "k_ram must be an integer, got True"),
    ({"policy": PolicyKind.DAM4SAM, "k_drm": 1.5}, "k_drm must be an integer, got 1.5"),
    ({"policy": "samite_drm"}, "policy must be a PolicyKind, got 'samite_drm'"),
    ({"policy": PolicyKind.SAM2_FIFO, "k_ram": 0}, "k_ram must be >= 1"),
    ({"policy": PolicyKind.DAM4SAM, "k_drm": -1}, "k_drm must be >= 0"),
], ids=["k_ram-float", "k_ram-bool", "k_drm-float", "policy-string", "k_ram-0", "k_drm-negative"])
def test_tracker_config_rejects_a_bad_field_naming_it(kw, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrackerConfig(**kw)


def test_step_rejects_out_of_order_frames():
    session = TrackerSession(config(PolicyKind.DAM4SAM), INIT)
    with pytest.raises(ValueError):
        session.step(frame(3))  # first must be frame 0
    session.step(frame(0))
    session.step(frame(1))
    with pytest.raises(ValueError):
        session.step(frame(1))


def test_fifo_bank_is_init_plus_last_k():
    record = scene_record()
    k = 4
    session = TrackerSession(config(PolicyKind.SAM2_FIFO, k_ram=k), record.init_mask)
    results = session.run(record.observations)
    frames = [e.frame_idx for e in session.bank.ram]
    assert frames == list(range(len(record.observations) - k, len(record.observations)))
    composed = session.bank.compose()
    assert composed[0] is session.bank.init
    assert len(composed) == 1 + k
    assert all(r.decision.admit for r in results[1:])


def test_fifo_always_admits():
    session = TrackerSession(config(PolicyKind.SAM2_FIFO), INIT)
    session.step(frame(0))
    results = [session.step(frame(1)),
               session.step(frame(2, masks=[empty_mask(32, 32)] * 3, o=-1.0))]
    assert not results[1].present
    assert all(r.decision.admit and not r.drm_admitted for r in results)
    assert [e.frame_idx for e in session.bank.ram] == [1, 2]


def test_absent_frames_mutate_ram_only_for_fifo():
    record = scene_record(seed=105, occlusions=((10, 40),), n_distractors=0)
    for policy in PolicyKind:
        session = TrackerSession(config(policy), record.init_mask)
        for o in record.observations:
            before = [e.frame_idx for e in session.bank.ram]
            res = session.step(o)
            after = [e.frame_idx for e in session.bank.ram]
            if not res.present and policy is not PolicyKind.SAM2_FIFO:
                assert o.frame_idx not in after, (policy, o.frame_idx)
            if res.frame_idx > 0 and policy is PolicyKind.SAM2_FIFO:
                assert res.decision.admit, o.frame_idx
                assert before != after or len(before) == session.cfg.k_ram


def test_samurai_ram_entries_passed_all_three_gates():
    record = scene_record(seed=307)
    cfg = config(PolicyKind.SAMURAI_DRM)
    session = TrackerSession(cfg, record.init_mask)
    results = session.run(record.observations)
    admitted = {r.frame_idx: r for r in results[1:] if r.decision.admit}
    for e in session.bank.ram:
        r = admitted[e.frame_idx]
        assert r.chosen.s_mask >= cfg.policy_cfg.tau_mask
        assert r.chosen.s_obj >= cfg.policy_cfg.tau_obj
        assert r.s_kf >= cfg.policy_cfg.tau_kf


def test_session_replay_is_byte_identical():
    record = scene_record(seed=309)
    for policy in PolicyKind:
        def log():
            session = TrackerSession(config(policy), record.init_mask)
            return "".join(frame_result_to_line(r) + "\n"
                           for r in session.run(record.observations))
        assert log() == log(), policy


# --- per-policy session behavior --------------------------------------------------------


def test_dam_session_respects_store_gap():
    record = scene_record(seed=310, occlusions=())
    cfg = config(PolicyKind.DAM4SAM)
    session = TrackerSession(cfg, record.init_mask)
    session.run(record.observations)
    frames = [e.frame_idx for e in session.bank.ram]
    assert all(b - a >= cfg.policy_cfg.delta_ram for a, b in zip(frames, frames[1:]))


def test_samite_session_holds_anchors():
    record = scene_record(seed=311, occlusions=())
    cfg = config(PolicyKind.SAMITE_DRM, k_ram=5)
    session = TrackerSession(cfg, record.init_mask)
    results = session.run(record.observations)
    frames = [e.frame_idx for e in session.bank.ram]
    assert len(frames) <= 5
    assert frames[0] == 0  # first-frame anchor duplicated into RAM
    last_stored = max(r.frame_idx for r in results if r.decision.admit)
    assert frames[-1] == last_stored  # previous-frame anchor
    protos = [e.fg_prototype for e in session.bank.ram]
    assert all(p is not None for p in protos)


def test_samite_calibrates_only_unscored_prototypes(monkeypatch):
    # every call scores at least one window prototype, and none is scored
    # twice against the same previous anchor
    record = scene_record(seed=311)
    calls = []

    def calibrate(window, anchor_prev, alpha):
        calls.append([(proto, anchor_prev) for _, proto, _ in window])
        return samite_calibrate(window, anchor_prev, alpha)

    monkeypatch.setattr(selection, "samite_calibrate", calibrate)
    TrackerSession(config(PolicyKind.SAMITE_DRM), record.init_mask).run(record.observations)
    assert calls and all(calls)
    scored = [(id(proto), id(anchor)) for call in calls for proto, anchor in call]
    assert len(scored) == len(set(scored))


def test_samite_gathers_labels_once_per_step_and_pools_once_per_key(monkeypatch):
    record = scene_record(seed=311)  # with an occlusion
    gathered, built = [], []

    def gather(f, m):
        gathered.append(m)
        return covered_labels(f, m)

    post_init = Prototype.__post_init__

    def build(proto):
        built.append(proto)
        post_init(proto)

    for module in (observation, selection):
        monkeypatch.setattr(module, "covered_labels", gather)
    monkeypatch.setattr(Prototype, "__post_init__", build)
    session = TrackerSession(config(PolicyKind.SAMITE_DRM), record.init_mask)
    for o in record.observations:
        before = len(gathered)
        session.step(o)
        assert len(gathered) - before <= 1, o.frame_idx
    # the first anchor's prototype, then one per interned key
    interned = session.policy.interned
    assert len(interned) > 1
    assert len(built) == 1 + len(interned)


def same_dims(a, b):
    if a.dim != b.dim:
        raise ValueError(f"prototype dims differ: {a.dim} vs {b.dim}")


class RecomputingSamite(SamitePolicy):
    """The prototype-calibrated RAM rule as first written: a prototype extracted
    for every stored frame, both anchor cosines recomputed for every window
    entry on every frame, and a first anchor without a prototype replaced by
    the zero vector. Its pool holds bare entries. Prototype dims are checked
    where the library's cosine first meets them: a new entry against a first
    anchor that has a prototype, then each window entry, in order, against
    the previous anchor."""

    def admit(self, obs, chosen, present):
        cfg = self.cfg.policy_cfg
        first = self.first
        proto = _prototype(obs, chosen.mask) if present else None
        if present and proto is not None:
            if first.fg_prototype is not None:
                same_dims(proto, first.fg_prototype)
            self.pool.append(MemoryEntry.from_proposal(
                obs.frame_idx, chosen, fg_prototype=proto))
            decision = RamPolicyDecision.admitted()
        else:
            decision = RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT)
        horizon = obs.frame_idx - cfg.window_m
        self.pool = [e for e in self.pool if e.frame_idx >= horizon]
        prev = self.pool[-1] if self.pool else None
        window = [e for e in self.pool
                  if e is not prev and e.frame_idx >= obs.frame_idx + 1 - cfg.window_m]
        scored = []
        if window:
            for e in window:
                same_dims(e.fg_prototype, prev.fg_prototype)
            zero = np.zeros(window[0].fg_prototype.dim)
            scored = samite_calibrate_recomputed(
                [(e.frame_idx, e.fg_prototype.vec) for e in window],
                first.fg_prototype.vec if first.fg_prototype is not None else zero,
                prev.fg_prototype.vec, cfg.alpha)
        by_frame = dict(scored)
        self.bank.replace_ram(samite_select_ram(
            [(e, by_frame[e.frame_idx]) for e in window], self.cfg.k_ram, first, prev))
        return decision


class RecomputingSamiteSession(TrackerSession):
    """A samite session whose policy is the recomputing reference above."""

    def __init__(self, cfg, init_mask):
        super().__init__(cfg, init_mask)
        self.policy = RecomputingSamite(self.bank, cfg)


# A non-empty mask on the 48x40 scenes below that covers no cell of their 4x4
# feature grids: its rows 7-12 lie between the sampled rows 5 and 15.
NO_CELL = rect_mask(48, 40, 10, 7, 12, 6)


def wider_features(o):
    """``o`` with one more feature dim: the palette's first column repeated."""
    f = o.features
    return dataclasses.replace(o, features=FeatureGrid.from_labels(
        np.hstack([f.palette, f.palette[:, :1]]), f.labels))


def step_outcome(session, o):
    """The step's result line and RAM frames, or the message of its ValueError."""
    try:
        line = frame_result_to_line(session.step(o))
    except ValueError as exc:
        return f"ValueError: {exc}"
    return line, [e.frame_idx for e in session.bank.ram]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    frames=st.integers(2, 40),
    n_distractors=st.integers(0, 2),
    similarity=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    occlusion=st.one_of(st.none(), st.tuples(st.integers(1, 20), st.integers(1, 12))),
    window_m=st.integers(3, 8),
    k_ram=st.integers(2, 6),
    alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    first_without_features=st.booleans(),
    edits=st.dictionaries(st.integers(1, 39), st.sampled_from(["no_features", "no_cell"]),
                          max_size=8),
    dim_change_at=st.one_of(st.none(), st.integers(1, 20)),
    via_jsonl=st.booleans(),
)
@example(seed=5, frames=30, n_distractors=1, similarity=0.5, occlusion=None, window_m=5,
         k_ram=4, alpha=0.25, first_without_features=False, edits={}, dim_change_at=12,
         via_jsonl=False)
@example(seed=5, frames=30, n_distractors=1, similarity=0.5, occlusion=None, window_m=5,
         k_ram=4, alpha=0.25, first_without_features=True, edits={}, dim_change_at=12,
         via_jsonl=True)
def test_samite_session_matches_recomputing_reference(
        seed, frames, n_distractors, similarity, occlusion, window_m, k_ram, alpha,
        first_without_features, edits, dim_change_at, via_jsonl):
    occlusions = ()
    if occlusion is not None and occlusion[0] < frames - 1:
        start = occlusion[0]
        occlusions = ((start, min(frames, start + occlusion[1])),)
    record = gen_sequence(SceneConfig(
        seed=seed, frames=frames, grid=(48, 40),
        target_motion=MotionSpec(size=(12.0, 10.0)), n_distractors=n_distractors,
        distractor_similarity=similarity, occlusions=occlusions, proto_dim=3))
    assert len(covered_labels(record.observations[0].features, NO_CELL)) == 0
    observations = list(record.observations)
    if first_without_features:
        # the first anchor then has no prototype: its term is cos(P, 0) = 0
        observations[0] = dataclasses.replace(observations[0], features=None)
    for i, o in enumerate(observations):
        if dim_change_at is not None and i >= dim_change_at and o.features is not None:
            o = wider_features(o)
        if edits.get(i) == "no_features":
            o = dataclasses.replace(o, features=None)
        elif edits.get(i) == "no_cell":
            o = dataclasses.replace(o, proposals=tuple(
                Proposal.from_mask(NO_CELL, p.s_mask, p.s_obj) for p in o.proposals))
        if via_jsonl:
            # each parsed line builds its own palette, in its own row order
            o = observation_from_line(observation_to_line(o))
        observations[i] = o
    cfg = config(PolicyKind.SAMITE_DRM, k_ram=k_ram,
                 policy_cfg=PolicyConfig(alpha=alpha, beta=0.0, window_m=window_m))
    session = TrackerSession(cfg, record.init_mask)
    reference = RecomputingSamiteSession(cfg, record.init_mask)
    for o in observations:
        got = step_outcome(session, o)
        assert got == step_outcome(reference, o)
        if isinstance(got, str):
            event("a prototype dim change raised")
            assert got.startswith("ValueError: prototype dims differ: ")
            break


class RebuildingSamiteSession(TrackerSession):
    """A samite session whose policy rebuilds its pool and window every frame."""

    def __init__(self, cfg, init_mask):
        super().__init__(cfg, init_mask)
        self.policy = RebuildingSamite(self.bank, cfg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    frames=st.integers(2, 60),
    n_distractors=st.integers(0, 2),
    absent=st.lists(st.tuples(st.integers(1, 59), st.integers(1, 25)), max_size=3),
    window_m=st.integers(3, 20),
    k_ram=st.integers(2, 8),
    alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_samite_trimmed_pool_matches_per_frame_rebuild(
        seed, frames, n_distractors, absent, window_m, k_ram, alpha):
    record = gen_sequence(SceneConfig(
        seed=seed, frames=frames, grid=(48, 40),
        target_motion=MotionSpec(size=(12.0, 10.0)), n_distractors=n_distractors,
        distractor_similarity=0.9, proto_dim=3))
    observations = record.observations
    for start, length in absent:  # target absent: o <= 0 and every mask empty
        observations = lose_target(observations, start, start + length)
    cfg = config(PolicyKind.SAMITE_DRM, k_ram=k_ram,
                 policy_cfg=PolicyConfig(alpha=alpha, beta=0.0, window_m=window_m))
    session = TrackerSession(cfg, record.init_mask)
    reference = RebuildingSamiteSession(cfg, record.init_mask)
    for o in observations:
        got, want = session.step(o), reference.step(o)
        assert got.decision == want.decision, o.frame_idx
        assert ([e.frame_idx for e in session.bank.ram]
                == [e.frame_idx for e in reference.bank.ram]), o.frame_idx


def test_sam2long_session_composes_shared_drm_with_best_ram():
    record = scene_record(seed=312)
    cfg = config(PolicyKind.SAM2LONG_DRM, k_drm=2)
    session = TrackerSession(cfg, record.init_mask)
    results = session.run(record.observations)
    entries = session.bank.compose()
    assert entries == [session.bank.init, *session.bank.drm, *session.bank.ram]
    drm_frames = [e.frame_idx for e in session.bank.drm]
    admitted = [r.frame_idx for r in results if r.drm_admitted]
    assert drm_frames == admitted[-cfg.k_drm:]
    # the RAM view is the best pathway's; pathway banks never hold DRM entries
    pathways = session.policy.pathways
    assert session.bank.ram == pathways[0].bank.ram
    assert tuple(entries[1 + len(session.bank.drm):]) == session.bank.ram
    for p in pathways:
        assert p.bank.drm == ()


def test_sam2long_gates_each_survivor_once_per_frame():
    """The admission gate runs once per surviving pathway, and the session's
    decision is the best survivor's, not a second call on the same choice."""
    record = scene_record(seed=312)
    cfg = config(PolicyKind.SAM2LONG_DRM)
    session = TrackerSession(cfg, record.init_mask)
    gate = sam2long_admit.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is gate

    for o in record.observations:
        calls = 0
        sys.setprofile(count)
        try:
            res = session.step(o)
        finally:
            sys.setprofile(None)
        best = session.policy.pathways[0]
        survivors = len(session.policy.pathways) if o.frame_idx else 0
        assert calls == survivors, o.frame_idx
        if o.frame_idx:
            chosen = o.proposals[best.trajectory[-1][1]]
            assert res.decision == sam2long_admit(o, chosen, cfg.policy_cfg), o.frame_idx


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_session_bank_holds_every_policys_conditioning_set(policy):
    record = scene_record(seed=312)  # distractors: every DRM policy admits several anchors
    cfg = config(policy, k_drm=2)
    session = TrackerSession(cfg, record.init_mask)
    bank = session.bank
    drm_admitted, ram_seen = [], 0
    for o in record.observations:
        if session.step(o).drm_admitted:
            drm_admitted.append(o.frame_idx)
        ram = (session.policy.pathways[0].bank.ram if policy is PolicyKind.SAM2LONG_DRM
               else bank.ram)
        assert bank.ram == ram, o.frame_idx
        assert bank.compose() == [bank.init, *bank.drm, *ram], o.frame_idx
        assert [e.frame_idx for e in bank.drm] == drm_admitted[-cfg.k_drm:]
        ram_seen += len(ram)
    assert ram_seen > 0
    assert (len(drm_admitted) > 0) == (policy is not PolicyKind.SAM2_FIFO)


def test_him_session_tracks_accepted_boxes():
    record = scene_record(seed=313, occlusions=())
    cfg = config(PolicyKind.HIM2SAM_DRM)
    session = TrackerSession(cfg, record.init_mask)
    results = session.run(record.observations)
    assert any(r.used_fine for r in results[1:]) or \
        all(r.s_conf is None or r.s_conf >= cfg.policy_cfg.tau_conf
            for r in results[1:] if r.present)
    for e in session.bank.ram:
        r = next(x for x in results if x.frame_idx == e.frame_idx)
        assert r.decision.admit and r.s_conf >= cfg.policy_cfg.tau_mem


# --- motion policies against the matrix-form filter -------------------------------


class MatrixMotion:
    """Mixin for a motion policy: the filter held as (mean, cov) arrays and stepped
    with the 8x8 matrix form in ``reference.py``; ``reseeds`` counts re-seeds."""

    reseeds = 0

    def __init__(self, bank, cfg):
        super().__init__(bank, cfg)
        self.kf = self.seed(bank.init.bbox)

    def seed(self, box):
        return (np.array([*box.center, box.w, box.h, 0.0, 0.0, 0.0, 0.0]),
                self.cfg.motion_cfg.initial_cov_scale * np.eye(8))

    def predict(self):
        self.kf = matrix_kf_predict(*self.kf, self.cfg.motion_cfg.process_noise)
        return BBox(*matrix_kf_box(self.kf[0]))

    def observe(self, chosen):
        box = None if chosen is None else chosen.bbox
        if box is None or box.area == 0.0:
            self.absent_streak += 1
            return
        if self.absent_streak >= self.cfg.motion_cfg.n_lost:
            self.kf = self.seed(box)
            self.reseeds += 1
        else:
            self.kf = matrix_kf_update(*self.kf, (*box.center, box.w, box.h),
                                       self.cfg.motion_cfg.measurement_noise)
        self.absent_streak = 0


MATRIX_POLICIES = {
    PolicyKind.SAMURAI_DRM: type("MatrixSamurai", (MatrixMotion, SamuraiPolicy), {}),
    PolicyKind.HIM2SAM_DRM: type("MatrixHim", (MatrixMotion, HimPolicy), {}),
}


class MatrixMotionSession(TrackerSession):
    """A samurai or him session whose filter is the matrix-form reference above."""

    def __init__(self, cfg, init_mask):
        super().__init__(cfg, init_mask)
        self.policy = MATRIX_POLICIES[cfg.policy](self.bank, cfg)


def lose_target(observations, start, stop):
    """``observations`` with frames [start, stop) blanked: three empty masks, every
    object and presence score negative, so a motion policy loses the target."""
    def lost(o):
        empty = BitMask(o.proposals[0].mask.width, o.proposals[0].mask.height, ())
        return dataclasses.replace(o, proposals=(Proposal.from_mask(empty, 0.0, -1.0),) * 3,
                                   o=-1.0)
    return [lost(o) if start <= o.frame_idx < stop else o for o in observations]


def matrix_session_reseeds(init_mask, observations, cfg) -> int:
    """Step a session and its matrix-form reference in lockstep, requiring the same
    result lines and filter bits; returns how often the reference re-seeded."""
    session = TrackerSession(cfg, init_mask)
    reference = MatrixMotionSession(cfg, init_mask)
    for o in observations:
        assert frame_result_to_line(session.step(o)) == frame_result_to_line(reference.step(o))
        mean, cov = reference.policy.kf
        assert session.policy.kf.mean.tobytes() == mean.tobytes()
        assert session.policy.kf.cov.tobytes() == cov.tobytes()
    return reference.policy.reseeds


motion_policies = st.sampled_from([PolicyKind.SAMURAI_DRM, PolicyKind.HIM2SAM_DRM])
noise = st.floats(1e-6, 50.0)
window = st.one_of(st.none(), st.tuples(st.integers(1, 30), st.integers(1, 15)))


@settings(max_examples=60, deadline=None)
@given(policy=motion_policies, seed=st.integers(0, 2**16), frames=st.integers(2, 50),
       n_distractors=st.integers(0, 2), occlusion=window,
       lost=st.tuples(st.integers(0, 48), st.integers(0, 15)),
       q=noise, r=noise, scale=noise, n_lost=st.integers(1, 8))
def test_motion_session_matches_matrix_form_reference(policy, seed, frames, n_distractors,
                                                      occlusion, lost, q, r, scale, n_lost):
    occlusions = ()
    if occlusion is not None and occlusion[0] < frames - 1:
        occlusions = ((occlusion[0], min(frames, occlusion[0] + occlusion[1])),)
    record = gen_sequence(SceneConfig(
        seed=seed, frames=frames, grid=(48, 40), target_motion=MotionSpec(size=(12.0, 10.0)),
        n_distractors=n_distractors, distractor_similarity=0.8, occlusions=occlusions,
        proto_dim=3))
    start = 1 + lost[0] % (frames - 1)  # a stretch of lost frames, maybe empty
    observations = lose_target(record.observations, start, start + lost[1])
    motion_cfg = MotionConfig(process_noise=q, measurement_noise=r, initial_cov_scale=scale,
                              n_lost=n_lost)
    reseeds = matrix_session_reseeds(record.init_mask, observations,
                                     config(policy, motion_cfg=motion_cfg))
    event("re-seeded" if reseeds else "no re-seed")


@pytest.mark.parametrize("policy", [PolicyKind.SAMURAI_DRM, PolicyKind.HIM2SAM_DRM])
def test_motion_session_reseeds_like_matrix_form_reference(policy):
    record = scene_record(seed=314, frames=80)
    # the target lost for longer than n_lost twice, so the filter is re-seeded twice
    observations = lose_target(lose_target(record.observations, 35, 45), 60, 66)
    motion_cfg = MotionConfig(process_noise=0.5, measurement_noise=2.0, initial_cov_scale=3.0,
                              n_lost=4)
    cfg = config(policy, motion_cfg=motion_cfg)
    assert matrix_session_reseeds(record.init_mask, observations, cfg) == 2
    assert matrix_session_reseeds(record.init_mask, record.observations, config(policy)) == 0


def test_frame_result_line_is_stable():
    res = FrameResult(frame_idx=3, chosen=Proposal.from_mask(MASKS[0], 0.5, 1.0),
                      present=True, decision=RamPolicyDecision.admitted(),
                      drm_admitted=False, s_kf=0.25)
    line = frame_result_to_line(res)
    assert '"frame":3' in line and '"s_kf":0.25' in line
    assert frame_result_to_line(res) == line


def test_frame_result_is_an_immutable_record_with_the_golden_line():
    assert FrameResult._fields == ("frame_idx", "chosen", "present", "decision",
                                   "drm_admitted", "s_kf", "s_conf", "used_fine")
    assert FrameResult._field_defaults == {"s_kf": None, "s_conf": None, "used_fine": False}
    chosen = Proposal.from_mask(MASKS[0], 0.5, 1.0)
    res = FrameResult(3, chosen, True, RamPolicyDecision.admitted(), False, 0.25)
    assert res == FrameResult(frame_idx=3, chosen=chosen, present=True,
                              decision=RamPolicyDecision.admitted(), drm_admitted=False,
                              s_kf=0.25)
    for name in FrameResult._fields:
        with pytest.raises(AttributeError):
            setattr(res, name, None)
    assert frame_result_to_line(res) == (
        '{"frame":3,"present":true,"bbox":[2.0,2.0,6.0,6.0],'
        '"mask_sha1":"d8f2a667d29d157ed224a490ea313da70adaa45e","s_mask":0.5,"s_obj":1.0,'
        '"s_kf":0.25,"s_conf":null,"used_fine":false,"admit":true,"reason":"admitted",'
        '"drm":false}')
    absent = FrameResult(7, None, False, RamPolicyDecision.rejected(AdmissionReason.TARGET_ABSENT),
                         False, None, 0.125, True)
    assert frame_result_to_line(absent) == (
        '{"frame":7,"present":false,"bbox":null,"mask_sha1":null,"s_mask":null,"s_obj":null,'
        '"s_kf":null,"s_conf":0.125,"used_fine":true,"admit":false,"reason":"target_absent",'
        '"drm":false}')
