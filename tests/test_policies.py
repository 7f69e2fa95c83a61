from fractions import Fraction

import mpmath
import numpy as np
import pytest

from trackmem.geometry import BBox
from trackmem.membank import NEVER, MemoryEntry
from trackmem.observation import Proposal, Prototype
from trackmem.policies import (
    AdmissionReason,
    PolicyConfig,
    RamPolicyDecision,
    dam_admit,
    him_admit,
    him_confidence,
    him_stage1,
    him_stage2,
    motion_consistency,
    sam2long_admit,
    samite_anchor_first,
    samite_calibrate,
    samite_select_ram,
    samurai_admit,
    samurai_score,
)

from conftest import empty_mask, obs, prop, rect_mask
from oracles import topk_window_oracle

CFG = PolicyConfig()
MASK = rect_mask(16, 16, 2, 2, 5, 5)


def frame(frame_idx=1, o=1.0, s=(0.9, 0.5, 0.2), masks=None):
    masks = masks or [MASK, MASK, MASK]
    return obs(frame_idx, [prop(m, v) for m, v in zip(masks, s)], o=o)


# --- decision contract --------------------------------------------------------


def test_decisions_are_shared_per_reason():
    assert RamPolicyDecision.admitted() is RamPolicyDecision.admitted()
    assert RamPolicyDecision.admitted() == RamPolicyDecision(AdmissionReason.ADMITTED)
    assert RamPolicyDecision.admitted().admit is True
    for reason in AdmissionReason:
        if reason is AdmissionReason.ADMITTED:
            continue
        decision = RamPolicyDecision.rejected(reason)
        assert decision is RamPolicyDecision.rejected(reason)
        assert decision == RamPolicyDecision(reason)
        assert decision.admit is False
    with pytest.raises(ValueError):
        RamPolicyDecision.rejected(AdmissionReason.ADMITTED)


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(alpha=0.8, beta=0.4)
    with pytest.raises(ValueError):
        PolicyConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(window_m=2)
    with pytest.raises(ValueError):
        PolicyConfig(beam_width=0)


# --- gated-sparse ----------------------------------------------------------------


def test_dam_gate_order_and_reasons():
    o = frame(frame_idx=9, o=1.0)
    assert dam_admit(o, o.proposals[0], last_ram_frame=5, cfg=CFG).reason \
        is AdmissionReason.GAP_NOT_ELAPSED  # gap 4 < delta_ram 5
    assert dam_admit(o, o.proposals[0], last_ram_frame=4, cfg=CFG).admit
    o_absent = frame(frame_idx=9, o=-0.5)
    assert dam_admit(o_absent, o_absent.proposals[0], 0, CFG).reason \
        is AdmissionReason.TARGET_ABSENT
    o_empty = frame(frame_idx=9, masks=[empty_mask(16, 16)] * 3)
    assert dam_admit(o_empty, o_empty.proposals[0], 0, CFG).reason \
        is AdmissionReason.TARGET_ABSENT
    # sentinel start: the very first opportunity passes the gap gate
    assert dam_admit(frame(frame_idx=1), frame().proposals[0], NEVER, CFG).admit


def test_dam_trace_matches_predicate_replay(rng):
    cfg = PolicyConfig(delta_ram=4)
    last = NEVER
    for f in range(1, 200):
        o = frame(frame_idx=f, o=float(rng.uniform(-0.5, 1.0)),
                  masks=[MASK if rng.random() < 0.8 else empty_mask(16, 16)] * 3)
        got = dam_admit(o, o.proposals[0], last, cfg)
        want = (not o.proposals[0].mask.is_empty) and o.o > 0 and f - last >= 4
        assert got.admit == want
        if got.admit:
            last = f


# --- motion-gated ---------------------------------------------------------------


def test_samurai_score_alpha_extremes():
    p = Proposal(mask=MASK, s_mask=0.7, s_obj=1.0, bbox=BBox(1, 1, 2, 2))
    assert samurai_score(BBox(0, 0, 2, 2), p, alpha=0.0) == 0.7
    assert samurai_score(BBox(1, 1, 2, 2), p, alpha=1.0) == 1.0


def test_samurai_score_exact_value():
    # alpha 1/4, s_kf = 1/7 (boxes (0,0,2,2) vs (1,1,2,2)), s_mask = 4/5
    p = Proposal(mask=MASK, s_mask=0.8, s_obj=1.0, bbox=BBox(1, 1, 2, 2))
    got = samurai_score(BBox(0, 0, 2, 2), p, alpha=0.25)
    want = Fraction(1, 4) * Fraction(1, 7) + Fraction(3, 4) * Fraction(4, 5)
    assert abs(got - float(want)) < 1e-12  # 89/140 = 0.6357142857...


def test_samurai_score_absent_bbox_means_zero_motion():
    p = Proposal(mask=empty_mask(16, 16), s_mask=0.6, s_obj=1.0, bbox=None)
    assert motion_consistency(BBox(0, 0, 2, 2), p) == 0.0
    assert samurai_score(BBox(0, 0, 2, 2), p, alpha=0.5) == 0.3
    assert motion_consistency(None, prop(MASK, 0.5)) == 0.0


def test_samurai_admit_reason_order():
    cfg = PolicyConfig(tau_mask=0.5, tau_obj=0.0, tau_kf=0.3)
    good = prop(MASK, 0.9, s_obj=1.0)
    assert samurai_admit(good, s_kf=1.0, cfg=cfg).admit
    assert samurai_admit(prop(MASK, 0.4, 1.0), 1.0, cfg).reason \
        is AdmissionReason.BELOW_MASK_THR
    assert samurai_admit(prop(MASK, 0.9, -0.1), 1.0, cfg).reason \
        is AdmissionReason.BELOW_OBJ_THR
    assert samurai_admit(good, 0.2, cfg).reason is AdmissionReason.BELOW_KF_THR
    # mask gate reported first even when several fail
    assert samurai_admit(prop(MASK, 0.1, -1.0), 0.0, cfg).reason \
        is AdmissionReason.BELOW_MASK_THR


def test_samurai_admit_matches_three_predicate_oracle(rng):
    cfg = PolicyConfig(tau_mask=0.55, tau_obj=0.1, tau_kf=0.35)
    for _ in range(500):
        s_mask = float(rng.uniform(0, 1))
        s_obj = float(rng.uniform(-1, 1))
        s_kf = float(rng.uniform(0, 1))
        got = samurai_admit(prop(MASK, s_mask, s_obj), s_kf, cfg)
        assert got.admit == (s_mask >= 0.55 and s_obj >= 0.1 and s_kf >= 0.35)


# --- best-pathway gate -------------------------------------------------------------


def test_sam2long_admit_gates():
    assert sam2long_admit(frame(o=1.0, s=(0.9, 0.1, 0.1)),
                          frame(s=(0.9, 0.1, 0.1)).proposals[0], CFG).admit
    assert sam2long_admit(frame(o=-1.0), frame().proposals[0], CFG).reason \
        is AdmissionReason.TARGET_ABSENT
    assert sam2long_admit(frame(s=(0.4, 0.1, 0.1)),
                          frame(s=(0.4, 0.1, 0.1)).proposals[0], CFG).reason \
        is AdmissionReason.BELOW_IOU_THR


# --- prototype calibration ------------------------------------------------------------


def test_calibrate_equal_prototypes_score_one():
    p = Prototype([1.0, 2.0, 3.0])
    scores = samite_calibrate([(3, p, samite_anchor_first(p, p)),
                               (4, p, samite_anchor_first(p, p))], p, alpha=0.3)
    assert scores == [(3, 1.0), (4, 1.0)]


def test_calibrate_alpha_zero_ranks_by_first_anchor():
    first = Prototype([1.0, 0.0])
    prev = Prototype([0.0, 1.0])
    close_to_first = Prototype([0.9, 0.1])
    close_to_prev = Prototype([0.1, 0.9])
    scores = dict(samite_calibrate(
        [(3, close_to_first, samite_anchor_first(close_to_first, first)),
         (4, close_to_prev, samite_anchor_first(close_to_prev, first))], prev, alpha=0.0))
    assert scores[3] > scores[4]


def test_calibrate_matches_high_precision_oracle(rng):
    mpmath.mp.dps = 50
    for _ in range(50):
        dim = 6
        window = [(i, Prototype(rng.normal(size=dim))) for i in range(2, 8)]
        first = Prototype(rng.normal(size=dim))
        prev = Prototype(rng.normal(size=dim))
        alpha = float(rng.uniform(0, 1))
        got = samite_calibrate(
            [(f, proto, samite_anchor_first(proto, first)) for f, proto in window],
            prev, alpha)

        def mp_cos(a, b):
            a = [mpmath.mpf(float(v)) for v in a]
            b = [mpmath.mpf(float(v)) for v in b]
            dot = mpmath.fsum(x * y for x, y in zip(a, b))
            na = mpmath.sqrt(mpmath.fsum(x * x for x in a))
            nb = mpmath.sqrt(mpmath.fsum(x * x for x in b))
            return dot / (na * nb)

        for (f, proto), (fg, sg) in zip(window, got):
            want = (1 - mpmath.mpf(alpha)) * mp_cos(proto.vec, first.vec) \
                + mpmath.mpf(alpha) * mp_cos(proto.vec, prev.vec)
            assert fg == f
            assert abs(sg - float(want)) < 1e-12


def test_anchor_first_without_prototype_is_zero():
    p = Prototype([1.0, 2.0, 3.0])
    assert samite_anchor_first(p, None) == 0.0
    assert samite_anchor_first(p, None) == samite_anchor_first(p, Prototype([0.0] * 3))


def make_entry(f, proto=None):
    return MemoryEntry(frame_idx=f, mask=MASK, s_mask=0.9, fg_prototype=proto)


def test_select_ram_takes_all_when_window_small():
    first, prev = make_entry(0), make_entry(9)
    ram = samite_select_ram([(make_entry(3), 0.5), (make_entry(5), 0.4)],
                            k_ram=6, first_entry=first, prev_entry=prev)
    assert [e.frame_idx for e in ram] == [0, 3, 5, 9]


def test_select_ram_tie_prefers_recent():
    first, prev = make_entry(0), make_entry(9)
    ram = samite_select_ram([(make_entry(3), 0.5), (make_entry(7), 0.5)],
                            k_ram=3, first_entry=first, prev_entry=prev)
    assert [e.frame_idx for e in ram] == [0, 7, 9]


def test_select_ram_requires_two_slots():
    with pytest.raises(ValueError):
        samite_select_ram([], k_ram=1, first_entry=make_entry(0), prev_entry=None)


def test_select_ram_contains_anchors_and_respects_capacity(rng):
    for _ in range(100):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(0, 12))
        window = [(make_entry(int(f)), float(rng.choice([0.2, 0.5, 0.5, 0.8])))
                  for f in sorted(rng.choice(np.arange(2, 40), size=n, replace=False))]
        first, prev = make_entry(0), make_entry(41)
        ram = samite_select_ram(window, k, first, prev)
        frames = [e.frame_idx for e in ram]
        assert len(ram) <= k
        assert frames == sorted(frames)
        assert 0 in frames and 41 in frames
        # selection identity matches the full-sort oracle
        want = topk_window_oracle([(e.frame_idx, s) for e, s in window], k - 2)
        assert [f for f in frames if f not in (0, 41)] == want


# --- two-stage confidence -------------------------------------------------------------


def test_him_alpha_one_is_pure_coarse():
    cfg = PolicyConfig(alpha_him=1.0, beta=0.0)
    confs, used_fine = him_confidence([0.3, 0.6, 0.1], lambda: [0.9, 0.9, 0.9],
                                      [0.5, 0.5, 0.5], cfg)
    assert confs == [0.3, 0.6, 0.1]
    confs2, _ = him_confidence([0.3, 0.6, 0.1], lambda: [0.0, 0.0, 0.0], [0.5, 0.5, 0.5],
                               PolicyConfig(alpha_him=1.0, beta=0.0, tau_conf=0.99))
    assert confs2 == confs  # fine stage cannot change pure-coarse values


def test_him_stage1_used_verbatim_above_threshold():
    cfg = PolicyConfig(alpha_him=0.4, beta=0.3, tau_conf=0.5)
    s_coarse, s_iou = [0.9, 0.2, 0.1], [0.8, 0.3, 0.2]
    confs, used_fine = him_confidence(s_coarse, lambda: pytest.fail("fine stage evaluated"),
                                      s_iou, cfg)
    assert not used_fine
    assert confs == [him_stage1(c, i, cfg) for c, i in zip(s_coarse, s_iou)]


def test_him_refined_exact_value():
    # 0.4*0.5 + 0.3*0.9 + 0.3*0.6 = 0.65, from the arbitrary-precision oracle
    cfg = PolicyConfig(alpha_him=0.4, beta=0.3, tau_conf=0.99)
    confs, used_fine = him_confidence([0.5] * 3, lambda: [0.9] * 3, [0.6] * 3, cfg)
    assert used_fine
    want = Fraction(2, 5) * Fraction(1, 2) + Fraction(3, 10) * Fraction(9, 10) \
        + Fraction(3, 10) * Fraction(3, 5)
    assert want == Fraction(65, 100)
    assert all(abs(c - float(want)) < 1e-12 for c in confs)


def test_him_monotone_in_each_argument(rng):
    cfg = PolicyConfig(alpha_him=0.4, beta=0.3)
    for _ in range(200):
        c, f, i = (float(v) for v in rng.random(3))
        bump = float(rng.uniform(0, 1.0 - max(c, f, i)))
        assert him_stage1(c + bump, i, cfg) >= him_stage1(c, i, cfg)
        assert him_stage1(c, i + bump, cfg) >= him_stage1(c, i, cfg)
        assert him_stage2(c + bump, f, i, cfg) >= him_stage2(c, f, i, cfg)
        assert him_stage2(c, f + bump, i, cfg) >= him_stage2(c, f, i, cfg)
        assert him_stage2(c, f, i + bump, cfg) >= him_stage2(c, f, i, cfg)


def test_him_admit_examples():
    cfg = PolicyConfig(tau_mem=0.6)
    assert him_admit(prop(empty_mask(16, 16), 0.9), 0.9, cfg).reason \
        is AdmissionReason.TARGET_ABSENT
    assert him_admit(prop(MASK, 0.9), 0.6, cfg).admit  # threshold is inclusive
    assert him_admit(prop(MASK, 0.9), 0.59, cfg).reason \
        is AdmissionReason.BELOW_CONF_THR


def test_him_trace_matches_predicate_replay(rng):
    cfg = PolicyConfig(tau_mem=0.55)
    for _ in range(300):
        s_conf = float(rng.uniform(0, 1))
        use_empty = rng.random() < 0.3
        p = prop(empty_mask(16, 16) if use_empty else MASK, 0.9)
        got = him_admit(p, s_conf, cfg)
        assert got.admit == ((not use_empty) and s_conf >= 0.55)
