import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trackmem.geometry import BBox, box_iou
from trackmem.metrics import NORM_PRECISION_THRESHOLDS, evaluate, success_curve

from reference import per_frame_evaluate, per_frame_precision, per_frame_success_curve


def boxes(n, rng, lo=0.0, hi=50.0):
    return [BBox(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)),
                 float(rng.uniform(5, 20)), float(rng.uniform(5, 20)))
            for _ in range(n)]


B = BBox(10, 10, 8, 6)
IOU_06_A, IOU_06_B = BBox(0, 0, 4, 1), BBox(1, 0, 4, 1)  # inter 3, union 5
IOU_08_A, IOU_08_B = BBox(0, 0, 9, 1), BBox(1, 0, 9, 1)  # inter 8, union 10
IOU_05_A, IOU_05_B = BBox(0, 0, 3, 1), BBox(1, 0, 3, 1)  # inter 2, union 4
APART = BBox(40, 40, 8, 6)  # no overlap with B


def scored(pred, gt):
    """``evaluate``'s columns, each given prediction flagged present (the flags
    reach only the quality, accuracy and robustness columns)."""
    return evaluate(pred, [p is not None for p in pred], gt)


def test_exact_iou_constructions():
    assert box_iou(IOU_06_A, IOU_06_B) == 0.6
    assert box_iou(IOU_08_A, IOU_08_B) == 0.8
    assert box_iou(IOU_05_A, IOU_05_B) == 0.5
    assert box_iou(APART, B) == 0.0


# --- success -----------------------------------------------------------------


def test_success_perfect_and_absent():
    gt = [B] * 10
    assert scored(gt, gt).success_auc == 1.0
    assert scored([None] * 10, gt).success_auc == 0.0


def test_success_half_perfect_half_disjoint_hand_enumeration():
    gt = [B] * 10
    pred = [B] * 5 + [BBox(100, 100, 8, 6)] * 5
    got = scored(pred, gt).success_auc
    # hand enumeration over the 21-point grid: IoU >= theta, strict at 0
    ious = [1.0] * 5 + [0.0] * 5
    rates = [sum(1 for v in ious if v > 0.0) / len(ious)]
    for theta in [0.05 * k for k in range(1, 21)]:
        rates.append(sum(1 for v in ious if v >= theta) / len(ious))
    assert rates == [0.5] * 21
    want = sum(rates) / len(rates)
    assert got == pytest.approx(want, abs=1e-15)
    assert abs(got - 0.5) < 1e-12


def test_success_excludes_invisible_frames():
    gt = [B, None, B, None]
    pred = [B, None, None, B]
    # visible frames: ious (1.0, 0.0); invisible ones never counted
    curve = success_curve(pred, gt)
    assert curve[0] == 0.5
    assert scored(pred, gt).success_auc == scored([B, None], [B, B]).success_auc


def test_success_length_mismatch():
    with pytest.raises(ValueError, match="^pred holds 1 frames but gt holds 2$"):
        evaluate([B], [True, True], [B, B])
    with pytest.raises(ValueError, match="^pred holds 1 frames but gt holds 2$"):
        success_curve([B], [B, B])


# --- precision -----------------------------------------------------------------


def test_precision_perfect():
    gt = [B] * 8
    out = scored(gt, gt)
    assert (out.precision_at_20, out.norm_precision_auc) == (1.0, 1.0)


def test_precision_offset_21px_fails():
    gt = [B] * 8
    pred = [BBox(B.x + 21, B.y, B.w, B.h)] * 8
    assert scored(pred, gt).precision_at_20 == 0.0
    pred19 = [BBox(B.x + 19, B.y, B.w, B.h)] * 8
    assert scored(pred19, gt).precision_at_20 == 1.0


def test_precision_matches_per_frame_oracle(rng):
    gt = boxes(50, rng)
    pred = [b if rng.random() < 0.8 else None for b in boxes(50, rng)]
    out = scored(pred, gt)
    p20, np_auc = out.precision_at_20, out.norm_precision_auc
    errs = []
    nerrs = []
    for p, g in zip(pred, gt):
        if p is None:
            errs.append(float("inf"))
            nerrs.append(float("inf"))
        else:
            dx = (p.x + p.w / 2) - (g.x + g.w / 2)
            dy = (p.y + p.h / 2) - (g.y + g.h / 2)
            e = (dx * dx + dy * dy) ** 0.5
            errs.append(e)
            nerrs.append(e / (g.w ** 2 + g.h ** 2) ** 0.5)
    assert p20 == sum(1 for e in errs if e <= 20) / len(errs)
    want_auc = np.mean([
        sum(1 for e in nerrs if e <= t) / len(nerrs)
        for t in NORM_PRECISION_THRESHOLDS
    ])
    assert np_auc == pytest.approx(want_auc, abs=1e-12)


# --- AO / SR -----------------------------------------------------------------------


def test_ao_sr_perfect():
    gt = [B] * 6
    out = scored(gt, gt)
    assert (out.ao, out.sr50, out.sr75) == (1.0, 1.0, 1.0)


def test_ao_sr_constant_point_six():
    gt = [IOU_06_A] * 6
    pred = [IOU_06_B] * 6
    out = scored(pred, gt)
    assert out.ao == pytest.approx(0.6, abs=1e-12)
    assert (out.sr50, out.sr75) == (1.0, 0.0)


def test_ao_sr_matches_naive_oracle(rng):
    gt = [b if rng.random() < 0.85 else None for b in boxes(60, rng)]
    pred = [b if rng.random() < 0.8 else None for b in boxes(60, rng)]
    out = scored(pred, gt)
    ious = [box_iou(p, g) if p is not None else 0.0
            for p, g in zip(pred, gt) if g is not None]
    assert out.ao == pytest.approx(np.mean(ious), abs=1e-12)
    assert out.sr50 == sum(1 for v in ious if v > 0.5) / len(ious)
    assert out.sr75 == sum(1 for v in ious if v > 0.75) / len(ious)
    assert out.sr75 <= out.sr50


# --- VOT surrogates ---------------------------------------------------------------------


def qar(out):
    return out.q, out.acc, out.rob


def test_vot_perfect_with_absence_prediction():
    # visible frames tracked perfectly, invisible frames predicted absent
    gt = [B, B, None, B]
    assert qar(evaluate(gt, [True, True, False, True], gt)) == (1.0, 1.0, 1.0)


def test_vot_never_absent_tracker():
    out = evaluate([IOU_05_A] * 5, [True] * 5, [IOU_05_B] * 5)
    assert qar(out) == (0.5, 0.5, 1.0)


def test_vot_mixed_trace_hand_enumerated():
    pred = [IOU_05_A, APART, None, B, None]
    gt = [IOU_05_B, B, B, None, None]  # IoU 0.5, 0.0, 0.0 on the visible frames
    q, acc, rob = qar(evaluate(pred, [p is not None for p in pred], gt))
    # acc: frames 0,1 visible+present -> mean(0.5, 0.0) = 0.25
    # rob: visible frames 0,1,2 with iou>0 -> 1/3
    # q: visible -> iou (0.5, 0.0, 0.0); invisible -> present? 0 : 1 -> (0, 1)
    assert acc == 0.25
    assert rob == 1 / 3
    assert q == (0.5 + 0.0 + 0.0 + 0.0 + 1.0) / 5


# --- cross-metric properties -------------------------------------------------------------


def test_all_absent_gives_zero_everywhere():
    gt = [B] * 10
    out = evaluate([None] * 10, [False] * 10, gt)
    assert out.success_auc == 0.0
    assert out.precision_at_20 == 0.0
    assert out.ao == out.sr50 == out.sr75 == 0.0
    assert out.acc == 0.0 and out.rob == 0.0


def test_success_auc_close_to_ao(rng):
    for _ in range(20):
        gt = boxes(80, rng)
        pred = [BBox(b.x + float(rng.normal(0, 4)), b.y + float(rng.normal(0, 4)),
                     b.w, b.h) for b in gt]
        out = scored(pred, gt)
        assert abs(out.success_auc - out.ao) <= 0.05 + 1e-12


def test_shuffling_breaks_pairing(rng):
    gt = boxes(40, rng)
    pred = [BBox(b.x + 1.0, b.y, b.w, b.h) for b in gt]
    base = scored(pred, gt).success_auc
    perm = rng.permutation(40)
    shuffled = [pred[i] for i in perm]
    assert scored(shuffled, gt).success_auc != base


def test_outcome_fields_bounded(rng):
    gt = [b if rng.random() < 0.8 else None for b in boxes(50, rng)]
    pred = [b if rng.random() < 0.7 else None for b in boxes(50, rng)]
    present = [p is not None for p in pred]
    out = evaluate(pred, present, gt)
    for field in ("success_auc", "precision_at_20", "norm_precision_auc",
                  "ao", "sr50", "sr75", "q", "acc", "rob"):
        assert 0.0 <= getattr(out, field) <= 1.0
    assert out.sr75 <= out.sr50


def test_evaluate_equals_the_separate_metrics_bit_for_bit(rng):
    # one IoU pass inside evaluate; each column must still equal the metric
    # computed on its own (the success curve's mean, AO and success rates over
    # per-frame box_iou calls, the per-frame precision loop, the per-frame
    # quality, accuracy and robustness terms), including occluded and absent frames
    for n in (0, 1, 7, 60):
        gt = [b if rng.random() < 0.75 else None for b in boxes(n, rng)]
        pred = [BBox(b.x + float(rng.normal(0, 3)), b.y, b.w, b.h)
                if rng.random() < 0.8 else None for b in boxes(n, rng, 10.0, 30.0)]
        present = [p is not None for p in pred]
        visible = [g is not None for g in gt]
        out = evaluate(pred, present, gt)
        pred_iou = [box_iou(p, g) if p is not None and g is not None else 0.0
                    for p, g in zip(pred, gt)]
        ious = np.array([v for v, g in zip(pred_iou, gt) if g is not None])
        ao, sr50, sr75 = ((float(ious.mean()), float((ious > 0.5).mean()),
                           float((ious > 0.75).mean())) if ious.size else (0.0, 0.0, 0.0))
        q, acc, rob = qar(per_frame_evaluate(pred, present, gt, visible))
        assert (out.success_auc, out.ao, out.sr50, out.sr75) == \
            (float(success_curve(pred, gt).mean()), ao, sr50, sr75)
        assert (out.precision_at_20, out.norm_precision_auc, out.q, out.acc, out.rob) == \
            (*per_frame_precision(pred, gt), q, acc, rob)


# --- whole-sequence scoring against the per-frame loop ----------------------------------------


NEAR = st.floats(-100.0, 100.0)
coordinate = st.one_of(NEAR, st.integers(-30, 30), st.floats(allow_nan=False, allow_infinity=False))
gt_size = st.one_of(st.floats(0.5, 60.0), st.integers(1, 20), st.floats(min_value=1e-300, max_value=1e300))
pred_size = st.one_of(st.just(0.0), gt_size)


@st.composite
def scored_sequences(draw):
    """(pred, pred_present, gt): absent preds, invisible frames, and
    predictions near, equal to or far from their GT box."""
    pred, present, gt = [], [], []
    for _ in range(draw(st.integers(0, 24))):
        g = draw(st.none() | st.builds(BBox, coordinate, coordinate, gt_size, gt_size))
        kind = draw(st.sampled_from(["absent", "any", "same", "near"] if g else ["absent", "any"]))
        if kind == "absent":
            p = None
        elif kind == "same":
            p = g
        elif kind == "near":
            p = BBox(g.x + draw(st.floats(-5.0, 5.0)), g.y + draw(st.floats(-5.0, 5.0)),
                     draw(pred_size), g.h)
        else:
            p = draw(st.builds(BBox, coordinate, coordinate, pred_size, pred_size))
        pred.append(p)
        present.append(draw(st.booleans()) if p is None else True)
        gt.append(g)
    return pred, present, gt


@given(scored_sequences())
@example(([None, None], [False, True], [None, B]))
@example(([B, BBox(11, 10, 8, 6), BBox(100, 0, 0, 0)], [True] * 3, [B] * 3))
@example(([BBox(1.7e308, 0, 1.7e308, 1)], [True], [BBox(1.7e308, 5, 1.7e308, 1)]))
def test_scoring_has_the_bits_of_the_per_frame_loop(seq):
    pred, present, gt = seq
    visible = [g is not None for g in gt]  # the flags evaluate derives
    assert repr(evaluate(pred, present, gt)) == \
        repr(per_frame_evaluate(pred, present, gt, visible))
    assert success_curve(pred, gt).tobytes() == per_frame_success_curve(pred, gt).tobytes()
    out = evaluate(pred, present, gt)
    assert repr((out.precision_at_20, out.norm_precision_auc)) == \
        repr(per_frame_precision(pred, gt))


# --- rejected inputs ----------------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("side", ["pred", "GT"])
@pytest.mark.parametrize("bad", [BBox(NAN, 10, 8, 6), BBox(10, float("inf"), 8, 6),
                                 BBox(10, 10, NAN, 6)])
def test_non_finite_box_is_rejected_naming_frame_and_side(side, bad):
    pred, gt = [B, B, B], [B, B, B]
    (pred if side == "pred" else gt)[1] = bad
    with pytest.raises(ValueError, match=f"^{side} box at frame 1 has a non-finite coordinate"):
        evaluate(pred, [True] * 3, gt)
    with pytest.raises(ValueError, match=f"^{side} box at frame 1"):
        success_curve(pred, gt)


def test_zero_size_visible_gt_box_is_rejected_naming_the_frame():
    gt = [B, B, BBox(10, 10, 0, 0)]
    with pytest.raises(ValueError, match="GT box at frame 2 must have positive width and height"):
        evaluate([B] * 3, [True] * 3, gt)


@pytest.mark.parametrize("name", ["pred_present"])
def test_short_flag_list_is_rejected_naming_it_and_both_lengths(name):
    with pytest.raises(ValueError, match=f"{name} holds 2 frames but gt holds 3"):
        evaluate([B] * 3, [True] * 2, [B] * 3)
