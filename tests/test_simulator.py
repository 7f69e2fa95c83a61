import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trackmem.geometry import BBox, BitMask, mask_iou
from trackmem.observation import extract_prototypes, cosine, observation_to_line
from trackmem.oracles import dense_ellipse, dense_rect
from trackmem.simulator import (
    MotionSpec,
    SceneConfig,
    _render_ellipse,
    _render_rect,
    _union,
    config_from_dict,
    config_to_dict,
    gen_sequence,
    read_record,
    suite_standard,
    write_record,
)

from conftest import FIXTURES, rng_for

NOISELESS = SceneConfig(seed=42, frames=40, grid=(128, 128),
                        target_motion=MotionSpec(size=(24.0, 18.0)),
                        score_noise=0.0)


def serialize(record) -> str:
    parts = [",".join("" if b is None else f"{b.x},{b.y},{b.w},{b.h}"
                      for b in record.gt_boxes)]
    parts.append(",".join(str(v) for v in record.gt_visible))
    parts.extend(observation_to_line(o) for o in record.observations)
    return "\n".join(parts)


def reference_ellipse(box: BBox, width: int, height: int) -> BitMask:
    return BitMask.from_dense(dense_ellipse((box.x, box.y, box.w, box.h), width, height))


def true_iou_p1(record, t):
    gw, gh = record.config.grid
    return mask_iou(record.observations[t].proposals[0].mask,
                    reference_ellipse(record.gt_boxes[t], gw, gh))


# --- construction guarantees ----------------------------------------------------


def test_noiseless_target_proposal_is_exact():
    record = gen_sequence(NOISELESS)
    for t, obs in enumerate(record.observations):
        assert obs.proposals[0].s_mask == 1.0
        assert true_iou_p1(record, t) == 1.0


def test_same_seed_is_byte_identical():
    cfg = SceneConfig(seed=7, frames=25, grid=(64, 64),
                      target_motion=MotionSpec(kind="random_walk", size=(14.0, 10.0)),
                      n_distractors=2, distractor_similarity=0.7,
                      occlusions=((8, 14),), proto_dim=4)
    assert serialize(gen_sequence(cfg)) == serialize(gen_sequence(cfg))


def test_different_seed_differs():
    a = gen_sequence(SceneConfig(seed=1, frames=10, grid=(64, 64),
                                 target_motion=MotionSpec(size=(14.0, 10.0))))
    b = gen_sequence(SceneConfig(seed=2, frames=10, grid=(64, 64),
                                 target_motion=MotionSpec(size=(14.0, 10.0))))
    assert serialize(a) != serialize(b)


def test_occlusion_interval_controls_visibility():
    cfg = SceneConfig(seed=5, frames=30, grid=(64, 64),
                      target_motion=MotionSpec(size=(14.0, 10.0)),
                      occlusions=((10, 20),))
    record = gen_sequence(cfg)
    for t in range(30):
        assert record.gt_visible[t] == (not 10 <= t < 20)
        assert (record.gt_boxes[t] is None) == (10 <= t < 20)


def test_occlusion_degrades_target_proposal():
    cfg = SceneConfig(seed=6, frames=60, grid=(128, 128),
                      target_motion=MotionSpec(size=(24.0, 18.0)),
                      n_distractors=1, distractor_similarity=0.8,
                      occlusions=((10, 50),))
    record = gen_sequence(cfg)
    occluded = [o for t, o in enumerate(record.observations) if 10 <= t < 50]
    s1 = np.array([o.proposals[0].s_mask for o in occluded])
    assert s1.mean() < 0.3
    o_vals = np.array([o.o for o in occluded])
    frac_absent = (o_vals <= 0).mean()
    assert 0.6 <= frac_absent <= 0.95  # nominally 0.8
    visible = [o for t, o in enumerate(record.observations) if not 10 <= t < 50]
    areas_occ = np.mean([o.proposals[0].mask.area for o in occluded])
    areas_vis = np.mean([o.proposals[0].mask.area for o in visible])
    assert areas_occ < 0.5 * areas_vis


def test_frame_zero_cannot_be_occluded():
    with pytest.raises(ValueError):
        SceneConfig(seed=1, frames=10, occlusions=((0, 3),))


def test_init_mask_matches_frame_zero_gt():
    record = gen_sequence(NOISELESS)
    gw, gh = NOISELESS.grid
    assert record.init_mask == reference_ellipse(record.gt_boxes[0], gw, gh)


# --- windowed rendering and run-level union against dense references ----------------

NON_FINITE = (math.nan, math.inf, -math.inf)
coords = st.one_of(st.floats(-60.0, 100.0), st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(NON_FINITE))
sizes = st.one_of(st.floats(0.0, 80.0), st.floats(0.0, 1.0), st.just(0.0),
                  st.floats(min_value=0.0, allow_nan=False), st.sampled_from((math.nan, math.inf)))
boxes = st.builds(BBox, coords, coords, sizes, sizes)


@settings(max_examples=400, deadline=None)
@given(box=boxes, width=st.integers(1, 40), height=st.integers(1, 40))
@example(box=BBox(10.3, 5.2, 0.0, 0.0), width=24, height=16)     # zero size: 1e-9 clamp
@example(box=BBox(3.2, 4.6, 0.3, 0.2), width=24, height=16)      # sub-pixel
@example(box=BBox(-5.5, 10.25, 20.0, 13.0), width=24, height=16)  # partly off the grid
@example(box=BBox(-50.0, 40.0, 10.0, 10.0), width=24, height=16)  # wholly off the grid
@example(box=BBox(-1.0, -1.0, 30.0, 30.0), width=24, height=16)   # covers the grid
@example(box=BBox(2.0, 3.0, math.inf, 4.0), width=24, height=16)  # open-ended rect
def test_windowed_render_matches_dense_reference(box, width, height):
    xywh = (box.x, box.y, box.w, box.h)
    with np.errstate(all="ignore"):
        assert _render_ellipse(box, width, height) == \
            BitMask.from_dense(dense_ellipse(xywh, width, height))
        assert _render_rect(box, width, height) == \
            BitMask.from_dense(dense_rect(xywh, width, height))


def test_non_finite_box_renders_empty_without_raising():
    for slot in range(4):
        for bad in NON_FINITE:
            fields = [4.0, 5.0, 6.0, 7.0]
            fields[slot] = bad
            if slot >= 2 and bad < 0:
                continue  # BBox rejects a negative size
            box = BBox(*fields)
            with np.errstate(all="ignore"):
                assert _render_ellipse(box, 16, 16).is_empty, box
                # a rect of infinite size is open-ended, as on the full grid
                if not (slot >= 2 and bad == math.inf):
                    assert _render_rect(box, 16, 16).is_empty, box


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_union_matches_dense_or(data):
    height, width = data.draw(st.integers(0, 10)), data.draw(st.integers(0, 16))
    a = data.draw(arrays(bool, (height, width)))
    b = data.draw(arrays(bool, (height, width)))
    assert _union(BitMask.from_dense(a), BitMask.from_dense(b)) == BitMask.from_dense(a | b)


def test_union_coalesces_touching_runs_and_keeps_empty_operands():
    left = BitMask(8, 2, ((0, 0, 3), (1, 5, 2)))
    right = BitMask(8, 2, ((0, 3, 2), (1, 1, 2)))
    assert _union(left, right).runs == ((0, 0, 5), (1, 1, 2), (1, 5, 2))
    empty = BitMask(8, 2)
    assert _union(left, empty) == left
    assert _union(empty, right) == right
    assert _union(empty, empty) == empty


# --- score calibration --------------------------------------------------------------


def test_calibration_noiseless_bias_is_zero():
    record = gen_sequence(NOISELESS)
    diffs = [record.observations[t].proposals[0].s_mask - true_iou_p1(record, t)
             for t in range(NOISELESS.frames)]
    assert diffs == [0.0] * NOISELESS.frames


def test_calibration_noisy_bias_within_bound():
    cfg = SceneConfig(seed=88, frames=200, grid=(128, 128),
                      target_motion=MotionSpec(size=(24.0, 18.0)),
                      score_noise=0.05)
    record = gen_sequence(cfg)
    diffs = np.array([record.observations[t].proposals[0].s_mask - true_iou_p1(record, t)
                      for t in range(cfg.frames)])
    assert abs(diffs.mean()) <= 3 * cfg.score_noise / np.sqrt(cfg.frames)


def test_target_proposal_has_highest_true_overlap_per_family():
    # fixed-seed bootstrap (99% level) of mean true-IoU margins
    boot_rng = rng_for(555)
    for family_cfg in suite_standard(n_seeds=2):
        record = gen_sequence(family_cfg)
        gw, gh = family_cfg.grid
        d12, d13 = [], []
        for t in range(family_cfg.frames):
            if not record.gt_visible[t]:
                continue
            gt_mask = reference_ellipse(record.gt_boxes[t], gw, gh)
            ious = [mask_iou(p.mask, gt_mask) for p in record.observations[t].proposals]
            d12.append(ious[0] - ious[1])
            d13.append(ious[0] - ious[2])
        for diffs in (np.array(d12), np.array(d13)):
            means = np.array([
                diffs[boot_rng.integers(0, len(diffs), size=len(diffs))].mean()
                for _ in range(1000)
            ])
            assert np.percentile(means, 1) > 0.0, family_cfg.family


def test_distractor_prototype_similarity_is_configured():
    cfg = SceneConfig(seed=9, frames=5, grid=(128, 128),
                      target_motion=MotionSpec(size=(24.0, 18.0)),
                      n_distractors=1, distractor_similarity=0.9)
    record = gen_sequence(cfg)
    obs = record.observations[0]
    fg_target, _ = extract_prototypes(obs.features, obs.proposals[0].mask)
    fg_distr, _ = extract_prototypes(obs.features, obs.proposals[1].mask)
    assert cosine(fg_target, fg_distr) == pytest.approx(0.9, abs=0.08)


# --- the frozen suite -------------------------------------------------------------------


def test_suite_size_and_families():
    suite = suite_standard()
    assert len(suite) == 60
    by_family = {}
    for cfg in suite:
        by_family.setdefault(cfg.family, []).append(cfg)
    assert set(by_family) == {"occlusion", "fast_motion", "distractor"}
    assert all(len(v) == 20 for v in by_family.values())
    seeds = [c.seed for c in suite]
    assert len(set(seeds)) == 60


def test_suite_digest_matches_fixture():
    from trackmem.harness import config_digest
    digest = config_digest([config_to_dict(c) for c in suite_standard()])
    want = (FIXTURES / "golden" / "suite_digest.txt").read_text().strip()
    assert digest == want


# --- serialization --------------------------------------------------------------------------


def test_config_dict_roundtrip():
    cfg = SceneConfig(seed=3, frames=12, grid=(64, 48),
                      target_motion=MotionSpec(kind="sinusoid", amplitude=20.0,
                                               size=(10.0, 8.0)),
                      n_distractors=2, distractor_similarity=0.4,
                      occlusions=((3, 6),), score_noise=0.02, proto_dim=4,
                      family="custom")
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_record_file_roundtrip(tmp_path):
    cfg = SceneConfig(seed=14, frames=12, grid=(64, 64),
                      target_motion=MotionSpec(size=(14.0, 10.0)),
                      n_distractors=1, distractor_similarity=0.5,
                      occlusions=((4, 7),), proto_dim=4)
    record = gen_sequence(cfg)
    obs_path = tmp_path / "seq.obs.jsonl"
    gt_path = tmp_path / "seq.gt.jsonl"
    write_record(record, obs_path, gt_path)
    back = read_record(obs_path, gt_path)
    assert back.config == cfg
    assert back.init_mask == record.init_mask
    assert back.gt_visible == record.gt_visible
    assert [observation_to_line(o) for o in back.observations] == \
        [observation_to_line(o) for o in record.observations]
    for a, b in zip(back.gt_boxes, record.gt_boxes):
        assert a == b


def test_read_record_rejects_gt_without_prompt_mask(tmp_path):
    cfg = SceneConfig(seed=14, frames=4, grid=(32, 32),
                      target_motion=MotionSpec(size=(8.0, 6.0)), proto_dim=4)
    obs_path, gt_path = tmp_path / "seq.obs.jsonl", tmp_path / "seq.gt.jsonl"
    write_record(gen_sequence(cfg), obs_path, gt_path)
    lines = gt_path.read_text().splitlines()
    frame0 = json.loads(lines[1])
    del frame0["mask"]
    lines[1] = json.dumps(frame0)
    gt_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{gt_path}:2: frame-0 line has no prompt mask")):
        read_record(obs_path, gt_path)
    gt_path.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="no frame-0 line"):
        read_record(obs_path, gt_path)
