import gc
import json
import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from trackmem.geometry import BBox, BitMask, mask_iou
from trackmem.observation import extract_prototypes, cosine, observation_to_line
from trackmem import simulator
from trackmem.selection import PolicyKind, TrackerConfig, TrackerSession
from trackmem.simulator import (
    MotionSpec,
    SceneConfig,
    _ellipse_runs,
    _masks,
    _iou,
    _rect_runs,
    _union_runs,
    config_from_dict,
    config_to_dict,
    gen_sequence,
    read_record,
    suite_standard,
    write_record,
)

from conftest import FIXTURES, rng_for
from oracles import dense_mask_iou
from reference import (
    dense_ellipse,
    dense_gen_sequence,
    dense_rect,
    feature_grid_labels,
    target_path_clamped_per_frame,
)

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
    # visibility is read off the boxes, not stored beside them
    record.gt_boxes[12] = record.gt_boxes[9]
    assert record.gt_visible[12]
    with pytest.raises(AttributeError):
        record.gt_visible = [True] * 30


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


def _smallest_side(extent: float, scale: float) -> int:
    """The smallest grid side SceneConfig accepts for a box side ``extent`` times
    ``scale``, found with the float steps of its own check."""
    half = extent * scale / 2.0
    side = int(2.0 * half)
    while side - half - 1.0 < half + 1.0:
        side += 1
    return side


@settings(max_examples=60, deadline=None)
@given(size=st.tuples(st.floats(2.0, 10.0), st.floats(2.0, 10.0)),
       extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       kind=st.sampled_from(["linear", "sinusoid", "random_walk"]),
       n_distractors=st.integers(0, 2), seed=st.integers(0, 2**16))
@example(size=(2.0, 2.0), extra=(0, 0), kind="linear", n_distractors=0, seed=0)
def test_every_accepted_small_scene_has_a_prompt(size, extra, kind, n_distractors, seed):
    # grid sides at and just above the smallest that holds the target (or the
    # largest distractor) with a 1 px margin; every drawn config is accepted
    scale = 1.2 if n_distractors else 1.0
    grid = tuple(_smallest_side(side, scale) + more for side, more in zip(size, extra))
    cfg = SceneConfig(seed=seed, frames=3, grid=grid, proto_dim=2,
                      target_motion=MotionSpec(kind=kind, size=size),
                      n_distractors=n_distractors)
    assert not gen_sequence(cfg).init_mask.is_empty


# extreme magnitudes next to ordinary ones, of either sign, for the fields that scale
# a path or the noise
EXTREMES = (0.0, 1e12, 1e100, 1e308)
magnitudes = st.tuples(st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 100.0)),
                       st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


@st.composite
def scene_fields(draw):
    """SceneConfig keyword arguments, ``target_motion`` as MotionSpec keywords: at
    most 25 frames on grids of at most 96 px, every numeric field drawn."""
    frames = draw(st.integers(1, 25))
    starts = draw(st.lists(st.integers(1, 24), max_size=2))
    return dict(
        seed=draw(st.integers(0, 2**128 - 1)), frames=frames,
        grid=(draw(st.integers(16, 96)), draw(st.integers(16, 96))),
        target_motion=dict(
            kind=draw(st.sampled_from(["linear", "sinusoid", "random_walk"])),
            speed=draw(magnitudes), amplitude=draw(magnitudes),
            frequency=draw(magnitudes), step_sigma=draw(magnitudes),
            size=(draw(st.floats(2.0, 30.0)), draw(st.floats(2.0, 30.0)))),
        n_distractors=draw(st.integers(0, 3)),
        distractor_similarity=draw(st.floats(0.0, 1.0)),
        occlusions=tuple((start, draw(st.integers(start + 1, frames)))
                         for start in starts if start < frames),
        score_noise=draw(magnitudes), proto_dim=draw(st.integers(2, 12)))


@settings(max_examples=200, deadline=None)
@given(fields=scene_fields())
@example(fields=dict(seed=1, frames=20, grid=(64, 64), target_motion=dict(size=(10.0, 8.0)),
                     n_distractors=1, score_noise=1e300))
def test_every_accepted_scene_generates_cleanly(fields):
    # under the suite's warnings-as-errors, so an overflow warning fails it too
    try:
        cfg = SceneConfig(**dict(fields, target_motion=MotionSpec(**fields["target_motion"])))
    except ValueError as exc:
        event(f"rejected: {str(exc).split(' must')[0]}")
        return
    record = gen_sequence(cfg)
    for o in record.observations:
        assert math.isfinite(o.o)
        for p in o.proposals:
            assert 0.0 <= p.s_mask <= 1.0 and math.isfinite(p.s_obj)
    assert all(math.isfinite(v) for box in record.gt_boxes if box is not None for v in box)
    for policy in PolicyKind:
        results = TrackerSession(TrackerConfig(policy=policy), record.init_mask).run(
            record.observations)
        assert len(results) == cfg.frames


@settings(max_examples=100, deadline=None)
@given(fields=scene_fields())
def test_the_world_does_not_depend_on_the_decoder(fields):
    # two scenes that differ only in the decoder's score noise
    try:
        cfg = SceneConfig(**dict(fields, target_motion=MotionSpec(**fields["target_motion"])))
    except ValueError:
        return
    a = gen_sequence(cfg)
    b = gen_sequence(replace(cfg, score_noise=0.0 if cfg.score_noise >= 0.25 else 0.5))
    assert a.gt_boxes == b.gt_boxes and a.init_mask == b.init_mask
    for obs_a, obs_b in zip(a.observations, b.observations):
        assert obs_a.features == obs_b.features
    assert [o.proposals for o in a.observations] != [o.proposals for o in b.observations]


@pytest.mark.parametrize("fields, key", [
    (dict(frames=100_000), None), (dict(frames=100_001), "frames"),
    (dict(proto_dim=1024), None), (dict(proto_dim=1025), "proto_dim"),
    # 4,095 x 4,095 feature cells a frame
    (dict(frames=2, grid=(65535, 65535)), None),
    (dict(frames=3, grid=(65535, 65535)), "frames and grid"),
])
def test_scene_size_bounds_keep_generation_within_memory(fields, key):
    if key is None:
        SceneConfig(seed=1, **fields)
        return
    with pytest.raises(ValueError, match=key + " must "):
        SceneConfig(seed=1, **fields)


@pytest.mark.parametrize("grid, size, n_distractors, key", [
    ((2, 3), (36.0, 28.0), 0, "grid"),
    ((37, 64), (36.0, 28.0), 0, "grid"),
    ((64, 29), (36.0, 28.0), 0, "grid"),
    ((38, 30), (36.0, 28.0), 0, None),  # 1 px on each side
    ((45, 64), (36.0, 28.0), 1, "grid"),
    ((46, 36), (36.0, 28.0), 1, None),  # 1.2 x the size needs 45.2 x 35.6
    ((64, 64), (1.5, 8.0), 0, "target_motion.size"),
])
def test_grid_must_hold_the_target_with_a_margin(grid, size, n_distractors, key):
    def scene():
        return SceneConfig(seed=1, grid=grid, target_motion=MotionSpec(size=size),
                           n_distractors=n_distractors)

    if key is None:
        scene()
        return
    with pytest.raises(ValueError, match=re.escape(key) + " must .*" + re.escape(f"{size!r}")):
        scene()


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


def render(kernel, batch, width, height):
    """A batch of boxes through a kernel, as BitMasks."""
    fields = [np.array([getattr(box, name) for box in batch], dtype=float) for name in "xywh"]
    return _masks(kernel(*fields, width, height), len(batch), width, height)


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(boxes, min_size=1, max_size=4), width=st.integers(1, 40),
       height=st.integers(1, 40))
@example(batch=[BBox(10.3, 5.2, 0.0, 0.0)], width=24, height=16)     # zero size: 1e-9 clamp
@example(batch=[BBox(3.2, 4.6, 0.3, 0.2)], width=24, height=16)      # sub-pixel
@example(batch=[BBox(-5.5, 10.25, 20.0, 13.0)], width=24, height=16)  # partly off the grid
@example(batch=[BBox(-50.0, 40.0, 10.0, 10.0)], width=24, height=16)  # wholly off the grid
@example(batch=[BBox(-1.0, -1.0, 30.0, 30.0)], width=24, height=16)   # covers the grid
@example(batch=[BBox(2.0, 3.0, math.inf, 4.0)], width=24, height=16)  # open-ended rect
@example(batch=[BBox(0.5, 0.5, 4.0, 4.0)], width=8, height=8)  # pixel centers on the rim
@example(batch=[BBox(3.2, 4.6, 0.3, 0.2), BBox(-1.0, -1.0, 30.0, 30.0),
                BBox(-50.0, 40.0, 10.0, 10.0), BBox(5.0, 2.0, 9.0, 7.0)], width=24, height=16)
def test_windowed_render_matches_dense_reference(batch, width, height):
    with np.errstate(all="ignore"):
        ellipses = render(_ellipse_runs, batch, width, height)
        rects = render(_rect_runs, batch, width, height)
        for box, ellipse, rect in zip(batch, ellipses, rects):
            xywh = (box.x, box.y, box.w, box.h)
            assert ellipse == BitMask.from_dense(dense_ellipse(xywh, width, height))
            assert rect == BitMask.from_dense(dense_rect(xywh, width, height))


def test_non_finite_box_renders_empty_without_raising():
    for slot in range(4):
        for bad in NON_FINITE:
            fields = [4.0, 5.0, 6.0, 7.0]
            fields[slot] = bad
            if slot >= 2 and bad < 0:
                continue  # BBox rejects a negative size
            box = BBox(*fields)
            with np.errstate(all="ignore"):
                assert render(_ellipse_runs, [box], 16, 16)[0].is_empty, box
                # a rect of infinite size is open-ended, as on the full grid
                if not (slot >= 2 and bad == math.inf):
                    assert render(_rect_runs, [box], 16, 16)[0].is_empty, box


@st.composite
def row_run_masks(draw, n, width, height):
    """(n, height, width) dense masks with at most one run per row."""
    dense = np.zeros((n, height, width), dtype=bool)
    for i in range(n):
        for row in range(height):
            start = draw(st.integers(0, width))
            dense[i, row, start:draw(st.integers(start, width))] = True
    return dense


def as_runs(dense):
    """(n, height, width) dense masks as the kernels' runs."""
    runs = [(i, row, start, start + length)
            for i in range(len(dense)) for row, start, length in BitMask.from_dense(dense[i]).runs]
    return tuple(np.array(column, dtype=np.int64) for column in zip(*runs)) if runs \
        else (np.zeros(0, dtype=np.int64),) * 4


def span_mask(*spans, width=8):
    """A (1, rows, width) mask whose row i covers columns [start, end) of spans[i]."""
    dense = np.zeros((1, len(spans), width), dtype=bool)
    for row, (start, end) in enumerate(spans):
        dense[0, row, start:end] = True
    return dense


# row 0 touches, row 1 is disjoint, row 2 overlaps, row 3 has one operand, row 4 none
TOUCH = span_mask((0, 3), (5, 7), (1, 5), (2, 4), (0, 0))
OTHER = span_mask((3, 5), (1, 3), (3, 8), (0, 0), (0, 0))


def dims(max_n=4):
    return st.tuples(st.integers(1, max_n), st.integers(1, 12), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=dims())
@example(data=None, shape=None)
def test_union_matches_dense_or(data, shape):
    if data is None:  # touching, disjoint and empty rows, and an empty operand
        pairs = [(TOUCH, OTHER), (OTHER, TOUCH), (TOUCH, TOUCH), (TOUCH, np.zeros_like(TOUCH))]
    else:
        n, width, height = shape
        pairs = [(data.draw(row_run_masks(n, width, height)), data.draw(row_run_masks(n, width, height)))]
    for a, b in pairs:
        n, height, width = a.shape
        union = _masks(_union_runs(as_runs(a), as_runs(b), width, height), n, width, height)
        assert union == [BitMask.from_dense(a[i] | b[i]) for i in range(n)]


def test_union_coalesces_touching_runs_and_keeps_empty_operands():
    left, right = as_runs(TOUCH[:, :2]), as_runs(OTHER[:, :2])
    empty = as_runs(np.zeros_like(TOUCH[:, :2]))

    def union(a, b):
        return _masks(_union_runs(a, b, 8, 2), 1, 8, 2)[0]

    assert union(left, right).runs == ((0, 0, 5), (1, 1, 2), (1, 5, 2))
    assert union(left, empty) == BitMask.from_dense(TOUCH[0, :2])
    assert union(empty, right) == BitMask.from_dense(OTHER[0, :2])
    assert union(empty, empty) == BitMask(8, 2)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=dims())
@example(data=None, shape=None)
def test_row_overlap_iou_matches_dense_oracle(data, shape):
    if data is None:  # the union's operands touch, miss and overlap; an empty truth
        triples = [(OTHER, TOUCH, OTHER), (TOUCH, TOUCH, OTHER), (0 * TOUCH, TOUCH, OTHER)]
    else:
        n, width, height = shape
        triples = [tuple(data.draw(row_run_masks(n, width, height)) for _ in range(3))]
    for gt, a, b in triples:
        n, height, width = gt.shape
        ious = _iou(as_runs(gt), as_runs(a), n, height)
        # the union may hold two runs on a row
        union_ious = _iou(as_runs(gt), _union_runs(as_runs(a), as_runs(b), width, height),
                          n, height)
        for i in range(n):
            assert ious[i] == dense_mask_iou(gt[i], a[i])
            assert union_ious[i] == dense_mask_iou(gt[i], a[i] | b[i])


# --- per-scene arrays against per-frame references ------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_distractors=st.integers(0, 4),
       occluded=st.booleans(), kind=st.sampled_from(["linear", "sinusoid", "random_walk"]),
       grid=st.sampled_from([(64, 48), (40, 100), (128, 128)]))
def test_feature_grids_match_per_frame_labeller(seed, n_distractors, occluded, kind, grid):
    cfg = SceneConfig(seed=seed, frames=12, grid=grid,
                      target_motion=MotionSpec(kind=kind, size=(14.0, 10.0)),
                      n_distractors=n_distractors, distractor_similarity=0.7,
                      occlusions=((3, 7),) if occluded else (), proto_dim=4)
    with mock.patch.object(simulator, "_feature_grids",
                           wraps=simulator._feature_grids) as spy:
        record = gen_sequence(cfg)
    spy.assert_called_once()
    _, centers, hidden, distractors, protos, target_proto, background = spy.call_args.args
    gw, gh = grid
    cells = (max(4, gw // 16), max(4, gh // 16))
    size = cfg.target_motion.size
    for t, obs in enumerate(record.observations):
        assert hidden[t] == (not record.gt_visible[t])
        visible_center = None
        if record.gt_visible[t]:
            # the grids were labeled from the same path as the ground truth
            assert BBox.from_center(*centers[t], *size) == record.gt_boxes[t]
            visible_center = tuple(centers[t])
        want = feature_grid_labels(grid, cells, visible_center, size,
                                   [(tuple(c[t]), d_size) for c, d_size in distractors],
                                   protos, target_proto, background)
        assert np.array_equal(obs.features.values, want), t


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_distractors=st.integers(0, 4),
       occluded=st.booleans(), kind=st.sampled_from(["linear", "sinusoid", "random_walk"]),
       grid=st.sampled_from([(48, 32), (30, 64), (64, 64)]),
       size=st.tuples(st.floats(2.0, 16.0), st.floats(2.0, 16.0)),
       noise=st.sampled_from([0.0, 0.05, 0.4]))
@example(seed=1, n_distractors=0, occluded=True, kind="linear", grid=(48, 32),
         size=(12.0, 9.0), noise=0.05)
def test_sequence_matches_per_frame_dense_generator(seed, n_distractors, occluded, kind,
                                                     grid, size, noise):
    cfg = SceneConfig(seed=seed, frames=8, grid=grid,
                      target_motion=MotionSpec(kind=kind, size=size),
                      n_distractors=n_distractors, distractor_similarity=0.6,
                      occlusions=((2, 5),) if occluded else (), score_noise=noise,
                      proto_dim=3)
    record, want = gen_sequence(cfg), dense_gen_sequence(cfg)
    assert serialize(record) == serialize(want)
    assert record.init_mask == want.init_mask


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["linear", "sinusoid", "random_walk"]),
       size=st.tuples(st.floats(2.0, 40.0), st.floats(2.0, 40.0)),
       extra=st.tuples(st.integers(2, 300), st.integers(2, 300)),
       seed=st.integers(0, 2**64), frames=st.integers(1, 120),
       # speed, amplitude and step_sigma: from a still target to one pinned
       # to a border from frame 1, and a walk whose huge sigma draws infs
       scale=st.sampled_from([0.0, 2.5, 60.0, 1e4, 1e100, 1e307, 1e308]))
@example(kind="random_walk", size=(10.0, 8.0), extra=(54, 56), seed=1, frames=20, scale=1e308)
def test_target_path_matches_per_frame_clamp(kind, size, extra, seed, frames, scale):
    grid = tuple(math.ceil(side) + more for side, more in zip(size, extra))
    cfg = SceneConfig(seed=seed, frames=frames, grid=grid, proto_dim=2,
                      target_motion=MotionSpec(kind=kind, size=size, speed=scale,
                                               amplitude=scale, step_sigma=scale))
    got = simulator._target_path(cfg, rng_for(seed))
    want = target_path_clamped_per_frame(cfg, rng_for(seed))
    assert got.tobytes() == want.tobytes()
    lo = np.array(size) / 2.0 + 1.0
    hi = np.array(grid) - np.array(size) / 2.0 - 1.0
    assert np.all((lo <= got) & (got <= hi))
    event("pinned to a border" if np.any((got == lo) | (got == hi)) else "inside")


def test_feature_grids_label_cells_on_shape_boundaries():
    # 4 x 4 cells with centers at 8, 24, 40, 56 px: cells sit exactly on the
    # distractor's box edge and on the target ellipse, and both count as inside
    cfg = SceneConfig(seed=0, frames=2, grid=(64, 64), proto_dim=2,
                      target_motion=MotionSpec(size=(32.0, 32.0)), occlusions=((1, 2),))
    centers = np.array([[40.0, 40.0], [40.0, 40.0]])
    distractors = [(np.array([[16.0, 16.0], [16.0, 16.0]]), (16.0, 16.0))]
    protos = [np.array([0.0, 1.0])]
    target, background = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    labels, palette = simulator._feature_grids(cfg, centers, np.array([False, True]),
                                               distractors, protos, target, background)
    assert labels.dtype == np.uint8 and labels.shape == (2, 4, 4)
    assert np.array_equal(palette, [background, protos[0], target])
    grids = palette[labels]
    for t, visible_center in enumerate([(40.0, 40.0), None]):
        want = feature_grid_labels(cfg.grid, (4, 4), visible_center, (32.0, 32.0),
                                   [((16.0, 16.0), (16.0, 16.0))], protos, target,
                                   background)
        assert np.array_equal(grids[t], want)
    labels = grids[0, :, :, 0].tolist()
    assert labels[0][:2] == [0.0, 0.0] and labels[1][:2] == [0.0, 0.0]  # distractor box
    assert labels[2][2] == labels[3][2] == labels[2][3] == 1.0          # ellipse edge
    assert labels[3][3] == 0.5 and grids[1, 3, 2, 0] == 0.5            # outside; hidden


def test_record_grids_share_one_label_array_and_one_palette():
    record = gen_sequence(suite_standard(1)[2])  # 4 distractors
    grids = [obs.features for obs in record.observations]
    base = grids[0].labels.base
    assert base is not None and base.dtype == np.uint8
    assert base.shape == (record.config.frames, grids[0].height, grids[0].width)
    for t, grid in enumerate(grids):
        assert grid.labels.base is base and grid.palette is grids[0].palette
        assert np.shares_memory(grid.labels, base[t])
    assert grids[0].palette.shape == (record.config.n_distractors + 2, record.config.proto_dim)


def test_a_generated_scene_retains_at_most_half_a_megabyte():
    # each mask's runs are one packed 16-bit array; the feature grids share
    # one label array and one palette
    cfg = suite_standard(1)[2]  # 4 distractors, 110 frames
    gen_sequence(cfg)  # fills the per-size caches
    tracemalloc.start()
    try:
        record = gen_sequence(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(record.observations) == 110
    assert held <= 500_000



def test_generated_masks_hold_their_runs_untracked_by_the_cycle_collector():
    record = gen_sequence(suite_standard(1)[2])
    masks = [record.init_mask] + [p.mask for obs in record.observations for p in obs.proposals]
    assert all(type(mask.packed) is bytes for mask in masks)
    assert not any(gc.is_tracked(mask.packed) for mask in masks)

def test_nearest_distractor_matches_per_frame_argmin():
    rng = rng_for(77)
    target = rng.uniform(0, 50, size=(30, 2))
    paths = [(rng.uniform(0, 50, size=(30, 2)), (8.0, 6.0)) for _ in range(4)]
    paths.append((paths[1][0].copy(), (4.0, 4.0)))  # a tie: the first index wins
    want = [min(range(len(paths)), key=lambda j: (
        math.hypot(paths[j][0][t, 0] - target[t, 0], paths[j][0][t, 1] - target[t, 1]), j))
        for t in range(30)]
    assert simulator._nearest_distractors(target, paths) == want
    assert simulator._nearest_distractors(target, []) == []


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
    fg_target = extract_prototypes(obs.features, obs.proposals[0].mask)
    fg_distr = extract_prototypes(obs.features, obs.proposals[1].mask)
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


LONG = "x" * 5000  # a rejected value is echoed cut to 80 characters
LONG_SHOWN = "'" + "x" * 79 + "... (5002 characters)"


@pytest.mark.parametrize("pattern, replacement, message", [
    (r'"o":[^,]+', '"o":NaN', "frame 2: o must be finite"),
    (r'"s_obj":[^,}]+', '"s_obj":Infinity', "proposals[0].s_obj must be finite, got inf"),
    (r'"s_obj":[^,}]+', '"s_obj":NaN', "proposals[0].s_obj must be finite, got nan"),
    (r'"s_mask":[^,}]+', '"s_mask":Infinity', "proposals[0].s_mask must lie in [0, 1], got inf"),
    (r'"s_mask":[^,}]+(?=,"s_obj":[^,}]+}\])', '"s_mask":1.5',
     "proposals[2].s_mask must lie in [0, 1], got 1.5"),
    (r'"mask":"[^"]*"', '"mask":"16 16"', "frame 2: proposal masks differ in size"),
    (r'"features":', '"features":[1.0],"old":', "features must be a JSON object, got list"),
    (r'"height":\d+', '"height":-1', "features.height must be an integer >= 1, got -1"),
    (r'"height":\d+', '"height":true', "features.height must be an integer >= 1, got True"),
    (r'"dim":\d+', '"dim":0', "features.dim must be an integer >= 1, got 0"),
    (r'"values":\[', '"values":[[0.0],', "features.values must be a flat list of"),
    (r'"frame":\d+', '"frame":"a"', "frame must be an integer, got 'a'"),
    (r'"o":[^,]+', '"o":true', "o must be a number, got True"),
    (r'"proposals":\[', '"proposals":5,"old":[', "proposals must be a JSON array, got 5"),
    (r'"mask":"[^"]*"', '"mask":5', "proposals[0].mask must be a mask string, got 5"),
    (r'"s_mask":[^,}]+', '"s_mask":"x"', "proposals[0].s_mask must be a number, got 'x'"),
    (r'"s_obj":[^,}]+', '"s_obj":true', "proposals[0].s_obj must be a number, got True"),
    pytest.param(r'"s_mask":[^,}]+', f'"s_mask":"{LONG}"',
                 f"proposals[0].s_mask must be a number, got {LONG_SHOWN}", id="s_mask-long"),
    pytest.param(r'"s_obj":[^,}]+', '"s_obj":1' + "0" * 400,
                 "proposals[0].s_obj must be a number, got 1" + "0" * 79 + "... (401 characters)",
                 id="s_obj-401-digits"),
    pytest.param(r'"mask":"[^"]*"', f'"mask":"{LONG}"',
                 f"proposals[0].mask: bad mask header {LONG_SHOWN}", id="mask-long"),
    pytest.param(r'"mask":"[^"]*"', '"mask":"4 4; 0:0+1; 7"',
                 "proposals[0].mask: bad mask run group '7'", id="mask-bad-run-group"),
    pytest.param(r'"mask":"[^"]*"', '"mask":"70000 32"',
                 "proposals[0].mask: mask width 70000 exceeds 65535, the largest side of"
                 " 16-bit runs", id="mask-beyond-16-bit"),
    pytest.param(r'"mask":"[^"]*"', '"mask":"32 32; 0:0+1; 65536:0+1"',
                 "proposals[0].mask: run row 65536 outside height 32", id="mask-row-beyond-16-bit"),
    pytest.param(r'"height":\d+', f'"height":"{LONG}"',
                 f"features.height must be an integer >= 1, got {LONG_SHOWN}", id="height-long"),
    pytest.param(r'"values":\[[^,]+', f'"values":["{LONG}"',
                 f"features.values[0] must be a finite number, got {LONG_SHOWN}", id="values-long"),
])
def test_read_record_names_the_observation_line_it_rejects(tmp_path, pattern,
                                                           replacement, message):
    cfg = SceneConfig(seed=14, frames=4, grid=(32, 32),
                      target_motion=MotionSpec(size=(8.0, 6.0)), proto_dim=4)
    obs_path, gt_path = tmp_path / "seq.obs.jsonl", tmp_path / "seq.gt.jsonl"
    write_record(gen_sequence(cfg), obs_path, gt_path)
    lines = obs_path.read_text().splitlines()
    lines[2] = re.sub(pattern, replacement, lines[2], count=1)
    obs_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{obs_path}:3: {message}")):
        read_record(obs_path, gt_path)


@pytest.mark.parametrize("where, key", [("scene", "n_distractor"),
                                        ("target_motion", "sped")])
def test_config_from_dict_rejects_unknown_keys(where, key):
    d = config_to_dict(SceneConfig(seed=5))
    (d if where == "scene" else d["target_motion"])[key] = 1
    with pytest.raises(ValueError, match=f"unknown {where} key.*{key}"):
        config_from_dict(d)


def _edited_gt(tmp_path, edit):
    """Write a 4-frame record, apply ``edit`` to its GT lines, return both paths."""
    cfg = SceneConfig(seed=14, frames=4, grid=(32, 32),
                      target_motion=MotionSpec(size=(8.0, 6.0)), proto_dim=4,
                      occlusions=((2, 3),))
    obs_path, gt_path = tmp_path / "seq.obs.jsonl", tmp_path / "seq.gt.jsonl"
    write_record(gen_sequence(cfg), obs_path, gt_path)
    lines = gt_path.read_text().splitlines()
    edit(lines)
    gt_path.write_text("\n".join(lines) + "\n")
    return obs_path, gt_path


def _set_line(lineno, change):
    """An edit that rewrites GT line ``lineno`` (1-based) as JSON through ``change``."""
    def edit(lines):
        d = json.loads(lines[lineno - 1])
        change(d)
        lines[lineno - 1] = json.dumps(d)
    return edit


def _raw_line(lineno, text):
    """An edit that replaces GT line ``lineno`` (1-based) by ``text`` as is."""
    def edit(lines):
        lines[lineno - 1] = text
    return edit


def _swap_frames(lines):
    lines[2], lines[3] = lines[3], lines[2]


@pytest.mark.parametrize("edit, lineno, message", [
    (_raw_line(3, '{"frame":1,'), 3, "Expecting"),
    (_set_line(3, lambda d: d.pop("frame")), 3, "missing key 'frame'"),
    (_set_line(3, lambda d: d.pop("visible")), 3, "missing key 'visible'"),
    (_set_line(3, lambda d: d.pop("box")), 3, "missing key 'box'"),
    (_set_line(3, lambda d: d.update(visible="yes")), 3, "'visible' must be true or false"),
    (_set_line(3, lambda d: d.update(box=[1.0, 2.0, 3.0])), 3, "'box' must be null or 4"),
    (_set_line(3, lambda d: d.update(box=[1.0, "2", 3.0, 4.0])), 3, "'box' must be null or 4"),
    (_set_line(3, lambda d: d.update(box=[1.0, 2.0, -3.0, 4.0])), 3,
     "box size must be non-negative"),
    (_set_line(3, lambda d: d.update(box=[1.0, 2.0, 0, 0])), 3,
     "'box' must have positive width and height, got [1.0, 2.0, 0, 0]"),
    (_set_line(3, lambda d: d.update(box=[10 ** 400, 2.0, 3.0, 4.0])), 3,
     "'box' must be null or 4"),
    (_swap_frames, 3, "frame 2 out of order, expected 1"),
    (_set_line(4, lambda d: d.update(frame=1)), 4, "frame 1 out of order, expected 2"),
    (_set_line(4, lambda d: d.update(frame=3)), 4, "frame 3 out of order, expected 2"),
    (_set_line(2, lambda d: d.update(mask=7)), 2, "'mask' must be RLE text"),
    (_raw_line(1, "not json"), 1, "Expecting value"),
    (_set_line(1, lambda d: d.pop("config")), 1, "missing key 'config'"),
    (_set_line(1, lambda d: d["config"].pop("seed")), 1, "missing key 'seed'"),
    (_set_line(1, lambda d: d["config"].update(frames=0)), 1, "at least one frame"),
    (_set_line(1, lambda d: d["config"].update(grid=5)), 1, "grid must be a pair of integers"),
    (_set_line(3, lambda d: d.update(visible=False)), 3, "'visible' is false but 'box' is not null"),
    (_set_line(4, lambda d: d.update(visible=True)), 4, "'visible' is true but 'box' is null"),
    (_set_line(2, lambda d: d.update(mask="32 65536")), 2,
     "mask height 65536 exceeds 65535, the largest side of 16-bit runs"),
    (_set_line(2, lambda d: d.update(mask=LONG)), 2, f"bad mask header {LONG_SHOWN}"),
    (_set_line(2, lambda d: d.update(mask="4 4; 0:0+1; 7")), 2, "bad mask run group '7'"),
    (_set_line(3, lambda d: d.update(visible=LONG)), 3,
     f"'visible' must be true or false, got {LONG_SHOWN}"),
    (_set_line(3, lambda d: d.update(box=[LONG, 2.0, 3.0, 4.0])), 3,
     "'box' must be null or 4 finite numbers, got ['" + "x" * 78 + "... (5019 characters)"),
    (_set_line(3, lambda d: d.update(frame=LONG)), 3, f"frame {LONG_SHOWN} out of order"),
], ids=["not-json", "no-frame", "no-visible", "no-box", "visible-not-bool", "box-3-numbers",
        "box-string", "box-negative-size", "box-zero-size", "box-beyond-float", "frames-swapped", "frame-repeated", "frame-skipped",
        "mask-not-text", "header-not-json", "header-no-config", "config-no-seed",
        "config-invalid", "config-bad-type", "invisible-with-box", "visible-without-box",
        "mask-beyond-16-bit", "mask-long-header", "mask-bad-run-group", "visible-long",
        "box-long", "frame-long"])
def test_read_record_names_the_gt_line_it_rejects(tmp_path, edit, lineno, message):
    obs_path, gt_path = _edited_gt(tmp_path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{gt_path}:{lineno}: ") + ".*"
                       + re.escape(message)):
        read_record(obs_path, gt_path)


def _edited_obs(tmp_path, edit):
    """Write a 4-frame record, apply ``edit`` to its observation lines, return both paths."""
    cfg = SceneConfig(seed=14, frames=4, grid=(32, 32),
                      target_motion=MotionSpec(size=(8.0, 6.0)), proto_dim=4)
    obs_path, gt_path = tmp_path / "seq.obs.jsonl", tmp_path / "seq.gt.jsonl"
    write_record(gen_sequence(cfg), obs_path, gt_path)
    lines = obs_path.read_text().splitlines()
    edit(lines)
    obs_path.write_text("\n".join(lines) + "\n")
    return obs_path, gt_path


def _swap_observations(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _append_frame_4(lines):
    lines.append(re.sub(r'"frame":\d+', '"frame":4', lines[-1], count=1))


@pytest.mark.parametrize("edit, lineno, message", [
    (lambda lines: lines.pop(1), 2, "frame 2 out of order, expected 1"),
    (_swap_observations, 2, "frame 2 out of order, expected 1"),
    (lambda lines: lines.insert(1, lines[1]), 3, "frame 1 out of order, expected 2"),
], ids=["frame-skipped", "frames-swapped", "frame-repeated"])
def test_read_record_names_the_observation_frame_out_of_order(tmp_path, edit, lineno, message):
    obs_path, gt_path = _edited_obs(tmp_path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{obs_path}:{lineno}: {message}")):
        read_record(obs_path, gt_path)


@pytest.mark.parametrize("which", ["obs", "gt"])
def test_read_record_names_the_line_that_is_not_utf8(tmp_path, which):
    obs_path, gt_path = _edited_obs(tmp_path, lambda lines: None)
    path = obs_path if which == "obs" else gt_path
    lines = path.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b'"frame"', b'"fr\xffame"', 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:4: 'utf-8' codec can't decode byte 0xff in position 4")):
        read_record(obs_path, gt_path)


@pytest.mark.parametrize("edit, count", [(lambda lines: lines.pop(), 3), (_append_frame_4, 5)],
                         ids=["one-short", "one-long"])
def test_read_record_rejects_observation_count_unlike_gt(tmp_path, edit, count):
    obs_path, gt_path = _edited_obs(tmp_path, edit)
    with pytest.raises(ValueError, match=re.escape(
            f"{obs_path} holds {count} frames but {gt_path} holds 4")):
        read_record(obs_path, gt_path)
