import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trackmem.geometry import BBox, BitMask, box_iou, box_ious, mask_iou, mask_to_bbox
from trackmem.simulator import MotionSpec, SceneConfig, gen_sequence

from conftest import empty_mask, random_mask, rect_mask, rng_for
from oracles import dense_box_iou, dense_mask_iou
from reference import per_frame_box_iou, rle_text_by_row


# --- box IoU -----------------------------------------------------------------


def test_box_iou_identity():
    b = BBox(0, 0, 2, 2)
    assert box_iou(b, b) == 1.0


def test_box_iou_disjoint():
    assert box_iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0


def test_box_iou_overlap_one_seventh():
    # inter 1x1 = 1, union 4 + 4 - 1 = 7; checked against rasterization
    got = box_iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2))
    assert abs(got - 1.0 / 7.0) < 1e-12
    assert abs(got - dense_box_iou((0, 0, 2, 2), (1, 1, 2, 2))) < 1e-12


def test_box_iou_zero_area_convention():
    assert box_iou(BBox(0, 0, 0, 5), BBox(0, 0, 2, 2)) == 0.0
    assert box_iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 0)) == 0.0
    assert box_iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0


def test_box_negative_size_rejected():
    with pytest.raises(ValueError, match=r"^box size must be non-negative, got w=-1, h=2$"):
        BBox(0, 0, -1, 2)


@pytest.mark.parametrize("make, sizes", [
    (lambda: BBox(x=0, y=0, w=2, h=-0.5), "w=2, h=-0.5"),
    (lambda: BBox.from_center(3, 3, 2, -1), "w=2, h=-1"),
    (lambda: BBox._make((0, 0, -1, 2)), "w=-1, h=2"),
    (lambda: BBox(0, 0, 1, 2)._replace(w=-1), "w=-1, h=2"),
])
def test_box_negative_size_is_rejected_by_every_constructor(make, sizes):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == f"box size must be non-negative, got {sizes}"


def test_box_is_an_immutable_tuple_record():
    b = BBox(1.0, 2.0, 3.0, 4.0)
    assert BBox._fields == ("x", "y", "w", "h")
    assert (b.x, b.y, b.w, b.h) == tuple(b) == (1.0, 2.0, 3.0, 4.0)
    assert b.area == 12.0 and b.center == (2.5, 4.0)
    assert BBox.from_center(2.5, 4.0, 3.0, 4.0) == b
    assert repr(b) == "BBox(x=1.0, y=2.0, w=3.0, h=4.0)"
    for name in ("x", "y", "w", "h", "area", "other"):
        with pytest.raises(AttributeError):
            setattr(b, name, 0.0)
    assert not hasattr(b, "__dict__")
    assert b._replace(w=5.0) == BBox(1.0, 2.0, 5.0, 4.0) and b.w == 3.0


@given(st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 2,
                 *[st.floats(0, 1e6, allow_nan=False)] * 2))
def test_box_pickles_equals_and_hashes_by_value(fields):
    b = BBox(*fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(b, protocol))
        assert type(back) is BBox and back == b and hash(back) == hash(b)
    twin = BBox(*fields)
    assert twin is not b and twin == b and hash(twin) == hash(b)
    assert b == fields and hash(b) == hash(fields)  # a plain tuple of its fields
    assert len({b, twin}) == 1


def test_box_iou_integer_aligned_matches_rasterization():
    rng = rng_for(7)
    for _ in range(2000):
        a = tuple(int(v) for v in rng.integers(0, 30, size=2)) + \
            tuple(int(v) for v in rng.integers(0, 20, size=2))
        b = tuple(int(v) for v in rng.integers(0, 30, size=2)) + \
            tuple(int(v) for v in rng.integers(0, 20, size=2))
        got = box_iou(BBox(*a), BBox(*b))
        assert abs(got - dense_box_iou(a, b)) < 1e-9


def test_box_iou_symmetric_and_bounded():
    rng = rng_for(8)
    for _ in range(500):
        a = BBox(*rng.uniform(0, 40, size=2), *rng.uniform(0.1, 25, size=2))
        b = BBox(*rng.uniform(0, 40, size=2), *rng.uniform(0.1, 25, size=2))
        ab, ba = box_iou(a, b), box_iou(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        assert box_iou(a, a) == 1.0


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SIZE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
NEAR = st.floats(-64.0, 64.0)
NEAR_SIZE = st.one_of(st.just(0.0), st.floats(0.0, 32.0))
box_fields = st.one_of(
    st.tuples(FINITE, FINITE, SIZE, SIZE),
    st.tuples(NEAR, NEAR, NEAR_SIZE, NEAR_SIZE),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 12), st.integers(0, 12)),
)


@st.composite
def box_pairs(draw):
    a = draw(box_fields)
    kind = draw(st.sampled_from(["any", "same", "touch_x", "touch_y"]))
    if kind == "same":
        return a, a
    b = draw(box_fields)
    if kind == "touch_x":   # b's left edge on a's right edge
        b = (a[0] + a[2], *b[1:])
    elif kind == "touch_y":  # b's top edge on a's bottom edge
        b = (b[0], a[1] + a[3], *b[2:])
    return a, b


@given(st.lists(box_pairs(), max_size=12))
@example([((0, 0, 2, 2), (2, 0, 2, 2)), ((0, 0, 2, 2), (0, 2, 2, 2))])  # touching
@example([((0.1, 0.2, 0.7, 0.3), (0.1, 0.2, 0.7, 0.3))])               # identical, fractional
@example([((0, 0, 0, 5), (0, 0, 2, 2)), ((0, 0, 0, 0), (0, 0, 0, 0))])  # zero area
@example([((0.0, 0.0, 1e300, 1e300), (1e300, 1e300, 1e300, 1e300))])   # areas overflow
@example([((0.0, 0.0, 1e200, 1e200), (0.0, 0.0, 1e200, 2e200))])      # nan union: 1.0
def test_box_ious_has_the_bits_of_box_iou_row_by_row(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.float64).reshape(-1, 4)
    b = np.array([p[1] for p in pairs], dtype=np.float64).reshape(-1, 4)
    scalar = np.array([box_iou(BBox(*p), BBox(*q)) for p, q in pairs], dtype=np.float64)
    assert box_ious(a, b).tobytes() == scalar.tobytes()


@given(box_pairs())
@example(((0, 0, 2, 2), (0, 0, 2, 2)))
@example(((0.5, 0.5, 3.25, 1.5), (0.5, 0.5, 3.25, 1.5)))
def test_box_iou_has_the_bits_of_the_area_and_eq_form(pair):
    a, b = BBox(*pair[0]), BBox(*pair[1])
    assert repr(box_iou(a, b)) == repr(per_frame_box_iou(a, b))


# --- masks ---------------------------------------------------------------------


def test_mask_runs_validation():
    with pytest.raises(ValueError):
        BitMask(4, 4, runs=((0, 0, 3), (0, 2, 2)))  # overlapping
    with pytest.raises(ValueError):
        BitMask(4, 4, runs=((0, 2, 3),))  # out of bounds
    with pytest.raises(ValueError):
        BitMask(4, 4, runs=((4, 0, 1),))  # row out of range
    with pytest.raises(ValueError):
        BitMask(4, 4, runs=((1, 0, 1), (0, 0, 1)))  # rows out of order


NOT_TRIPLES = "runs must be (row, start, length) triples of integers, got "
BEYOND_16_BIT = "exceeds 65535, the largest side of 16-bit runs"


@pytest.mark.parametrize("width, height, runs, message", [
    (4, 4, ((0, 0, 3), (0, 2, 2)), "runs within a row must be sorted and disjoint"),
    (4, 4, ((0, 2, 3),), "run [2, 5) outside width 4"),
    (4, 4, ((4, 0, 1),), "run row 4 outside height 4"),
    (4, 4, ((1, 0, 1), (0, 0, 1)), "runs must be sorted by row"),
    (4, 4, ((0, 1, 0),), "run length must be >= 1, got 0"),
    (4, 4, ((-1, 0, 1),), "run row -1 outside height 4"),
    (4, 4, ((0, -2, 1),), "run [-2, -1) outside width 4"),
    (4, 4, ((0, 0, -70000),), "run length must be >= 1, got -70000"),
    (4, 4, ((70000, 0, 1),), "run row 70000 outside height 4"),
    (4, 4, ((0, 65536, 1),), "run [65536, 65537) outside width 4"),
    (4, 4, ((1, 0, 1), (0, 2 ** 70, 1)), f"run [{2 ** 70}, {2 ** 70 + 1}) outside width 4"),
    (4, 4, ((0, 0, 10 ** 30),), f"run [0, {10 ** 30}) outside width 4"),
    (4, 4, ((0, -10 ** 30, 1),), f"run [{-10 ** 30}, {1 - 10 ** 30}) outside width 4"),
    (4, 4, ((0, 1.5, 1),), NOT_TRIPLES + "(0, 1.5, 1)"),
    (4, 4, ((0, "1", 1),), NOT_TRIPLES + "(0, '1', 1)"),
    (4, 4, ((0, 1),), NOT_TRIPLES + "(0, 1)"),
    (-1, 4, (), "mask dimensions must be non-negative"),
    (70000, 4, (), "mask width 70000 " + BEYOND_16_BIT),
    (4, 65536, (), "mask height 65536 " + BEYOND_16_BIT),
    (65535, 65535, ((0, 0, 65535), (65534, 65534, 1)), None),  # the largest sides
])
def test_mask_runs_are_checked_alike_by_every_constructor(width, height, runs, message):
    def integers(run):
        return len(run) == 3 and all(type(v) is int and abs(v) < 2 ** 63 for v in run)

    makers = [lambda: BitMask(width, height, runs),
              lambda: BitMask(width=width, height=height, runs=list(runs))]
    if all(map(integers, runs)):
        text = "".join(f"; {row}:{start}+{length}" for row, start, length in runs)
        makers.append(lambda: BitMask.from_text(f"{width} {height}{text}"))
        makers.append(lambda: BitMask.batch(width, height, np.array(runs, dtype=np.int64),
                                            [0, len(runs)])[0])
    if not runs and 0 <= width * height < 10 ** 6:
        makers.append(lambda: BitMask.from_dense(np.zeros((height, width), dtype=bool)))
    for make in makers:
        if message is None:
            assert make().runs == runs
            continue
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


def test_batch_checks_the_order_of_runs_within_each_mask():
    runs = np.array([[1, 0, 1], [0, 0, 1], [3, 2, 2]])
    a, empty, b, c = BitMask.batch(4, 4, runs, [0, 1, 1, 2, 3])
    assert (a.runs, empty.runs, b.runs, c.runs) == (((1, 0, 1),), (), ((0, 0, 1),), ((3, 2, 2),))
    assert (a.area, empty.area, c.area) == (1, 0, 2) and empty.is_empty
    assert mask_to_bbox(c) == BBox(2.0, 3.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="^runs must be sorted by row$"):
        BitMask.batch(4, 4, runs, [0, 2, 3])


def test_mask_iou_trivial():
    m = rect_mask(8, 8, 1, 1, 3, 3)
    assert mask_iou(m, m) == 1.0
    assert mask_iou(empty_mask(8, 8), m) == 0.0
    assert mask_iou(empty_mask(8, 8), empty_mask(8, 8)) == 0.0


def test_mask_iou_dimension_mismatch():
    with pytest.raises(ValueError):
        mask_iou(empty_mask(8, 8), empty_mask(8, 9))


def test_mask_iou_matches_dense_oracle():
    rng = rng_for(9)
    for _ in range(300):
        da = rng.random((32, 32)) < rng.uniform(0.05, 0.6)
        db = rng.random((32, 32)) < rng.uniform(0.05, 0.6)
        got = mask_iou(BitMask.from_dense(da), BitMask.from_dense(db))
        assert got == dense_mask_iou(da, db)


def test_mask_iou_symmetric_bounded_identity(rng):
    for _ in range(200):
        a = random_mask(rng)
        b = random_mask(rng)
        assert mask_iou(a, b) == mask_iou(b, a)
        assert 0.0 <= mask_iou(a, b) <= 1.0
        if not a.is_empty:
            assert mask_iou(a, a) == 1.0


def test_mask_area():
    assert empty_mask(4, 4).area == 0
    assert rect_mask(4, 4, 0, 0, 4, 4).area == 16
    rng = rng_for(10)
    for _ in range(100):
        dense = rng.random((16, 16)) < 0.4
        assert BitMask.from_dense(dense).area == int(dense.sum())


def test_mask_to_bbox_single_run():
    m = BitMask(16, 8, runs=((3, 4, 3),))
    assert mask_to_bbox(m) == BBox(4, 3, 3, 1)


def test_mask_to_bbox_empty():
    assert mask_to_bbox(empty_mask()) is None


def test_mask_to_bbox_matches_dense_scan(rng):
    for _ in range(200):
        dense = rng.random((20, 24)) < 0.15
        m = BitMask.from_dense(dense)
        box = mask_to_bbox(m)
        if not dense.any():
            assert box is None
            continue
        ys, xs = np.nonzero(dense)
        assert box == BBox(float(xs.min()), float(ys.min()),
                           float(xs.max() - xs.min() + 1), float(ys.max() - ys.min() + 1))


def test_mask_to_bbox_tightness(rng):
    # the box covers every foreground pixel and no smaller box does
    for _ in range(50):
        m = random_mask(rng, 16, 16, 0.2)
        box = mask_to_bbox(m)
        if box is None:
            continue
        for row, start, length in m.runs:
            assert box.y <= row < box.y + box.h
            assert box.x <= start and start + length <= box.x + box.w
        dense = m.to_dense()
        x0, y0, w, h = int(box.x), int(box.y), int(box.w), int(box.h)
        assert dense[y0, :].any() and dense[y0 + h - 1, :].any()
        assert dense[:, x0].any() and dense[:, x0 + w - 1].any()


def near_or_below(n: int) -> st.SearchStrategy[int]:
    """A position in [0, n], often one of the last 12: on a side above 255
    those are values that use both bytes of a packed run."""
    return st.integers(0, n) | st.integers(max(0, n - 12), n)


@st.composite
def run_masks(draw, width: int, height: int) -> BitMask:
    """Runs drawn directly (not via from_dense) inside a random band of at
    most 12 rows.

    Runs of a row may touch (gap 0) and may be a single pixel; the band
    may be empty, so empty masks and disjoint row ranges come up often.
    """
    lo = draw(near_or_below(height))
    hi = draw(st.integers(lo, min(height, lo + 12)))
    runs = []
    for row in range(lo, hi):
        col = draw(near_or_below(width))
        while col < width and draw(st.booleans()):
            length = draw(st.integers(1, width - col))
            runs.append((row, col, length))
            col += length + draw(st.integers(0, 3))
    return BitMask(width, height, tuple(runs))


# sides up to 12, and above 255, where runs hold values of both bytes
SIDES = st.integers(1, 12) | st.integers(256, 700)
MASKS = st.tuples(SIDES, SIDES).flatmap(lambda sides: run_masks(*sides))


@st.composite
def mask_pairs(draw) -> tuple[BitMask, BitMask]:
    width, height = draw(SIDES), draw(SIDES)
    return draw(run_masks(width, height)), draw(run_masks(width, height))


@given(mask_pairs())
@example((BitMask(4, 4, ((0, 0, 2),)), BitMask(4, 4, ((3, 0, 2),))))   # disjoint rows
@example((BitMask(4, 1, ((0, 0, 2),)), BitMask(4, 1, ((0, 2, 2),))))   # touching runs
@example((BitMask(4, 4, ((2, 1, 1),)), BitMask(4, 4, ((2, 1, 1),))))   # one pixel
@example((BitMask(4, 4, ()), BitMask(4, 4, ((1, 0, 4),))))             # empty operand
@example((BitMask(4, 4, ((0, 0, 2), (0, 2, 2))), BitMask(4, 4, ((0, 1, 2),))))
def test_mask_iou_matches_dense_oracle_on_run_masks(pair):
    a, b = pair
    want = dense_mask_iou(a.to_dense(), b.to_dense())
    assert mask_iou(a, b) == want
    assert mask_iou(b, a) == want


@given(MASKS)
def test_area_counts_dense_pixels(m):
    assert m.area == int(m.to_dense().sum())


@given(MASKS)
def test_rle_text_round_trip_and_memo(m):
    text = m.to_text()
    assert BitMask.from_text(text) == m
    assert m.to_text() is text  # kept on the mask
    assert BitMask(m.width, m.height, m.runs).to_text() == text  # a fresh encode


@given(MASKS)
def test_text_sha1_digests_the_text_and_memo(m):
    digest = m.text_sha1()
    assert digest == hashlib.sha1(m.to_text().encode()).hexdigest()
    assert m.text_sha1() is digest  # kept on the mask
    assert BitMask(m.width, m.height, m.runs).text_sha1() == digest  # a fresh digest


@given(MASKS)
@example(BitMask(9, 3, ((1, 0, 2), (1, 3, 1), (1, 5, 4))))   # multi-run row
@example(BitMask(9, 3, ((0, 4, 1), (2, 8, 1))))              # single-pixel runs
@example(BitMask(9, 3))                                      # empty mask
@example(BitMask(0, 0))
def test_rle_text_matches_row_grouping_encoder(m):
    assert m.to_text() == rle_text_by_row(m.width, m.height, m.runs)


@given(MASKS)
@example(BitMask(300, 700, ((256, 0, 300), (699, 255, 2))))
def test_masks_give_back_their_runs_and_equal_and_hash_by_value(m):
    runs = m.runs
    assert BitMask(m.width, m.height, runs).runs == runs
    assert memoryview(m.packed).cast("H").tolist() == [v for run in runs for v in run]
    dense = BitMask.from_dense(m.to_dense())  # maximal runs: touching runs merged
    for mask in (m, dense):
        twins = [BitMask(mask.width, mask.height, mask.runs), BitMask.from_text(mask.to_text()),
                 pickle.loads(pickle.dumps(mask))]
        if mask is dense:
            twins.append(BitMask.from_dense(mask.to_dense()))
        for twin in twins:
            assert twin == mask and hash(twin) == hash(mask) and twin.runs == mask.runs
    other = BitMask(m.width + 1, m.height, runs)
    assert other != m and BitMask(m.width, m.height + 1, runs) != m
    for name, value in (("width", 3), ("packed", m.packed), ("runs", ()), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        with pytest.raises(AttributeError):
            delattr(m, name)


def test_simulated_masks_equal_and_hash_as_masks_built_otherwise():
    cfg = SceneConfig(seed=3, frames=6, grid=(520, 300), n_distractors=2,
                      distractor_similarity=0.5, target_motion=MotionSpec(size=(40.0, 30.0)),
                      proto_dim=2)
    record = gen_sequence(cfg)
    masks = [record.init_mask] + [p.mask for obs in record.observations for p in obs.proposals]
    assert any(max(memoryview(mask.packed).cast("H")) > 255 for mask in masks)
    for mask in masks:
        for twin in (BitMask(520, 300, mask.runs), BitMask.from_text(mask.to_text()),
                     BitMask.from_dense(mask.to_dense())):
            assert twin == mask and hash(twin) == hash(mask)
    assert len(set(masks)) == len({mask.to_text() for mask in masks})


def dense_scan_bbox(m: BitMask) -> BBox | None:
    ys, xs = np.nonzero(m.to_dense())
    if not ys.size:
        return None
    return BBox(float(xs.min()), float(ys.min()),
                float(xs.max() - xs.min() + 1), float(ys.max() - ys.min() + 1))


@given(mask_pairs(), st.booleans())
@example((BitMask(9, 3, ((1, 0, 2), (1, 5, 4))), BitMask(9, 3)), False)  # two runs, one row
@example((BitMask(9, 3, ((0, 4, 2), (2, 0, 1))), BitMask(9, 3)), False)  # widest run not first
@example((BitMask(9, 3), BitMask(9, 3)), True)                           # empty union
@example((BitMask(9, 3, ((0, 6, 3),)), BitMask(9, 3, ((2, 0, 2),))), True)
def test_mask_to_bbox_matches_dense_scan_on_run_masks(pair, union):
    m = BitMask.from_dense(pair[0].to_dense() | pair[1].to_dense()) if union else pair[0]
    assert mask_to_bbox(m) == dense_scan_bbox(m)


# --- RLE text form ----------------------------------------------------------------


def test_rle_text_roundtrip(rng):
    for _ in range(100):
        m = random_mask(rng, 17, 11, 0.3)
        assert BitMask.from_text(m.to_text()) == m


def test_rle_text_examples():
    m = rect_mask(8, 4, 2, 1, 3, 2)
    assert m.to_text() == "8 4; 1:2+3; 2:2+3"
    assert empty_mask(8, 4).to_text() == "8 4"
    assert BitMask.from_text("8 4") == empty_mask(8, 4)


def test_dense_roundtrip(rng):
    for _ in range(100):
        dense = rng.random((13, 9)) < 0.35
        assert (BitMask.from_dense(dense).to_dense() == dense).all()
