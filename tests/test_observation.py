import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackmem.geometry import BitMask
from trackmem.membank import MemoryEntry
from trackmem.observation import (
    FeatureGrid,
    FrameObservation,
    Proposal,
    Prototype,
    cosine,
    covered_labels,
    extract_prototypes,
    observation_from_line,
    observation_to_line,
    pooled_prototype,
)

from conftest import empty_mask, obs, prop, random_mask, rect_mask, rng_for
from reference import numpy_cosine, numpy_mean


def grid_from(values) -> FeatureGrid:
    return FeatureGrid(np.asarray(values, dtype=float))


# --- prototype extraction ----------------------------------------------------


def test_uniform_grid_gives_uniform_prototypes():
    f = grid_from(np.full((4, 4, 3), 2.5))
    fg = extract_prototypes(f, rect_mask(4, 4, 1, 1, 2, 2))
    assert np.array_equal(fg.vec, [2.5, 2.5, 2.5])


def test_full_mask_gives_full_foreground():
    f = grid_from(np.ones((4, 4, 2)))
    fg = extract_prototypes(f, rect_mask(4, 4, 0, 0, 4, 4))
    assert np.array_equal(fg.vec, [1.0, 1.0])


def test_empty_mask_gives_zero_foreground():
    f = grid_from(np.ones((4, 4, 2)))
    fg = extract_prototypes(f, empty_mask(4, 4))
    assert np.array_equal(fg.vec, [0.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(grid=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       mask_size=st.tuples(st.integers(1, 20), st.integers(1, 20)),
       seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.2, 0.4, 1.0]))
@example(grid=(6, 5), mask_size=(20, 18), seed=31, density=0.4)
@example(grid=(9, 7), mask_size=(4, 3), seed=0, density=0.4)   # grid larger than the mask
@example(grid=(12, 2), mask_size=(3, 20), seed=1, density=0.4)  # larger along one axis only
def test_prototypes_match_per_cell_loop_oracle(grid, mask_size, seed, density):
    rng = rng_for(seed)
    f = grid_from(rng.normal(size=(grid[0], grid[1], 4)))
    mask = random_mask(rng, w=mask_size[0], h=mask_size[1], density=density)
    fg = extract_prototypes(f, mask)

    # loop-and-accumulate oracle with explicit nearest-neighbor sampling
    gh, gw, dim = f.height, f.width, f.dim
    dense = mask.to_dense()
    values = f.values
    fg_acc = np.zeros(dim)
    fg_n = 0
    for gy in range(gh):
        for gx in range(gw):
            my = min(mask.height - 1, (2 * gy + 1) * mask.height // (2 * gh))
            mx = min(mask.width - 1, (2 * gx + 1) * mask.width // (2 * gw))
            if dense[my, mx]:
                fg_acc += values[gy, gx]
                fg_n += 1
    want_fg = fg_acc / fg_n if fg_n else np.zeros(dim)
    assert np.all(np.abs(fg.vec - want_fg) < 1e-12)


@settings(max_examples=200, deadline=None)
@given(grid=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       mask_size=st.tuples(st.integers(1, 20), st.integers(1, 20)),
       seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.2, 0.5, 1.0]))
@example(grid=(9, 7), mask_size=(4, 3), seed=0, density=0.5)     # mask below the grid
@example(grid=(6, 6), mask_size=(6, 6), seed=1, density=0.5)     # equal
@example(grid=(5, 8), mask_size=(20, 17), seed=2, density=0.5)   # above, non-square
@example(grid=(12, 2), mask_size=(3, 20), seed=3, density=0.5)   # below along one axis only
def test_covered_labels_match_dense_nearest_neighbour_resample(grid, mask_size, seed, density):
    rng = rng_for(seed)
    gh, gw = grid
    # every cell its own label, in random order, so the check sees order and position
    labels = rng.permutation(gh * gw).reshape(gh, gw).astype(np.min_scalar_type(gh * gw - 1))
    f = FeatureGrid.from_labels(rng.normal(size=(gh * gw, 2)), labels)
    mask = random_mask(rng, w=mask_size[0], h=mask_size[1], density=density)
    sample_rows = np.minimum((2 * np.arange(gh) + 1) * mask.height // (2 * gh), mask.height - 1)
    sample_cols = np.minimum((2 * np.arange(gw) + 1) * mask.width // (2 * gw), mask.width - 1)
    covered = mask.to_dense()[np.ix_(sample_rows, sample_cols)]
    got = covered_labels(f, mask)
    assert got.dtype == labels.dtype
    assert got.tolist() == labels[covered].tolist()


def test_prototypes_permutation_invariant_and_linear():
    rng = rng_for(32)
    values = rng.normal(size=(6, 6, 3))
    dense = rng.random((6, 6)) < 0.5  # mask at grid resolution: NN is identity
    mask = BitMask.from_dense(dense)

    perm = rng.permutation(6)
    fg = extract_prototypes(grid_from(values), mask)
    fg_p = extract_prototypes(grid_from(values[perm]), BitMask.from_dense(dense[perm]))
    assert np.allclose(fg.vec, fg_p.vec, atol=1e-12)

    other = rng.normal(size=(6, 6, 3))
    fg_sum = extract_prototypes(grid_from(values + other), mask)
    fg_o = extract_prototypes(grid_from(other), mask)
    assert np.allclose(fg_sum.vec, fg.vec + fg_o.vec, atol=1e-12)


# Vector elements: both zeros, and either sign at magnitudes from 1e-150 to 1e150,
# so that no square or product of two overflows or leaves the normal range.
ELEMENT = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, neg: -m if neg else m, st.floats(1e-150, 1e150), st.booleans()))


def vectors(dim: int):
    return st.lists(ELEMENT, min_size=dim, max_size=dim).map(np.array)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 16), k=st.integers(1, 8), n=st.integers(1, 300))
def test_pooled_mean_has_the_bits_of_ndarray_mean(data, dim, k, n):
    palette = data.draw(vectors(k * dim)).reshape(k, dim)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                      dtype=np.uint8)
    f = FeatureGrid.from_labels(palette, labels.reshape(1, n))
    want = bits(numpy_mean(palette, labels))
    assert bits(pooled_prototype(f, labels).vec) == want
    # a mask over every cell of the one-row grid covers the labels in order
    assert bits(extract_prototypes(f, BitMask.from_dense(np.ones((1, n), bool))).vec) == want


@settings(max_examples=300, deadline=None)
@given(vec=st.integers(1, 16).flatmap(vectors))
def test_norm_is_a_float_with_the_bits_of_linalg_norm(vec):
    norm = Prototype(vec).norm
    assert type(norm) is float
    assert bits(norm) == bits(np.linalg.norm(vec))


@settings(max_examples=300, deadline=None)
@given(pair=st.integers(1, 16).flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
def test_cosine_has_the_bits_of_the_linalg_norm_form(pair):
    a, b = pair
    got = cosine(Prototype(a), Prototype(b))
    assert type(got) is float
    assert bits(got) == bits(numpy_cosine(a, b))


@pytest.mark.parametrize("vec", [[1e200, 1e200], [1e154, 1e154], [1e153] * 200])
def test_prototype_rejects_an_overflowing_squared_norm(vec):
    # each element is finite; the sum of their squares is not
    with pytest.raises(ValueError, match="^prototype norm overflows"):
        Prototype(vec)
    # where numpy's overflow warning is not an error, it comes first
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="^prototype norm overflows"):
            Prototype(vec)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("other", [1.0, 1e200])
def test_prototype_rejects_a_non_finite_element(bad, other):
    with pytest.raises(ValueError, match="^prototype must be finite$"):
        Prototype([other, bad])


# --- cosine -----------------------------------------------------------------


def test_cosine_trivial_cases():
    a = Prototype([1.0, 2.0, 3.0])
    assert cosine(a, a) == 1.0
    assert cosine(Prototype([1.0, 0.0]), Prototype([0.0, 1.0])) == 0.0
    assert cosine(a, Prototype([-1.0, -2.0, -3.0])) == pytest.approx(-1.0, abs=1e-15)


def test_cosine_zero_norm_is_neutral():
    assert cosine(Prototype([0.0, 0.0]), Prototype([1.0, 1.0])) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine(Prototype([1.0]), Prototype([1.0, 2.0]))


def test_cosine_symmetric_and_scale_invariant():
    rng = rng_for(33)
    for _ in range(100):
        a = Prototype(rng.normal(size=5))
        b = Prototype(rng.normal(size=5))
        assert cosine(a, b) == cosine(b, a)
        assert -1.0 - 1e-12 <= cosine(a, b) <= 1.0 + 1e-12
        scaled = Prototype(a.vec * float(rng.uniform(0.1, 50.0)))
        assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-12)


# --- types and serialization ----------------------------------------------------


def test_proposal_validation():
    with pytest.raises(ValueError):
        Proposal.from_mask(empty_mask(), s_mask=1.5, s_obj=0.0)


@pytest.mark.parametrize("s_obj", [float("nan"), float("inf"), -float("inf")])
def test_proposal_rejects_non_finite_object_score(s_obj):
    with pytest.raises(ValueError, match="s_obj must be finite"):
        Proposal.from_mask(empty_mask(), s_mask=0.5, s_obj=s_obj)


def test_observation_rejects_mismatched_mask_sizes():
    small = prop(rect_mask(8, 8, 0, 0, 2, 2), 0.5)
    large = prop(rect_mask(16, 16, 0, 0, 2, 2), 0.5)
    with pytest.raises(ValueError, match="frame 7: proposal masks differ in size"):
        FrameObservation(frame_idx=7, proposals=(small, large, small), o=1.0)


@pytest.mark.parametrize("o", [float("nan"), float("inf")])
def test_observation_rejects_non_finite_presence(o):
    p = prop(rect_mask(8, 8, 0, 0, 2, 2), 0.5)
    with pytest.raises(ValueError, match="frame 3: o must be finite"):
        FrameObservation(frame_idx=3, proposals=(p, p, p), o=o)


def test_observation_needs_three_proposals():
    p = prop(rect_mask(8, 8, 0, 0, 2, 2), 0.5)
    with pytest.raises(ValueError):
        FrameObservation(frame_idx=0, proposals=(p, p), o=1.0)


def test_observation_jsonl_roundtrip():
    rng = rng_for(34)
    features = FeatureGrid(rng.normal(size=(4, 4, 3)))
    original = obs(
        5,
        [prop(random_mask(rng, 16, 16), 0.7, 1.2),
         prop(random_mask(rng, 16, 16), 0.2, -0.4),
         prop(empty_mask(16, 16), 0.0, 0.0)],
        o=0.9,
        features=features,
    )
    line = observation_to_line(original)
    back = observation_from_line(line)
    assert back.frame_idx == original.frame_idx
    assert back.o == original.o
    assert np.array_equal(back.features.values, features.values)
    for got, want in zip(back.proposals, original.proposals):
        assert got.mask == want.mask
        assert got.s_mask == want.s_mask
        assert got.s_obj == want.s_obj
        assert got.bbox == want.bbox
    # serialization itself is deterministic
    assert observation_to_line(back) == line


# --- feature grids as a palette plus labels -----------------------------------------


@st.composite
def repetitive_grids(draw):
    """Grids whose cells repeat a few vectors, ``0.0`` and ``-0.0`` among them."""
    h, w, dim = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(draw(st.integers(1, 5)), dim))
    vectors[0] = 0.0
    if len(vectors) > 1:
        vectors[1] = -0.0
    return vectors[rng.integers(0, len(vectors), size=(h, w))]


@settings(max_examples=150, deadline=None)
@given(repetitive_grids())
def test_feature_grid_values_round_trip_bit_for_bit(values):
    grid = FeatureGrid(values)
    assert grid.values.tobytes() == values.tobytes()
    assert (grid.height, grid.width, grid.dim) == values.shape
    assert grid.labels.dtype == np.uint8 and len(grid.palette) <= 5
    assert len({row.tobytes() for row in grid.palette}) == len(grid.palette)


def test_feature_grid_labels_take_the_smallest_unsigned_type():
    values = np.arange(257 * 2, dtype=float).reshape(1, 257, 2)
    grid = FeatureGrid(values)
    assert grid.labels.dtype == np.uint16 and grid.values.tobytes() == values.tobytes()
    assert FeatureGrid(values[:, :256]).labels.dtype == np.uint8


@pytest.mark.parametrize("palette, labels, message", [
    ([[0.0, np.nan]], np.zeros((1, 1), dtype=np.uint8), "feature grid must be finite"),
    ([[0.0, 1.0]], np.array([[0, 1]], dtype=np.uint8), "feature label 1 outside a palette of 1"),
    ([[0.0, 1.0]], np.zeros((1, 1), dtype=np.int64), "unsigned integer"),
    ([[0.0, 1.0]], np.zeros(1, dtype=np.uint8), "unsigned integer"),
    ([0.0, 1.0], np.zeros((1, 1), dtype=np.uint8), "feature palette must have shape"),
])
def test_feature_grid_from_labels_checks_palette_and_labels(palette, labels, message):
    with pytest.raises(ValueError, match=message):
        FeatureGrid.from_labels(palette, labels)


@pytest.mark.parametrize("values, message", [
    (np.ones((2, 2)), "shape"),
    (np.ones((2, 2, 0)), "dim >= 1"),
    (np.full((1, 2, 1), np.inf), "finite"),
])
def test_feature_grid_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        FeatureGrid(values)


def test_feature_grids_compare_their_dense_values_bit_for_bit():
    rng = rng_for(36)
    palette = rng.normal(size=(3, 2))
    labels = rng.integers(0, 3, size=(4, 5)).astype(np.uint8)
    grid = FeatureGrid.from_labels(palette, labels)
    values = grid.values
    assert grid == FeatureGrid(values.copy())
    # the same cells through a permuted palette
    perm = np.array([2, 0, 1])
    relabel = np.argsort(perm).astype(np.uint8)
    assert grid == FeatureGrid.from_labels(palette[perm], relabel[labels])
    changed = values.copy()
    changed[3, 4, 1] = np.nextafter(changed[3, 4, 1], np.inf)
    assert grid != FeatureGrid(changed)
    # the same bytes in another shape
    assert grid != FeatureGrid(values.reshape(5, 4, 2))
    assert grid != FeatureGrid(values.reshape(4, 10, 1))
    assert not grid == "grid"


def test_feature_grids_keep_signed_zeros_apart():
    zeros = np.zeros((1, 2, 1))
    signed = np.array([[[0.0], [-0.0]]])
    assert FeatureGrid(zeros) == FeatureGrid(zeros.copy())
    assert FeatureGrid(zeros) != FeatureGrid(signed)
    assert FeatureGrid(signed) == FeatureGrid(signed.copy())


def test_observations_with_feature_grids_compare():
    rng = rng_for(37)
    values = rng.normal(size=(3, 3, 2))
    proposals = [prop(random_mask(rng, 8, 8), 0.5) for _ in range(3)]
    with_grid = obs(4, proposals, features=FeatureGrid(values))
    assert with_grid == obs(4, proposals, features=FeatureGrid(values.copy()))
    assert with_grid != obs(4, proposals, features=FeatureGrid(values + 1.0))
    assert with_grid != obs(4, proposals)
    assert observation_from_line(observation_to_line(with_grid)) == with_grid



def entry_with(vec) -> MemoryEntry:
    return MemoryEntry(3, rect_mask(8, 8, 1, 1, 3, 3), 0.5, None, Prototype(vec))


@pytest.mark.parametrize("build", [Prototype, entry_with], ids=["prototype", "memory_entry"])
def test_prototypes_compare_and_hash_by_the_bits_of_their_vectors(build):
    v = rng_for(38).normal(size=4)
    value = build(v)
    assert value == build(v.copy()) and hash(value) == hash(build(v.copy()))
    assert value != build(v + 1.0) and value != build(v[:3])
    assert build(np.zeros(2)) != build(np.array([0.0, -0.0]))
    assert not value == "value"

def test_observation_line_writes_the_dense_values():
    rng = rng_for(35)
    palette = rng.normal(size=(3, 2))
    palette[0] = -0.0
    labels = rng.integers(0, 3, size=(4, 5)).astype(np.uint8)
    mask = random_mask(rng, 16, 16)
    original = obs(2, [prop(mask, 0.5)] * 3, features=FeatureGrid.from_labels(palette, labels))
    dense = palette[labels]
    want = json.dumps({
        "frame": 2, "o": 1.0,
        "proposals": [{"mask": mask.to_text(), "s_mask": 0.5, "s_obj": 1.0}] * 3,
        "features": {"height": 4, "width": 5, "dim": 2, "values": dense.reshape(-1).tolist()},
    }, separators=(",", ":"))
    assert observation_to_line(original) == want
    assert observation_to_line(obs(2, [prop(mask, 0.5)] * 3, features=FeatureGrid(dense))) == want
    assert observation_to_line(observation_from_line(want)) == want


def _line_with(features) -> str:
    line = json.loads(observation_to_line(obs(0, [prop(empty_mask(4, 4), 0.5)] * 3)))
    line["features"] = features
    return json.dumps(line)


@pytest.mark.parametrize("features, message", [
    ("grid", "features must be a JSON object, got str"),
    ({"height": -1, "width": 1, "dim": 1, "values": [0.0, 1.0]},
     "features.height must be an integer >= 1, got -1"),
    ({"height": 1, "width": 0, "dim": 1, "values": []}, "features.width must be an integer"),
    ({"height": 1, "width": 1, "dim": 0, "values": []}, "features.dim must be an integer"),
    ({"height": 1, "width": 1.0, "dim": 1, "values": [0.0]}, "features.width must be an integer"),
    ({"height": True, "width": 1, "dim": 1, "values": [0.0]},
     "features.height must be an integer >= 1, got True"),
    ({"height": 1, "width": 1, "dim": False, "values": [0.0]},
     "features.dim must be an integer >= 1, got False"),
    ({"height": 1, "width": 1, "values": [0.0]}, "features.dim is missing"),
    ({"height": 1, "width": 1, "dim": 1}, "features.values is missing"),
    ({"height": 1, "width": 1, "dim": 2, "values": [0.0]},
     "features.values must be a flat list of height*width*dim = 2 numbers, got 1 items"),
    ({"height": 1, "width": 1, "dim": 2, "values": {"a": 1}},
     "features.values must be a flat list of height*width*dim = 2 numbers, got dict"),
    ({"height": 1, "width": 1, "dim": 2, "values": [0.0, [1.0]]},
     "features.values[1] must be a finite number, got [1.0]"),
    ({"height": 1, "width": 1, "dim": 2, "values": [True, 1.0]},
     "features.values[0] must be a finite number, got True"),
    ({"height": 1, "width": 1, "dim": 2, "values": [0.0, float("nan")]},
     "features.values[1] must be a finite number, got nan"),
    ({"height": 1, "width": 1, "dim": 2, "values": [0.0, 10 ** 400]},
     "features.values[1] must be a finite number"),
], ids=["not-object", "negative-height", "zero-width", "zero-dim", "float-width", "bool-height",
        "bool-dim", "no-dim", "no-values", "short-values", "values-object", "nested-value",
        "bool-value", "nan-value", "huge-int-value"])
def test_observation_line_rejects_bad_features_naming_the_key(features, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        observation_from_line(_line_with(features))


def test_observation_line_accepts_integer_feature_values():
    back = observation_from_line(_line_with({"height": 1, "width": 2, "dim": 1, "values": [3, -1]}))
    assert back.features.values.tobytes() == np.array([[[3.0], [-1.0]]]).tobytes()


def _frame_line() -> dict:
    return json.loads(observation_to_line(obs(2, [prop(rect_mask(4, 4, 0, 0, 2, 2), 0.5)] * 3)))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(frame="a"), "frame must be an integer, got 'a'"),
    (lambda d: d.update(frame=True), "frame must be an integer, got True"),
    (lambda d: d.pop("frame"), "frame is missing"),
    (lambda d: d.update(o=True), "o must be a number, got True"),
    (lambda d: d.update(o=10 ** 400), "o must be a number, got 1000"),
    (lambda d: d.update(proposals=5), "proposals must be a JSON array, got 5"),
    (lambda d: d["proposals"].__setitem__(1, 3), "proposals[1] must be a JSON object, got int"),
    (lambda d: d["proposals"][1].update(mask=5), "proposals[1].mask must be a mask string, got 5"),
    (lambda d: d["proposals"][0].update(mask="4 x"), "proposals[0].mask: bad mask header '4 x'"),
    (lambda d: d["proposals"][2].update(s_mask="x"),
     "proposals[2].s_mask must be a number, got 'x'"),
    (lambda d: d["proposals"][2].pop("s_mask"), "proposals[2].s_mask is missing"),
    (lambda d: d["proposals"][0].update(s_obj=True), "proposals[0].s_obj must be a number, got True"),
], ids=["str-frame", "bool-frame", "no-frame", "bool-o", "huge-int-o", "int-proposals",
        "int-proposal", "int-mask", "bad-mask-text", "str-s_mask", "no-s_mask", "bool-s_obj"])
def test_observation_line_rejects_bad_fields_naming_the_key(edit, message):
    line = _frame_line()
    edit(line)
    with pytest.raises(ValueError, match=re.escape(message)):
        observation_from_line(json.dumps(line))


def test_observation_line_accepts_integer_scores():
    line = _frame_line()
    line["o"] = 1
    line["proposals"][0].update(s_mask=1, s_obj=-2)
    back = observation_from_line(json.dumps(line))
    assert (back.o, back.proposals[0].s_mask, back.proposals[0].s_obj) == (1, 1, -2)
