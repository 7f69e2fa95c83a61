import numpy as np
import pytest

from trackmem.geometry import BitMask
from trackmem.observation import (
    FeatureGrid,
    FrameObservation,
    Proposal,
    Prototype,
    cosine,
    extract_prototypes,
    observation_from_line,
    observation_to_line,
)

from conftest import empty_mask, obs, prop, random_mask, rect_mask, rng_for


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


def test_prototypes_match_per_cell_loop_oracle():
    rng = rng_for(31)
    for _ in range(50):
        gh, gw, dim = 6, 5, 4
        f = grid_from(rng.normal(size=(gh, gw, dim)))
        mask = random_mask(rng, w=20, h=18, density=0.4)
        fg = extract_prototypes(f, mask)

        # loop-and-accumulate oracle with explicit nearest-neighbor sampling
        dense = mask.to_dense()
        fg_acc = np.zeros(dim)
        fg_n = 0
        for gy in range(gh):
            for gx in range(gw):
                my = min(mask.height - 1, (2 * gy + 1) * mask.height // (2 * gh))
                mx = min(mask.width - 1, (2 * gx + 1) * mask.width // (2 * gw))
                if dense[my, mx]:
                    fg_acc += f.values[gy, gx]
                    fg_n += 1
        want_fg = fg_acc / fg_n if fg_n else np.zeros(dim)
        assert np.all(np.abs(fg.vec - want_fg) < 1e-12)


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
