import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmem.geometry import BBox, box_iou
from trackmem.motion import MotionConfig, kf_init, kf_predict, kf_update
from trackmem.oracles import DenseKalmanOracle

from conftest import rng_for
from reference import matrix_kf_box, matrix_kf_predict, matrix_kf_update

CFG = MotionConfig()


def random_box(rng, lo=5.0, hi=60.0):
    return BBox(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)),
                float(rng.uniform(2.0, 30.0)), float(rng.uniform(2.0, 30.0)))


def run_both(rng, steps: int):
    """Drive the filter and the dense oracle with one random trace."""
    b0 = random_box(rng)
    state = kf_init(b0, CFG)
    oracle = DenseKalmanOracle((b0.x, b0.y, b0.w, b0.h),
                               CFG.process_noise, CFG.measurement_noise,
                               CFG.initial_cov_scale)
    for _ in range(steps):
        state, _ = kf_predict(state)
        oracle.predict()
        if rng.random() < 0.8:
            z = random_box(rng)
            state = kf_update(state, z)
            oracle.update((z.x, z.y, z.w, z.h))
        yield state, oracle


def test_init_examples():
    s = kf_init(BBox(0, 0, 2, 2), CFG)
    assert np.array_equal(s.mean, [1, 1, 2, 2, 0, 0, 0, 0])
    assert np.array_equal(s.cov, CFG.initial_cov_scale * np.eye(8))


def test_init_rejects_zero_area():
    with pytest.raises(ValueError):
        kf_init(BBox(0, 0, 0, 2), CFG)


def test_predict_zero_velocity_keeps_box():
    s = kf_init(BBox(3, 4, 5, 6), CFG)
    _, box = kf_predict(s)
    assert (box.x, box.y, box.w, box.h) == (3, 4, 5, 6)


def test_predict_extrapolates_velocity():
    s = kf_init(BBox.from_center(0, 0, 2, 2), CFG)
    s = dataclasses.replace(s, vel=(1.0, 0.0, 0.0, 0.0))  # vcx = 1 px/frame
    _, box = kf_predict(s)
    assert box.center == (1.0, 0.0)


def test_update_with_predicted_box_keeps_mean():
    s = kf_init(BBox(10, 10, 8, 6), CFG)
    s, box = kf_predict(s)
    updated = kf_update(s, box)
    assert np.allclose(updated.mean, s.mean, atol=1e-12)


def test_update_zero_area_is_missing_measurement():
    s = kf_init(BBox(10, 10, 8, 6), CFG)
    assert kf_update(s, BBox(0, 0, 0, 3)) is s


def test_repeated_update_converges_to_measurement():
    s = kf_init(BBox(0, 0, 4, 4), CFG)
    z = BBox(30, 20, 10, 8)
    for _ in range(50):
        s, _ = kf_predict(s)
        s = kf_update(s, z)
    zc = z.center
    assert abs(s.mean[0] - zc[0]) < 1e-3
    assert abs(s.mean[1] - zc[1]) < 1e-3
    assert abs(s.mean[2] - z.w) < 1e-3
    assert abs(s.mean[3] - z.h) < 1e-3


def test_trace_matches_dense_oracle():
    rng = rng_for(21)
    for _ in range(10):
        for state, oracle in run_both(rng, steps=50):
            assert np.all(np.abs(state.mean - oracle.x) < 1e-9)
            assert np.all(np.abs(state.cov - oracle.P) < 1e-9)


def test_covariance_stays_symmetric():
    rng = rng_for(22)
    state = kf_init(random_box(rng), CFG)
    for _ in range(10_000):
        state, _ = kf_predict(state)
        if rng.random() < 0.7:
            state = kf_update(state, random_box(rng))
        assert np.abs(state.cov - state.cov.T).max() < 1e-9
        assert np.all(np.diag(state.cov) >= 0.0)


def test_constant_velocity_target_is_locked_within_20_frames():
    quiet = MotionConfig(process_noise=1e-12, measurement_noise=1e-12)
    truth = lambda t: BBox(5.0 + 2.0 * t, 8.0 + 1.0 * t, 10.0, 6.0)
    state = kf_init(truth(0), quiet)
    for t in range(1, 40):
        state, predicted = kf_predict(state)
        if t >= 20:
            assert box_iou(predicted, truth(t)) >= 0.95
        state = kf_update(state, truth(t))


def test_filter_is_bit_reproducible():
    def run():
        rng = rng_for(23)
        state = kf_init(BBox(10, 12, 6, 7), CFG)
        out = []
        for _ in range(100):
            state, _ = kf_predict(state)
            state = kf_update(state, random_box(rng))
            out.append(state.mean.tobytes() + state.cov.tobytes())
        return out

    assert run() == run()


def test_config_validation():
    with pytest.raises(ValueError):
        MotionConfig(process_noise=0.0)
    with pytest.raises(ValueError):
        MotionConfig(n_lost=0)


# --- bit-exact against the matrix form --------------------------------------------


finite = st.floats(-200.0, 200.0, allow_nan=False)
sizes = st.floats(0.0, 80.0, allow_nan=False)
noise = st.floats(1e-6, 50.0, allow_nan=False)


@given(
    st.tuples(finite, finite, st.floats(0.5, 80.0), st.floats(0.5, 80.0)),
    noise, noise, noise,
    st.lists(st.one_of(st.none(), st.tuples(finite, finite, sizes, sizes)),
             min_size=1, max_size=25),
)
def test_filter_equals_matrix_form_bit_for_bit(b0, q, r, scale, ops):
    """Predict every step and update on the drawn boxes (None: predict only).

    Zero-size boxes are drawn too: the filter skips them as missing, so the
    reference does as well.
    """
    cfg = MotionConfig(process_noise=q, measurement_noise=r, initial_cov_scale=scale)
    state = kf_init(BBox(*b0), cfg)
    mean, cov = state.mean.copy(), state.cov.copy()
    for op in ops:
        state, box = kf_predict(state)
        mean, cov = matrix_kf_predict(mean, cov, q)
        assert np.array_equal(state.mean, mean) and np.array_equal(state.cov, cov)
        assert (box.x, box.y, box.w, box.h) == matrix_kf_box(mean)
        if op is None:
            continue
        z = BBox(*op)
        state = kf_update(state, z)
        if z.area != 0.0:
            mean, cov = matrix_kf_update(mean, cov, (*z.center, z.w, z.h), r)
        assert np.array_equal(state.mean, mean) and np.array_equal(state.cov, cov)
        box = state.predicted_box()
        assert (box.x, box.y, box.w, box.h) == matrix_kf_box(mean)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), noise, noise, noise)
def test_filter_equals_matrix_form_bit_for_bit_on_long_traces(seed, q, r, scale):
    """The check above over 200-400 steps, long enough for the covariance to settle
    and, on predict-only stretches, to grow far from its start."""
    rng = rng_for(seed)

    def draw_box():
        x, y = rng.uniform(-200.0, 200.0, 2)
        w, h = rng.uniform(0.0, 80.0, 2) * (rng.random(2) > 0.05)  # some zero-size
        return (float(x), float(y), float(w), float(h))

    ops = [None if rng.random() < 0.3 else draw_box() for _ in range(rng.integers(200, 401))]
    b0 = draw_box()
    b0 = (b0[0], b0[1], max(b0[2], 0.5), max(b0[3], 0.5))
    test_filter_equals_matrix_form_bit_for_bit.hypothesis.inner_test(b0, q, r, scale, ops)
