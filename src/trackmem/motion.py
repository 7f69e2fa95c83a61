"""Constant-velocity Kalman filter over bounding-box state.

SORT-style box filtering: the state is [cx, cy, w, h] plus per-component
velocities, dt = 1 frame, transition F = [[I, I], [0, I]], process noise
Q = sigma_p^2 * I, measurement noise R = sigma_m^2 * I on the four
measured components. The predicted box feeds the motion-consistency
scores used by selection and admission gating.

Missed detections are handled by the caller: predict every frame, update
only on frames that pass selection, and re-initialize from the next
confident box once ``n_lost`` consecutive frames went without an update
(unbounded covariance would make the motion score meaningless).

All operations are pure functions on plain state values; there is no
hidden RNG and a replayed input trace is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_numbers
from .geometry import BBox

__all__ = ["KalmanState", "MotionConfig", "kf_init", "kf_predict", "kf_update"]

_DIM = 8  # [cx, cy, w, h, vcx, vcy, vw, vh]

_EYE4 = np.eye(4)
_EYE = np.eye(_DIM)
_F = np.eye(_DIM)
_F[:4, 4:] = _EYE4
_H = np.zeros((4, _DIM))
_H[:4, :4] = _EYE4
for _const in (_EYE4, _EYE, _F, _H):
    _const.flags.writeable = False
del _const


@dataclass(frozen=True)
class MotionConfig:
    """Filter noise parameters; all strictly positive.

    ``n_lost`` is the number of consecutive frames without an update after
    which callers should re-initialize from the next confident box.
    """

    process_noise: float = 1e-2
    measurement_noise: float = 1e-1
    initial_cov_scale: float = 10.0
    n_lost: int = 30

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.process_noise <= 0 or self.measurement_noise <= 0 or self.initial_cov_scale <= 0:
            raise ValueError("motion noise parameters must be strictly positive")
        if self.n_lost < 1:
            raise ValueError("n_lost must be >= 1")


@dataclass(frozen=True)
class KalmanState:
    """Gaussian box-motion belief: 8-vector mean and 8x8 covariance."""

    mean: np.ndarray
    cov: np.ndarray
    config: MotionConfig
    last_update_frame: int

    def predicted_box(self) -> BBox:
        """Current mean as a box, center converted to top-left, size clamped."""
        cx, cy, w, h = self.mean[:4].tolist()
        w = max(w, 1e-6)
        h = max(h, 1e-6)
        return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


def _box_to_measurement(b: BBox) -> np.ndarray:
    cx, cy = b.center
    return np.array([cx, cy, b.w, b.h], dtype=float)


def kf_init(b0: BBox, cfg: MotionConfig, frame_idx: int = 0) -> KalmanState:
    """Initialize at a box: position/size from ``b0``, velocities zero.

    Raises ValueError for a zero-area box, which carries no motion
    information to initialize from.
    """
    if b0.area == 0.0:
        raise ValueError("cannot initialize motion from a zero-area box")
    mean = np.zeros(_DIM)
    mean[:4] = _box_to_measurement(b0)
    cov = cfg.initial_cov_scale * np.eye(_DIM)
    return KalmanState(mean=mean, cov=cov, config=cfg, last_update_frame=frame_idx)


def kf_predict(s: KalmanState) -> tuple[KalmanState, BBox]:
    """One constant-velocity step: returns the prior state and its box."""
    mean = _F @ s.mean
    cov = _F @ s.cov @ _F.T + s.config.process_noise * _EYE
    cov = (cov + cov.T) / 2.0  # keep symmetric against fp drift
    out = KalmanState(mean=mean, cov=cov, config=s.config,
                      last_update_frame=s.last_update_frame)
    return out, out.predicted_box()


def kf_update(s: KalmanState, z: BBox, frame_idx: int | None = None) -> KalmanState:
    """Standard correction with measurement [cx, cy, w, h].

    A zero-area measurement is treated as missing: the state is returned
    unchanged. ``frame_idx``, when given, stamps ``last_update_frame``.
    """
    if z.area == 0.0:
        return s
    # H selects the four measured components, so H @ x, H @ P @ H.T and
    # P @ H.T are the slices below exactly: the 0/1 products add only zeros
    r = s.config.measurement_noise * _EYE4
    innovation = _box_to_measurement(z) - s.mean[:4]
    innovation_cov = s.cov[:4, :4] + r
    gain = np.linalg.solve(innovation_cov.T, s.cov[:, :4].T).T
    mean = s.mean + gain @ innovation
    cov = (_EYE - gain @ _H) @ s.cov
    cov = (cov + cov.T) / 2.0
    return KalmanState(
        mean=mean,
        cov=cov,
        config=s.config,
        last_update_frame=s.last_update_frame if frame_idx is None else frame_idx,
    )
