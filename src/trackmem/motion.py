"""Constant-velocity Kalman filter over bounding-box state, in closed form.

SORT-style box filtering: the state is [cx, cy, w, h] plus per-component
velocities, dt = 1 frame, transition F = [[I, I], [0, I]], process noise
Q = q * I, measurement noise R = r * I on the four measured components
(H = [I, 0]). The predicted box feeds the motion-consistency scores used
by selection and admission gating.

The filter starts from cov = c * I, and F, Q, R and H treat the four box
components alike and separately. So the 8x8 covariance always holds one
2x2 (position, velocity) block [[a, b], [b, d]], the same for all four
components, and exact zeros everywhere else: the filter is four decoupled
scalar (position, velocity) pairs sharing one block, and runs on Python
floats:

    predict:  pos += vel
              (a, b, d) <- (((a + b) + (b + d)) + q,  b + d,  d + q)
    update:   inv = 1 / (a + r),  k1 = a * inv,  k2 = b * inv
              pos += k1 * e,  vel += k2 * e        (e: the innovation)
              m = 1 - k1
              (a, b, d) <- (m * a,  (m * b + (b - k2 * a)) / 2,  d - k2 * b)

These give the same bits as the 8x8 matrix form (``matrix_kf_predict``
and ``matrix_kf_update`` in ``tests/reference.py``). Every entry of the
matrix products is a sum of at most two nonzero terms (the others add
exact zeros), so it takes the same roundings as the scalar expression,
parenthesised as written; the
symmetrizing (P + P.T) / 2 leaves the diagonal as it is and averages the
two cross terms. The innovation covariance is exactly diagonal, and the
OpenBLAS bundled with numpy (0.3.31) solves a diagonal system as
b * (1 / s), not b / s, so the gain is a product with the reciprocal.
Python floats round the same on every platform, so the filter's bits do
not depend on the BLAS build; the matrix form's do.

Missed detections are handled by the caller: predict every frame, update
only on frames that pass selection, and re-initialize from the next
confident box once ``n_lost`` consecutive frames went without an update
(unbounded covariance would make the motion score meaningless).

All operations are pure functions on plain state values; there is no
hidden RNG and a replayed input trace is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import check_numbers
from .geometry import BBox

__all__ = ["KalmanState", "MotionConfig", "kf_init", "kf_predict", "kf_update"]

_POS = np.arange(4)
_VEL = _POS + 4

Quad = tuple[float, float, float, float]


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


class KalmanState(NamedTuple):
    """Gaussian box-motion belief: positions ``pos`` = (cx, cy, w, h), their
    per-frame velocities ``vel``, and the (position, velocity) covariance
    block [[a, b], [b, d]] every component shares.

    An immutable NamedTuple, built by position twice a frame by each motion
    policy; derive a changed state with ``_replace``. ``mean`` and ``cov``
    give the 8-vector and 8x8 matrix form.
    """

    pos: Quad
    vel: Quad
    a: float
    b: float
    d: float
    config: MotionConfig

    @property
    def mean(self) -> np.ndarray:
        """[cx, cy, w, h, vcx, vcy, vw, vh], built on each access, read-only."""
        mean = np.array(self.pos + self.vel)
        mean.flags.writeable = False
        return mean

    @property
    def cov(self) -> np.ndarray:
        """The 8x8 covariance [[a I, b I], [b I, d I]], built on each access, read-only."""
        cov = np.zeros((8, 8))
        cov[_POS, _POS] = self.a
        cov[_POS, _VEL] = cov[_VEL, _POS] = self.b
        cov[_VEL, _VEL] = self.d
        cov.flags.writeable = False
        return cov

    def predicted_box(self) -> BBox:
        """Current mean as a box, center converted to top-left, size clamped."""
        cx, cy, w, h = self.pos
        # what max(w, 1e-6) and max(h, 1e-6) return, without the calls
        w = 1e-6 if 1e-6 > w else w
        h = 1e-6 if 1e-6 > h else h
        return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


def _measurement(b: BBox) -> Quad:
    x, y, w, h = b
    return (float(x + w / 2.0), float(y + h / 2.0), float(w), float(h))


def kf_init(b0: BBox, cfg: MotionConfig) -> KalmanState:
    """Initialize at a box: position/size from ``b0``, velocities zero.

    Raises ValueError for a zero-area box, which carries no motion
    information to initialize from.
    """
    if b0.area == 0.0:
        raise ValueError("cannot initialize motion from a zero-area box")
    c = float(cfg.initial_cov_scale)
    return KalmanState(_measurement(b0), (0.0, 0.0, 0.0, 0.0), c, 0.0, c, cfg)


def kf_predict(s: KalmanState) -> tuple[KalmanState, BBox]:
    """One constant-velocity step: returns the prior state and its box."""
    (cx, cy, w, h), vel, a, b, d, config = s
    vcx, vcy, vw, vh = vel
    q = config.process_noise
    out = KalmanState((cx + vcx, cy + vcy, w + vw, h + vh), vel,
                      ((a + b) + (b + d)) + q, b + d, d + q, config)
    return out, out.predicted_box()


def kf_update(s: KalmanState, z: BBox) -> KalmanState:
    """Standard correction with measurement [cx, cy, w, h].

    A zero-area measurement is treated as missing: the state is returned
    unchanged.
    """
    if z.area == 0.0:
        return s
    (cx, cy, w, h), (vcx, vcy, vw, vh), a, b, d, config = s
    zcx, zcy, zw, zh = _measurement(z)
    ecx, ecy, ew, eh = zcx - cx, zcy - cy, zw - w, zh - h
    inv = 1.0 / (a + config.measurement_noise)
    k1, k2 = a * inv, b * inv
    m = 1.0 - k1
    return KalmanState(
        (cx + k1 * ecx, cy + k1 * ecy, w + k1 * ew, h + k1 * eh),
        (vcx + k2 * ecx, vcy + k2 * ecy, vw + k2 * ew, vh + k2 * eh),
        m * a, (m * b + (b - k2 * a)) / 2.0, d - k2 * b,
        config,
    )
