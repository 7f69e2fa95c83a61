"""Shared builders for mask/observation test data."""

from pathlib import Path

import numpy as np
import pytest

from trackmem.geometry import BitMask
from trackmem.observation import FrameObservation, Proposal

FIXTURES = Path(__file__).parent / "fixtures"


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def rect_mask(w: int, h: int, x: int, y: int, rw: int, rh: int) -> BitMask:
    dense = np.zeros((h, w), dtype=bool)
    dense[y:y + rh, x:x + rw] = True
    return BitMask.from_dense(dense)


def random_mask(rng: np.random.Generator, w: int = 32, h: int = 32,
                density: float = 0.3) -> BitMask:
    return BitMask.from_dense(rng.random((h, w)) < density)


def empty_mask(w: int = 32, h: int = 32) -> BitMask:
    return BitMask(width=w, height=h, runs=())


def prop(mask: BitMask, s_mask: float, s_obj: float = 1.0) -> Proposal:
    return Proposal(mask, s_mask, s_obj)


def obs(frame_idx: int, proposals, o: float = 1.0, features=None) -> FrameObservation:
    return FrameObservation(frame_idx=frame_idx, proposals=tuple(proposals),
                            o=o, features=features)


@pytest.fixture
def rng() -> np.random.Generator:
    return rng_for(1234)
