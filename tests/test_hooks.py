"""The names the benchmark's tracer wraps are still called, and sessions free promptly.

``perfbench/workloads.py:instrument`` replaces module attributes and
``MemoryBank`` methods by timed wrappers, so a per-layer metric reads 0
as soon as the code stops calling a wrapped name through that namespace.
These tests wrap the same names with counters and step every policy.
"""

import gc
import weakref
from collections import Counter

from trackmem import membank, policies, selection
from trackmem.membank import MemoryBank
from trackmem.selection import PolicyKind, TrackerConfig, TrackerSession
from trackmem.simulator import MotionSpec, SceneConfig, gen_sequence

# names called through selection's namespace, one metric family each
SELECTION_NAMES = ["extract_prototypes", "kf_predict", "kf_update", "samite_calibrate",
                   "samite_select_ram", "pathway_expand", "pathway_prune",
                   "select_default", "select_samurai", "select_him"]
BANK_METHODS = ["consider_drm", "replace_ram", "copy"]


def small_record():
    # look-alike distractors, so the DRM's disagreement gate runs, and an occlusion
    return gen_sequence(SceneConfig(
        seed=7, frames=40, grid=(96, 96), target_motion=MotionSpec(size=(18.0, 14.0)),
        n_distractors=2, distractor_similarity=0.9, occlusions=((12, 20),), proto_dim=4))


def counted(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_wrapped_name_is_called(monkeypatch):
    counts = Counter()
    for name in SELECTION_NAMES:
        monkeypatch.setattr(selection, name,
                            counted(counts, f"selection.{name}", getattr(selection, name)))
    monkeypatch.setattr(policies, "cosine", counted(counts, "policies.cosine", policies.cosine))
    monkeypatch.setattr(policies, "box_iou", counted(counts, "policies.box_iou", policies.box_iou))
    monkeypatch.setattr(membank, "mask_iou", counted(counts, "membank.mask_iou", membank.mask_iou))
    for name in BANK_METHODS:
        monkeypatch.setattr(MemoryBank, name,
                            counted(counts, f"MemoryBank.{name}", vars(MemoryBank)[name]))
    step = vars(TrackerSession)["step"]
    stepped = Counter()

    def keyed_step(session, obs):
        stepped[session.cfg.policy] += 1
        return step(session, obs)

    monkeypatch.setattr(TrackerSession, "step", keyed_step)

    record = small_record()
    for policy in PolicyKind:
        TrackerSession(TrackerConfig(policy=policy), record.init_mask).run(record.observations)

    wanted = ([f"selection.{n}" for n in SELECTION_NAMES]
              + ["policies.cosine", "policies.box_iou", "membank.mask_iou"]
              + [f"MemoryBank.{n}" for n in BANK_METHODS])
    assert [key for key in wanted if counts[key] == 0] == []
    assert all(isinstance(kind, PolicyKind) for kind in stepped)
    assert stepped == {kind: len(record.observations) for kind in PolicyKind}


def test_finished_session_is_freed_without_the_cycle_collector():
    record = small_record()
    gc.collect()
    gc.disable()
    try:
        for policy in PolicyKind:
            session = TrackerSession(TrackerConfig(policy=policy), record.init_mask)
            results = session.run(record.observations)
            ref = weakref.ref(session)
            policy_ref = weakref.ref(session.policy)
            del session
            assert ref() is None, policy
            assert policy_ref() is None, policy
            assert len(results) == len(record.observations)
    finally:
        gc.enable()
