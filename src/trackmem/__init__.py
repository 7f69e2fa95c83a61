"""trackmem: hybrid memory policies for segmentation-based tracking.

A backbone-agnostic implementation of the object-centric memory bank
used by modern prompt-conditioned trackers: a reserved init slot, a
short-term recent-appearance memory with pluggable admission policies,
and a long-term distractor-resolving memory, exercised end to end by a
deterministic synthetic scene simulator and a benchmark harness.
"""

__version__ = "0.1.0"

from .geometry import BBox, BitMask, box_iou, mask_iou, mask_to_bbox
from .membank import DrmConfig, MemoryBank, MemoryEntry
from .metrics import EvalOutcome, evaluate
from .motion import KalmanState, MotionConfig, kf_init, kf_predict, kf_update
from .observation import (
    FeatureGrid,
    FrameObservation,
    Proposal,
    Prototype,
    cosine,
    extract_prototypes,
)
from .pathways import Pathway, pathway_expand, pathway_init, pathway_prune
from .policies import AdmissionReason, PolicyConfig
from .selection import FrameResult, PolicyKind, TrackerConfig, TrackerSession
from .simulator import MotionSpec, SceneConfig, SequenceRecord, gen_sequence, suite_standard

__all__ = [
    "__version__",
    "BBox", "BitMask", "box_iou", "mask_iou", "mask_to_bbox",
    "KalmanState", "MotionConfig", "kf_init", "kf_predict", "kf_update",
    "Proposal", "FrameObservation", "FeatureGrid", "Prototype",
    "extract_prototypes", "cosine",
    "MemoryEntry", "MemoryBank", "DrmConfig",
    "AdmissionReason", "PolicyConfig",
    "Pathway", "pathway_init", "pathway_expand", "pathway_prune",
    "PolicyKind", "TrackerConfig", "FrameResult", "TrackerSession",
    "SceneConfig", "MotionSpec", "SequenceRecord", "gen_sequence", "suite_standard",
    "EvalOutcome", "evaluate",
]
