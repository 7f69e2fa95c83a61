"""Multi-hypothesis memory pathways: expansion, scoring, pruning.

Three pathways track three competing interpretations of an ambiguous
frame sequence. Scores accumulate log(s_mask + eps) along each
trajectory; pruning keeps the top ``beam_width`` with a deterministic
tie order, and each surviving hypothesis advances its own memory bank.
The beam is a plain list, best pathway first. The best
pathway's trajectory provably matches exhaustive enumeration of all 3^T
choices (see tests), so the beam is shown here mostly for its bank
divergence.

Run with: python3 demos/04_pathway_beam.py
"""

import numpy as np

from trackmem import MemoryBank, PolicyConfig
from trackmem.geometry import BitMask
from trackmem.observation import FrameObservation, Proposal
from trackmem.pathways import pathway_expand, pathway_init, pathway_prune

cfg = PolicyConfig(beam_width=3, epsilon=1e-6)


def mask_at(x):
    dense = np.zeros((16, 16), dtype=bool)
    dense[4:9, x:x + 5] = True
    return BitMask.from_dense(dense)


MASKS = [mask_at(0), mask_at(5), mask_at(10)]

# an ambiguous stretch: proposal qualities stay close for a few frames
score_rows = [
    (0.90, 0.20, 0.10),
    (0.55, 0.60, 0.30),  # the distractor briefly outscores the target
    (0.58, 0.57, 0.20),
    (0.85, 0.40, 0.10),  # ambiguity resolves
    (0.92, 0.30, 0.10),
]

beam = pathway_init(MemoryBank.new(MASKS[0], k_ram=4, k_drm=0))
for t, row in enumerate(score_rows, start=1):
    o = FrameObservation(
        frame_idx=t,
        proposals=tuple(Proposal(m, s, 1.0) for m, s in zip(MASKS, row)),
        o=1.0,
    )
    candidates = pathway_expand(beam, o, cfg.epsilon)
    beam = pathway_prune(beam, candidates, o, cfg)
    print(f"frame {t}: scores {row}")
    for rank, p in enumerate(beam):
        traj = "".join(str(k) for _, k in p.trajectory)
        ram = [e.frame_idx for e in p.bank.ram]
        print(f"  #{rank}: trajectory {traj}  cumulative {p.score:8.4f}  RAM {ram}")

best = beam[0]
print("\nwinning trajectory:", [k for _, k in best.trajectory])
print("its bank kept frames:", [e.frame_idx for e in best.bank.ram],
      "(low-quality frames failed the admission gate)")
