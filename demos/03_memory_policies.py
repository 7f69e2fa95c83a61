"""All six RAM admission policies on one distractor-heavy scene.

Every tracker consumes the identical observation stream, so differences
come only from selection and admission logic: the affinity-argmax
trackers get fooled whenever the distractor outscores the target, the
motion-gated ones mostly keep the target, and each policy fills its RAM
with different frames. The DRM layer picks up sparse anchors whenever the
three proposals disagree.

Run with: python3 demos/03_memory_policies.py
"""

from trackmem import (
    MotionSpec,
    PolicyKind,
    SceneConfig,
    TrackerConfig,
    TrackerSession,
    evaluate,
    gen_sequence,
)

scene = SceneConfig(
    seed=301, frames=110,
    target_motion=MotionSpec(kind="linear", speed=2.0),
    n_distractors=4, distractor_similarity=0.9, score_noise=0.06,
    family="distractor",
)
record = gen_sequence(scene)
print(f"scene: {scene.n_distractors} distractors at similarity "
      f"{scene.distractor_similarity}, {scene.frames} frames\n")

print(f"{'policy':14s} {'AO':>6s} {'S':>6s} {'Q':>6s}   memory bank after the run")
for policy in PolicyKind:
    session = TrackerSession(TrackerConfig(policy=policy), record.init_mask)
    results = session.run(record.observations)
    pred = [r.chosen.bbox if (r.present and r.chosen) else None for r in results]
    out = evaluate(pred, [r.present for r in results], record.gt_boxes)
    bank = session.bank
    held = " ".join([f"i{bank.init.frame_idx}", *(f"d{e.frame_idx}" for e in bank.drm),
                     *(f"r{e.frame_idx}" for e in bank.ram)])
    print(f"{policy.value:14s} {out.ao:6.3f} {out.success_auc:6.3f} "
          f"{out.q:6.3f}   {held}")

print("\nbank legend: i = init slot, d = distractor-resolving anchor, r = RAM")
print("note: policies sharing the affinity-argmax selection produce identical")
print("predictions by construction; only their stored memory differs.")
