"""Constant-velocity box filtering and the motion-consistency score.

A target moves at a fixed velocity, disappears for a stretch, and
reappears. The filter predicts through the gap, uncertainty grows, and
the motion-consistency score (IoU of the predicted box with a candidate
box) shows why motion gating separates the target from a distractor that
affinity scores alone cannot.

Run with: python3 demos/02_motion_gating.py
"""

from trackmem import BBox, MotionConfig, box_iou, kf_init, kf_predict, kf_update

cfg = MotionConfig()
truth = lambda t: BBox(10.0 + 2.0 * t, 20.0 + 1.0 * t, 24.0, 18.0)
distractor = BBox(120.0, 40.0, 24.0, 18.0)  # parked look-alike

state = kf_init(truth(0), cfg)
print(" t   IoU(pred, truth)  IoU(pred, distractor)  cov trace")
for t in range(1, 25):
    state, predicted = kf_predict(state)
    occluded = 10 <= t < 16
    s_kf_target = box_iou(predicted, truth(t))
    s_kf_distr = box_iou(predicted, distractor)
    tag = "  (occluded: predict only)" if occluded else ""
    print(f"{t:2d}   {s_kf_target:16.3f}  {s_kf_distr:21.3f}  "
          f"{state.cov.trace():9.2f}{tag}")
    if not occluded:
        state = kf_update(state, truth(t))

# After the gap the prediction still overlaps the true track, so the
# motion score keeps selecting the target over the distractor.
