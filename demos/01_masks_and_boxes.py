"""Masks, boxes, and the IoU algebra everything else is built on.

Run with: python3 demos/01_masks_and_boxes.py
"""

import numpy as np

from trackmem import BBox, BitMask, box_iou, mask_iou, mask_to_bbox

# Boxes are real-valued, top-left convention. IoU is analytic.
a = BBox(0, 0, 2, 2)
b = BBox(1, 1, 2, 2)
print("box_iou((0,0,2,2), (1,1,2,2)) =", box_iou(a, b))  # 1/7
print("zero-area operand is 'no agreement':", box_iou(a, BBox(5, 5, 0, 3)))

# Masks are run-length encoded row by row; dense arrays convert both ways.
dense = np.zeros((6, 10), dtype=bool)
dense[2, 3:8] = True
dense[3, 2:9] = True
dense[4, 4:6] = True
mask = BitMask.from_dense(dense)
print("\nRLE text form:", mask.to_text())
print("area:", mask.area, "pixels")
print("tightest box:", mask_to_bbox(mask))

# Round-trip through the fixture text format is exact.
assert BitMask.from_text(mask.to_text()) == mask

# Mask IoU works directly on the runs and never builds a dense array.
shifted = BitMask.from_dense(np.roll(dense, 1, axis=1))
print("IoU with a 1px-shifted copy:", round(mask_iou(mask, shifted), 4))
