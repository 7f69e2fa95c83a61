"""Brute-force oracles for the tests, and :func:`materialize`, which wrote them out.

Everything in here deliberately avoids the library's own code paths:
box IoU comes from rasterized pixel counting, mask IoU from dense
arrays, the motion filter from a literal textbook recursion with
explicit matrix inverses, the pathway optimum from full 3^T
enumeration, and the selection rules from plain argmax loops. When a
test disagrees with one of these, the library is wrong, not the oracle;
oracle outputs are never regenerated to match the code under test.

:func:`materialize` writes the brute-force expected values (rasterized
IoU, dense filter recursions, exhaustive pathway enumerations, full-sort
top-k, selection replays), the golden sequence fixtures, and the locked
distractor-family baseline: the files of ``tests/fixtures``. Those were
written once and are committed; the tests only check that this function
still reproduces them byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from trackmem.checks import to_json
from trackmem.geometry import BitMask
from trackmem.harness import (
    ALL_POLICY_NAMES,
    config_digest,
    default_config,
    run_scene,
    tracker_config_from,
)
from trackmem.motion import MotionConfig
from trackmem.selection import frame_result_to_line
from trackmem.simulator import (
    MotionSpec,
    SceneConfig,
    config_to_dict,
    gen_sequence,
    suite_standard,
    write_record,
)


def dense_box_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Pixel-count IoU of two integer-aligned boxes via rasterization.

    Boxes are (x, y, w, h) with integer fields; a pixel belongs to a box
    when its integer coordinates satisfy x <= px < x + w (likewise for
    y). Exact for integer-aligned inputs.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    x0, y0 = min(ax, bx), min(ay, by)
    width = max(ax + aw, bx + bw) - x0
    height = max(ay + ah, by + bh) - y0
    if width <= 0 or height <= 0:
        return 0.0
    ga = np.zeros((height, width), dtype=bool)
    gb = np.zeros((height, width), dtype=bool)
    ga[ay - y0: ay - y0 + ah, ax - x0: ax - x0 + aw] = True
    gb[by - y0: by - y0 + bh, bx - x0: bx - x0 + bw] = True
    union = int((ga | gb).sum())
    if union == 0:
        return 0.0
    return int((ga & gb).sum()) / union


def dense_mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Pixel-count IoU of two dense boolean masks; 0 when either is empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError("mask shapes differ")
    if not a.any() or not b.any():
        return 0.0
    return int((a & b).sum()) / int((a | b).sum())


class DenseKalmanOracle:
    """Textbook constant-velocity filter recursion, matrices spelled out.

    State [cx, cy, w, h, vcx, vcy, vw, vh], dt = 1, explicit inverse in
    the gain. Independent of :mod:`trackmem.motion` by construction.
    """

    def __init__(self, box: tuple[float, float, float, float],
                 process_noise: float, measurement_noise: float,
                 initial_cov_scale: float):
        x, y, w, h = box
        self.x = np.array([x + w / 2.0, y + h / 2.0, w, h, 0.0, 0.0, 0.0, 0.0])
        self.P = initial_cov_scale * np.eye(8)
        self.q = process_noise
        self.r = measurement_noise
        self.F = np.eye(8)
        for i in range(4):
            self.F[i, i + 4] = 1.0
        self.H = np.hstack([np.eye(4), np.zeros((4, 4))])

    def predict(self) -> tuple[float, float, float, float]:
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.q * np.eye(8)
        cx, cy, w, h = self.x[:4]
        w = max(w, 1e-6)
        h = max(h, 1e-6)
        return (cx - w / 2.0, cy - h / 2.0, w, h)

    def update(self, box: tuple[float, float, float, float]) -> None:
        x, y, w, h = box
        z = np.array([x + w / 2.0, y + h / 2.0, w, h])
        innovation = z - self.H @ self.x
        s = self.H @ self.P @ self.H.T + self.r * np.eye(4)
        gain = self.P @ self.H.T @ np.linalg.inv(s)
        self.x = self.x + gain @ innovation
        self.P = (np.eye(8) - gain @ self.H) @ self.P


def exhaustive_best_trajectory(
    s_mask_rows: list[list[float]], epsilon: float
) -> tuple[tuple[int, ...], float]:
    """Enumerate all 3^T proposal choices; return the score-maximal one.

    Scores accumulate left to right exactly like the beam recursion.
    Ties resolve to the lexicographically smallest index sequence, which
    enumeration order provides for free with a strict comparison.
    """
    best_traj: tuple[int, ...] | None = None
    best_score = -math.inf
    for traj in itertools.product(range(3), repeat=len(s_mask_rows)):
        score = 0.0
        for t, k in enumerate(traj):
            score = score + math.log(s_mask_rows[t][k] + epsilon)
        if score > best_score:
            best_score = score
            best_traj = traj
    return best_traj, best_score


def topk_window_oracle(
    scored: list[tuple[int, float]], k: int
) -> list[int]:
    """Top-k window frames by (score desc, frame desc), output chronological."""
    ranked = sorted(scored, key=lambda item: (-item[1], -item[0]))
    return sorted(frame for frame, _ in ranked[:k])


def samurai_choice_oracle(
    s_mask: list[float], s_obj: list[float], s_kf: list[float], alpha: float
) -> int | None:
    """Plain loop over the three proposals; None when none qualifies."""
    best_idx = None
    best_score = None
    for i in range(len(s_mask)):
        if s_obj[i] <= 0.0:
            continue
        score = alpha * s_kf[i] + (1.0 - alpha) * s_mask[i]
        if best_score is None or score > best_score:
            best_idx, best_score = i, score
    return best_idx


def him_choice_oracle(
    s_coarse: list[float], s_fine: list[float], s_iou: list[float],
    alpha: float, beta: float, tau_conf: float,
) -> tuple[int, float, bool]:
    """Two-stage confidence logic replayed with plain loops."""
    stage1 = [alpha * c + (1.0 - alpha) * i for c, i in zip(s_coarse, s_iou)]
    if max(stage1) >= tau_conf:
        confs, used_fine = stage1, False
    else:
        confs = [alpha * c + beta * f + (1.0 - alpha - beta) * i
                 for c, f, i in zip(s_coarse, s_fine, s_iou)]
        used_fine = True
    best = 0
    for i in range(1, len(confs)):
        if confs[i] > confs[best]:
            best = i
    return best, confs[best], used_fine


# --- fixture materialization ---------------------------------------------------

# Scaled-down scene per suite family; these generate the golden fixtures.
FIXTURE_SCENES = [
    SceneConfig(seed=11, frames=30, grid=(64, 64),
                target_motion=MotionSpec(kind="linear", speed=1.5, size=(16.0, 12.0)),
                n_distractors=1, distractor_similarity=0.5,
                occlusions=((12, 20),), proto_dim=4, family="occlusion"),
    SceneConfig(seed=12, frames=30, grid=(64, 64),
                target_motion=MotionSpec(kind="sinusoid", amplitude=16.0,
                                         frequency=0.15, size=(16.0, 12.0)),
                n_distractors=1, distractor_similarity=0.3,
                proto_dim=4, family="fast_motion"),
    SceneConfig(seed=13, frames=30, grid=(64, 64),
                target_motion=MotionSpec(kind="linear", speed=1.5, size=(16.0, 12.0)),
                n_distractors=2, distractor_similarity=0.9,
                score_noise=0.06, proto_dim=4, family="distractor"),
]


def _oracle_geometry(rng: np.random.Generator) -> dict:
    box_cases = []
    for _ in range(500):
        ax, ay = rng.integers(0, 40, size=2)
        aw, ah = rng.integers(0, 24, size=2)
        bx, by = rng.integers(0, 40, size=2)
        bw, bh = rng.integers(0, 24, size=2)
        a = (int(ax), int(ay), int(aw), int(ah))
        b = (int(bx), int(by), int(bw), int(bh))
        box_cases.append({"a": list(a), "b": list(b), "iou": dense_box_iou(a, b)})
    mask_cases = []
    for _ in range(100):
        da = rng.random((32, 32)) < 0.3
        db = rng.random((32, 32)) < 0.3
        mask_cases.append({
            "a": BitMask.from_dense(da).to_text(),
            "b": BitMask.from_dense(db).to_text(),
            "iou": dense_mask_iou(da, db),
        })
    return {"boxes": box_cases, "masks": mask_cases}


def _oracle_kalman(rng: np.random.Generator) -> dict:
    noise = to_json(MotionConfig())  # the filter's default noise, without n_lost
    del noise["n_lost"]
    traces = []
    for _ in range(5):
        init = [float(v) for v in rng.uniform(10, 60, size=2)] + \
               [float(v) for v in rng.uniform(5, 25, size=2)]
        oracle = DenseKalmanOracle(tuple(init), **noise)
        steps = []
        states = []
        for _ in range(50):
            oracle.predict()
            if rng.random() < 0.8:
                z = [float(v) for v in
                     (np.array(init) + rng.normal(0, 2.0, size=4))]
                z[2] = max(z[2], 1.0)
                z[3] = max(z[3], 1.0)
                oracle.update(tuple(z))
                steps.append({"op": "update", "box": z})
            else:
                steps.append({"op": "predict_only"})
            states.append({
                "mean": [float(v) for v in oracle.x],
                "cov": [float(v) for v in oracle.P.reshape(-1)],
            })
        traces.append({"init": init, "steps": steps, "states": states})
    return {**noise, "traces": traces}


def _oracle_pathways(rng: np.random.Generator) -> dict:
    cases = []
    for frames in range(1, 7):
        for cap in (1, 2, 3):
            for _ in range(4):
                rows = [[float(v) for v in rng.random(3)] for _ in range(frames)]
                traj, score = exhaustive_best_trajectory(rows, 1e-6)
                cases.append({"s_mask_rows": rows, "P": cap, "epsilon": 1e-6,
                              "best_traj": list(traj), "best_score": score})
            # tie-heavy case from a coarse score alphabet
            rows = [[float(v) for v in rng.choice([0.2, 0.5, 0.9], size=3)]
                    for _ in range(frames)]
            traj, score = exhaustive_best_trajectory(rows, 1e-6)
            cases.append({"s_mask_rows": rows, "P": cap, "epsilon": 1e-6,
                          "best_traj": list(traj), "best_score": score})
    return {"cases": cases}


def _oracle_topk(rng: np.random.Generator) -> dict:
    cases = []
    for _ in range(200):
        n = int(rng.integers(0, 14))
        frames = sorted(rng.choice(np.arange(1, 40), size=n, replace=False).tolist()) \
            if n else []
        scores = [float(v) for v in rng.choice([0.1, 0.4, 0.7, 0.7, 0.9], size=n)]
        k = int(rng.integers(1, 7))
        selected = topk_window_oracle(list(zip(frames, scores)), k)
        cases.append({"frames": frames, "scores": scores, "k": k,
                      "selected": selected})
    return {"cases": cases}


def _oracle_choices(rng: np.random.Generator) -> dict:
    samurai = []
    for _ in range(300):
        s_mask = [float(v) for v in rng.random(3)]
        s_obj = [float(v) for v in rng.uniform(-1, 1, size=3)]
        s_kf = [float(v) for v in rng.random(3)]
        alpha = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        choice = samurai_choice_oracle(s_mask, s_obj, s_kf, alpha)
        samurai.append({"s_mask": s_mask, "s_obj": s_obj, "s_kf": s_kf,
                        "alpha": alpha, "choice": choice})
    him = []
    for _ in range(300):
        s_coarse = [float(v) for v in rng.random(3)]
        s_fine = [float(v) for v in rng.random(3)]
        s_iou = [float(v) for v in rng.random(3)]
        alpha, beta, tau = 0.4, 0.3, float(rng.choice([0.3, 0.5, 0.7]))
        idx, conf, used_fine = him_choice_oracle(s_coarse, s_fine, s_iou, alpha, beta, tau)
        him.append({"s_coarse": s_coarse, "s_fine": s_fine, "s_iou": s_iou,
                    "alpha": alpha, "beta": beta, "tau_conf": tau,
                    "choice": idx, "conf": conf, "used_fine": used_fine})
    return {"samurai": samurai, "him": him}


def _capture_distractor_baseline(n_seeds: int = 20) -> dict:
    """Mean AO per policy on the frozen distractor-heavy family."""
    scenes = [s for s in suite_standard(n_seeds=n_seeds) if s.family == "distractor"]
    cfg = default_config()
    per_seed: dict[str, dict[str, float]] = {name: {} for name in ALL_POLICY_NAMES}
    for scene in scenes:
        record = gen_sequence(scene)
        for name in ALL_POLICY_NAMES:
            outcome, _, _ = run_scene(record, tracker_config_from(cfg, name))
            per_seed[name][str(scene.seed)] = outcome.ao
    mean_ao = {name: float(np.mean(list(vals.values())))
               for name, vals in per_seed.items()}
    return {"family": "distractor", "n_seeds": n_seeds,
            "mean_ao": mean_ao, "per_seed": per_seed}


def materialize(out_dir) -> None:
    """Write the oracle expectations, golden fixtures and locked baseline under ``out_dir``."""
    out = Path(out_dir)
    rng = np.random.Generator(np.random.Philox(key=20240601))

    def write(rel: str, text: str) -> None:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def dump(rel: str, payload: dict) -> None:
        write(rel, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    dump("oracle/geometry.json", _oracle_geometry(rng))
    dump("oracle/kalman.json", _oracle_kalman(rng))
    dump("oracle/pathways.json", _oracle_pathways(rng))
    dump("oracle/topk.json", _oracle_topk(rng))
    dump("oracle/choices.json", _oracle_choices(rng))

    (out / "golden" / "sequences").mkdir(parents=True, exist_ok=True)
    for scene in FIXTURE_SCENES:
        record = gen_sequence(scene)
        base = out / "golden" / "sequences" / scene.family
        write_record(record, f"{base}.obs.jsonl", f"{base}.gt.jsonl")

    # golden trace: the motion-gated tracker on the occlusion fixture
    record = gen_sequence(FIXTURE_SCENES[0])
    _, _, results = run_scene(record, tracker_config_from(default_config(), "samurai_drm"))
    write("golden/trace_samurai_drm.jsonl",
          "".join(frame_result_to_line(r) + "\n" for r in results))

    suite_digest = config_digest([config_to_dict(s) for s in suite_standard()])
    write("golden/suite_digest.txt", suite_digest + "\n")

    dump("baselines/distractor_ao.json", _capture_distractor_baseline())
