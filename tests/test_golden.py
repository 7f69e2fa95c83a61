"""Regression tests against the committed golden fixtures.

The fixtures under tests/fixtures were written once by
``oracles.materialize`` and are committed; a mismatch here means the
library changed behavior, and the fix is never to regenerate the
fixtures to match.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from trackmem.geometry import BitMask
from trackmem import harness
from trackmem.harness import ALL_POLICY_NAMES, default_config, run_scene, tracker_config_from
from trackmem.motion import MotionConfig, kf_init, kf_predict, kf_update
from trackmem.geometry import BBox, box_iou, mask_iou
from trackmem.selection import frame_result_to_line
from trackmem.simulator import (
    config_to_dict,
    gen_sequence,
    read_record,
    suite_standard,
    write_record,
)

from conftest import FIXTURES
from oracles import FIXTURE_SCENES


def load(rel: str):
    return json.loads((FIXTURES / rel).read_text())


def test_geometry_oracle_file():
    data = load("oracle/geometry.json")
    for case in data["boxes"]:
        got = box_iou(BBox(*case["a"]), BBox(*case["b"]))
        assert abs(got - case["iou"]) < 1e-9
    for case in data["masks"]:
        a = BitMask.from_text(case["a"])
        b = BitMask.from_text(case["b"])
        assert mask_iou(a, b) == case["iou"]


def test_kalman_oracle_file():
    data = load("oracle/kalman.json")
    cfg = MotionConfig(process_noise=data["process_noise"],
                       measurement_noise=data["measurement_noise"],
                       initial_cov_scale=data["initial_cov_scale"])
    for trace in data["traces"]:
        state = kf_init(BBox(*trace["init"]), cfg)
        for step, want in zip(trace["steps"], trace["states"]):
            state, _ = kf_predict(state)
            if step["op"] == "update":
                state = kf_update(state, BBox(*step["box"]))
            assert np.all(np.abs(state.mean - np.array(want["mean"])) < 1e-9)
            assert np.all(np.abs(state.cov.reshape(-1) - np.array(want["cov"])) < 1e-9)


def test_pathway_oracle_file():
    from conftest import obs, prop, rect_mask
    from trackmem.membank import MemoryBank
    from trackmem.pathways import pathway_expand, pathway_init, pathway_prune
    from trackmem.policies import PolicyConfig

    masks = [rect_mask(8, 8, 0, 0, 3, 3), rect_mask(8, 8, 3, 3, 3, 3),
             rect_mask(8, 8, 5, 5, 3, 3)]
    data = load("oracle/pathways.json")
    for case in data["cases"]:
        cfg = PolicyConfig(epsilon=case["epsilon"], beam_width=case["P"])
        beam = pathway_init(MemoryBank.new(masks[0], 4, 0))
        for t, row in enumerate(case["s_mask_rows"], start=1):
            o = obs(t, [prop(m, v) for m, v in zip(masks, row)], o=1.0)
            beam = pathway_prune(beam, pathway_expand(beam, o, cfg.epsilon), o, cfg)
        best = beam[0]
        assert [k for _, k in best.trajectory] == case["best_traj"]
        assert best.score == case["best_score"]


def test_topk_oracle_file():
    from trackmem.membank import MemoryEntry
    from trackmem.policies import samite_select_ram
    from conftest import rect_mask

    mask = rect_mask(8, 8, 1, 1, 3, 3)
    data = load("oracle/topk.json")
    for case in data["cases"]:
        entries = [
            (MemoryEntry(frame_idx=f, mask=mask, s_mask=0.9), s)
            for f, s in zip(case["frames"], case["scores"])
        ]
        first = MemoryEntry(frame_idx=0, mask=mask, s_mask=1.0)
        prev = MemoryEntry(frame_idx=99, mask=mask, s_mask=1.0)
        ram = samite_select_ram(entries, case["k"] + 2, first, prev)
        picked = [e.frame_idx for e in ram if e.frame_idx not in (0, 99)]
        assert picked == case["selected"]


def test_choice_oracle_file_pins_oracle_behavior():
    # the recorded decisions pin the reference implementations themselves;
    # library-vs-oracle equivalence runs at full scale in the acceptance suite
    from oracles import him_choice_oracle, samurai_choice_oracle

    data = load("oracle/choices.json")
    for case in data["samurai"]:
        got = samurai_choice_oracle(case["s_mask"], case["s_obj"], case["s_kf"],
                                    case["alpha"])
        assert got == case["choice"]
    for case in data["him"]:
        idx, conf, used_fine = him_choice_oracle(
            case["s_coarse"], case["s_fine"], case["s_iou"],
            case["alpha"], case["beta"], case["tau_conf"])
        assert [idx, conf, used_fine] == [case["choice"], case["conf"], case["used_fine"]]


def test_fixture_sequences_regenerate_identically(tmp_path):
    for scene in FIXTURE_SCENES:
        record = gen_sequence(scene)
        obs_path = tmp_path / f"{scene.family}.obs.jsonl"
        gt_path = tmp_path / f"{scene.family}.gt.jsonl"
        write_record(record, obs_path, gt_path)
        want_obs = (FIXTURES / "golden" / "sequences" / f"{scene.family}.obs.jsonl").read_bytes()
        want_gt = (FIXTURES / "golden" / "sequences" / f"{scene.family}.gt.jsonl").read_bytes()
        assert obs_path.read_bytes() == want_obs, scene.family
        assert gt_path.read_bytes() == want_gt, scene.family


def test_fixture_sequences_load():
    for scene in FIXTURE_SCENES:
        base = FIXTURES / "golden" / "sequences" / scene.family
        record = read_record(f"{base}.obs.jsonl", f"{base}.gt.jsonl")
        assert record.config == scene
        assert len(record.observations) == scene.frames
        assert not record.init_mask.is_empty


def test_golden_trace_replays_byte_identically():
    base = FIXTURES / "golden" / "sequences" / "occlusion"
    record = read_record(f"{base}.obs.jsonl", f"{base}.gt.jsonl")
    _, _, results = run_scene(record, tracker_config_from(default_config(), "samurai_drm"))
    got = "".join(frame_result_to_line(r) + "\n" for r in results)
    want = (FIXTURES / "golden" / "trace_samurai_drm.jsonl").read_text()
    assert got == want


# the benchmark's recorded sha256 of every default-run file (read here, never written)
BENCH_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def test_scene_job_logs_match_the_recorded_default_run():
    """All six policies' logs on one scene of each of three families, byte for byte."""
    recorded = json.loads(BENCH_EXPECTED.read_text())["files"]
    wanted = {"occlusion_101", "fast_motion_201", "distractor_301"}
    scenes = [s for s in suite_standard() if f"{s.family}_{s.seed}" in wanted]
    assert len(scenes) == len(wanted)
    for scene in scenes:
        family, seed, _, _, logs = harness._scene_job(
            (config_to_dict(scene), default_config(), ALL_POLICY_NAMES))
        assert list(logs) == ALL_POLICY_NAMES
        for name, text in logs.items():
            rel = f"logs/{name}/{family}_{seed}.jsonl"
            assert hashlib.sha256(text.encode()).hexdigest() == recorded[rel], rel


def test_distractor_baseline_structure():
    data = load("baselines/distractor_ao.json")
    assert data["family"] == "distractor"
    assert set(data["mean_ao"]) == {
        "sam2_fifo", "dam4sam", "samurai_drm", "sam2long_drm", "samite_drm",
        "him2sam_drm"}
    for vals in data["per_seed"].values():
        assert len(vals) == data["n_seeds"]
