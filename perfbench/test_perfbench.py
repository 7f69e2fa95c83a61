"""Tests for the benchmark's own code: span arithmetic, percentiles, the gate, speed scaling.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from trackmem import harness, simulator  # noqa: E402
from trackmem.geometry import BitMask  # noqa: E402


def span(seq, start, end, parent=-1, name="x"):
    return (seq, name, start, end, parent, "")


# --- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [span(0, 0, 100), span(1, 10, 50, parent=0), span(2, 20, 30, parent=1)]
    assert probe.self_times(spans) == {0: 60, 1: 30, 2: 10}


def test_self_time_adjacent_children_are_not_double_counted():
    spans = [span(0, 0, 100), span(1, 10, 40, parent=0), span(2, 40, 70, parent=0)]
    assert probe.self_times(spans)[0] == 40


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [span(0, 0, 100), span(1, 10, 50, parent=0), span(2, 30, 60, parent=0),
             span(3, 90, 120, parent=0)]
    assert probe.self_times(spans)[0] == 100 - 50 - 10


def test_summarize_keeps_parents_within_their_own_process():
    # pid 2 reuses seq 0; its span must not count as a child of pid 1's root
    batches = [(1, [span(0, 0, 100, name="root")]),
               (2, [span(0, 10, 20, name="leaf")])]
    totals = probe.summarize(batches)
    assert totals["root"] == [1, 100 / 1e9, 100 / 1e9]
    assert totals["leaf"] == [1, 10 / 1e9, 10 / 1e9]


def _library():
    """A module whose ``outer`` calls ``inner`` through the module namespace."""
    lib = types.ModuleType("lib")
    lib.inner = lambda x: x + 1
    lib.outer = lambda x: lib.inner(x) * 2
    return lib


def test_tracer_records_nesting_scope_and_restores():
    lib = _library()
    original = lib.inner
    tracer = probe.Tracer()
    tracer.wrap(lib, "inner", "lib.inner")
    tracer.wrap(lib, "outer", "lib.outer", scope=lambda args: f"x={args[0]}")
    assert lib.outer(3) == 8
    inner_span, outer_span = tracer.spans
    assert (inner_span[probe.NAME], outer_span[probe.NAME]) == ("lib.inner", "lib.outer")
    assert inner_span[probe.PARENT] == outer_span[probe.SEQ]
    assert outer_span[probe.PARENT] == -1
    assert inner_span[probe.SCOPE] == outer_span[probe.SCOPE] == "x=3"
    assert tracer.scope == ""
    tracer.restore()
    assert lib.inner is original


def test_instrumented_pass_restores_every_original(tmp_path):
    before = {(owner, name): vars(owner)[name]
              for owner, name in [(harness, "gen_sequence"), (harness, "_scene_job"),
                                  (harness, "ProcessPoolExecutor"), (BitMask, "area"),
                                  (BitMask, "from_dense"), (simulator, "mask_iou")]}
    for trace in (False, True):
        with workloads.Instrumented(trace, tmp_path):
            assert vars(harness)["_scene_job"] is workloads.scene_job
        for (owner, name), raw in before.items():
            assert vars(owner)[name] is raw


# --- percentiles ---------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert probe.percentile(samples, 99) == 990
    with pytest.raises(ValueError):
        probe.percentile(samples[:-1], 99)
    assert probe.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        probe.percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        probe.percentile([], 50)


# --- inputs -------------------------------------------------------------------------


def test_default_seed_is_the_frozen_suite_and_others_reseed_only():
    assert workloads.scene_configs(0) == simulator.suite_standard()
    a, b = workloads.scene_configs(7), workloads.scene_configs(7)
    assert a == b
    assert len({s.seed for s in a}) == len(a)
    for derived, frozen in zip(a, simulator.suite_standard()):
        assert derived.seed != frozen.seed
        assert replace(derived, seed=frozen.seed) == frozen


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOADS == run.WORKLOADS


# --- the correctness gate -----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A real two-scene, two-policy harness run, small enough for a unit test."""
    scenes = [simulator.SceneConfig(seed=s, frames=12, grid=(48, 48), family=f,
                                    target_motion=simulator.MotionSpec(size=(12.0, 10.0)),
                                    n_distractors=1, distractor_similarity=0.9)
              for s, f in ((5, "distractor"), (6, "occlusion"))]
    cfg = harness.default_config()
    cfg["policies"] = ["sam2_fifo", "samurai_drm"]
    cfg["scenes"] = [simulator.config_to_dict(s) for s in scenes]
    out = tmp_path_factory.mktemp("run") / "out"
    harness.run_benchmark(cfg, out, workers=1)
    pairs = {(p, workloads.scene_name(s)) for p in cfg["policies"] for s in scenes}
    return out, pairs


def _flip_one_byte(path: Path, offset: int = 10) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_gate_accepts_an_identical_copy_and_ignores_the_manifest(tiny_run, tmp_path):
    out, pairs = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    _flip_one_byte(copy / "manifest.json")
    failed, problems = gate.failed_pairs(gate.output_files(copy), gate.output_files(out), pairs)
    assert failed == set() and problems == []


def test_gate_charges_a_flipped_log_byte_to_its_pair(tiny_run, tmp_path):
    out, pairs = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    _flip_one_byte(copy / gate.log_path("samurai_drm", "occlusion_6"))
    failed, problems = gate.failed_pairs(gate.output_files(copy), gate.output_files(out), pairs)
    assert failed == {("samurai_drm", "occlusion_6")}
    assert len(problems) == 1
    assert gate.tree_digest(gate.output_files(copy)) != gate.tree_digest(gate.output_files(out))


def test_gate_charges_a_flipped_summary_byte_to_every_pair(tiny_run, tmp_path):
    out, pairs = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    _flip_one_byte(copy / "metrics.csv", offset=60)
    (copy / "plots" / "success_sam2_fifo.csv").unlink()
    failed, problems = gate.failed_pairs(gate.output_files(copy), gate.output_files(out), pairs)
    assert failed == pairs
    assert [p.split(":")[0] for p in problems] == ["metrics.csv", "plots/success_sam2_fifo.csv"]


def test_gate_rejects_a_perturbed_distractor_ao(tiny_run, tmp_path):
    out, _ = tiny_run
    ao = gate.aggregate_distractor_ao(out / "aggregate.json")
    baseline = {"mean_ao": dict(ao)}
    assert gate.ao_mismatches(ao, baseline) == []

    aggregate = json.loads((out / "aggregate.json").read_text())
    cell = aggregate["per_policy_family"]["samurai_drm"]["distractor"]
    cell["ao"] = math.nextafter(cell["ao"], 2.0)
    perturbed = tmp_path / "aggregate.json"
    perturbed.write_text(json.dumps(aggregate))
    problems = gate.ao_mismatches(gate.aggregate_distractor_ao(perturbed), baseline)
    assert len(problems) == 1 and "samurai_drm" in problems[0]


def test_recorded_digest_matches_the_locked_baseline_files():
    expected = json.loads(workloads.EXPECTED.read_text())
    assert gate.tree_digest(expected["files"]) == expected["tree_sha256"]
    assert "manifest.json" not in expected["files"]
    assert len(gate.only_logs(expected["files"])) == 60 * len(workloads.POLICIES)


# --- reference speed ----------------------------------------------------------------


def test_timings_are_divided_and_rates_multiplied_by_the_slowness():
    slow = speed.slowness([3 * speed.REFERENCE_NS, 2 * speed.REFERENCE_NS, speed.REFERENCE_NS])
    assert slow == 2.0
    scaled = workloads.at_reference_speed({"wall_s": 10.0, "frames_per_s": 100.0,
                                           "step_ms_p50": 0.5}, slow)
    assert scaled == {"wall_s": 5.0, "frames_per_s": 200.0, "step_ms_p50": 0.25}
    with pytest.raises(ValueError):
        speed.slowness([])


def test_only_untraced_passes_time_the_kernel(tmp_path):
    for trace, expected in ((False, 1), (True, 0)):
        with workloads.Instrumented(trace, tmp_path / str(trace)) as active:
            active.tick()
            _, kernel, _, _ = active.collect()
        assert len(kernel) == expected
