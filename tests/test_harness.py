import json
from pathlib import Path

import pytest

from trackmem import harness

from trackmem.harness import (
    ALL_POLICY_NAMES,
    CSV_HEADER,
    ConfigError,
    apply_overrides,
    cmd_compare,
    cmd_run,
    config_digest,
    default_config,
    load_config,
    run_benchmark,
    scene_list,
    tracker_config_from,
)
from trackmem.checks import shown
from trackmem.cli import main as cli_main
from trackmem.policies import PolicyConfig
from trackmem.simulator import MotionSpec, SceneConfig, config_to_dict

from conftest import FIXTURES
from oracles import materialize

TINY_SCENES = [
    config_to_dict(SceneConfig(
        seed=900 + i, frames=18, grid=(64, 64),
        target_motion=MotionSpec(size=(14.0, 10.0)),
        n_distractors=1, distractor_similarity=0.8, proto_dim=4,
        occlusions=((6, 10),), family="tiny"))
    for i in range(2)
]


def tiny_config(tmp_path: Path, **extra) -> Path:
    cfg = {"suite": "custom", "scenes": TINY_SCENES,
           "policies": list(ALL_POLICY_NAMES)}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


BEYOND_FLOAT = 10 ** 400  # a JSON integer math.isfinite cannot take


# --- config handling ---------------------------------------------------------


def test_load_config_fills_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"n_seeds": 3}')
    cfg = load_config(path)
    assert cfg["n_seeds"] == 3
    assert cfg["policies"] == ALL_POLICY_NAMES
    assert len(scene_list(cfg)) == 9


def test_load_config_reports_json_error_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "policies": [,]\n}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":2:" in str(err.value)


def test_load_config_rejects_unknown_policy(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"policies": ["samurai_drm", "nope"]}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "nope" in str(err.value)


def test_load_config_rejects_bad_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"policy": {"alpha": 2.0}}')
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{\x00}\x00",
    b'{"k_ram": 1' + b"0" * 5000 + b"}",
    b"[" * 200_000,
], ids=["utf16-bom", "5000-digit-integer", "200000-brackets"])
def test_config_json_cannot_load_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}: cannot load config: ")
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.startswith(f"error: {path}: cannot load config: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("item, message", [
    ("k_ram=1" + "0" * 5000,
     "command-line override: k_ram must be an integer, got '10"),
    ("policy=" + "[" * 5000, "command-line override: bad 'policy' section: "),
], ids=["5000-digit-integer", "5000-brackets"])
def test_set_value_json_cannot_load_is_text_and_exits_2_naming_the_key(tmp_path, capsys,
                                                                        item, message):
    with pytest.raises(ConfigError) as err:
        apply_overrides(default_config(), [item])
    assert str(err.value).startswith(message)
    cfg_path = tiny_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--set", item]) == 2
    assert capsys.readouterr().out.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


def test_rejected_value_is_echoed_cut_to_a_bounded_length(tmp_path, capsys):
    assert cmd_run(tiny_config(tmp_path), tmp_path / "out", sets=["k_ram=1" + "0" * 5000]) == 2
    out = capsys.readouterr().out
    assert out == ("error: command-line override: k_ram must be an"
                   " integer, got '1" + "0" * 78 + "... (5003 characters)\n")
    assert not (tmp_path / "out").exists()


def test_shown_keeps_a_short_repr_and_cuts_a_long_one():
    assert shown("samite") == "'samite'"
    assert shown([1, 2]) == "[1, 2]"
    assert shown("x" * 78) == repr("x" * 78)
    assert shown("x" * 79) == "'" + "x" * 79 + "... (81 characters)"
    # repr itself refuses an int of more than sys.get_int_max_str_digits() digits
    assert shown(10 ** 5000) == "an integer of 16610 bits"
    with pytest.raises(ValueError, match="^alpha must be a finite real number, got an integer"):
        PolicyConfig(alpha=10 ** 5000)


def test_apply_overrides_dotted_paths():
    cfg = default_config()
    out = apply_overrides(cfg, ["policy.alpha=0.4", "n_seeds=2",
                                "policies=[\"samurai_drm\"]"])
    assert out["policy"]["alpha"] == 0.4
    assert out["n_seeds"] == 2
    assert out["policies"] == ["samurai_drm"]
    assert cfg["policies"] == ALL_POLICY_NAMES  # original untouched


def test_apply_overrides_validates():
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), ["no_equals_sign"])
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), ['policies=["bogus"]'])


def test_dotted_set_through_a_value_names_the_key():
    with pytest.raises(ConfigError, match="k_ram.x.*'k_ram' is not a section"):
        apply_overrides(default_config(), ["k_ram.x=1"])


@pytest.mark.parametrize("item, message", [
    ("k_ram=0", "k_ram must be >= 1"),
    ("k_ram=2.5", "k_ram must be an integer, got 2.5"),
    ("k_drm=-1", "k_drm must be >= 0"),
    ('n_seeds="a"', "'n_seeds' must be an integer >= 1, got 'a'"),
    ("n_seeds=0", "'n_seeds' must be an integer >= 1, got 0"),
    ("k_drm=true", "k_drm must be an integer, got True"),
    ("k_ram=1", "policy 'samite_drm': the prototype-calibrated policy needs k_ram >= 2"
                " for its anchors"),
], ids=["k_ram=0-k_ram", "k_ram=2.5-k_ram", "k_drm=-1-k_drm", 'n_seeds="a"-n_seeds',
        "n_seeds=0-n_seeds", "k_drm=true-k_drm", "k_ram=1-samite_drm"])
def test_capacities_and_seed_count_are_validated(item, message):
    # the capacities are checked by each listed policy's TrackerConfig; a rule
    # every policy has names none
    with pytest.raises(ConfigError) as err:
        apply_overrides(default_config(), [item])
    assert str(err.value) == f"command-line override: {message}"


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key.*'k_rm'"):
        apply_overrides(default_config(), ["k_rm=3"])
    path = tmp_path / "c.json"
    path.write_text('{"k_rm": 3}')
    with pytest.raises(ConfigError, match="'k_rm'"):
        load_config(path)


def test_unknown_scene_key_exits_2(tmp_path, capsys):
    scene = dict(TINY_SCENES[0], n_distractor=2)
    path = tiny_config(tmp_path, scenes=[scene])
    assert cmd_run(path, tmp_path / "out") == 2
    assert "bad scene 0" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_load_config_checks_each_listed_policy_naming_the_file(tmp_path):
    path = tiny_config(tmp_path, k_ram=1)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == (f"{path}: policy 'samite_drm': the prototype-calibrated"
                              " policy needs k_ram >= 2 for its anchors")
    assert load_config(tiny_config(tmp_path, k_ram=1, policies=["dam4sam"]))["k_ram"] == 1
    # whether a rule is one policy's is read off every policy, not the listed ones
    for k_ram, policy, message in [(0, "dam4sam", "k_ram must be >= 1"),
                                   (1, "samite_drm", "policy 'samite_drm': the prototype-"
                                    "calibrated policy needs k_ram >= 2 for its anchors")]:
        path = tiny_config(tmp_path, k_ram=k_ram, policies=[policy])
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {message}"


def test_policy_that_rejects_the_capacities_exits_2(tmp_path, capsys):
    # the prototype-calibrated policy needs two RAM slots for its anchors
    path = tiny_config(tmp_path, k_ram=1)
    assert cmd_run(path, tmp_path / "out") == 2
    assert capsys.readouterr().out == (
        f"error: {path}: policy 'samite_drm': the prototype-calibrated policy needs"
        " k_ram >= 2 for its anchors\n")
    assert not (tmp_path / "out").exists()
    # the rule is samite's alone: other policies run with one RAM slot, and
    # --policy replaces the list before the file is checked
    assert cmd_run(path, tmp_path / "out", policy_filter=["dam4sam"]) == 0
    assert cmd_run(tiny_config(tmp_path), tmp_path / "out", sets=["k_ram=1"],
                   policy_filter=["dam4sam"]) == 0
    assert cmd_run(tiny_config(tmp_path, k_ram=1, policies=["dam4sam"]),
                   tmp_path / "out") == 0


@pytest.mark.parametrize("section, key, value", [
    ("policy", "beam_width", 2.5), ("policy", "window_m", 16.5),
    ("policy", "delta_ram", 5.5), ("policy", "delta_ram", True),
    ("drm", "min_gap", True), ("motion", "n_lost", 2.5),
])
def test_integer_fields_exit_2_naming_the_key(tmp_path, capsys, section, key, value):
    path = tiny_config(tmp_path, **{section: {key: value}})
    assert cmd_run(path, tmp_path / "out") == 2
    out = capsys.readouterr().out
    assert f"{path}: bad {section!r} section: {key} must be an integer, got {value!r}" in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("item, section, key, value", [
    ("drm.tau_q=true", "drm", "tau_q", True),
    ("policy.alpha=true", "policy", "alpha", True),
    ('policy.alpha="0.5"', "policy", "alpha", "0.5"),
    ("motion.process_noise=Infinity", "motion", "process_noise", float("inf")),
    ("drm.area_hi=NaN", "drm", "area_hi", float("nan")),
    pytest.param(f"policy.alpha={BEYOND_FLOAT}", "policy", "alpha", BEYOND_FLOAT,
                 id="policy.alpha=401-digits"),
])
def test_float_fields_exit_2_naming_the_key(tmp_path, capsys, item, section, key, value):
    assert cmd_run(tiny_config(tmp_path), tmp_path / "out", sets=[item]) == 2
    out = capsys.readouterr().out
    assert (f"bad {section!r} section: {key} must be a finite real number, "
            f"got {shown(value)}") in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["policy", "motion", "drm"])
@pytest.mark.parametrize("item, message", [
    ("{section}.alpa=0.4", "unknown {section} key(s) 'alpa'"),
    ("{section}=5", "{section} must be a JSON object, got 5"),
], ids=["unknown-key", "not-an-object"])
def test_bad_sections_exit_2_naming_section_and_key(tmp_path, capsys, section, item, message):
    item, message = item.format(section=section), message.format(section=section)
    assert cmd_run(tiny_config(tmp_path), tmp_path / "out", sets=[item]) == 2
    assert f"bad {section!r} section: {message}" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_float_fields_take_json_integers():
    cfg = apply_overrides(default_config(), ["policy.alpha=0", "drm.tau_q=1",
                                             "motion.process_noise=1"])
    tc = tracker_config_from(cfg, "samurai_drm")
    assert (tc.policy_cfg.alpha, tc.drm_cfg.tau_q, tc.motion_cfg.process_noise) == (0, 1, 1)


@pytest.mark.parametrize("change, key", [
    ({"grid": [0, 0]}, "grid"), ({"grid": [64]}, "grid"), ({"grid": [64.5, 64]}, "grid"),
    ({"frames": 12.5}, "frames"), ({"frames": True}, "frames"),
    ({"seed": "a"}, "seed"), ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
    ({"n_distractors": 1.5}, "n_distractors"), ({"proto_dim": 4.5}, "proto_dim"),
    ({"target_motion": {"speed": float("nan")}}, "target_motion: speed"),
    ({"score_noise": float("inf")}, "score_noise"),
    ({"occlusions": [[6.5, 10]]}, "occlusions"),
    ({"occlusions": 5}, "occlusions"), ({"target_motion": 3}, "target_motion"),
    ({"grid": [2, 3], "n_distractors": 0}, "grid"),
    ({"target_motion": {"size": [1.0, 8.0]}}, "target_motion.size"),
    ({"score_noise": BEYOND_FLOAT}, "score_noise"),
    ({"family": "../x"}, "family"), ({"family": 5}, "family"), ({"family": ""}, "family"),
    ({"grid": [70000, 64]}, "grid"), ({"grid": [64, 65536]}, "grid"),
    ({"score_noise": 1e101}, "score_noise"), ({"score_noise": 1e300}, "score_noise"),
    ({"score_noise": 1e308}, "score_noise"), ({"score_noise": -0.5}, "score_noise"),
    ({"target_motion": {"frequency": 1e308}}, "target_motion: frequency"),
    ({"target_motion": {"frequency": -1e101}}, "target_motion: frequency"),
    ({"target_motion": {"step_sigma": -1.0}}, "target_motion: step_sigma"),
    # scenes too large to generate: each once ended in a MemoryError
    ({"frames": 10 ** 12, "grid": [64, 64], "target_motion": {"size": [10, 8]}}, "frames"),
    ({"frames": 20, "proto_dim": 10 ** 12, "grid": [64, 64],
      "target_motion": {"size": [10, 8]}}, "proto_dim"),
    ({"frames": 110, "grid": [65535, 65535]}, "frames and grid"),
])
def test_bad_scene_values_exit_2_naming_scene_and_key(tmp_path, capsys, change, key):
    scenes = [TINY_SCENES[0], dict(TINY_SCENES[1], **change)]
    assert cmd_run(tiny_config(tmp_path, scenes=scenes), tmp_path / "out") == 2
    assert f"bad scene 1: {key} must " in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_random_walk_with_a_huge_sigma_runs(tmp_path, capsys):
    # some of its steps draw as +-inf; RuntimeWarnings are errors under pytest
    scene = {"seed": 1, "frames": 20, "grid": [64, 64],
             "target_motion": {"kind": "random_walk", "step_sigma": 1e308, "size": [10, 8]}}
    config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--set", f"scenes={json.dumps([scene])}"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "metrics.csv").is_file()


def test_a_huge_score_noise_exits_2_naming_it(tmp_path, capsys):
    # it once rendered proposals at overflowed centers; RuntimeWarnings are errors here
    scene = {"seed": 1, "frames": 20, "grid": [64, 64], "score_noise": 1e300,
             "n_distractors": 1, "target_motion": {"size": [10, 8]}}
    config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--set", f"scenes={json.dumps([scene])}"]) == 2
    out, err = capsys.readouterr()
    assert "bad scene 0: score_noise must lie in [0, 1e100], got 1e+300" in out
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_whose_top_level_is_an_array_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('[{"k_ram": 3}]')
    assert cmd_run(path, tmp_path / "out") == 2
    assert f"{path}: the top level must be a JSON object, got list" \
        in capsys.readouterr().out


def test_policies_given_as_a_string_exits_2(tmp_path, capsys):
    path = tiny_config(tmp_path, policies="sam2_fifo")
    assert cmd_run(path, tmp_path / "out") == 2
    assert "'policies' must be a list of policy names, got 'sam2_fifo'" \
        in capsys.readouterr().out


def test_empty_policy_list_exits_2(tmp_path, capsys):
    assert cmd_run(tiny_config(tmp_path, policies=[]), tmp_path / "out") == 2
    assert "'policies' must name at least one policy" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_empty_scene_list_exits_2(tmp_path, capsys):
    assert cmd_run(tiny_config(tmp_path, scenes=[]), tmp_path / "out") == 2
    assert "'scenes' must list at least one scene" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["config", "flag"])
def test_policy_listed_twice_exits_2(tmp_path, capsys, via):
    if via == "config":
        code = cmd_run(tiny_config(tmp_path, policies=["dam4sam", "dam4sam"]), tmp_path / "out")
    else:
        code = cli_main(["run", "--config", str(tiny_config(tmp_path)), "--out",
                         str(tmp_path / "out"), "--policy", "dam4sam", "--policy", "dam4sam"])
    assert code == 2
    assert "'policies' lists 'dam4sam' twice" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_scenes_sharing_family_and_seed_exit_2(tmp_path, capsys):
    scenes = [TINY_SCENES[0], TINY_SCENES[1], dict(TINY_SCENES[1], frames=12)]
    assert cmd_run(tiny_config(tmp_path, scenes=scenes), tmp_path / "out") == 2
    assert "scenes 1 and 2 have the same family and seed ('tiny', 901)" \
        in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_policy_flag_replaces_the_configured_list(tmp_path):
    # a policy the config does not list runs, rather than nothing at all
    path = tiny_config(tmp_path, policies=["dam4sam"])
    assert cmd_run(path, tmp_path / "out", policy_filter=["samurai_drm"]) == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["samurai_drm"] * len(TINY_SCENES)


def test_run_benchmark_fills_defaults_and_checks_the_config(tmp_path):
    aggregate = run_benchmark({"suite": "custom", "scenes": TINY_SCENES[:1]}, tmp_path / "a")
    assert list(aggregate["per_policy"]) == sorted(ALL_POLICY_NAMES)
    bad = dict(TINY_SCENES[0], frames=0)
    with pytest.raises(ConfigError, match="run config: bad scene 0: "):
        run_benchmark({"suite": "custom", "scenes": [bad]}, tmp_path / "b")
    assert not (tmp_path / "b").exists()


def test_policy_digest_depends_only_on_the_built_tracker(tmp_path):
    # setting a field to its default builds the same tracker, so the same digest
    path = tiny_config(tmp_path, policies=["samurai_drm", "dam4sam"])
    digests = []
    for i, sets in enumerate([[], [f"policy.alpha={PolicyConfig().alpha!r}"]]):
        assert cmd_run(path, tmp_path / str(i), sets=sets) == 0
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        digests.append({p["name"]: p["config_digest"] for p in manifest["policies"]})
    assert digests[0] == digests[1]
    assert digests[0]["samurai_drm"] != digests[0]["dam4sam"]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_worker_flag_below_one_exits_2(tmp_path, capsys, workers):
    code = cli_main(["run", "--config", str(tiny_config(tmp_path)),
                     "--out", str(tmp_path / "out"), "--workers", workers])
    assert code == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


class RecordingPool:
    """Stands in for the process pool: records ``max_workers`` and runs the jobs
    in this process, so no worker is started."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("n_scenes, workers, pools", [
    (2, 5000, [2]), (2, 2, [2]), (1, 5000, []), (2, 1, []),
])
def test_worker_pool_holds_at_most_one_process_per_scene(tmp_path, monkeypatch, n_scenes,
                                                          workers, pools):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = {"suite": "custom", "scenes": TINY_SCENES[:n_scenes], "policies": ["dam4sam"]}
    run_benchmark(cfg, tmp_path / "out", workers=workers)
    assert RecordingPool.made == pools
    assert len((tmp_path / "out" / "metrics.csv").read_text().splitlines()) == 1 + n_scenes


def _no_scene_may_run(args):
    raise AssertionError(f"scene {args[0]['seed']} ran")


@pytest.mark.parametrize("rel", ["taken", "taken/sub/out"])
def test_run_out_that_is_or_is_under_a_file_exits_2_before_any_scene(tmp_path, capsys,
                                                                      monkeypatch, rel):
    cfg_path = tiny_config(tmp_path)
    (tmp_path / "taken").write_text("kept")
    monkeypatch.setattr(harness, "_scene_job", _no_scene_may_run)
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / rel)])
    assert code == 2
    assert (f"error: --out {tmp_path / rel}: {tmp_path / 'taken'} exists and is not a directory"
            in capsys.readouterr().out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
    assert (tmp_path / "taken").read_text() == "kept"


@pytest.mark.parametrize("suite", [{"a": 1}, "bad,name\n", "", 5])
def test_bad_suite_label_exits_2_naming_it(tmp_path, capsys, suite):
    assert cmd_run(tiny_config(tmp_path, suite=suite), tmp_path / "out") == 2
    assert f"'suite' must be a non-empty string of letters, digits, '_' and '-', got {suite!r}" \
        in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_config_digest_stable_under_field_reordering():
    a = {"x": 1, "y": {"a": [1, 2], "b": 0.5}}
    b = {"y": {"b": 0.5, "a": [1, 2]}, "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"x": 2, "y": a["y"]})


def test_tracker_config_from_sections():
    cfg = default_config()
    cfg["policy"] = {"alpha": 0.5}
    cfg["k_ram"] = 4
    tc = tracker_config_from(cfg, "samurai_drm")
    assert tc.policy.value == "samurai_drm"
    assert tc.policy_cfg.alpha == 0.5
    assert tc.k_ram == 4


# --- run ------------------------------------------------------------------------


def test_run_writes_expected_outputs(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cmd_run(cfg_path, out) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(TINY_SCENES) * len(ALL_POLICY_NAMES)
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg["per_policy"]) == set(ALL_POLICY_NAMES)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert {p["name"] for p in manifest["policies"]} == set(ALL_POLICY_NAMES)
    for name in ALL_POLICY_NAMES:
        assert (out / "plots" / f"success_{name}.csv").exists()
        assert (out / "logs" / name / "tiny_900.jsonl").exists()
    assert not list(out.rglob("*.tmp"))


def test_run_twice_is_byte_identical_except_manifest(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(cfg_path, out_a) == 0
    assert cmd_run(cfg_path, out_b) == 0
    for rel in ["metrics.csv", "aggregate.json"] + \
            [f"plots/success_{n}.csv" for n in ALL_POLICY_NAMES]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    logs_a = sorted(p.relative_to(out_a) for p in (out_a / "logs").rglob("*.jsonl"))
    logs_b = sorted(p.relative_to(out_b) for p in (out_b / "logs").rglob("*.jsonl"))
    assert logs_a == logs_b
    for rel in logs_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


FOUR_SCENES = [dict(TINY_SCENES[0], seed=910 + i) for i in range(4)]


def log_files(out: Path) -> list[str]:
    return sorted(str(p.relative_to(out)) for p in out.glob("logs/*/*.jsonl"))


def logs_of(scenes: list[dict]) -> list[str]:
    return sorted(f"logs/{name}/{s['family']}_{s['seed']}.jsonl"
                  for s in scenes for name in ALL_POLICY_NAMES)


def test_each_scenes_logs_land_before_the_next_scene_runs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    real_job = harness._scene_job
    on_disk_at_start = []

    def job(args):
        on_disk_at_start.append(log_files(out))
        return real_job(args)

    monkeypatch.setattr(harness, "_scene_job", job)
    run_benchmark({"suite": "custom", "scenes": FOUR_SCENES}, out)
    assert on_disk_at_start == [logs_of(FOUR_SCENES[:k]) for k in range(len(FOUR_SCENES))]
    assert log_files(out) == logs_of(FOUR_SCENES)


def test_a_failing_scene_leaves_only_the_finished_scenes_logs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    real_job = harness._scene_job

    def job(args):
        if args[0]["seed"] == FOUR_SCENES[2]["seed"]:
            raise RuntimeError("third scene failed")
        return real_job(args)

    monkeypatch.setattr(harness, "_scene_job", job)
    with pytest.raises(RuntimeError, match="third scene failed"):
        run_benchmark({"suite": "custom", "scenes": FOUR_SCENES}, out)
    assert [p.name for p in out.iterdir()] == ["logs"]  # no metrics, aggregate, plots, manifest
    assert log_files(out) == logs_of(FOUR_SCENES[:2])
    assert not list(out.rglob("*.tmp"))


def test_run_worker_pool_matches_sequential(tmp_path):
    cfg = {"suite": "custom", "scenes": TINY_SCENES, "policies": ["samurai_drm"]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "seq", tmp_path / "par"
    assert cmd_run(cfg_path, out_a, workers=1) == 0
    assert cmd_run(cfg_path, out_b, workers=2) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_run_policy_filter(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cmd_run(cfg_path, out, policy_filter=["samurai_drm"]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + len(TINY_SCENES)
    assert all(",samurai_drm," in line for line in lines[1:])


def test_run_unknown_policy_exits_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert cmd_run(cfg_path, tmp_path / "out", policy_filter=["wrong_name"]) == 2
    assert capsys.readouterr().out == (f"error: {cfg_path} with --policy: unknown policy"
                                       f" 'wrong_name'; valid: {', '.join(ALL_POLICY_NAMES)}\n")


def test_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert cmd_run(path, tmp_path / "out") == 2
    assert "bad.json:1" in capsys.readouterr().out


def test_cli_round_trip(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--policy", "sam2_fifo", "--set", "k_ram=3"])
    assert code == 0
    assert (out / "metrics.csv").exists()


# --- fixtures ----------------------------------------------------------------------


def test_materializer_writes_the_committed_fixtures(tmp_path):
    """One ``materialize`` call writes ``tests/fixtures`` file for file, byte for byte."""
    materialize(tmp_path)

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files(tmp_path) == files(FIXTURES)
    for rel in files(FIXTURES):
        assert (tmp_path / rel).read_bytes() == (FIXTURES / rel).read_bytes(), rel


# --- compare -------------------------------------------------------------------------


def sample_csv(tmp_path, name, cell="0.5"):
    path = tmp_path / name
    rows = [",".join(CSV_HEADER),
            f"custom,tiny,900,samurai_drm,{cell},0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_compare_identical_exits_0(tmp_path):
    a = sample_csv(tmp_path, "a.csv")
    b = sample_csv(tmp_path, "b.csv")
    assert cmd_compare(a, b) == 0


def test_compare_perturbed_cell_names_row_and_column(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv", cell="0.5")
    b = sample_csv(tmp_path, "b.csv", cell="0.51")
    assert cmd_compare(a, b) == 1
    out = capsys.readouterr().out
    assert "success_auc" in out and "samurai_drm" in out


def test_compare_tolerance_absorbs_drift(tmp_path):
    a = sample_csv(tmp_path, "a.csv", cell="0.5")
    b = sample_csv(tmp_path, "b.csv", cell="0.505")
    assert cmd_compare(a, b, tol=0.01) == 0
    assert cmd_compare(a, b, tol=0.001) == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
def test_compare_bad_tolerance_exits_2_naming_it(tmp_path, capsys, tol):
    a = sample_csv(tmp_path, "a.csv", cell="0.5")
    b = sample_csv(tmp_path, "b.csv", cell="0.6")
    assert cli_main(["compare", str(a), str(b), f"--tol={tol}"]) == 2
    assert f"--tol must be a number >= 0, got {float(tol)!r}" in capsys.readouterr().out


def test_compare_infinite_tolerance_accepts_any_numbers(tmp_path):
    a = sample_csv(tmp_path, "a.csv", cell="0.5")
    b = sample_csv(tmp_path, "b.csv", cell="0.6")
    assert cli_main(["compare", str(a), str(b), "--tol", "inf"]) == 0
    assert cli_main(["compare", str(a), str(b)]) == 1


def test_compare_schema_mismatch_exits_2(tmp_path):
    a = sample_csv(tmp_path, "a.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert cmd_compare(a, bad) == 2
    assert cmd_compare(tmp_path / "missing.csv", a) == 2


def test_compare_bad_header_names_the_file(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert cli_main(["compare", str(a), str(bad)]) == 2
    assert capsys.readouterr().out == f"error: {bad}: schema mismatch (bad or missing header)\n"


def test_compare_repeated_row_exits_2_naming_it(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv", cell="0.5")
    b = sample_csv(tmp_path, "b.csv", cell="0.9")
    b.write_text(b.read_text() + a.read_text().splitlines()[1] + "\n")
    assert cli_main(["compare", str(a), str(b)]) == 2
    assert capsys.readouterr().out == (
        f"error: {b}:3: row custom,tiny,900,samurai_drm repeats the key of line 2\n")


def test_compare_nan_cell_is_a_diff(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv", cell="0.5")
    b = sample_csv(tmp_path, "b.csv", cell="nan")
    assert cmd_compare(a, b, tol=0.01) == 1
    assert "success_auc" in capsys.readouterr().out
    assert cmd_compare(b, b) == 0


def test_compare_short_row_exits_2_naming_it(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv")
    b = tmp_path / "b.csv"
    b.write_text(",".join(CSV_HEADER) + "\ncustom,tiny,900,samurai_drm,0.5,0.5\n")
    assert cmd_compare(a, b) == 2
    out = capsys.readouterr().out
    assert "custom,tiny,900,samurai_drm" in out and "b.csv:2" in out


def test_compare_non_numeric_cell_exits_2_naming_row_and_column(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv")
    b = sample_csv(tmp_path, "b.csv", cell="n/a")
    assert cmd_compare(a, b) == 2
    out = capsys.readouterr().out
    assert "custom,tiny,900,samurai_drm" in out and "success_auc" in out


def test_compare_byte_that_is_not_utf8_exits_2_naming_file_and_line(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv")
    b = tmp_path / "b.csv"
    b.write_bytes(a.read_bytes().replace(b"samurai_drm", b"samurai\xffdrm"))
    assert cli_main(["compare", str(a), str(b)]) == 2
    assert capsys.readouterr().out == f"error: {b}:2: not UTF-8 (invalid start byte)\n"


def test_compare_cell_beyond_the_csv_field_limit_exits_2_naming_file_and_line(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv")
    b = sample_csv(tmp_path, "b.csv", cell="5" * 200_000)
    assert cli_main(["compare", str(a), str(b)]) == 2
    assert capsys.readouterr().out == f"error: {b}:2: field larger than field limit (131072)\n"


def test_compare_row_set_mismatch(tmp_path, capsys):
    a = sample_csv(tmp_path, "a.csv")
    b = tmp_path / "b.csv"
    b.write_text(",".join(CSV_HEADER) + "\n")
    assert cmd_compare(a, b) == 1
    assert "only one file" in capsys.readouterr().out
