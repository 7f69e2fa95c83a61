"""Benchmark orchestration: policy x scenario runs and metric comparison.

The run command executes every configured (policy, scene) pair and
writes, under the output directory:

- ``metrics.csv`` with schema
  ``suite,family,seed,policy,success_auc,np,p,ao,sr50,sr75,q,acc,rob``;
- ``aggregate.json`` with per-policy and per-policy-per-family means;
- ``plots/success_<policy>.csv`` threshold-to-rate series;
- ``logs/<policy>/<family>_<seed>.jsonl`` per-frame result logs;
- ``manifest.json`` recording config digests, seeds, paths, versions
  (the manifest is the only file carrying a timestamp).

All outputs are deterministic functions of the config: rows are sorted
before writing, floats are serialized with ``repr``, and files land via
temp-then-rename so partially written output never survives.

Each scene's logs land as soon as that scene finishes, so a run holds one
scene's logs at a time. ``metrics.csv``, ``aggregate.json`` and ``plots/``
follow the last scene, and ``manifest.json`` is written last: its presence
marks a complete run. A run that fails part-way can leave the logs of the
scenes that finished, as an earlier run in the same directory can.

Config files are JSON with this key tree (every leaf optional)::

    suite        "standard"                  named scenario suite, or the label
                                             written in metrics.csv for ``scenes``
    n_seeds      20                          seeds per suite family
    policies     [six policy names]          which trackers to run
    k_ram, k_drm 6, 3                        memory capacities
    policy       {PolicyConfig fields}       threshold/weight overrides
    motion       {MotionConfig fields}
    drm          {DrmConfig fields}
    scenes       null or [SceneConfig dicts] a list replaces the named suite

CLI flags override file values: ``--set key=value`` assigns dotted paths
(``--set policy.alpha=0.4``) and ``--policy`` replaces the policy list.

The compare command diffs two metrics CSVs cell by cell with an
optional tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .checks import check_label, from_json, shown, to_json
from .membank import DrmConfig
from .metrics import SUCCESS_THRESHOLDS, evaluate, success_curve
from .motion import MotionConfig
from .policies import PolicyConfig
from .selection import PolicyKind, TrackerConfig, TrackerSession, frame_result_to_line
from .simulator import SceneConfig, config_from_dict, config_to_dict, gen_sequence, suite_standard

__all__ = [
    "default_config",
    "load_config",
    "apply_overrides",
    "config_digest",
    "scene_list",
    "tracker_config_from",
    "run_scene",
    "cmd_run",
    "cmd_compare",
    "CSV_HEADER",
    "ALL_POLICY_NAMES",
]

CSV_HEADER = ["suite", "family", "seed", "policy", "success_auc", "np", "p",
              "ao", "sr50", "sr75", "q", "acc", "rob"]
ALL_POLICY_NAMES = [p.value for p in PolicyKind]


# --- config handling ---------------------------------------------------------


def default_config() -> dict:
    """The run config's top-level keys and their defaults: the only table of them."""
    return {
        "suite": "standard",
        "n_seeds": 20,
        "policies": list(ALL_POLICY_NAMES),
        "k_ram": TrackerConfig.k_ram,
        "k_drm": TrackerConfig.k_drm,
        "policy": {},
        "motion": {},
        "drm": {},
        "scenes": None,
    }


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


def load_config(path) -> dict:
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ConfigError(f"{path}: cannot load config: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object, "
                          f"got {type(loaded).__name__}")
    return _checked(loaded, str(path))


def _checked(cfg: dict, origin: str) -> dict:
    """``cfg`` completed from :func:`default_config`, checked: the run config's one check.

    Only load_config, apply_overrides and run_benchmark call it; the readers
    below take a config one of them returned. A run names at least one policy
    and one scene, each once. Raises ConfigError naming ``origin`` and the key.
    """
    cfg = {**default_config(), **cfg}
    unknown = sorted(set(cfg) - set(default_config()))
    if unknown:
        raise ConfigError(f"{origin}: unknown key(s) {', '.join(map(repr, unknown))}")
    for key, lowest in (("k_ram", 1), ("k_drm", 0), ("n_seeds", 1)):
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < lowest:
            raise ConfigError(f"{origin}: {key!r} must be an integer >= {lowest}, "
                              f"got {shown(value)}")
    policies = cfg["policies"]
    if not isinstance(policies, list):
        raise ConfigError(f"{origin}: 'policies' must be a list of policy names, "
                          f"got {shown(policies)}")
    for i, name in enumerate(policies):
        if name not in ALL_POLICY_NAMES:
            raise ConfigError(
                f"{origin}: unknown policy {shown(name)}; valid: {', '.join(ALL_POLICY_NAMES)}")
        if name in policies[:i]:
            raise ConfigError(f"{origin}: 'policies' lists {shown(name)} twice")
    if not policies:
        raise ConfigError(f"{origin}: 'policies' must name at least one policy")
    for section, cls in (("policy", PolicyConfig), ("motion", MotionConfig),
                         ("drm", DrmConfig)):
        try:
            from_json(cls, cfg[section], section)
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad {section!r} section: {exc}") from exc
    try:
        check_label(cfg["suite"], "'suite'")
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    scenes = cfg["scenes"]
    if scenes is None:
        if cfg["suite"] != "standard":
            raise ConfigError(f"{origin}: unknown suite {shown(cfg['suite'])} and no scenes given")
        return cfg
    if not isinstance(scenes, list):
        raise ConfigError(f"{origin}: 'scenes' must be a list of scene objects")
    if not scenes:
        raise ConfigError(f"{origin}: 'scenes' must list at least one scene")
    first = {}  # (family, seed) -> index of the first scene with it
    for i, scene in enumerate(scenes):
        try:
            scene = config_from_dict(scene)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{origin}: bad scene {i}: {exc!s}") from exc
        j = first.setdefault((scene.family, scene.seed), i)
        if j != i:
            raise ConfigError(f"{origin}: scenes {j} and {i} have the same family and seed "
                              f"({scene.family!r}, {scene.seed}), so they would share a log")
    return cfg


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    """Apply dotted-path ``key=value`` assignments; values parse as JSON, else stay text."""
    out = json.loads(json.dumps(cfg))  # deep copy
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, too many digits, too deep
            value = raw
        node = out
        parts = key.split(".")
        for depth, part in enumerate(parts[:-1], start=1):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {'.'.join(parts[:depth])!r} "
                                  f"is not a section")
        node[parts[-1]] = value
    return _checked(out, "command-line override")


def config_digest(obj) -> str:
    """Stable digest: canonical JSON (sorted keys) hashed with sha256."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def scene_list(cfg: dict) -> list[SceneConfig]:
    if cfg["scenes"] is None:
        return suite_standard(n_seeds=cfg["n_seeds"])
    return [config_from_dict(d) for d in cfg["scenes"]]


def tracker_config_from(cfg: dict, policy_name: str) -> TrackerConfig:
    return TrackerConfig(
        policy=PolicyKind(policy_name),
        k_ram=cfg["k_ram"],
        k_drm=cfg["k_drm"],
        policy_cfg=from_json(PolicyConfig, cfg["policy"], "policy"),
        motion_cfg=from_json(MotionConfig, cfg["motion"], "motion"),
        drm_cfg=from_json(DrmConfig, cfg["drm"], "drm"),
    )


# --- running -------------------------------------------------------------------


def run_scene(record, tracker_cfg: TrackerConfig):
    """Run one session over a generated scene.

    Returns (EvalOutcome, success curve, frame results).
    """
    session = TrackerSession(tracker_cfg, record.init_mask)
    results = session.run(record.observations)
    pred = [
        r.chosen.bbox if (r.present and r.chosen is not None) else None
        for r in results
    ]
    present = [r.present for r in results]
    outcome = evaluate(pred, present, record.gt_boxes)
    curve = success_curve(pred, record.gt_boxes)
    return outcome, curve, results


def _scene_job(args: tuple[dict, dict, list[str]]):
    """Worker-pool unit: one scene against every requested policy."""
    scene_dict, run_cfg, policy_names = args
    scene = config_from_dict(scene_dict)
    record = gen_sequence(scene)
    rows = []
    curves = {}
    logs = {}
    for name in policy_names:
        outcome, curve, results = run_scene(record, tracker_config_from(run_cfg, name))
        rows.append({"suite": run_cfg["suite"], "family": scene.family,
                     "seed": scene.seed, "policy": name, "outcome": outcome})
        curves[name] = curve
        logs[name] = "".join(frame_result_to_line(r) + "\n" for r in results)
    return scene.family, scene.seed, rows, curves, logs


def _check_out_dir(out: Path) -> None:
    """Raise ConfigError when ``out`` or an ancestor exists and is not a directory.

    Creates nothing, so a run can check its output directory before any work.
    """
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out}: {path} exists and is not a directory")
            return


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# the EvalOutcome fields of CSV_HEADER's metric columns, in its order
_METRIC_FIELDS = ["success_auc", "norm_precision_auc", "precision_at_20",
                  "ao", "sr50", "sr75", "q", "acc", "rob"]


def _format_row(row: dict) -> list[str]:
    o = row["outcome"]
    return [row["suite"], row["family"], str(row["seed"]), row["policy"],
            *(repr(getattr(o, name)) for name in _METRIC_FIELDS)]


def _aggregate(rows: list[dict]) -> dict:
    per_policy: dict[str, dict] = {}
    per_policy_family: dict[str, dict] = {}
    for row in rows:
        per_policy.setdefault(row["policy"], []).append(row["outcome"])
        per_policy_family.setdefault(row["policy"], {}).setdefault(
            row["family"], []).append(row["outcome"])

    def means(outcomes) -> dict:
        return {
            field: float(np.mean([getattr(o, field) for o in outcomes]))
            for field in _METRIC_FIELDS
        }

    return {
        "per_policy": {p: means(v) for p, v in sorted(per_policy.items())},
        "per_policy_family": {
            p: {f: means(v) for f, v in sorted(fams.items())}
            for p, fams in sorted(per_policy_family.items())
        },
    }


def run_benchmark(cfg: dict, out_dir, workers: int = 1) -> dict:
    """Execute the configured matrix and write all outputs.

    ``cfg`` is completed and checked first: a partial dict takes the defaults,
    and a bad one raises ConfigError before any file is written. Returns the
    aggregate dict (also written to aggregate.json).
    """
    cfg = _checked(cfg, "run config")
    out = Path(out_dir)
    policy_names = cfg["policies"]
    trackers = {}
    for name in policy_names:
        try:
            trackers[name] = tracker_config_from(cfg, name)
        except ValueError as exc:
            raise ConfigError(f"policy {name!r}: {exc}") from exc
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    scenes = scene_list(cfg)
    _check_out_dir(out)

    jobs = [(config_to_dict(s), cfg, policy_names) for s in scenes]
    rows: list[dict] = []
    curve_acc: dict[str, list[np.ndarray]] = {}
    # the pool starts every worker at its first submit, so start no idle ones
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # each scene's logs land as its result arrives, so only rows and curves are held
        scene_results = pool.map(_scene_job, jobs) if workers > 1 else map(_scene_job, jobs)
        for family, seed, scene_rows, curves, logs in scene_results:
            rows.extend(scene_rows)
            for name, curve in curves.items():
                curve_acc.setdefault(name, []).append(curve)
            for name, text in logs.items():
                _atomic_write(out / "logs" / name / f"{family}_{seed}.jsonl", text)

    rows.sort(key=lambda r: (r["family"], r["seed"], r["policy"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(_format_row(row))
    _atomic_write(out / "metrics.csv", buf.getvalue())

    aggregate = _aggregate(rows)
    _atomic_write(out / "aggregate.json",
                  json.dumps(aggregate, indent=2, sort_keys=True) + "\n")

    for name in policy_names:
        mean_curve = np.mean(np.stack(curve_acc[name]), axis=0)
        lines = ["threshold,rate"]
        lines += [f"{repr(float(t))},{repr(float(r))}"
                  for t, r in zip(SUCCESS_THRESHOLDS, mean_curve)]
        _atomic_write(out / "plots" / f"success_{name}.csv", "\n".join(lines) + "\n")

    manifest = {
        "tool_version": __version__,
        "created_unix": time.time(),
        "suite": cfg["suite"],
        "config_digest": config_digest(cfg),
        "policies": [
            {"name": name,
             "config_digest": config_digest({**to_json(tracker), "policy": name})}
            for name, tracker in trackers.items()
        ],
        "seeds": sorted({s.seed for s in scenes}),
        "paths": {
            "metrics": "metrics.csv",
            "aggregate": "aggregate.json",
            "plots": [f"plots/success_{name}.csv" for name in policy_names],
            "logs": "logs/",
        },
    }
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return aggregate


def cmd_run(config_path, out_dir, policy_filter: list[str] | None = None,
            sets: list[str] | None = None, workers: int = 1) -> int:
    """``trackmem run``: ``policy_filter`` (``--policy``) replaces the policy list."""
    try:
        cfg = load_config(config_path)
        if policy_filter:
            sets = [*(sets or []), f"policies={json.dumps(policy_filter)}"]
        if sets:
            cfg = apply_overrides(cfg, sets)
        run_benchmark(cfg, out_dir, workers=workers)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    print(f"run complete: {out_dir}")
    return 0


# --- compare -----------------------------------------------------------------------


def _read_metrics_csv(path) -> dict[tuple[str, ...], list[float]]:
    """Parse a metrics CSV into ``{(suite, family, seed, policy): cells}``.

    Raises ValueError naming the file for a bad or missing header, the file
    and line of the first byte that is not UTF-8 or line the csv module
    rejects, and the file, line and row (and the column for a cell that is
    not a number) of the first malformed row or of the first row whose key
    an earlier row already holds.
    """
    data = Path(path).read_bytes()
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    try:
        if next(reader, None) != CSV_HEADER:
            raise ValueError(f"{path}: schema mismatch (bad or missing header)")
        rows = {}
        first_line = {}
        for row in reader:
            key = tuple(row[:4])
            where = f"{path}:{reader.line_num}: row {','.join(key)}"
            if key in first_line:
                raise ValueError(f"{where} repeats the key of line {first_line[key]}")
            first_line[key] = reader.line_num
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{where} has {len(row)} columns, expected {len(CSV_HEADER)}")
            cells = []
            for col, cell in zip(CSV_HEADER[4:], row[4:]):
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise ValueError(f"{where} column {col}: not a number: {cell!r}") from None
            rows[key] = cells
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def cmd_compare(baseline_csv, new_csv, tol: float = 0.0) -> int:
    """Cell-wise diff of two metrics CSVs; 0 ok, 1 diff, 2 schema error.

    NaN differs from every number and equals only NaN. ``tol`` must be a
    number >= 0 (``inf`` accepts any two numbers).
    """
    if not tol >= 0.0:
        print(f"error: --tol must be a number >= 0, got {tol!r}")
        return 2
    try:
        base_map = _read_metrics_csv(baseline_csv)
        new_map = _read_metrics_csv(new_csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    status = 0
    for k in sorted(set(base_map) | set(new_map)):
        if k not in base_map or k not in new_map:
            print(f"diff: row {','.join(k)} present in only one file")
            status = 1
            continue
        for col, bval, nval in zip(CSV_HEADER[4:], base_map[k], new_map[k]):
            if not (bval == nval or abs(bval - nval) <= tol
                    or (math.isnan(bval) and math.isnan(nval))):
                print(f"diff: row {','.join(k)} column {col}: {bval!r} -> {nval!r}")
                status = 1
    if status == 0:
        print("compare: identical within tolerance")
    return status
