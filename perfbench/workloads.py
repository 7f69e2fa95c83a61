"""The benchmark's workloads, their inputs, and what a run measures.

``suite_w1`` and ``suite_w2`` call ``harness.run_benchmark`` on the
default config, as ``trackmem run`` does, at one and two worker
processes. ``replay`` generates the same scenes once during set-up and
then only steps the trackers and scores them (``harness.run_scene``), so
the simulator does no work inside its timed passes. All three are closed
loops with one client: the next pass starts when the previous one ends.

Untraced runs report ``wall_s``, ``frames_per_s`` and ``step_ms_p50`` at
a reference host speed: a fixed kernel timed between scenes gives the
passes' slowness (``speed``), and they are divided by it.

Inputs come from the workload seed alone. The default seed reproduces
``suite_standard`` exactly, so every locked output applies; any other
seed keeps each family's parameters and derives new scene seeds. The
program receives only the generated ``scenes`` config.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import marshal
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from trackmem import harness, membank, policies, selection, simulator
from trackmem import metrics as scoring
from trackmem.geometry import BitMask
from trackmem.membank import MemoryBank
from trackmem.selection import TrackerSession, frame_result_to_line

import gate
import probe
import speed

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_out"
BASELINE_AO = ROOT / "tests" / "fixtures" / "baselines" / "distractor_ao.json"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

DEFAULT_SEED = 0
WORKERS = {"suite_w1": 1, "suite_w2": 2}
WORKLOADS = ["suite_w1", "suite_w2", "replay"]
POLICIES = list(harness.ALL_POLICY_NAMES)
SETUP_REPEATS = 5
PROBE_ENV = "PERFBENCH_PROBE"

END_TO_END = [
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Modules whose summed span self time is reported as <module>.self_s.
# The harness is reported by its root span alone (harness.self_s) and by
# harness.run_scene.self_s, so the two sum with these to the traced wall.
MODULES = ["simulator", "geometry", "membank", "observation", "motion",
           "policies", "pathways", "selection", "metrics"]

PER_LAYER = [
    ("simulator.gen_sequence.calls", "count"),
    ("simulator.gen_sequence.s", "s"),
    ("simulator.self_s", "s"),
    ("geometry.from_dense.calls", "count"),
    ("geometry.from_dense.s", "s"),
    ("geometry.from_dense.mpix", "Mpix"),
    ("geometry.to_dense.calls", "count"),
    ("geometry.to_dense.s", "s"),
    ("geometry.mask_iou.calls", "count"),
    ("geometry.mask_iou.s", "s"),
    ("geometry.area.calls", "count"),
    ("geometry.box_iou.calls", "count"),
    ("geometry.box_iou.s", "s"),
    ("geometry.self_s", "s"),
    ("membank.consider_drm.calls", "count"),
    ("membank.consider_drm.s", "s"),
    ("membank.drm_admit_ratio", "ratio"),
    ("membank.replace_ram.s", "s"),
    ("membank.copy.calls", "count"),
    ("membank.self_s", "s"),
    ("observation.extract_prototypes.calls", "count"),
    ("observation.extract_prototypes.s", "s"),
    ("observation.cosine.calls", "count"),
    ("observation.cosine.s", "s"),
    ("observation.self_s", "s"),
    ("motion.kf_predict.s", "s"),
    ("motion.kf_update.s", "s"),
    ("motion.self_s", "s"),
    ("policies.samite_calibrate.s", "s"),
    ("policies.samite_select_ram.s", "s"),
    ("policies.self_s", "s"),
    ("pathways.pathway_expand.s", "s"),
    ("pathways.pathway_prune.s", "s"),
    ("pathways.self_s", "s"),
    ("selection.select.s", "s"),
    *[(f"selection.step.{p}.{stat}", "s") for p in POLICIES for stat in ("s", "self_s")],
    ("selection.self_s", "s"),
    ("metrics.evaluate.s", "s"),
    ("metrics.self_s", "s"),
    ("harness.run_scene.s", "s"),
    ("harness.run_scene.self_s", "s"),
    ("harness.self_s", "s"),
    ("harness.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
]

ROOT_SPANS = {"harness.run_benchmark", "harness.replay"}


# --- inputs ---------------------------------------------------------------------


def scene_configs(seed: int) -> list[simulator.SceneConfig]:
    """The 60 suite scenes: frozen at the default seed, re-seeded otherwise."""
    scenes = simulator.suite_standard()
    if seed == DEFAULT_SEED:
        return scenes
    used: set[int] = set()
    out = []
    for i, scene in enumerate(scenes):
        digest = hashlib.sha256(f"{seed}:{scene.family}:{i}".encode()).digest()
        derived = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        while derived in used:
            derived += 1
        used.add(derived)
        out.append(replace(scene, seed=derived))
    return out


def run_config(seed: int) -> dict:
    """The default config with the generated scenes spelled out."""
    cfg = harness.load_config(ROOT / "configs" / "default.json")
    cfg["scenes"] = [simulator.config_to_dict(s) for s in scene_configs(seed)]
    return cfg


def scene_name(scene) -> str:
    return f"{scene.family}_{scene.seed}"


# --- instrumentation ----------------------------------------------------------------


def instrument(tracer: probe.Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    counts = tracer.counts

    def mpix(args, mask):
        counts["geometry.from_dense.mpix"] += mask.width * mask.height / 1e6

    def admitted(args, ok):
        counts["membank.drm_admitted"] += ok

    step_names = {kind: f"selection.step.{kind.value}" for kind in selection.PolicyKind}
    tracer.wrap(harness, "run_benchmark", "harness.run_benchmark")
    tracer.wrap(harness, "gen_sequence", "simulator.gen_sequence",
                scope=lambda args: scene_name(args[0]))
    tracer.wrap(harness, "run_scene", "harness.run_scene",
                scope=lambda args: f"{scene_name(args[0].config)}/{args[1].policy.value}")
    tracer.wrap(harness, "evaluate", "metrics.evaluate")
    tracer.wrap(harness, "success_curve", "metrics.success_curve")
    tracer.wrap(BitMask, "from_dense", "geometry.from_dense", after=mpix)
    tracer.wrap(BitMask, "to_dense", "geometry.to_dense")
    tracer.count_property(BitMask, "area", "geometry.area.calls")
    for module in (simulator, membank):
        tracer.wrap(module, "mask_iou", "geometry.mask_iou")
    for module in (policies, scoring):
        tracer.wrap(module, "box_iou", "geometry.box_iou")
    tracer.wrap(MemoryBank, "consider_drm", "membank.consider_drm", after=admitted)
    tracer.wrap(MemoryBank, "replace_ram", "membank.replace_ram")
    tracer.wrap(MemoryBank, "copy", "membank.copy")
    tracer.wrap(selection, "extract_prototypes", "observation.extract_prototypes")
    tracer.wrap(policies, "cosine", "observation.cosine")
    tracer.wrap(selection, "kf_predict", "motion.kf_predict")
    tracer.wrap(selection, "kf_update", "motion.kf_update")
    tracer.wrap(selection, "samite_calibrate", "policies.samite_calibrate")
    tracer.wrap(selection, "samite_select_ram", "policies.samite_select_ram")
    tracer.wrap(selection, "pathway_expand", "pathways.pathway_expand")
    tracer.wrap(selection, "pathway_prune", "pathways.pathway_prune")
    for name in ("select_default", "select_samurai", "select_him"):
        tracer.wrap(selection, name, "selection.select")
    tracer.wrap(TrackerSession, "step", lambda args: step_names[args[0].cfg.policy])

    # The pool's map is made eager so that its span covers the wait for
    # the workers; run_benchmark consumes it whole either way.
    pool = vars(harness)["ProcessPoolExecutor"]
    eager_map = tracer.timed(lambda ex, fn, *its, **kw: iter(list(pool.map(ex, fn, *its, **kw))),
                             "harness.pool_map")
    tracer.patch(harness, "ProcessPoolExecutor", pool,
                 type("TracedProcessPool", (pool,), {"map": eager_map}))


def time_steps(tracer: probe.Tracer, samples: list[int]) -> None:
    """Record the latency of every ``TrackerSession.step`` call, in ns."""
    step = vars(TrackerSession)["step"]
    clock = time.perf_counter_ns

    def timed_step(session, obs):
        t0 = clock()
        result = step(session, obs)
        samples.append(clock() - t0)
        return result

    tracer.patch(TrackerSession, "step", step, timed_step)


class Probe:
    """What one process records during a pass: step latencies and reference
    kernel times (see ``speed``), or spans when tracing.

    Pool workers hand their records to the owning process through files
    in ``spool``, one file per scene job.
    """

    def __init__(self, trace: bool, spool: Path, owner: int):
        self.trace = trace
        self.spool = Path(spool)
        self.owner = owner
        self.pid = os.getpid()
        self.tracer = probe.Tracer()
        self.steps: list[int] = []
        self.kernel: list[int] = []
        self._handed = 0

    def install(self) -> None:
        if self.trace:
            instrument(self.tracer)
        else:
            time_steps(self.tracer, self.steps)

    def adopt(self) -> None:
        """In a forked worker, drop what was inherited from the parent."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.steps.clear()
            self.kernel.clear()
            self.tracer.reset()
            self._handed = 0

    def tick(self) -> None:
        """After a scene of an untraced pass, in whichever process ran it,
        time the reference kernel once."""
        if not self.trace:
            speed.tick(self.kernel)

    def hand_over(self) -> None:
        if self.pid == self.owner:
            return
        self._handed += 1
        path = self.spool / f"{self.pid}-{self._handed}.marshal"
        with open(path, "wb") as fh:
            marshal.dump((self.pid, self.steps, self.kernel, self.tracer.spans,
                          dict(self.tracer.counts)), fh)
        self.steps.clear()
        self.kernel.clear()
        self.tracer.reset()

    def collect(self):
        """Steps, kernel times, ``(pid, spans)`` batches and counters of this pass,
        from all processes."""
        steps = list(self.steps)
        kernel = list(self.kernel)
        batches = [(self.pid, list(self.tracer.spans))] if self.tracer.spans else []
        counts = Counter(self.tracer.counts)
        for path in sorted(self.spool.glob("*.marshal")):
            with open(path, "rb") as fh:
                pid, worker_steps, worker_kernel, spans, worker_counts = marshal.load(fh)
            path.unlink()
            steps.extend(worker_steps)
            kernel.extend(worker_kernel)
            if spans:
                batches.append((pid, spans))
            counts.update(worker_counts)
        self.steps.clear()
        self.kernel.clear()
        self.tracer.reset()
        return steps, kernel, batches, counts


_SCENE_JOB = harness._scene_job
# The process pool pickles only a function reference, so a worker finds
# its probe here; it is set in the owning process before each pass and
# built from the environment in a worker started by spawn.
_worker_probe: Probe | None = None


def scene_job(args):
    """``harness._scene_job`` under this process's probe."""
    global _worker_probe
    if _worker_probe is None:
        spec = json.loads(os.environ[PROBE_ENV])
        _worker_probe = Probe(spec["trace"], Path(spec["spool"]), spec["owner"])
        _worker_probe.install()
    _worker_probe.adopt()
    try:
        return _SCENE_JOB(args)
    finally:
        _worker_probe.tick()
        _worker_probe.hand_over()


class Instrumented:
    """Context manager: one probe installed around one pass."""

    def __init__(self, trace: bool, spool: Path):
        spool.mkdir(parents=True, exist_ok=True)
        self.probe = Probe(trace, spool, os.getpid())

    def __enter__(self) -> Probe:
        global _worker_probe
        _worker_probe = self.probe
        os.environ[PROBE_ENV] = json.dumps({"trace": self.probe.trace, "owner": self.probe.owner,
                                            "spool": str(self.probe.spool)})
        self.probe.install()
        self.probe.tracer.patch(harness, "_scene_job", _SCENE_JOB, scene_job)
        return self.probe

    def __exit__(self, *exc) -> None:
        global _worker_probe
        self.probe.tracer.restore()
        _worker_probe = None
        os.environ.pop(PROBE_ENV, None)


# --- one run ------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    steps: list[int]
    kernel: list[int]
    batches: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    bytes_written: int = 0


@dataclass
class Run:
    """What one invocation checked, and a note on what it measured."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    note: str = ""

    def charge(self, pairs: set, failed: set, problems: list[str]) -> None:
        self.attempted += len(pairs)
        self.failed += len(failed)
        self.problems += problems


class Workload:
    """Inputs, passes and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name = name
        self.seed = seed
        self.run_dir = run_dir
        self.cfg = run_config(seed)
        self.scenes = scene_configs(seed)
        self.pairs = {(p, scene_name(s)) for p in POLICIES for s in self.scenes}
        self.frames = sum(s.frames for s in self.scenes) * len(POLICIES)
        self.expected = json.loads(EXPECTED.read_text()) if seed == DEFAULT_SEED else None
        self.baseline = json.loads(BASELINE_AO.read_text()) if seed == DEFAULT_SEED else None
        self.cache = gate.DigestCache(WORK_DIR / "digests", gate.source_hash(ROOT / "src"))
        self.records = None
        self._passes = 0
        self._first_files: dict[str, str] | None = None

    def generate(self) -> None:
        """Replay's set-up: every scene's record, generated once and held."""
        if self.name == "replay":
            self.records = [harness.gen_sequence(s) for s in self.scenes]

    # -- passes --

    def run_pass(self, trace: bool) -> tuple[Pass, dict[str, str], dict[str, float]]:
        """One timed pass; returns it with its output digests and distractor AO."""
        self._passes += 1
        spool = self.run_dir / f"spool-{self._passes}"
        if self.name == "replay":
            with Instrumented(trace, spool) as active:
                run = active.tracer.timed(self._replay, "harness.replay") if trace else self._replay
                t0 = time.perf_counter()
                results = run(active.tick)
                wall = time.perf_counter() - t0
                steps, kernel, batches, counts = active.collect()
            files, ao = self._replay_outputs(results)
            wall -= sum(kernel) / 1e9
            return Pass(wall, steps, kernel, batches, counts), files, ao
        out = self.run_dir / f"out-{self._passes}"
        workers = WORKERS[self.name]
        with Instrumented(trace, spool) as active:
            t0 = time.perf_counter()
            harness.run_benchmark(self.cfg, out, workers=workers)
            wall = time.perf_counter() - t0
            steps, kernel, batches, counts = active.collect()
        # The kernel ran inside the pass, spread evenly over the workers.
        wall -= sum(kernel) / 1e9 / workers
        files = gate.output_files(out)
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        ao = gate.aggregate_distractor_ao(out / "aggregate.json")
        shutil.rmtree(out)
        return Pass(wall, steps, kernel, batches, counts, written), files, ao

    def _replay(self, tick) -> dict:
        configs = {p: harness.tracker_config_from(self.cfg, p) for p in POLICIES}
        results = {}
        for rec in self.records:
            for p in POLICIES:
                results[(p, scene_name(rec.config))] = harness.run_scene(rec, configs[p])
            tick()
        return results

    def _replay_outputs(self, results: dict) -> tuple[dict[str, str], dict[str, float]]:
        files = {}
        distractor: dict[str, list[float]] = {}
        for (p, scene), (outcome, _, frames) in results.items():
            text = "".join(frame_result_to_line(r) + "\n" for r in frames)
            files[gate.log_path(p, scene)] = gate.sha256_text(text)
        for rec in sorted(self.records, key=lambda r: r.config.seed):
            if rec.config.family == "distractor":
                for p in POLICIES:
                    distractor.setdefault(p, []).append(results[(p, scene_name(rec.config))][0].ao)
        return files, {p: float(np.mean(v)) for p, v in distractor.items()}

    # -- checks --

    def check(self, run: Run, files: dict[str, str], ao: dict[str, float]) -> None:
        """Charge the pass's pairs against every reference that applies."""
        failed: set = set()
        problems: list[str] = []
        logs_only = self.name == "replay"

        def against(reference: dict[str, str] | None, label: str) -> None:
            if reference is None:
                return
            if logs_only:
                reference = gate.only_logs(reference)
            bad, why = gate.failed_pairs(files, reference, self.pairs)
            failed.update(bad)
            problems.extend(f"{label}: {w}" for w in why)

        if self.expected is not None:
            against(self.expected["files"], "recorded digest")
            ao_problems = gate.ao_mismatches(ao, self.baseline)
            if ao_problems:
                failed.update(self.pairs)
                problems.extend(ao_problems)
        for other in WORKLOADS:
            if other != self.name and other != "replay":
                against(self.cache.recalled(self.seed, other), f"{other} at this seed")
        against(self._first_files, "first pass of this run")
        run.charge(self.pairs, failed, problems)

    def spot_check(self, run: Run, files: dict[str, str]) -> None:
        """Re-run one scene per family through the harness's own job, in-process.

        This compares the workload's logs with a one-worker harness run at
        any seed, even when no other workload has run at this seed yet.
        """
        failed, problems = set(), []
        firsts = {}
        for scene in self.scenes:
            firsts.setdefault(scene.family, scene)
        for scene in firsts.values():
            _, _, _, _, logs = _SCENE_JOB((simulator.config_to_dict(scene), self.cfg, POLICIES))
            for p, text in logs.items():
                rel = gate.log_path(p, scene_name(scene))
                if files.get(rel) != gate.sha256_text(text):
                    failed.add((p, scene_name(scene)))
                    problems.append(f"spot check: {rel} differs from a one-worker harness run")
        run.charge({(p, scene_name(s)) for s in firsts.values() for p in POLICIES}, failed, problems)

    def gated_pass(self, run: Run, trace: bool) -> Pass:
        measured, files, ao = self.run_pass(trace)
        self.check(run, files, ao)
        if self._first_files is None:
            self._first_files = files
            self.spot_check(run, files)
            if self.name != "replay":
                self.cache.remember(self.seed, self.name, files)
        return measured


def startup_seconds(seed: int) -> list[float]:
    """Wall times of fresh processes that import trackmem and load the config."""
    code = (f"import sys; sys.path[:0] = {[str(ROOT / 'perfbench'), str(ROOT / 'src')]!r}; "
            f"import workloads; workloads.run_config({seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Larger of this process's and its children's peak RSS (ru_maxrss is KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    """Set up, run and check the workload; return the run and its metrics."""
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        work = Workload(name, seed, run_dir)
        run = Run(name, seed)
        values = _traced_metrics(work, run) if trace else _end_to_end_metrics(work, run, seconds)
        run.note = (f"{len(work.scenes)} scenes x {len(POLICIES)} policies = "
                    f"{work.frames} tracker frames per pass; {run.note}")
        return run, values
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _end_to_end_metrics(work: Workload, run: Run, seconds: float) -> dict:
    """Set-up, then passes until ``seconds`` have gone by (at least one).

    Start-up is timed before and after the passes, so that a burst of
    load on the host at one moment does not set its median. ``wall_s``,
    ``frames_per_s`` and ``step_ms_p50`` are put at the reference speed
    (see ``speed``); their measured values are printed beside it.
    """
    t0 = time.perf_counter()
    work.generate()
    generation_s = time.perf_counter() - t0
    startups = startup_seconds(work.seed)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(work.gated_pass(run, trace=False))
    startups += startup_seconds(work.seed)
    walls = [p.wall_s for p in passes]
    steps = [s for p in passes for s in p.steps]
    kernel = [k for p in passes for k in p.kernel]
    slow = speed.slowness(kernel)
    measured = {
        "wall_s": statistics.median(walls),
        "frames_per_s": statistics.median(work.frames / w for w in walls),
        "step_ms_p50": probe.percentile(steps, 50) / 1e6,
    }
    run.note = (f"{len(passes)} pass(es), {len(steps)} step samples; slowness "
                f"{slow!r} from {len(kernel)} kernel samples; measured "
                + ", ".join(f"{k} = {v!r}" for k, v in measured.items()))
    return {
        **at_reference_speed(measured, slow),
        # samite's numpy-bound steps form the tail, which the kernel does not track
        "step_ms_p99": probe.percentile(steps, 99) / 1e6,
        "setup_s": statistics.median(startups) + generation_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def at_reference_speed(measured: dict[str, float], slow: float) -> dict[str, float]:
    """Timings divided by the slowness, rates (``*_per_s``) multiplied by it."""
    return {name: value * slow if name.endswith("_per_s") else value / slow
            for name, value in measured.items()}


def _traced_metrics(work: Workload, run: Run) -> dict:
    """One untraced pass for reference, then one traced pass; spans cover set-up too."""
    with Instrumented(True, work.run_dir / "spool-setup") as active:
        work.generate()
        _, _, batches, counts = active.collect()
    plain = work.gated_pass(run, trace=False)
    traced = work.gated_pass(run, trace=True)
    batches += traced.batches
    counts.update(traced.counts)
    run.note = f"1 untraced and 1 traced pass, {sum(len(s) for _, s in batches)} spans"
    _write_spans(work, batches)
    return layer_metrics(batches, counts, traced.wall_s, plain.wall_s, traced.bytes_written)


def layer_metrics(batches, counts, traced_wall: float, plain_wall: float,
                  bytes_written: int) -> dict:
    totals = probe.summarize(batches)
    module_self: dict[str, float] = {}
    for span_name, (_, _, own) in totals.items():
        module = span_name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + own
    root_batch, root = max(((spans, s) for _, spans in batches for s in spans
                            if s[probe.NAME] in ROOT_SPANS), key=lambda r: r[1][probe.START])
    root_self = probe.self_times(root_batch)
    inside = sum(root_self[s[probe.SEQ]] for s in root_batch
                 if s[probe.START] >= root[probe.START] and s[probe.END] <= root[probe.END]) / 1e9
    consider = totals.get("membank.consider_drm", [0])[0]
    values = {
        "geometry.area.calls": counts.get("geometry.area.calls", 0),
        "geometry.from_dense.mpix": counts.get("geometry.from_dense.mpix", 0.0),
        "membank.drm_admit_ratio": counts.get("membank.drm_admitted", 0) / consider
        if consider else 0.0,
        "harness.self_s": root_self[root[probe.SEQ]] / 1e9,
        "harness.bytes_written": bytes_written,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.unattributed_frac": 1.0 - inside / traced_wall,
        "trace.spans": sum(len(spans) for _, spans in batches),
    }
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        base, _, stat = metric.rpartition(".")
        if stat == "self_s" and base in MODULES:
            values[metric] = module_self.get(base, 0.0)
        else:
            calls, total, own = totals.get(base, (0, 0.0, 0.0))
            values[metric] = {"calls": calls, "s": total, "self_s": own}[stat]
    return values


def _write_spans(work: Workload, batches) -> None:
    """Write every span of the traced run, one tab-separated line each."""
    path = WORK_DIR / f"trace-{work.name}-seed{work.seed}.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("pid\tseq\tparent\tname\tstart_ns\tend_ns\tscope\n")
        for pid, spans in batches:
            for seq, name, start, end, parent, scope in spans:
                fh.write(f"{pid}\t{seq}\t{parent}\t{name}\t{start}\t{end}\t{scope}\n")
