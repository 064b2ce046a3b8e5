"""The pwsearch benchmark: workloads, timed passes, traced passes, metrics.

The program is driven from outside, in this process, through
``pwsearch.cli.main`` on config files generated from the shipped ones, one
grid cell (or one ``run``) per call, serially.  A timed run cycles through the
workload's units until ``--seconds`` have passed and every unit has run at
least twice; a unit's time is the median of its executions, and a pass over
the grid is the sum of those medians.  A traced run (``--trace 1``) runs each
unit untraced and traced back to back and reports the per-layer split.

Every time is scaled to a reference CPU speed: a fixed calibration loop that
does not touch pwsearch runs after every ``CAL_EVERY_S`` of work, and each
execution's time is multiplied by ``CAL_REF_S`` over the mean of the loop
times just before and just after it.  On a shared machine whose speed changes
by up to 2x in phases lasting seconds, this cuts the spread of one unit's
times several-fold; the unscaled figures are printed next to the scaled ones.
"""

from __future__ import annotations

import copy
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from pwsearch import cli
from pwsearch import config as pwconfig

import checks
import layers

# Calibration time on the reference host (Intel Xeon, 2 vCPU, Python 3.11,
# numpy 2.4) in its fast phase; its median over a run measured 2.8-5.4 ms as
# the host's speed drifted.  Scaled times read as seconds on that host in that phase.
CAL_REF_S = 0.003
CAL_EVERY_S = 0.25  # work between calibrations
SETUP_GROUPS, SETUP_REPEATS = 5, 10  # calibrated groups of set-ups
MIN_EXECUTIONS = 2  # per unit and run, so every unit's digest is compared
SYNTHETIC_COPIES = 6
SEED_STEP = 100_000


@dataclass
class Unit:
    """One ``pwsearch.cli.main`` call and what its outputs must satisfy."""

    key: str
    detector: str
    argv: list[str]
    out: Path
    spaces: dict  # algorithm -> SearchSpace its runs must stay inside
    budget: int
    samples: list[float] = field(default_factory=list)  # scaled seconds per execution
    raw: list[float] = field(default_factory=list)  # unscaled seconds per execution
    digest: str | None = None
    windows: int = 0
    cells: list[dict] = field(default_factory=list)  # detection_rate, matched, detections


@dataclass
class Workload:
    name: str
    units: list[Unit]
    config_path: Path  # the config whose set-up ``setup_s`` times
    setup_s: float
    setup_raw_s: float


class Calibrator:
    """A fixed mix of interpreter and numpy work that never calls pwsearch."""

    def __init__(self):
        self._flags = np.zeros(1 << 18, dtype=np.uint8)
        self._flags[::7] = 1
        self.times: list[float] = []

    def _loop(self) -> float:
        start = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(0))
        acc = 0
        for i in range(150):
            z = rng.standard_normal((16, 3))
            acc += int(np.rint(z[:, 0] * 4).astype(np.int64).clip(-8, 8).sum())
            acc += len(json.dumps({"i": i, "x": float(z[0, 1])}))
            acc += sum(k * k for k in range(40))
        acc += int(np.flatnonzero(self._flags).size)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of three loops, so one interrupted loop does not count."""
        self.times.append(statistics.median(self._loop() for _ in range(3)))
        return self.times[-1]


def _spaces(cfg) -> dict:
    return {
        "sw": cfg.space.at_stride(cfg.sw_stride),
        **{alg: cfg.space for alg in ("mpw", "ipw", "sipw")},
    }


def set_up(config_path: Path) -> list:
    """What ``setup_s`` times: ``load_config`` plus scene generation."""
    return pwconfig.load_config(config_path).load_scenes()


def _time_setup(config_path: Path, cal: Calibrator) -> tuple[float, float, list]:
    """Median scaled and unscaled time of :func:`set_up`, and the scenes."""
    scaled, raw, scenes = [], [], []
    before = cal.measure()
    for _ in range(SETUP_GROUPS):
        group = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            scenes = set_up(config_path)
            group.append(time.perf_counter() - start)
        after = cal.measure()
        scaled += [t * 2 * CAL_REF_S / (before + after) for t in group]
        raw += group
        before = after
    return statistics.median(scaled), statistics.median(raw), scenes


def build_pedestrian(root: Path, work: Path, seed: int, cal: Calibrator, scenes: int | None = None) -> Workload:
    """Per shipped scene: sw once, mpw at both budgets, sipw and ipw at 5000.

    Both incremental samplers exhaust the space after ~2.9k draws, so the
    shipped 11000 budget repeats the 5000 regime for them and is left out;
    sw ignores the budget and runs once.  Each unit is ``compare`` on a
    one-scene, one-detector config.  The seed moves only the experiment
    seed: ipw's cost per window differs up to 2x between scenes, so with
    four scenes a scene-varying seed would spread ``ipw.us_per_window``
    across seeds by more than its bound allows.  ``scenes`` keeps only the
    first scenes, for the benchmark's own tests.
    """
    config_path = root / "configs" / "pedestrian.json"
    data = json.loads(config_path.read_text())
    exp_seed = data["experiment"]["seed"] + seed
    setup_s, setup_raw, scene_list = _time_setup(config_path, cal)
    spaces = _spaces(pwconfig.load_config(config_path))
    budgets = {"sw": [5000], "mpw": [5000, 11000], "sipw": [5000], "ipw": [5000]}
    detectors = {d["name"]: d for d in data["detectors"]}
    units = []
    for index, scene in enumerate(scene_list[:scenes]):
        scene.save(work / f"scene_{index}.json")
        for name in ("sw", "mpw", "sipw", "ipw"):
            unit_data = copy.deepcopy(data)
            unit_data["detectors"] = [detectors[name]]
            unit_data["scenes"] = {"files": [f"scene_{index}.json"]}
            unit_data["experiment"]["budgets"] = budgets[name]
            unit_data["experiment"]["seed"] = 1000 * exp_seed + index
            path = work / f"s{index}_{name}.json"
            path.write_text(json.dumps(unit_data))
            out = work / "out" / f"s{index}_{name}"
            argv = ["compare", "--config", str(path), "--out", str(out), "--jobs", "1", "--quiet"]
            units.append(Unit(f"s{index}/{name}", name, argv, out, spaces, max(budgets[name])))
    return Workload("pedestrian", units, config_path, setup_s, setup_raw)


def build_synthetic_trace(root: Path, work: Path, seed: int, cal: Calibrator, scenes: int | None = None) -> Workload:
    """``run`` for every (scene, detector) of ``SYNTHETIC_COPIES`` copies of the synthetic config.

    The seed and ``SEED_STEP * c`` for copy c are added to both shipped
    seeds, so copy 0 at seed 0 is the shipped config.  Each run still
    generates only its copy's 12 scenes, as a user's run would, while the
    workload averages its detection rates over six times as many scenes.
    ``scenes`` keeps only the first scenes of each copy, for the tests.
    """
    config_path = root / "configs" / "synthetic.json"
    shipped = json.loads(config_path.read_text())
    spaces = _spaces(pwconfig.load_config(config_path))  # the seeds do not change the space
    units = []
    for copy_index in range(SYNTHETIC_COPIES):
        data = copy.deepcopy(shipped)
        data["scenes"]["master_seed"] += seed + SEED_STEP * copy_index
        data["experiment"]["seed"] += seed + SEED_STEP * copy_index
        path = work / f"synthetic_{copy_index}.json"
        path.write_text(json.dumps(data))
        for index in range(data["scenes"]["count"] if scenes is None else scenes):
            for det in data["detectors"]:
                key = f"c{copy_index}s{index}_{det['name']}"
                out = work / "out" / key
                argv = ["run", "--config", str(path), "--detector", det["name"], "--scene", str(index),
                        "--out", str(out), "--quiet"]
                units.append(Unit(key, det["algorithm"], argv, out, spaces, det.get("budget", 1)))
    first = work / "synthetic_0.json"
    setup_s, setup_raw, _ = _time_setup(first, cal)
    return Workload("synthetic-trace", units, first, setup_s, setup_raw)


BUILDERS = {"pedestrian": build_pedestrian, "synthetic-trace": build_synthetic_trace}


class Runner:
    """Executes units, checks their outputs and keeps the failure count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, unit: Unit, tracer: layers.Tracer | None = None) -> float | None:
        """Run ``unit`` once; its wall time, or None when it failed."""
        self.attempted += 1
        if unit.out.exists():
            shutil.rmtree(unit.out)
        runs: list = []
        try:
            with layers.capture_runs(runs) as hooked:
                if tracer is None:
                    start = time.perf_counter()
                    code = cli.main(unit.argv)
                    elapsed = time.perf_counter() - start
                else:
                    with tracer.installed():
                        start = time.perf_counter()
                        code = cli.main(unit.argv)
                        elapsed = time.perf_counter() - start
            problems = [f"exit code {code}"] if code != 0 else self._check(unit, runs, hooked)
        except Exception as exc:  # noqa: BLE001 - a failing unit is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{unit.key}: {p}" for p in problems)
            return None
        return elapsed

    def _check(self, unit: Unit, runs: list, hooked: bool) -> list[str]:
        if not hooked:
            return ["trace invariants unchecked: pwsearch.harness.run_detector not found"]
        if not runs:
            return ["no detector run was observed"]
        problems = []
        for config, trace in runs:
            problems += checks.trace_problems(unit.spaces[config.algorithm], config, trace)
        if unit.argv[0] == "compare":
            records, found = checks.results_problems(unit.out)
            cells = [
                {"detection_rate": r["detection_rate"], "matched": r["matched"], "detections": r["detections"]}
                for r in records
            ]
            windows = sum(r["windows_used"] for r in records)
        else:
            summary, found = checks.summary_problems(unit.out, unit.budget)
            cells = [
                {
                    "detection_rate": summary["detection_rate"],
                    "matched": summary["detections"] - int(summary["fppi"]),
                    "detections": summary["detections"],
                }
            ] if summary else []
            windows = summary.get("windows_used", 0)
        problems += found
        if windows != sum(len(trace.records) for _, trace in runs):
            problems.append("windows_used in the output differs from the scored windows")
        digest = checks.digest_dir(unit.out)
        if unit.digest is None:
            unit.digest, unit.windows, unit.cells = digest, windows, cells
        elif digest != unit.digest:
            problems.append("output differs from this unit's earlier execution in the same run")
        return problems


def _schedule(units: list[Unit], seconds: float, passes: int):
    """Round robin over ``units`` until ``seconds`` have passed, but at least ``passes`` times."""
    start = time.perf_counter()
    i = 0
    while i < passes * len(units) or time.perf_counter() - start < seconds:
        yield units[i % len(units)]
        i += 1


def timed(workload: Workload, seconds: float, runner: Runner, cal: Calibrator) -> None:
    """Fills each unit's samples, calibrating after every ``CAL_EVERY_S`` of work."""
    runner.execute(workload.units[0])  # warm-up: imports, caches; checked, not timed
    pending: list[tuple[Unit, float]] = []
    before = cal.measure()
    for unit in _schedule(workload.units, seconds, MIN_EXECUTIONS):
        elapsed = runner.execute(unit)
        if elapsed is not None:
            pending.append((unit, elapsed))
        if sum(t for _, t in pending) >= CAL_EVERY_S:
            before = _settle(pending, before, cal)
    _settle(pending, before, cal)


def _settle(pending: list[tuple[Unit, float]], before: float, cal: Calibrator) -> float:
    """Scales the pending executions by the calibrations around them."""
    after = cal.measure()
    scale = 2 * CAL_REF_S / (before + after)
    for unit, elapsed in pending:
        unit.samples.append(elapsed * scale)
        unit.raw.append(elapsed)
    pending.clear()
    return after


def end_to_end(workload: Workload, scaled: bool = True) -> dict:
    """Every end-to-end metric, from the units' medians and outputs.

    ``scaled=False`` gives the unscaled figures.
    """
    per_detector: dict[str, list[Unit]] = {d: [] for d in layers.DETECTORS}
    for unit in workload.units:
        per_detector[unit.detector].append(unit)
    def seconds(u: Unit) -> float:
        return statistics.median(u.samples if scaled else u.raw)

    wall = sum(seconds(u) for u in workload.units)
    windows = sum(u.windows for u in workload.units)
    cells = [c for u in workload.units for c in u.cells]
    metrics = {
        "setup_s": (workload.setup_s if scaled else workload.setup_raw_s, "s"),
        "wall_s": (wall, "s"),
        "windows_per_s": (windows / wall, "1/s"),
    }
    for det, units in per_detector.items():
        busy = sum(seconds(u) for u in units)
        metrics[f"{det}.us_per_window"] = (1e6 * busy / sum(u.windows for u in units), "us")
    for det, units in per_detector.items():
        rates = [c["detection_rate"] for u in units for c in u.cells]
        metrics[f"{det}.detection_rate"] = (sum(rates) / len(rates), "frac")
    detections = sum(c["detections"] for c in cells)
    metrics["precision"] = (sum(c["matched"] for c in cells) / detections if detections else 0.0, "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced(workload: Workload, seconds: float, runner: Runner) -> dict:
    """Per-layer metrics: each unit untraced and traced back to back.

    One set-up is traced as well, so the layers ``setup_s`` times are
    attributed on every workload, once per pass.
    """
    per_unit: dict[str, list[layers.Tracer]] = {u.key: [] for u in workload.units}
    plain = {u.key: [] for u in workload.units}
    with_spans = {u.key: [] for u in workload.units}
    runner.execute(workload.units[0])  # warm-up
    tracer = layers.Tracer()
    start = time.perf_counter()
    set_up(workload.config_path)
    plain["set-up"] = [time.perf_counter() - start]
    with tracer.installed():
        start = time.perf_counter()
        set_up(workload.config_path)
        with_spans["set-up"] = [time.perf_counter() - start]
    per_unit["set-up"] = [tracer]
    for i, unit in enumerate(_schedule(workload.units, seconds, 1)):
        tracer = layers.Tracer()
        if i % 2:  # alternate which side runs first, so drift does not bias the overhead
            without, with_ = runner.execute(unit), runner.execute(unit, tracer)
        else:
            with_, without = runner.execute(unit, tracer), runner.execute(unit)
        if without is None or with_ is None:
            continue
        plain[unit.key].append(without)
        with_spans[unit.key].append(with_)
        per_unit[unit.key].append(tracer)
    return per_layer(per_unit, plain, with_spans)


def _pass_total(per_unit: dict, value) -> float:
    """One pass's total of ``value(tracer)``: per-unit mean, summed over units."""
    return sum(
        sum(value(t) for t in tracers) / len(tracers) for tracers in per_unit.values() if tracers
    )


def per_layer(per_unit: dict, plain: dict, with_spans: dict) -> dict:
    """Every per-layer metric, per pass; layers whose names are gone are absent."""
    any_tracer = next((t for ts in per_unit.values() for t in ts), layers.Tracer())
    absent = {layer for layer in layers.LAYERS if any_tracer.is_absent(layer)}
    wall_plain = _pass_total(plain, lambda x: x)
    wall_traced = _pass_total(with_spans, lambda x: x)

    def layer_s(layer):
        return _pass_total(per_unit, lambda t: t.self_s.get(layer, 0.0))

    def calls(layer):
        return _pass_total(per_unit, lambda t: t.calls.get(layer, 0))

    def extra(key):
        return _pass_total(per_unit, lambda t: t.extra.get(key, 0.0))

    def by_det(det, layer):
        return _pass_total(per_unit, lambda t: t.by_detector.get((det, layer), 0.0))

    rows = []  # (name, value, unit, layer it depends on)
    for layer in layers.SHARED:
        rows += [(f"{layer}.calls", calls(layer), "count", layer), (f"{layer}.s", layer_s(layer), "s", layer)]
    n_gauss = calls("proposal.gaussian")
    rows += [
        ("proposal.gaussian.exhausted_frac",
         extra("proposal.gaussian.exhausted") / n_gauss if n_gauss else 0.0, "frac", "proposal.gaussian"),
        ("proposal.mixture_build.components", extra("proposal.mixture_build.components"), "count",
         "proposal.mixture_build"),
        ("regions.mark.cells", extra("regions.mark.cells"), "count", "regions.mark"),
    ]
    for det in layers.DETECTORS:
        total = by_det(det, "total")
        rows += [
            (f"detectors.{det}.s", total, "s", layers.RUN_LAYER),
            (f"detectors.{det}.self_s", by_det(det, layers.RUN_LAYER), "s", layers.RUN_LAYER),
        ]
        rows += [
            (f"detectors.{det}.share.{layer}", by_det(det, layer) / total if total else 0.0, "frac", layer)
            for layer in layers.SHARED
        ]
    claimed = sum(layer_s(layer) for layer in layers.LAYERS)
    rows += [
        ("detectors.nms.s", layer_s("detectors.nms"), "s", "detectors.nms"),
        ("harness.evaluate.s", layer_s("harness.evaluate"), "s", "harness.evaluate"),
        ("harness.serialize.s", layer_s("harness.serialize"), "s", "harness.serialize"),
        ("harness.serialize.bytes", extra("harness.serialize.bytes"), "bytes", "harness.serialize"),
        ("config.load.s", layer_s("config.load"), "s", "config.load"),
        ("harness.generate_scenes.s", layer_s("harness.generate_scenes"), "s", "harness.generate_scenes"),
        ("cli.self_s", layer_s("cli"), "s", "cli"),
        ("unattributed.s", wall_traced - claimed, "s", None),
        ("trace.wall_s", wall_traced, "s", None),
        ("trace.untraced_wall_s", wall_plain, "s", None),
        ("trace.overhead_frac", wall_traced / wall_plain - 1.0 if wall_plain else 0.0, "frac", None),
    ]
    metrics = {}
    for name, value, unit, layer in rows:
        if layer in absent:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def _repeat_spread(workload: Workload, scaled: bool) -> float:
    """How far one unit's executions in this run disagree, as a share of their median."""
    spreads = [
        (max(v) - min(v)) / statistics.median(v)
        for v in (u.samples if scaled else u.raw for u in workload.units)
        if len(v) > 1
    ]
    return statistics.median(spreads) if spreads else float("nan")


def host_info() -> dict:
    cpu = platform.machine()  # not platform.processor(), which may start `uname -p`
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def baseline_digest(workload: str, seed: int) -> str | None:
    path = Path(__file__).with_name("baseline.json")
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool,
        scenes: int | None = None, report=print) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    work = root / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        cal = Calibrator()
        workload = BUILDERS[workload_name](root, work, seed, cal, scenes)
        runner = Runner()
        if trace:
            metrics = traced(workload, seconds, runner)
        else:
            timed(workload, seconds, runner, cal)
            complete = all(u.samples for u in workload.units)
            metrics = end_to_end(workload) if complete else {}
            unscaled = end_to_end(workload, scaled=False) if complete else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    digest = checks.digest_all([u.digest or "" for u in workload.units])
    expected = baseline_digest(workload_name, seed)
    report(f"host: {json.dumps(host_info())}")
    report(f"workload {workload_name} seed {seed}: {len(workload.units)} units, "
           f"{runner.attempted} executions, {runner.failed} failed")
    report(f"digest {digest} baseline "
           + ("not recorded for this seed" if expected is None else
              "match" if expected == digest else f"MISMATCH (expected {expected})"))
    if not trace:
        n = [len(u.samples) for u in workload.units]
        q = statistics.quantiles(cal.times, n=4)
        report(f"executions per unit: min {min(n)} max {max(n)}; {len(cal.times)} calibrations, "
               f"quartiles {q[0]:.6f} {q[1]:.6f} {q[2]:.6f} s (reference {CAL_REF_S} s)")
        report("unscaled: " + json.dumps({k: v["value"] for k, v in unscaled.items() if v["unit"] in ("s", "us", "1/s")}))
        report(f"repeat spread, median over units of (max - min) / median: scaled {_repeat_spread(workload, True):.4f}, "
               f"unscaled {_repeat_spread(workload, False):.4f}")
    absent = [k for k, v in metrics.items() if v.get("absent")]
    if absent:
        report(f"absent layers, public names gone: {', '.join(absent)}")
    for problem in runner.problems[:20]:
        report(f"FAILED {problem}")
    return {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
