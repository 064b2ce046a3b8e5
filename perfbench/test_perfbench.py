"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from pwsearch.config import load_config  # noqa: E402
from pwsearch.detectors import run_ipw  # noqa: E402
from pwsearch.harness import build_scorer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(bench.BUILDERS))
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_reports_every_metric(workload, trace):
    lines = []
    result = bench.run(ROOT, workload, seed=0, seconds=0, trace=trace, scenes=1, report=lines.append)
    assert result["correct"] and result["failed"] == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float | int)
    timings = [m["value"] for m in result["metrics"].values() if m["unit"] == "s"]
    assert all(t > 0 for t in timings)  # a time reading 0 on every run would look invented
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.BUILDERS)


def _ipw_trace():
    cfg = load_config(ROOT / "configs" / "synthetic.json")
    scene = cfg.load_scenes()[0]
    detector = next(d for d in cfg.detectors if d.algorithm == "ipw")
    trace = run_ipw(cfg.space, build_scorer(scene), detector, seed=3)
    return cfg.space, detector, trace


def test_trace_check_accepts_a_real_run_and_rejects_a_duplicate_window():
    space, detector, trace = _ipw_trace()
    assert checks.trace_problems(space, detector, trace) == []
    first, second = trace.records[0], trace.records[1]
    trace.records[1] = replace(second, window=first.window)
    problems = checks.trace_problems(space, detector, trace)
    assert any("scored twice" in p for p in problems)


def test_trace_check_rejects_windows_outside_space_and_over_budget():
    space, detector, trace = _ipw_trace()
    last = trace.records[-1]
    trace.records[-1] = replace(last, window=replace(last.window, x=10**6))
    tight = replace(detector, budget=len(trace.records) - 1)
    problems = checks.trace_problems(space, tight, trace)
    assert any("outside" in p for p in problems)
    assert any("over budget" in p for p in problems)


def test_a_unit_whose_output_changes_between_executions_fails(tmp_path):
    workload = bench.build_synthetic_trace(ROOT, tmp_path, 0, bench.Calibrator(), scenes=1)
    unit = workload.units[0]
    runner = bench.Runner()
    assert runner.execute(unit) is not None
    unit.digest = "0" * 64
    assert runner.execute(unit) is None
    assert runner.failed == 1 and "differs" in runner.problems[0]


def test_baseline_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(bench, "baseline_digest", lambda workload, seed: "f" * 64)
    lines = []
    bench.run(ROOT, "synthetic-trace", seed=0, seconds=0, trace=False, scenes=1, report=lines.append)
    assert any("MISMATCH" in line for line in lines)


def test_absent_layer_is_reported_not_zeroed(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "proposal.mpw_draw", ("pwsearch.proposal:no_such_draw",))
    lines = []
    result = bench.run(ROOT, "synthetic-trace", seed=0, seconds=0, trace=True, scenes=1, report=lines.append)
    assert result["correct"]
    for name in ("proposal.mpw_draw.calls", "proposal.mpw_draw.s", "detectors.mpw.share.proposal.mpw_draw"):
        assert result["metrics"][name] == {"value": None, "unit": result["metrics"][name]["unit"], "absent": True}
    assert result["metrics"]["scoring.score.calls"]["value"] > 0
    assert any("absent layers" in line for line in lines)


def test_units_fail_when_traces_cannot_be_captured(monkeypatch, tmp_path):
    monkeypatch.setitem(layers.LAYERS, layers.RUN_LAYER, ("pwsearch.harness:no_such_runner",))
    workload = bench.build_synthetic_trace(ROOT, tmp_path, 0, bench.Calibrator(), scenes=1)
    runner = bench.Runner()
    assert runner.execute(workload.units[0]) is None
    assert "unchecked" in runner.problems[0]


def test_patches_are_undone():
    from pwsearch import detectors, harness

    before = (harness.run_detector, harness.evaluate, detectors.draw_gaussian_window)
    tracer = layers.Tracer()
    with tracer.installed():
        assert harness.run_detector is not before[0]
    assert (harness.run_detector, harness.evaluate, detectors.draw_gaussian_window) == before


def test_non_default_seed_still_exhausts_the_pedestrian_space(tmp_path):
    workload = bench.build_pedestrian(ROOT, tmp_path, 7, bench.Calibrator(), scenes=1)
    runner = bench.Runner()
    for unit in workload.units:
        if unit.detector in ("ipw", "sipw"):
            assert runner.execute(unit) is not None, runner.problems
            cells, _ = checks.results_problems(unit.out)
            assert all(c["complete"] and c["windows_used"] < c["budget"] for c in cells)


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pedestrian", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
