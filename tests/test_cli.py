"""End-to-end command-line behavior against a small throwaway config."""

import csv
import json
import math
from pathlib import Path

import pytest

from pwsearch.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from pwsearch.config import ConfigError

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

RADIUS_TABLE = {
    "active_intervals": 7,
    "intervals": [
        {"lower": "-inf", "r_x_ratio": 0.40, "r_y_ratio": 0.40},
        {"lower": -4.9, "r_x_ratio": 0.22, "r_y_ratio": 0.22},
        {"lower": -4.5, "r_x_ratio": 0.14, "r_y_ratio": 0.14},
        {"lower": -4.0, "r_x_ratio": 0.09, "r_y_ratio": 0.09},
        {"lower": -3.5, "r_x_ratio": 0.05, "r_y_ratio": 0.05},
        {"lower": -3.0, "r_x_ratio": 0.02, "r_y_ratio": 0.02},
        {"lower": -2.5, "r_x_ratio": 0.0, "r_y_ratio": 0.0},
    ],
}


def tiny_config(**overrides):
    cfg = {
        "space": {
            "image_w": 80,
            "image_h": 60,
            "template_w": 16,
            "template_h": 24,
            "stride": 1,
            "sw_stride": 4,
            "scale_factor": 1.25,
            "scale_count": 3,
        },
        "scorer": {"kind": "synthetic"},
        "detectors": [
            {
                "name": "ipw",
                "algorithm": "ipw",
                "t_l": -2.0,
                "t_h": 0.0,
                "budget": 80,
                "alpha": 0.2,
                "gamma": 0.7,
                "r_a_x_ratio": 0.16,
                "r_a_y_ratio": 0.16,
                "accept_propagation": {"span": 1, "shrink": 0.5},
                "radius_table": RADIUS_TABLE,
            },
            {
                "name": "mpw",
                "algorithm": "mpw",
                "t_l": -2.0,
                "t_h": 0.0,
                "budget": 80,
                "gamma": 0.44,
            },
        ],
        "scenes": {
            "count": 3,
            "master_seed": 999,
            "params": {
                "object_count": 1,
                "distractor_count": 1,
                "scale_indices": [0, 1],
            },
        },
        "experiment": {
            "budgets": [40, 80],
            "seed": 5,
            "sweep_t_h": [-0.5, 0.0],
        },
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config(), indent=2))
    return path


def test_validate_shipped_configs(capsys):
    for name in ("synthetic.json", "pedestrian.json", "face.json"):
        assert main(["validate-config", "--config", str(CONFIGS_DIR / name)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("ok:") == 3


def test_a_radius_interval_no_rejection_reads_is_refused(tmp_path, capsys):
    """Only a response below ``t_l`` is rejected, so only such a response
    reads the radius table: an ``ipw`` or ``sipw`` interval whose lower bound
    is at or above ``t_l`` is refused by name, with exit 2."""
    for algorithm, t_l, k, lower in (("ipw", -2.5, 6, -2.5), ("sipw", -3.2, 5, -3.0)):
        cfg = tiny_config()
        cfg["detectors"][0].update(algorithm=algorithm, t_l=t_l)
        path = tmp_path / f"{algorithm}.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: detectors[0]: radius_table.intervals[{k}].lower = {lower} is not below t_l = {t_l}" in err


def test_integral_floats_load_as_integers(tmp_path):
    """A schema-valid ``24.0`` in an integer field runs like ``24``."""
    cfg = json.loads((CONFIGS_DIR / "synthetic.json").read_text())
    cfg["space"]["template_w"] = 24.0
    cfg["experiment"]["budgets"] = [float(b) for b in cfg["experiment"]["budgets"]]
    for det in cfg["detectors"]:
        det["budget"] = float(det["budget"])
        if "accept_propagation" in det:
            det["accept_propagation"]["span"] = 1.0
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name, config in (("shipped", CONFIGS_DIR / "synthetic.json"), ("floats", path)):
        out = tmp_path / name
        argv = ["run", "--config", str(config), "--detector", "ipw", "--scene", "1"]
        assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_OK
        outs.append((out / "trace.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    from pwsearch import CostModel, DetectorConfig, SceneParams, SearchSpace
    from pwsearch.config import load_config

    cfg = {
        "space": {
            "image_w": 80,
            "image_h": 60,
            "template_w": 16,
            "template_h": 24,
            "scale_factor": 1.25,
            "scale_count": 3,
        },
        "detectors": [{"name": "sw", "algorithm": "sw", "t_l": -2.0, "t_h": 0.0}],
        "scenes": {},
        "experiment": {"budgets": [40], "seed": 5},
    }
    path = tmp_path / "required.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    space = SearchSpace(80, 60, 16, 24, scale_factor=1.25, scale_count=3)
    assert loaded.space == space
    assert loaded.detectors == (DetectorConfig("sw", "sw", -2.0, 0.0),)
    assert loaded.scene_params == SceneParams(space)
    assert loaded.cost_model == CostModel()


def test_run_writes_expected_files(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "trace.jsonl").exists()
    assert (out / "curves.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["detector"] == "ipw"
    assert summary["windows_used"] <= 80


def test_run_same_seed_is_byte_identical(config_path, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == EXIT_OK
    for name in ("trace.jsonl", "curves.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_seed_override_changes_the_draws(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(a), "--quiet"]) == EXIT_OK
    assert (
        main(["run", "--config", str(config_path), "--out", str(b), "--seed", "6", "--quiet"])
        == EXIT_OK
    )
    assert (a / "trace.jsonl").read_bytes() != (b / "trace.jsonl").read_bytes()


def test_run_picks_detector_and_scene(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(config_path),
            "--detector",
            "mpw",
            "--scene",
            "2",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["detector"] == "mpw"
    assert summary["scene"] == 2


def test_run_rejects_unknown_detector_and_scene(config_path, tmp_path):
    out = str(tmp_path / "x")
    assert (
        main(["run", "--config", str(config_path), "--detector", "nope", "--out", out, "--quiet"])
        == EXIT_CONFIG
    )
    assert (
        main(["run", "--config", str(config_path), "--scene", "9", "--out", out, "--quiet"])
        == EXIT_CONFIG
    )


def test_compare_outputs(config_path, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config_path), "--out", str(out), "--quiet"]) == EXIT_OK
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(results) == 3 * 2 * 2  # scenes x detectors x budgets
    with open(out / "rates.csv") as handle:
        rates = list(csv.DictReader(handle))
    assert [row["budget"] for row in rates] == ["40", "80"]
    assert set(rates[0]) == {"budget", "ipw", "mpw"}
    with open(out / "ratios.csv") as handle:
        ratios = list(csv.DictReader(handle))
    assert float(ratios[0]["windows:ipw"]) <= 40


def test_compare_parallel_is_byte_identical(config_path, tmp_path):
    """``--jobs 2`` writes the same bytes as ``--jobs 1``, for compare and sweep."""
    for subcommand in ("compare", "sweep"):
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / subcommand / jobs
            argv = [subcommand, "--config", str(config_path), "--out", str(out), "--jobs", jobs]
            assert main([*argv, "--quiet"]) == EXIT_OK
            outs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outs["1"], subcommand
        assert outs["1"] == outs["2"], subcommand


def test_jobs_below_one_is_a_usage_error(config_path, tmp_path, capsys):
    """``--jobs`` below 1 and ``--seed`` below 0 exit 2 before anything runs."""
    cases = [(sub, "--jobs", jobs, 1) for sub in ("compare", "sweep") for jobs in ("0", "-4")]
    cases += [(sub, "--seed", "-1", 0) for sub in ("run", "compare", "sweep")]
    for subcommand, flag, value, low in cases:
        out = tmp_path / subcommand / flag / value
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--config", str(config_path), "--out", str(out), flag, value, "--quiet"])
        assert exit_info.value.code == EXIT_CONFIG
        assert f"{flag}: must be an integer of at least {low}" in capsys.readouterr().err
        assert not out.exists()


def test_compare_pairs_identical_detectors(tmp_path):
    """Two detectors with the same settings see the same seeds, hence results."""
    cfg = tiny_config()
    clone = json.loads(json.dumps(cfg["detectors"][0]))
    clone["name"] = "ipw2"
    cfg["detectors"] = [cfg["detectors"][0], clone]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    a = [(r["scene"], r["budget"], r["detection_rate"], r["windows_used"], r["cost"])
         for r in results if r["detector"] == "ipw"]
    b = [(r["scene"], r["budget"], r["detection_rate"], r["windows_used"], r["cost"])
         for r in results if r["detector"] == "ipw2"]
    assert a == b


def test_compare_rows_replay_as_runs(tmp_path):
    """Each compare row is what ``run`` writes for its scene and detector on
    the same config with that detector's budget set to the row's."""
    cfg = tiny_config()
    cfg["detectors"].append({"name": "sw", "algorithm": "sw", "t_l": -2.0, "t_h": 0.0})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(rows) == 3 * 3 * 2
    keys = ("seed", "windows_used", "detection_rate", "cost", "complete")
    for row in rows:
        for detector in cfg["detectors"]:
            detector["budget"] = row["budget"]
        path.write_text(json.dumps(cfg))
        run_out = tmp_path / "run"
        argv = ["run", "--config", str(path), "--detector", row["detector"], "--scene", str(row["scene"])]
        assert main([*argv, "--out", str(run_out), "--quiet"]) == EXIT_OK
        summary = json.loads((run_out / "summary.json").read_text())
        assert {k: summary[k] for k in keys} == {k: row[k] for k in keys}, row


def test_sweep_outputs_operating_points(config_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--out", str(out), "--quiet"]) == EXIT_OK
    with open(out / "operating_points.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["t_h"]) for r in rows] == [-0.5, 0.0]
    for row in rows:
        assert 0.0 <= float(row["detection_rate"]) <= 1.0
        assert float(row["fppi"]) >= 0.0


def test_sweep_requires_points_above_t_l(tmp_path):
    cfg = tiny_config()
    cfg["experiment"]["sweep_t_h"] = [-3.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG


def test_curves_reproduces_run_output(config_path, tmp_path):
    run_out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(run_out), "--quiet"]) == EXIT_OK
    curves_out = tmp_path / "curves"
    code = main(
        [
            "curves",
            "--trace",
            str(run_out / "trace.jsonl"),
            "--out",
            str(curves_out),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    assert (curves_out / "curves.csv").read_bytes() == (run_out / "curves.csv").read_bytes()


def test_curves_missing_trace_is_config_error(tmp_path):
    assert (
        main(["curves", "--trace", str(tmp_path / "none.jsonl"), "--out", str(tmp_path), "--quiet"])
        == EXIT_CONFIG
    )


def test_curves_unreadable_trace_is_config_error(tmp_path, capsys):
    """A trace path that is a directory, or a file that is not UTF-8, exits 2."""
    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b"\xff\xfe\x00{}\n" * 3)
    for trace in (tmp_path, binary):
        assert main(["curves", "--trace", str(trace), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert "config error: --trace: cannot read trace file " in capsys.readouterr().err


def test_curves_trace_cut_before_its_footer_is_config_error(config_path, tmp_path, capsys):
    """A trace cut at a line end or mid-line, with a record that lacks a
    key, or cut down to its header and footer, exits 2, writes no curves and
    names the line at fault or the missing records."""
    run_out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(run_out), "--quiet"]) == EXIT_OK
    lines = (run_out / "trace.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[3])
    del record["kind"]
    cases = {
        "at-line-end": ("".join(lines[:-1]), f"line {len(lines) - 1} is "),
        "mid-line": ("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2], f"line {len(lines)} is "),
        "without-kind": ("".join(lines[:3]) + json.dumps(record) + "\n" + "".join(lines[4:]), "line 4 is "),
        "no-records": (lines[0] + lines[-1], "trace file has no records"),
    }
    for name, (text, message) in cases.items():
        cut = tmp_path / f"{name}.jsonl"
        cut.write_text(text)
        assert main(["curves", "--trace", str(cut), "--out", str(tmp_path / name), "--quiet"]) == EXIT_CONFIG
        assert f"config error: --trace: {message}" in capsys.readouterr().err
        assert not (tmp_path / name / "curves.csv").exists()


def test_missing_config_file(tmp_path):
    assert (
        main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path), "--quiet"])
        == EXIT_CONFIG
    )


def test_debug_reraises_what_the_exit_codes_report(config_path, tmp_path, capsys):
    """Without ``--debug`` a failure prints its message and exits 2 or 3;
    with it, every subcommand re-raises the exception itself."""
    absent = str(tmp_path / "absent.json")
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the output directory should go
    for argv, code, error in (
        (["run", "--config", absent], EXIT_CONFIG, ConfigError),
        (["compare", "--config", absent], EXIT_CONFIG, ConfigError),
        (["sweep", "--config", absent], EXIT_CONFIG, ConfigError),
        (["curves", "--trace", absent], EXIT_CONFIG, ConfigError),
        (["validate-config", "--config", absent], EXIT_CONFIG, ConfigError),
        (["run", "--config", str(config_path), "--out", str(blocker)], EXIT_RUNTIME, FileExistsError),
    ):
        assert main([*argv, "--quiet"]) == code, argv
        assert "error: " in capsys.readouterr().err
        with pytest.raises(error):
            main([*argv, "--quiet", "--debug"])


def test_unreadable_config_or_scene_file_is_config_error(tmp_path, capsys):
    """A config that is a directory or not UTF-8, and a scene file that is a
    directory, exit 2 and name the file."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{}")
    for path in (tmp_path, binary):
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert f"config error: {path}: cannot read config file: " in capsys.readouterr().err
    (tmp_path / "scenes").mkdir()
    cfg = tiny_config()
    cfg["scenes"] = {"files": ["scenes"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
    assert f"config error: {tmp_path / 'scenes'}: cannot read scene file: " in capsys.readouterr().err


def test_sweep_points_load_as_the_first_detector_at_each_t_h():
    """``sweep`` runs the loaded points as they are: the first detector with
    each ``sweep_t_h`` point as its ``t_h``, named by the point's index."""
    from dataclasses import replace

    from pwsearch.config import load_config

    for name in ("synthetic.json", "pedestrian.json", "face.json"):
        points = json.loads((CONFIGS_DIR / name).read_text())["experiment"]["sweep_t_h"]
        cfg = load_config(CONFIGS_DIR / name)
        assert cfg.sweep == tuple(replace(cfg.detectors[0], name=str(k), t_h=t) for k, t in enumerate(points)), name
        assert all(type(point.t_h) is float for point in cfg.sweep), name


def test_a_refused_sweep_point_is_named(tmp_path, capsys):
    """A point is refused by the detector rules, at ``experiment.sweep_t_h``."""
    for kind, points, message in (
        ("synthetic", [-0.5, -3.0], "sweep point -3.0: t_l must be below t_h"),
        ("cascade", [0.8, 1.5], "cascade responses lie in [0, 1], so t_h must be at most 1, not 1.5"),
    ):
        cfg = tiny_config(scorer={"kind": kind})
        if kind == "cascade":
            for det in cfg["detectors"]:
                det["t_l"], det["t_h"] = 0.2, 0.8
        cfg["experiment"]["sweep_t_h"] = points
        path = tmp_path / f"sweep_{kind}.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert f"config error: experiment.sweep_t_h: {message}\n" in capsys.readouterr().err


def test_a_scale_with_windows_places_its_targets(tmp_path):
    """``grid_size`` alone says whether the template fits at a scale: 187 / 1.1
    is 170, so scale 1 holds one window of a 170-px template, though
    170 * 1.1 rounds an ulp past 187.  The config validates, and each scene
    centres its target at scale 1 in the image."""
    from pwsearch.config import load_config

    cfg = tiny_config()
    cfg["space"].update(image_w=187, image_h=187, template_w=170, template_h=170, scale_factor=1.1, scale_count=2)
    cfg["scenes"]["params"].update(scale_indices=[1], distractor_count=0)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_OK
    for scene in load_config(path).load_scenes():
        (box, _), = scene.objects
        assert (box.cx, box.cy, box.w, box.h) == (93.5, 93.5, 170 * 1.1, 170 * 1.1)


def test_a_pyramid_past_the_image_exits_2_before_anything_runs(tmp_path, capsys):
    """The template fits ``synthetic.json``'s image at 6 scales.  At
    ``scale_count`` 9 every command refuses the config, naming both, and
    writes nothing."""
    cfg = json.loads((CONFIGS_DIR / "synthetic.json").read_text())
    cfg["space"]["scale_count"] = 9
    path = tmp_path / "past.json"
    path.write_text(json.dumps(cfg))
    for command in ("validate-config", "run", "compare", "sweep"):
        out = tmp_path / command
        argv = [command, "--config", str(path), "--quiet"]
        assert main(argv if command == "validate-config" else argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: space: scale_count 9 runs past the image: the template fits at 6 of" in err
        assert not out.exists()


def test_schema_violation_is_config_error(tmp_path):
    cfg = tiny_config()
    cfg["detectors"][0]["alpha"] = 2.5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG


def test_semantic_config_errors(tmp_path, capsys):
    cfg = tiny_config()
    cfg["detectors"][1]["name"] = "ipw"  # duplicate
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    cfg = tiny_config()
    cfg["scenes"]["params"]["scale_indices"] = [7]
    path = tmp_path / "scales.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    # generated scenes the generator cannot draw: a peak range out of order
    # or not above the floor, a scale index past the pyramid or a pyramid
    # past the image, targets that cannot be placed apart
    for name, space, params, field in (
        ("peak_floor", {}, {"object_peak": [-6.0, -5.5]}, "scenes.params.object_peak"),
        ("peak_order", {}, {"distractor_peak": [-0.4, -1.2]}, "scenes.params.distractor_peak"),
        ("past_pyramid", {}, {"scale_indices": [3]}, "scenes.params.scale_indices"),
        ("unfit_scale", {"scale_count": 8}, {"scale_indices": [7]}, "space"),
        ("crowded", {}, {"object_count": 40, "max_overlap": 0.0}, "scenes.params"),
    ):
        cfg = tiny_config()
        cfg["space"].update(space)
        cfg["scenes"]["params"].update(params)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, name
        assert f"config error: {field}: " in capsys.readouterr().err, name

    cfg = tiny_config()
    cfg["scenes"]["params"]["floor"] = -1.0  # not below t_l
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    cfg = tiny_config()
    cfg["experiment"]["budgets"] = [40, 80, 40]  # duplicate budget
    path = tmp_path / "budgets.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    # cascade responses lie in [0, 1]: t_l <= 0 never rejects, t_h > 1 never accepts
    for field, value in (("t_l", 0.0), ("t_h", 1.5)):
        cfg = tiny_config(scorer={"kind": "cascade"})
        for det in cfg["detectors"]:
            det["t_l"], det["t_h"] = 0.2, 0.8
        cfg["detectors"][1][field] = value
        path = tmp_path / f"cascade_{field}.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert f"config error: detectors[1].{field}: " in capsys.readouterr().err

    cfg = tiny_config()
    cfg["cost_model"] = {"t_w": 0.0, "t_f": 0.0, "t_c": 0.0}  # every cost 0: no cost ratio
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
    assert "config error: cost_model: " in capsys.readouterr().err

    # sweep points are thresholds of the first detector: above its t_l, and at
    # most 1 under the cascade scorer
    for kind, points in (("synthetic", [-0.5, -3.0]), ("cascade", [0.8, 1.5])):
        cfg = tiny_config(scorer={"kind": kind})
        if kind == "cascade":
            for det in cfg["detectors"]:
                det["t_l"], det["t_h"] = 0.2, 0.8
        cfg["experiment"]["sweep_t_h"] = points
        path = tmp_path / f"sweep_{kind}.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert "config error: experiment.sweep_t_h: " in capsys.readouterr().err

    # Python's json reads NaN and +-Infinity, which JSON lacks: a NaN t_h
    # accepts nothing and a NaN gamma fails mid-run.  A config or scene file
    # holding one is refused by name.
    for detector, field, value in ((0, "t_h", math.nan), (1, "gamma", math.nan), (0, "t_l", -math.inf)):
        cfg = tiny_config()
        cfg["detectors"][detector][field] = value
        path = tmp_path / f"constant_{field}.json"
        path.write_text(json.dumps(cfg))
        run = ["run", "--config", str(path), "--detector", cfg["detectors"][detector]["name"]]
        assert main(run + ["--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG, field
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, field
        assert f"config error: {path}: invalid JSON: " in capsys.readouterr().err
    # It also reads a literal past a float's range, such as 1e400, as inf: an
    # inf t_h accepts nothing and an inf gamma fails mid-run.  json.dumps
    # writes inf as Infinity, so the literal goes in as raw text.
    for detector, field in ((0, "t_h"), (1, "gamma")):
        cfg = tiny_config()
        cfg["detectors"][detector][field] = "OVERFLOW"
        path = tmp_path / f"overflow_{field}.json"
        path.write_text(json.dumps(cfg).replace('"OVERFLOW"', "1e400"))
        run = ["run", "--config", str(path), "--detector", cfg["detectors"][detector]["name"]]
        assert main(run + ["--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG, field
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, field
        assert f"config error: {path}: invalid JSON: 1e400 is not a finite number" in capsys.readouterr().err
    # An integer literal past a float's range comes in whole, as an int: a
    # float field could not cast it, and an mpw budget overflowed mid-run.
    # It is refused at its field, and one past int()'s digit limit by name.
    big, too_big = "1" + "0" * 400, "integer too large for a float"
    for keys, field, literal, message in (
        (("detectors", 0, "t_h"), "detectors[0].t_h", big, too_big),
        (("space", "scale_factor"), "space.scale_factor", big, too_big),
        (("detectors", 1, "budget"), "detectors[1].budget", big, too_big),
        (("experiment", "budgets", 1), "experiment.budgets", big, too_big),
        (("detectors", 0, "t_l"), None, "1" * 5000, "invalid JSON: a 5000-digit integer is too long"),
    ):
        cfg = tiny_config()
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = "OVERFLOW"
        path = tmp_path / f"integer_{keys[-1]}.json"
        path.write_text(json.dumps(cfg).replace('"OVERFLOW"', literal))
        run = ["run", "--config", str(path), "--detector", "mpw", "--out", str(tmp_path / "o"), "--quiet"]
        assert main(run) == EXIT_CONFIG, field
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, field
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "c"), "--quiet"]) == EXIT_CONFIG, field
        assert f"config error: {field or path}: {message}" in capsys.readouterr().err, field
    from pwsearch import Box, SyntheticScene

    scene = SyntheticScene(80, 60, ((Box(40.0, 30.0, 16.0, 24.0), 2.0),), (), floor=-5.0, sharpness=3.0).to_dict()
    for name, peak, message in (("inf_peak", math.inf, "Infinity is not a number"),
                                ("overflow_peak", "OVERFLOW", "1e400 is not a finite number")):
        scene["objects"][0]["peak"] = peak
        (tmp_path / f"{name}.json").write_text(json.dumps(scene).replace('"OVERFLOW"', "1e400"))
        cfg = tiny_config()
        cfg["scenes"] = {"files": [f"{name}.json"]}
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, name
        assert f"{name}.json: invalid JSON: {message}" in capsys.readouterr().err, name


def test_keys_that_no_code_reads_are_config_errors(tmp_path, capsys):
    """Scene files replace generated scenes, so the generator's keys beside
    ``files`` would be ignored, and only the cascade scorer reads ``stages``."""
    from pwsearch import Box, SyntheticScene

    objects = ((Box(40.0, 30.0, 16.0, 24.0), 2.0),)
    SyntheticScene(80, 60, objects, (), floor=-5.0, sharpness=3.0).save(tmp_path / "scene.json")
    path = tmp_path / "config.json"
    for key in ("params", "count", "master_seed"):
        cfg = tiny_config()
        cfg["scenes"] = {"files": ["scene.json"], key: tiny_config()["scenes"][key]}
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, key
        assert f"config error: config.json:scenes: Additional properties are not allowed ('{key}' was" in (
            capsys.readouterr().err
        )
    for scorer in ({"kind": "synthetic", "stages": 4}, {"stages": 4}):
        cfg = tiny_config(scorer=scorer)
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, scorer
        assert "config error: config.json:scorer: Additional properties are not allowed ('stages' was" in (
            capsys.readouterr().err
        )


def test_subtract_interval_only_under_reject_propagation(tmp_path, capsys):
    """Only rejection marks read ``subtract_interval``; an acceptance
    propagation that sets it would run as if it did not."""
    for key, code in (("reject_propagation", EXIT_OK), ("accept_propagation", EXIT_CONFIG)):
        cfg = tiny_config()
        cfg["detectors"][0][key] = {"span": 1, "shrink": 0.5, "subtract_interval": True}
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == code
    assert "detectors.0.accept_propagation" in capsys.readouterr().err


def test_broken_scene_file_is_config_error(tmp_path):
    cfg = tiny_config()
    cfg["scenes"] = {"files": ["scene.json"]}
    (tmp_path / "scene.json").write_text("{}")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert (
        main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        == EXIT_CONFIG
    )


def test_scene_files_are_validated_with_the_config(tmp_path, capsys):
    """validate-config and run reject a missing, partial or wrongly sized scene file."""
    from pwsearch import Box, SyntheticScene

    objects = ((Box(40.0, 30.0, 16.0, 24.0), 2.0),)
    SyntheticScene(80, 60, objects, (), floor=-5.0, sharpness=3.0).save(tmp_path / "good.json")
    SyntheticScene(320, 240, objects, (), floor=-5.0, sharpness=3.0).save(tmp_path / "large.json")
    (tmp_path / "partial.json").write_text(json.dumps({"image_w": 80}))
    path = tmp_path / "config.json"
    cases = {"good": EXIT_OK, "large": EXIT_CONFIG, "partial": EXIT_CONFIG, "missing": EXIT_CONFIG}
    for name, code in cases.items():
        cfg = tiny_config()
        cfg["scenes"] = {"files": [f"{name}.json"]}
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == code, name
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == code, name
    assert "scene image 320x240 differs from the space's 80x60" in capsys.readouterr().err


def test_scene_file_floor_and_peaks_are_config_errors(tmp_path, capsys):
    """A scene file's floor must lie below t_l under the synthetic scorer, and
    its peaks above its floor, as for generated scenes: both exit 2."""
    from pwsearch import Box, SyntheticScene

    objects = ((Box(40.0, 30.0, 16.0, 24.0), 2.0),)
    SyntheticScene(80, 60, objects, (), floor=-1.5, sharpness=3.0).save(tmp_path / "high_floor.json")
    low_peak = SyntheticScene(80, 60, objects, (), floor=-5.0, sharpness=3.0).to_dict()
    low_peak["objects"][0]["peak"] = -5.0  # at the floor
    (tmp_path / "low_peak.json").write_text(json.dumps(low_peak))
    path = tmp_path / "config.json"
    for name in ("high_floor", "low_peak"):
        cfg = tiny_config()
        cfg["scenes"] = {"files": [f"{name}.json"]}
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG, name
        run = ["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        assert main(run) == EXIT_CONFIG, name
    err = capsys.readouterr().err
    assert "high_floor.json:floor: scene floor -1.5 must lie below detectors[0].t_l = -2.0" in err
    assert "low_peak.json: target peak -5.0 must exceed floor -5.0" in err

    # the cascade scorer reads responses in [0, 1], so the raw floor is not held to t_l
    cfg = tiny_config()
    cfg["scorer"] = {"kind": "cascade"}
    for det in cfg["detectors"]:
        det["t_l"], det["t_h"] = 0.2, 0.8
    cfg["experiment"]["sweep_t_h"] = [0.6, 0.8]
    cfg["scenes"] = {"files": ["high_floor.json"]}
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_OK


def test_scene_files_round_trip(tmp_path):
    """Scenes may come from explicit files instead of the generator."""
    from pwsearch import Box, SyntheticScene

    scene = SyntheticScene(
        80, 60,
        objects=((Box(40.0, 30.0, 16.0, 24.0), 2.0),),
        distractors=(),
        floor=-5.0,
        sharpness=3.0,
    )
    scene.save(tmp_path / "scene.json")
    cfg = tiny_config()
    cfg["scenes"] = {"files": ["scene.json"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["detection_rate"] == 1.0


def test_scene_files_are_read_relative_to_the_config(tmp_path, monkeypatch):
    """``load_scenes`` finds a config's scene files next to the config, from any directory."""
    from pwsearch import Box, SyntheticScene
    from pwsearch.config import load_config

    scene = SyntheticScene(80, 60, ((Box(40.0, 30.0, 16.0, 24.0), 2.0),), (), floor=-5.0, sharpness=3.0)
    config_dir = tmp_path / "cfgs" / "c"
    config_dir.mkdir(parents=True)
    scene.save(config_dir / "scene_0.json")
    cfg = tiny_config()
    cfg["scenes"] = {"files": ["scene_0.json"]}
    (config_dir / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert load_config("cfgs/c/cfg.json").load_scenes() == [scene]


def test_run_reads_only_its_own_scene_file(tmp_path):
    """``run`` reads and checks only the scene it runs; ``validate-config``,
    ``compare`` and ``sweep`` check every scene, and refuse a config whose
    second scene's floor lies above ``t_l``."""
    from pwsearch import Box, SyntheticScene

    for name, floor in (("ok.json", -5.0), ("high_floor.json", -1.0)):
        scene = SyntheticScene(80, 60, ((Box(40.0, 30.0, 16.0, 24.0), 2.0),), (), floor=floor, sharpness=3.0)
        scene.save(tmp_path / name)
    cfg = tiny_config()
    cfg["scenes"] = {"files": ["ok.json", "high_floor.json"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    run = ["run", "--config", str(path), "--quiet", "--out", str(tmp_path / "out")]
    assert main([*run, "--scene", "0"]) == EXIT_OK
    assert main([*run, "--scene", "1"]) == EXIT_CONFIG
    assert main([*run, "--scene", "2"]) == EXIT_CONFIG
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_CONFIG
    for command in ("compare", "sweep"):
        assert main([command, "--config", str(path), "--quiet", "--out", str(tmp_path / command)]) == EXIT_CONFIG


def test_config_file_not_mutated(config_path, tmp_path):
    before = config_path.read_bytes()
    main(["compare", "--config", str(config_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert config_path.read_bytes() == before


def test_flags_only_on_subcommands_that_read_them(config_path, tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    for argv in (
        ["run", "--config", str(config_path), "--jobs", "2"],
        ["curves", "--trace", trace, "--config", str(config_path)],
        ["curves", "--trace", trace, "--seed", "3"],
        ["validate-config", "--config", str(config_path), "--out", str(tmp_path)],
        ["validate-config", "--config", str(config_path), "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--quiet"])
        assert exc.value.code == 2, argv  # argparse usage error


def test_quiet_suppresses_progress(config_path, tmp_path, capsys):
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "a"), "--quiet"])
    assert capsys.readouterr().out == ""
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")])
    assert "run:" in capsys.readouterr().out
