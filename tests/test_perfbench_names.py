"""The bench still reads this package: every name its layer split wraps
resolves, and its trace checks pass on real runs.

``perfbench/layers.py`` times each layer by wrapping public names; a name
that a refactor moves or deletes makes its layer read as absent, or shrink
silently when the layer has other names.  ``perfbench/checks.py`` reads
records through ``rec.window``, ``rec.i`` and the claimed-cell counters; a
record change that breaks it would otherwise show only as failed bench
units.  Both files are loaded from their paths, without importing the bench
package.
"""

import importlib.util
from pathlib import Path

from pwsearch.config import load_config
from pwsearch.harness import build_scorer, derive_seed, run_detector

ROOT = Path(__file__).resolve().parent.parent
# ``write_csv`` writes ``curves.csv`` now; the bench's table still lists the old name.
KNOWN_GONE = {"pwsearch.harness:write_curves_csv"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    layers = _load("layers")
    missing = {name for names in layers.LAYERS.values() for name in names if layers.resolve(name) is None}
    assert missing <= KNOWN_GONE


def test_the_bench_trace_checks_pass_on_a_run_of_every_algorithm():
    checks = _load("checks")
    cfg = load_config(ROOT / "configs" / "synthetic.json")
    [scene] = cfg.load_scenes(only=0)
    assert {d.algorithm for d in cfg.detectors} == {"sw", "mpw", "ipw", "sipw"}
    for detector in cfg.detectors:
        space = cfg.space.at_stride(cfg.sw_stride) if detector.algorithm == "sw" else cfg.space
        trace = run_detector(space, build_scorer(scene), detector, derive_seed(cfg.seed, 0))
        assert trace.records
        assert checks.trace_problems(space, detector, trace) == []
