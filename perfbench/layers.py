"""Spans around the public calls of each pwsearch layer, installed from outside.

A layer is wrapped by public name (``module:qualname``).  Functions are
rebound in every loaded ``pwsearch`` module that imported them, methods on
their class, so calls made through any import path land in the wrapper.  A
name that no longer exists makes its layer *absent*: it is reported as such,
never as zero.

Each span records its layer, its duration and the part of that duration its
child spans cover; a layer's self time is the difference.  Self time is also
charged to the detector whose ``run_detector`` span encloses it, so one
workload mixing detectors still yields each detector's split.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

DETECTORS = ("sw", "mpw", "ipw", "sipw")
RUN_LAYER = "detectors.run"
# Layers whose share of each detector's time is reported.
SHARED = (
    "proposal.gaussian",
    "proposal.mixture_build",
    "proposal.uniform",
    "proposal.mpw_draw",
    "scoring.score",
    "regions.mark",
    "regions.claim_cell",
)

# layer -> wrapped public names.  ``space`` is not wrapped: its geometry calls
# run several times per scored window, and a span there would cost more than
# the call it times.
LAYERS = {
    "proposal.gaussian": ("pwsearch.proposal:DentedGaussianMixture.sample",),
    # The rebuild from an ambiguity batch has no public entry point; its
    # private name is listed next to the constructor, so the layer stays
    # present if either survives.
    "proposal.mixture_build": (
        "pwsearch.detectors:_mixture_from_batch",
        "pwsearch.proposal:DentedGaussianMixture.__init__",
    ),
    "proposal.uniform": ("pwsearch.proposal:DentedUniform.sample",),
    "proposal.mpw_draw": ("pwsearch.proposal:draw_gaussian_window",),
    "scoring.score": ("pwsearch.scoring:SyntheticScorer.score", "pwsearch.scoring:CascadeScorer.score"),
    "regions.mark": ("pwsearch.regions:mark_rejection", "pwsearch.regions:mark_acceptance"),
    "regions.claim_cell": ("pwsearch.regions:RegionBook.claim_cell",),
    RUN_LAYER: ("pwsearch.harness:run_detector",),
    "detectors.nms": ("pwsearch.detectors:detections_from_trace",),
    "harness.evaluate": ("pwsearch.harness:evaluate", "pwsearch.harness:cost_estimate"),
    "harness.serialize": (
        "pwsearch.harness:write_trace_jsonl",
        "pwsearch.harness:extract_curves",
        "pwsearch.harness:write_curves_csv",
        "pwsearch.harness:write_results_jsonl",
        "pwsearch.harness:write_csv",
    ),
    "config.load": ("pwsearch.config:load_config",),
    "harness.generate_scenes": ("pwsearch.harness:generate_scenes",),
    "cli": ("pwsearch.cli:main",),
}


def resolve(name: str):
    """(owner, attribute, object) for ``module:qualname``, or None if gone."""
    module_name, qualname = name.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


class Patches:
    """Replaces callables by wrappers and puts the originals back on ``undo``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, make_wrapper) -> bool:
        """Rebind ``name`` to ``make_wrapper(original)``; False when it is gone."""
        found = resolve(name)
        if found is None:
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [
                (module, key)
                for module_name, module in list(sys.modules.items())
                if module_name.split(".")[0] == "pwsearch"
                for key, value in list(vars(module).items())
                if value is original
            ]
        for target, key in owners:
            self._undo.append((target, key, original))
            setattr(target, key, wrapper)
        return True

    def undo(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)


def _config_arg(args, kwargs):
    """The detector config among a run_detector call's arguments."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "algorithm") and hasattr(value, "budget"):
            return value
    return None


@contextmanager
def capture_runs(runs: list):
    """Appends ``(config, trace)`` for every ``run_detector`` call.

    Yields False when ``run_detector`` no longer exists, so the caller can
    fail the units whose traces went unchecked.
    """
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            trace = original(*args, **kwargs)
            runs.append((_config_arg(args, kwargs), trace))
            return trace
        return wrapper

    patches = Patches()
    try:
        yield patches.wrap(LAYERS[RUN_LAYER][0], make)
    finally:
        patches.undo()


class Tracer:
    """Span stack plus per-layer totals, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.by_detector: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: dict[str, list[str]] = {}
        self._stack: list[list] = []

    def _enter(self, layer: str, detector: str | None) -> None:
        if detector is None and self._stack:
            detector = self._stack[-1][3]
        self._stack.append([layer, time.perf_counter(), 0.0, detector])

    def _exit(self) -> None:
        layer, start, child, detector = self._stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        self.self_s[layer] += own
        if detector is not None:
            self.by_detector[(detector, layer)] += own
            if layer == RUN_LAYER:
                self.by_detector[(detector, "total")] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _parent_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _make(self, layer: str):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                detector = None
                if layer == RUN_LAYER:
                    config = _config_arg(args, kwargs)
                    detector = getattr(config, "algorithm", "unknown")
                self._enter(layer, detector)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit()
                if self._parent_layer() != layer:  # a call nested in its own layer is part of the outer one
                    self.calls[layer] += 1
                    self._count(layer, args, kwargs, result)
                return result
            return wrapper
        return make

    def _count(self, layer: str, args, kwargs, result) -> None:
        if layer == "proposal.gaussian" and result is None:
            self.extra["proposal.gaussian.exhausted"] += 1
        elif layer == "proposal.mixture_build":
            # the rebuild returns the mixture; a bare constructor gets the components
            built = result if result is not None else args[1] if len(args) > 1 else kwargs.get("components", ())
            self.extra["proposal.mixture_build.components"] += len(built)
        elif layer == "regions.mark" and isinstance(result, int):
            self.extra["regions.mark.cells"] += result
        elif layer == "harness.serialize":
            path = args[0] if args else kwargs.get("path")
            if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                self.extra["harness.serialize.bytes"] += os.path.getsize(path)

    @contextmanager
    def installed(self):
        """Wraps every layer for the duration of the block."""
        patches = Patches()
        try:
            for layer, names in LAYERS.items():
                missing = [n for n in names if not patches.wrap(n, self._make(layer))]
                if missing:
                    self.absent[layer] = missing
            yield self
        finally:
            patches.undo()

    def is_absent(self, layer: str) -> bool:
        """True when none of the layer's public names exist any more."""
        return len(self.absent.get(layer, ())) == len(LAYERS[layer])
