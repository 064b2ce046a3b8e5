"""Output checks for one benchmark unit: trace invariants, budgets, digests.

Every check returns a list of problem strings; an empty list means the unit
passed.  The benchmark counts a unit execution as failed when any list is
non-empty, so no check is ever dropped silently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

INCREMENTAL = ("ipw", "sipw")


def trace_problems(space, config, trace) -> list[str]:
    """Invariants the README promises for one detector run.

    Every window lies inside its space; records are numbered 1..n; non-``sw``
    runs stay within their budget; ``ipw``/``sipw`` never score a window
    twice and claim at least one cell per scored window.
    """
    where = f"{trace.algorithm}/{trace.detector}"
    problems = []
    windows = [rec.window for rec in trace.records]
    outside = sum(1 for w in windows if not space.contains(w))
    if outside:
        problems.append(f"{where}: {outside} windows outside the search space")
    if [rec.i for rec in trace.records] != list(range(1, len(trace.records) + 1)):
        problems.append(f"{where}: record numbers are not 1..n")
    if config.algorithm != "sw" and len(trace.records) > config.budget:
        problems.append(f"{where}: {len(trace.records)} windows over budget {config.budget}")
    if config.algorithm in INCREMENTAL:
        if len(set(windows)) != len(windows):
            problems.append(f"{where}: a window was scored twice")
        short = [rec.i for rec in trace.records if rec.n_rejected + rec.n_accepted < rec.i]
        if short:
            problems.append(f"{where}: claimed cells below the iteration count at record {short[0]}")
    return problems


def results_problems(out: Path) -> tuple[list[dict], list[str]]:
    """Cells of a ``compare`` output directory and the problems found in them."""
    path = out / "results.jsonl"
    if not path.exists():
        return [], [f"{path.name} missing"]
    cells = [json.loads(line) for line in path.read_text().splitlines() if line]
    problems = [
        f"{c['detector']} scene {c['scene']}: windows_used {c['windows_used']} over budget {c['budget']}"
        for c in cells
        if c["algorithm"] != "sw" and c["windows_used"] > c["budget"]
    ]
    return cells, problems


def summary_problems(out: Path, budget: int) -> tuple[dict, list[str]]:
    """The ``summary.json`` of a ``run`` output directory and its problems."""
    path = out / "summary.json"
    trace_path = out / "trace.jsonl"
    if not path.exists() or not trace_path.exists():
        return {}, ["summary.json or trace.jsonl missing"]
    summary = json.loads(path.read_text())
    problems = []
    if summary["algorithm"] != "sw" and summary["windows_used"] > budget:
        problems.append(f"{summary['detector']}: windows_used {summary['windows_used']} over budget {budget}")
    lines = trace_path.read_text().count("\n")
    if lines != summary["windows_used"] + 2:
        problems.append(f"{summary['detector']}: trace.jsonl has {lines} lines for {summary['windows_used']} windows")
    return summary, problems


def digest_dir(out: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_all(unit_digests: list[str]) -> str:
    """The workload digest: sha256 over its unit digests in unit order."""
    return hashlib.sha256("\n".join(unit_digests).encode()).hexdigest()
