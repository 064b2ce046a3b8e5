"""The nine-point acceptance gate.

Each criterion is one test that prints a `[PASS]`/`[FAIL]` line (visible even
under pytest's capture) and then asserts.  Criteria 4, 5, and 7 share two
module-scoped run suites on the calibrated 160x120 space; everything else is
self-contained.  Runtime limits are part of the criteria and are asserted.
"""

import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from pwsearch import (
    DentedGaussianMixture,
    DentedUniform,
    RegionBook,
    RegionKind,
    RunTrace,
    SearchSpace,
    SyntheticScorer,
    Window,
    hit_probability,
    mixture_weights,
    mpw_schedule,
    normalize_weights,
    run_ipw,
    run_mpw,
)
from pwsearch.cli import EXIT_OK, main
from pwsearch.detectors import (
    _IncrementalState,
    _incremental_step,
    _mixture_from_batch,
    _rng,
    detections_from_trace,
)
from pwsearch.harness import SceneParams, evaluate, generate_scenes
from pwsearch.proposal import default_sigma
from pwsearch.regions import RadiusInterval, RadiusTable, ScalePropagation

from conftest import make_detector

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def check(report, number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    report(f"[{status}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def detection_rate(space, trace, scene):
    detections = detections_from_trace(space, trace, 0.5)
    metrics = evaluate(detections, [box for box, _ in scene.objects], 0.5)
    return metrics.detection_rate


# --- shared run suites --------------------------------------------------------


@pytest.fixture(scope="module")
def paired_suite(bench_space, bench_table):
    """200 scenes, one incremental and one staged run each, under one seed."""
    params = SceneParams(
        space=bench_space,
        object_count=1,
        distractor_count=2,
        scale_indices=(0, 1, 2),
    )
    scenes = generate_scenes(params, master_seed=424242, count=200)
    budget = int(0.02 * bench_space.window_count)
    ipw = make_detector("ipw", budget, bench_table)
    mpw = make_detector("mpw", budget, bench_table, gamma=0.44)

    start = time.perf_counter()
    ipw_traces, ipw_rates, mpw_rates = [], [], []
    for index, scene in enumerate(scenes):
        scorer = SyntheticScorer(scene)
        seed = 5000 + index
        trace = run_ipw(bench_space, scorer, ipw, seed)
        ipw_traces.append(trace)
        ipw_rates.append(detection_rate(bench_space, trace, scene))
        mpw_trace = run_mpw(bench_space, scorer, mpw, seed)
        mpw_rates.append(detection_rate(bench_space, mpw_trace, scene))
    elapsed = time.perf_counter() - start

    return SimpleNamespace(
        scenes=scenes,
        budget=budget,
        ipw_traces=ipw_traces,
        ipw_rates=ipw_rates,
        mpw_rates=mpw_rates,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def budget_ladder(bench_space, bench_table, paired_suite):
    """Mean incremental rates at 10%..70% of the staged baseline's budget."""
    budget = paired_suite.budget
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    ladder = [round(budget * f) for f in fractions]
    scenes = paired_suite.scenes[:100]

    start = time.perf_counter()
    rates = {}
    for small in ladder:
        detector = make_detector("ipw", small, bench_table)
        total = 0.0
        for index, scene in enumerate(scenes):
            trace = run_ipw(bench_space, SyntheticScorer(scene), detector, 5000 + index)
            total += detection_rate(bench_space, trace, scene)
        rates[small] = total / len(scenes)
    elapsed = time.perf_counter() - start

    baseline = sum(paired_suite.mpw_rates[:100]) / 100
    return SimpleNamespace(ladder=ladder, rates=rates, baseline=baseline, elapsed=elapsed)


# --- the criteria -------------------------------------------------------------


def test_criterion_1_hit_probability(report):
    start = time.perf_counter()
    analytic = hit_probability(307200, 50, 1000)

    # Monte Carlo twin: uniform index draws, the first 50 indices are hits.
    rng = np.random.default_rng(20240)
    trials = 10_000
    draws = rng.integers(0, 307200, size=(trials, 1000))
    simulated = float(np.mean((draws < 50).any(axis=1)))
    elapsed = time.perf_counter() - start

    ok = (
        abs(analytic - 0.150) <= 0.001
        and abs(simulated - analytic) <= 0.01
        and elapsed < 5.0
    )
    check(
        report, 1, "uniform hit probability", ok,
        f"analytic {analytic:.4f}, simulated {simulated:.4f} over {trials} trials "
        f"({elapsed:.2f}s)",
    )


def test_criterion_2_draw_schedule(report):
    start = time.perf_counter()
    schedule = mpw_schedule(2000, 0.44, 5)
    stage5 = 2000 * math.exp(-0.44 * 4)
    # 344.09 truncates to 344; no integer rule reaches 349 from this decay.
    unreachable = all(rule(stage5) != 349 for rule in (math.floor, round, math.ceil))
    elapsed = time.perf_counter() - start

    ok = schedule == [2000, 1288, 829, 534, 344] and unreachable and elapsed < 1.0
    check(
        report, 2, "draw schedule", ok,
        f"{schedule}; stage 5 is {stage5:.2f} -> 344 (349 unreachable by "
        f"floor/round/ceil) ({elapsed:.3f}s)",
    )


def test_criterion_3_dented_uniform(report):
    start = time.perf_counter()
    space = SearchSpace(84, 54, 6, 6, stride=2, scale_factor=2.0, scale_count=1)
    assert space.window_count == 1000
    book = RegionBook(space)
    rng = np.random.default_rng(321)
    marked = rng.choice(space.window_count, size=300, replace=False)
    for index in marked:
        book.claim_cell(space.window_at(int(index)), RegionKind.REJECTED)

    sampler = DentedUniform(book, space)
    counts = np.zeros(space.window_count, dtype=np.int64)
    for _ in range(100_000):
        w = sampler.sample(rng)
        counts[space.index_of(w)] += 1
    elapsed = time.perf_counter() - start

    marked_hits = int(counts[marked].sum())
    free_counts = np.delete(counts, marked)
    p_value = float(stats.chisquare(free_counts).pvalue)
    ok = marked_hits == 0 and p_value > 0.001 and elapsed < 10.0
    check(
        report, 3, "dented uniform sampling", ok,
        f"100000 draws, {marked_hits} in marked cells, chi-square p={p_value:.3f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_paired_rate_margin(paired_suite, report):
    ipw_mean = sum(paired_suite.ipw_rates) / len(paired_suite.ipw_rates)
    mpw_mean = sum(paired_suite.mpw_rates) / len(paired_suite.mpw_rates)
    ok = ipw_mean >= mpw_mean + 0.05 and paired_suite.elapsed < 120.0
    check(
        report, 4, "paired detection-rate margin", ok,
        f"ipw {ipw_mean:.3f} vs mpw {mpw_mean:.3f} on 200 paired scenes at "
        f"budget {paired_suite.budget} ({paired_suite.elapsed:.1f}s)",
    )


def test_criterion_5_claimed_cell_dominance(paired_suite, report):
    weak, strict_final = True, 0
    for trace in paired_suite.ipw_traces:
        claimed = [r.n_rejected + r.n_accepted for r in trace.records]
        if any(c < i for i, c in enumerate(claimed, start=1)):
            weak = False
        if claimed[-1] > len(claimed):
            strict_final += 1
    share = strict_final / len(paired_suite.ipw_traces)
    ok = weak and share >= 0.95
    check(
        report, 5, "claimed-cell dominance", ok,
        f"claimed >= iteration in all {len(paired_suite.ipw_traces)} runs, "
        f"strictly at the end in {share:.0%}",
    )


def random_config(rng):
    """A valid random space/detector/scene triple, space under 1e5 cells."""
    while True:
        space = SearchSpace(
            image_w=int(rng.integers(48, 101)),
            image_h=int(rng.integers(36, 81)),
            template_w=int(rng.integers(6, 17)),
            template_h=int(rng.integers(6, 17)),
            stride=int(rng.integers(1, 3)),
            scale_factor=float(rng.uniform(1.15, 1.5)),
            scale_count=int(rng.integers(1, 4)),
        )
        if 0 < space.window_count <= 100_000:
            break
    t_l = float(rng.uniform(-3.0, -1.0))
    t_h = float(rng.uniform(-0.5, 0.5))

    count = int(rng.integers(2, 6))
    lowers = [float("-inf")] + sorted(rng.uniform(-4.5, t_l - 0.05, size=count - 1).tolist())
    ratio = float(rng.uniform(0.25, 0.45))
    intervals = []
    for lower in lowers:
        intervals.append(RadiusInterval(lower, ratio, ratio))
        ratio *= float(rng.uniform(0.4, 0.85))
    table = RadiusTable(tuple(intervals), active_intervals=int(rng.integers(1, count + 1)))

    detector = make_detector(
        "ipw",
        int(rng.integers(50, 201)),
        table,
        t_l=t_l,
        t_h=t_h,
        alpha=float(rng.uniform(0.05, 0.9)),
        gamma=float(rng.uniform(0.2, 1.2)),
        r_a_x_ratio=float(rng.uniform(0.08, 0.25)),
        r_a_y_ratio=float(rng.uniform(0.08, 0.25)),
        accept_propagation=ScalePropagation(int(rng.integers(0, 3)), float(rng.uniform(0.3, 0.9))),
        n_max=int(rng.choice([50, 200, 1000])),
    )

    indices = rng.choice(space.scale_count, size=min(2, space.scale_count), replace=False)
    params = SceneParams(
        space=space,
        object_count=1,
        distractor_count=int(rng.integers(0, 3)),
        scale_indices=tuple(int(i) for i in sorted(indices)),
    )
    scene = generate_scenes(params, master_seed=int(rng.integers(1 << 30)), count=1)[0]
    return space, detector, scene


def mirrored_ipw(space, scorer, config, seed):
    """The incremental loop, instrumented with a brute-force book check.

    Mirrors run_ipw step for step using the package's own pieces so the
    occupancy grid can be inspected after every iteration; the caller
    re-asserts the produced trace against the black-box run.
    """
    rng = _rng(seed)
    trace = RunTrace(config.name, "ipw", seed, space.window_count)
    book = RegionBook(space)
    state = _IncrementalState(
        book, DentedUniform(book, space), _mixture_from_batch([], book, space), []
    )
    conserved = True
    for i in range(1, config.budget + 1):
        weights = mixture_weights(config.alpha, book.n_rejected, book.n_accepted, space.window_count)
        new_ambiguous = _incremental_step(
            state, space, scorer, config, rng, i, weights.p_uniform, trace
        )
        if trace.complete:
            break
        counts = np.bincount(book.flat, minlength=3)
        if (
            len(counts) != 3
            or counts[1] != book.n_rejected
            or counts[2] != book.n_accepted
            or counts[0] != space.window_count - book.n_rejected - book.n_accepted
        ):
            conserved = False
        if new_ambiguous:
            state.mixture = _mixture_from_batch(state.ambiguous, book, space)
    return trace, conserved


def test_criterion_6_monotone_and_conserved(report):
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    checked = 0
    ok = True
    for run in range(50):
        space, detector, scene = random_config(rng)
        scorer = SyntheticScorer(scene)
        seed = 9000 + run
        trace, conserved = mirrored_ipw(space, scorer, detector, seed)
        reference = run_ipw(space, scorer, detector, seed)
        records = trace.records
        p_u = [r.p_uniform for r in records]
        rejected = [r.n_rejected for r in records]
        accepted = [r.n_accepted for r in records]
        ok &= conserved
        ok &= records == reference.records and trace.complete == reference.complete
        ok &= p_u[0] == detector.alpha
        ok &= all(a >= b for a, b in zip(p_u, p_u[1:]))
        ok &= all(a <= b for a, b in zip(rejected, rejected[1:]))
        ok &= all(a <= b for a, b in zip(accepted, accepted[1:]))
        checked += len(records)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    check(
        report, 6, "monotonicity and conservation", ok,
        f"50 random configs, {checked} iterations with per-step grid recounts "
        f"({elapsed:.1f}s)",
    )


def test_criterion_7_budget_to_match_baseline(budget_ladder, paired_suite, report):
    matching = [b for b in budget_ladder.ladder if budget_ladder.rates[b] >= budget_ladder.baseline]
    smallest = min(matching) if matching else None
    limit = 0.7 * paired_suite.budget
    ok = smallest is not None and smallest <= limit and budget_ladder.elapsed < 180.0
    ladder_text = ", ".join(
        f"{b}:{budget_ladder.rates[b]:.2f}" for b in budget_ladder.ladder
    )
    check(
        report, 7, "budget to match the baseline", ok,
        f"baseline {budget_ladder.baseline:.3f} at {paired_suite.budget}; "
        f"ipw [{ladder_text}]; first match {smallest} <= {limit:.0f} "
        f"({budget_ladder.elapsed:.1f}s)",
    )


def test_criterion_8_byte_identical_reruns(tmp_path, report):
    start = time.perf_counter()
    config = str(CONFIGS_DIR / "synthetic.json")
    base = ["run", "--config", config, "--detector", "ipw", "--quiet"]
    outs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for out in outs[:2]:
        assert main(base + ["--out", str(out)]) == EXIT_OK
    assert main(base + ["--out", str(outs[2]), "--seed", "99"]) == EXIT_OK
    elapsed = time.perf_counter() - start

    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trace.jsonl", "curves.csv", "summary.json")
    )
    differs = (outs[0] / "trace.jsonl").read_bytes() != (outs[2] / "trace.jsonl").read_bytes()
    ok = same and differs
    check(
        report, 8, "byte-identical reruns", ok,
        f"same seed matches on trace.jsonl, curves.csv, summary.json; "
        f"seed override differs ({elapsed:.1f}s)",
    )


def test_criterion_9_counter_and_density_oracles(small_space, report):
    start = time.perf_counter()
    space = small_space
    assert space.window_count <= 10_000
    book = RegionBook(space)
    rng = np.random.default_rng(4242)
    for _ in range(120):
        s = int(rng.integers(0, space.scale_count))
        nx, ny = space.grid_size(s)
        if nx == 0:
            continue
        kind = RegionKind.REJECTED if rng.random() < 0.7 else RegionKind.ACCEPTED
        book.mark_rect(
            s,
            int(rng.integers(0, nx)),
            int(rng.integers(0, ny)),
            int(rng.integers(0, 5)),
            int(rng.integers(0, 5)),
            kind,
        )

    scanned = {RegionKind.FREE: 0, RegionKind.REJECTED: 0, RegionKind.ACCEPTED: 0}
    for w in space.windows():
        scanned[book.state_at(w)] += 1
    counters_ok = (
        scanned[RegionKind.REJECTED] == book.n_rejected
        and scanned[RegionKind.ACCEPTED] == book.n_accepted
        and scanned[RegionKind.FREE] == book.free_count
        and sum(scanned.values()) == space.window_count
    )

    uniform = DentedUniform(book, space)
    uniform_sum = sum(uniform.density_at(w) for w in space.windows())

    free = np.flatnonzero(book.flat == 0)
    means = [space.window_at(int(i)) for i in rng.choice(free, size=3, replace=False)]
    weights = normalize_weights([0.5, 1.0, 2.0])
    mixture = DentedGaussianMixture(
        np.array([(mean.x, mean.y, mean.s) for mean in means]).T,
        weights,
        np.array([default_sigma(space) for mean in means]).T,
        book,
        space,
    )
    mixture_sum = sum(mixture.density_at(w) for w in space.windows())
    elapsed = time.perf_counter() - start

    ok = (
        counters_ok
        and abs(uniform_sum - 1.0) <= 1e-6
        and abs(mixture_sum - 1.0) <= 1e-6
        and elapsed < 10.0
    )
    check(
        report, 9, "counter and density oracles", ok,
        f"scan {scanned[RegionKind.REJECTED]}/{scanned[RegionKind.ACCEPTED]}/"
        f"{scanned[RegionKind.FREE]} matches counters; density sums "
        f"{uniform_sum:.8f} and {mixture_sum:.8f} ({elapsed:.1f}s)",
    )
