"""Pinned trace digests: any change to a detector's draws or scores fails here.

The digests are sha256 values of the ``trace.jsonl`` that ``run`` writes on
scenes 0-2 for each detector of ``configs/synthetic.json`` (synthetic scorer)
and for ``mpw`` and ``ipw`` of ``configs/face.json`` (cascade scorer; ``mpw``
draws and scores a stage in one batch, ``ipw`` one window at a time).  A speed-up of
the samplers or of scoring must reproduce them exactly.  A change that alters
the draws on purpose updates them, and says so.

None of those runs uses up its space.  ``ipw`` and ``sipw`` of
``configs/pedestrian.json`` on scene 0 do: both claim all 1,095,431 cells
before their budget of 5000 is spent, and on the way they take the dented
uniform's free-set fallback 77 (``ipw``) and 464 (``sipw``) times, so their
digests pin the fallback and the late, nearly exhausted part of a run.

Every ``ipw`` and ``sipw`` digest here, and the synthetic ``compare``
grid's, was computed when the rejection samplers began to draw each group of
proposals in one pass, which moved their random stream; the ``sw`` and
``mpw`` digests, and the synthetic ``sweep``'s, whose first detector is
``sw``, stayed the same.  The face grid's digests were pinned after that.

``GOLDEN_GRID`` pins the files ``compare`` and ``sweep`` write for
``configs/synthetic.json`` and ``configs/face.json``: every row of the
experiment grid, its summaries and the operating points, so a change to how
the grid is built or averaged fails here even when every trace stays the
same.  ``sweep`` sweeps a config's first detector, ``sw`` for the synthetic
config and ``ipw`` for the face config, so an incremental detector's sweep
is pinned too.  ``GOLDEN_RUN_FILES`` pins the other two files ``run``
writes, ``curves.csv`` and ``summary.json``, for each detector of
``configs/synthetic.json`` on scene 0.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pwsearch.cli import EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("ipw", 0): "5290e6c4ad71ec8234d5628e1117ddb58c1f40b38b145f1d06bffa0978a4eccd",
    ("ipw", 1): "cbf69c95c4e5bc5359c6651a3c9af0473e0980d23d3d430dda20d4398a6469a9",
    ("ipw", 2): "01fa2fc4422145657f298c00f7afe254b72fa73a46c25bbc20f13e26fcdf4cbd",
    ("sipw", 0): "6bb5ff2505b00ed01992288de53cad803b6c181f2db2f06e4a17c1dcad46a8ec",
    ("sipw", 1): "f098b155d9b8157d5ca9afbc41f26b936f86086c8a82426d4ad4f798a2f24554",
    ("sipw", 2): "e1a8650c5b6a84924ef8dc939bc125d707f7e8629cedc5ab6a2b2ed6a22e9b94",
    ("mpw", 0): "de8720fb3486cbadb9833d8310756bbe278e4e4925caeb0656f7554ba2ff6d50",
    ("mpw", 1): "348ad97c265557bbd714d0a6ebee7a12884a01c7f2e49a0cc6eadf460c99021f",
    ("mpw", 2): "e16854f275aabccb70ef2a16b19347064dc3027d8df428ab7bab5b6995bad9c7",
    ("sw", 0): "8c8b1340aee583cab953ea9588cd7923469451d53291760db2e367017f6530b7",
    ("sw", 1): "0ba15eede48251099fad12d7512d8ee33d0936c6e765c683ec9d974ec054c62e",
    ("sw", 2): "6855fc161c95ae1874579c20121d631c34fbd2fd0f2bef8614036e18d09dd3a2",
}

GOLDEN_CASCADE = {
    ("ipw", 0): "31cfd0ab30c8ead661698b890afecaa4745ae847ca3e31293369a1d95aa2b006",
    ("ipw", 1): "f91b478b4d5f96fc248e852f27ef9c4a73c64c446e5b345515b6155f2b60c60f",
    ("ipw", 2): "00c5c09eac4530f5cf1e310dead4b6320236485ce6673c9d4ce176fad4e74be9",
    ("mpw", 0): "b4a3ff6b37c85ed884343a7a14bf03d876821cefddc553112d38bf29b92d8a0f",
    ("mpw", 1): "305d24bc42031026e2859f62cb66d616ffbdc03ca1d2fe592fb8f779d04de1a7",
    ("mpw", 2): "7bdc067adad3a71e791f92560af0960f2a3855c3ebcf21f20d8be0ee8db0e739",
}

GOLDEN_EXHAUSTING = {
    "ipw": "8b615d48d9fdffcc34da8a836321fbaaf87063e09e14e2ac90e278bb46dcdf2d",
    "sipw": "8f37e7ff32124289d59c6cc6e3944a0cd713a68afe2d5a17bc45924abe9315da",
}

GOLDEN_RUN_FILES = {
    ("sw", "curves.csv"): "443698fdbcf9a11f7a25df7e766fc5f615aa98b088ebffb46ad9eaf57a307ffb",
    ("sw", "summary.json"): "9d422f2e4f8feace44db01ff33810bdfd67f7e27b5eb49f88f3a001088db29a7",
    ("mpw", "curves.csv"): "1255054787ddb943b68e48c19f79f5f57a6ba285d17b02568500e369e212493f",
    ("mpw", "summary.json"): "1d889d676b02d85ca92b5387b65d5931a7eb17d22c1545dbf54d168106af33b6",
    ("ipw", "curves.csv"): "1d851f9c0451897ea9f343f44d453284e2be3ba75c4db93897c2af0d52e7cfaf",
    ("ipw", "summary.json"): "1bb647263afe5d536ce9f44c0e9947447e2477ef4f55104c8f247f0710aaef8b",
    ("sipw", "curves.csv"): "53d5df8d6168dbc602e79a92d56809e878cee39d3174862ec843839ffa75c087",
    ("sipw", "summary.json"): "acf6b1d6864072691361a0689889c346add85c4b42b37d76d437bb644c208294",
}

GOLDEN_GRID = {
    ("synthetic.json", "compare", "results.jsonl"): "11e11f476b5299a78ab7341f218d13367fea9b55ed7e3fa196ef0b57b30767e3",
    ("synthetic.json", "compare", "rates.csv"): "1a5d669e60705c3d4aad3628bce57aa51cace304ab56efa0f8ae37f2fc1e805b",
    ("synthetic.json", "compare", "ratios.csv"): "1d7b8195ae86c804715234b7fd47ad85c309e1878b1f2008edf066223f21ae81",
    ("synthetic.json", "sweep", "operating_points.csv"): "2fa8dc5cc9a68719efee27831f3b1d42ec5fe5eb47b3904b3b2b592073907b47",
    ("face.json", "compare", "results.jsonl"): "1754ebf3c4a95f49169efc961b43dcd29bea7e6b4f34d5c265799db1c58ef75e",
    ("face.json", "compare", "rates.csv"): "9fb9e5589d1f2e38e15fd7e37f3d1b8b9aa458bbf602a841c293df8b32765bc2",
    ("face.json", "compare", "ratios.csv"): "38424f5b6fe9a80cf2ef32ead7ed022d449648314c7a8d0f44142c51a0769538",
    ("face.json", "sweep", "operating_points.csv"): "9122d1c7959c7a5e4a49b4df26e00b0aa78700f0fc77faf320be4d4e5e8610a8",
}


def trace_digest(config: str, detector: str, scene: int, out: Path) -> str:
    args = ["run", "--config", str(CONFIGS / config), "--detector", detector, "--scene", str(scene)]
    assert main(args + ["--out", str(out), "--quiet"]) == EXIT_OK
    return hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize(("detector", "scene"), sorted(GOLDEN))
def test_run_trace_matches_pinned_digest(detector, scene, tmp_path):
    assert trace_digest("synthetic.json", detector, scene, tmp_path) == GOLDEN[(detector, scene)]


@pytest.mark.parametrize(("detector", "scene"), sorted(GOLDEN_CASCADE))
def test_cascade_trace_matches_pinned_digest(detector, scene, tmp_path):
    assert trace_digest("face.json", detector, scene, tmp_path) == GOLDEN_CASCADE[(detector, scene)]


@pytest.mark.parametrize("detector", sorted(GOLDEN_EXHAUSTING))
def test_exhausting_trace_matches_pinned_digest(detector, tmp_path):
    assert trace_digest("pedestrian.json", detector, 0, tmp_path) == GOLDEN_EXHAUSTING[detector]
    footer = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[-1])
    assert footer["complete"]


@pytest.mark.parametrize("detector", sorted({d for d, _ in GOLDEN_RUN_FILES}))
def test_run_curves_and_summary_match_pinned_digests(detector, tmp_path):
    trace_digest("synthetic.json", detector, 0, tmp_path)
    for name in ("curves.csv", "summary.json"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_RUN_FILES[(detector, name)], name


@pytest.mark.parametrize("subcommand", ["compare", "sweep"])
def test_grid_outputs_match_pinned_digests(subcommand, tmp_path):
    for config in ("synthetic.json", "face.json"):
        out = tmp_path / config
        args = [subcommand, "--config", str(CONFIGS / config), "--out", str(out), "--quiet"]
        assert main(args) == EXIT_OK
        for (pinned_config, command, name), digest in GOLDEN_GRID.items():
            if (pinned_config, command) == (config, subcommand):
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (config, name)
