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
uniform's free-set fallback 58 (``ipw``) and 407 (``sipw``) times, so their
digests pin the fallback and the late, nearly exhausted part of a run.
They were computed before the fallback kept its free set from one call to
the next.

``GOLDEN_GRID`` pins the files ``compare`` and ``sweep`` write for
``configs/synthetic.json``: every row of the experiment grid, its summaries
and the operating points, so a change to how the grid is built or averaged
fails here even when every trace stays the same.  ``GOLDEN_RUN_FILES`` pins
the other two files ``run`` writes, ``curves.csv`` and ``summary.json``, for
each detector of ``configs/synthetic.json`` on scene 0.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pwsearch.cli import EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("ipw", 0): "bd08ee0deced6ec3a0d03b69d41b262c98a909c553cc1c1fa09a4b687e6fae69",
    ("ipw", 1): "85eafcdd4b21ecf6c349e8b6d9fe669e0ebc8816fd404e3c9d4f2f547b2f74bd",
    ("ipw", 2): "0ba337e55fe21b0b651c2ad8a1949bca8c12afa081e2a260108212052ddefef6",
    ("sipw", 0): "1bea586e15e0c98e5f4376d1663aa973270ba3ca6a69860f0e29c9e3ebbe0413",
    ("sipw", 1): "85db6fa99ded6cd762b71ed38d3d0bf7108df6c98c658af04a9e490e73ba93cd",
    ("sipw", 2): "68a1834c17a61a8b1425f4f9f4cee99cdf4694bbe1163904341b7915c3df22bb",
    ("mpw", 0): "de8720fb3486cbadb9833d8310756bbe278e4e4925caeb0656f7554ba2ff6d50",
    ("mpw", 1): "348ad97c265557bbd714d0a6ebee7a12884a01c7f2e49a0cc6eadf460c99021f",
    ("mpw", 2): "e16854f275aabccb70ef2a16b19347064dc3027d8df428ab7bab5b6995bad9c7",
    ("sw", 0): "8c8b1340aee583cab953ea9588cd7923469451d53291760db2e367017f6530b7",
    ("sw", 1): "0ba15eede48251099fad12d7512d8ee33d0936c6e765c683ec9d974ec054c62e",
    ("sw", 2): "6855fc161c95ae1874579c20121d631c34fbd2fd0f2bef8614036e18d09dd3a2",
}

GOLDEN_CASCADE = {
    ("ipw", 0): "4dd1a3e7862e4d5571881046f90c6b64fb5285e9a2f8ab66f5d997615074c0e5",
    ("ipw", 1): "0e4ffbbad537f82348a33e3afa47360ae60cdbbf46c1a4afb84226c50b65eec3",
    ("ipw", 2): "4535f35d3f75390ca944b4dd038faa7b59eaf748b661bc23f30797a57429377d",
    ("mpw", 0): "b4a3ff6b37c85ed884343a7a14bf03d876821cefddc553112d38bf29b92d8a0f",
    ("mpw", 1): "305d24bc42031026e2859f62cb66d616ffbdc03ca1d2fe592fb8f779d04de1a7",
    ("mpw", 2): "7bdc067adad3a71e791f92560af0960f2a3855c3ebcf21f20d8be0ee8db0e739",
}

GOLDEN_EXHAUSTING = {
    "ipw": "b9c3ebdb23954d70b8b8713489fc1c94c8183180071d53d7ed009c0195700d92",
    "sipw": "2aa180ddf682469f60c9551b3c28798b611ed22885bbf532bf38006ef5a282bd",
}

GOLDEN_RUN_FILES = {
    ("sw", "curves.csv"): "443698fdbcf9a11f7a25df7e766fc5f615aa98b088ebffb46ad9eaf57a307ffb",
    ("sw", "summary.json"): "9d422f2e4f8feace44db01ff33810bdfd67f7e27b5eb49f88f3a001088db29a7",
    ("mpw", "curves.csv"): "1255054787ddb943b68e48c19f79f5f57a6ba285d17b02568500e369e212493f",
    ("mpw", "summary.json"): "1d889d676b02d85ca92b5387b65d5931a7eb17d22c1545dbf54d168106af33b6",
    ("ipw", "curves.csv"): "af41d1de1270fff09c04095957f2ee1f91b4e8842a901b28c3ac0492df61d960",
    ("ipw", "summary.json"): "1bb647263afe5d536ce9f44c0e9947447e2477ef4f55104c8f247f0710aaef8b",
    ("sipw", "curves.csv"): "8479eb58be994d95726850e1069f3c7a688facc01ede6e046916455640f902d0",
    ("sipw", "summary.json"): "acf6b1d6864072691361a0689889c346add85c4b42b37d76d437bb644c208294",
}

GOLDEN_GRID = {
    ("compare", "results.jsonl"): "f7d66c0b27a2e41400d82b02bd4f2d568eaf23c4bfbeb337c600ec41af2add65",
    ("compare", "rates.csv"): "1a5d669e60705c3d4aad3628bce57aa51cace304ab56efa0f8ae37f2fc1e805b",
    ("compare", "ratios.csv"): "908b05762ba9075f4c550034e05a54ce0af02468d4c6f4f059c3ac0c2c3e7496",
    ("sweep", "operating_points.csv"): "2fa8dc5cc9a68719efee27831f3b1d42ec5fe5eb47b3904b3b2b592073907b47",
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
    args = [subcommand, "--config", str(CONFIGS / "synthetic.json"), "--out", str(tmp_path), "--quiet"]
    assert main(args) == EXIT_OK
    for (command, name), digest in GOLDEN_GRID.items():
        if command == subcommand:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
