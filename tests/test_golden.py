"""Pinned trace digests: any change to a detector's draws or scores fails here.

The digests are sha256 values of the ``trace.jsonl`` that ``run`` writes on
scenes 0-2 for each detector of ``configs/synthetic.json`` (synthetic scorer)
and for ``mpw`` and ``ipw`` of ``configs/face.json`` (cascade scorer; ``mpw``
draws and scores a stage in one batch, ``ipw`` one window at a time).  A speed-up of
the samplers, of scoring or of serialization (how a trace line or a
``curves.csv`` row is formatted) must reproduce them exactly.  A change that
alters the draws on purpose updates them, and says so.

None of those runs uses up its space.  ``ipw`` and ``sipw`` of
``configs/pedestrian.json`` on scene 0 do: both claim all 1,095,431 cells
before their budget of 5000 is spent, so their digests pin the late, nearly
exhausted part of a run, where the dented uniform draws by rank from a
nearly full book.

Every ``ipw`` and ``sipw`` digest here, and the ``compare`` grids' files
that hold them, were computed when the incremental detectors stopped
searching a mixture that came up empty and the dented uniform began to draw
by rank, which moved their random stream; the ``sw`` and ``mpw`` digests,
the ``summary.json`` of ``ipw`` and ``sipw``, face's ``rates.csv`` and both
``sweep`` files stayed the same.

They moved again when a mixture search began to resume where the last one
stopped, scanning the unscanned proposals of its last group before drawing
a fresh one: the law of each draw is the same, but fewer proposals are
drawn, so the random stream of ``ipw`` and ``sipw`` moved.  The ``ipw`` and
``sipw`` digests, their ``curves.csv``, the ``compare`` grids' files that
hold them and face's ``sweep``, which sweeps ``ipw``, were recomputed then;
every ``sw`` and ``mpw`` digest, the ``summary.json`` of ``ipw`` and
``sipw``, face's ``rates.csv`` and the synthetic ``sweep``, which sweeps
``sw``, stayed the same.

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
    ("ipw", 0): "d1c261164edf8b448e6a4f400bda67c1047e8bb20c493b729f1d328c767af364",
    ("ipw", 1): "5edd57a504f257da6fa96710dae8fa2cbfd910171df68c50fbb961b24f9fd524",
    ("ipw", 2): "5fe6893d966d61d56efcff9b2c4a28128b55536263846f504f0708ff33d78d02",
    ("sipw", 0): "770798fa8aa36006f3cfc5c590da8bf721235410267c5c6cda93d220824fa9ab",
    ("sipw", 1): "9de58a21ad143e928b84dd869c46f6406abdb267a88cd25c58e69a5ac62add52",
    ("sipw", 2): "647605ba79f0ecdd35ed4cc92fe3f6cece2d14a6c4a3d8022ee6b57777dc3193",
    ("mpw", 0): "de8720fb3486cbadb9833d8310756bbe278e4e4925caeb0656f7554ba2ff6d50",
    ("mpw", 1): "348ad97c265557bbd714d0a6ebee7a12884a01c7f2e49a0cc6eadf460c99021f",
    ("mpw", 2): "e16854f275aabccb70ef2a16b19347064dc3027d8df428ab7bab5b6995bad9c7",
    ("sw", 0): "8c8b1340aee583cab953ea9588cd7923469451d53291760db2e367017f6530b7",
    ("sw", 1): "0ba15eede48251099fad12d7512d8ee33d0936c6e765c683ec9d974ec054c62e",
    ("sw", 2): "6855fc161c95ae1874579c20121d631c34fbd2fd0f2bef8614036e18d09dd3a2",
}

GOLDEN_CASCADE = {
    ("ipw", 0): "77a180f4651baac7f6a2eb230ee7e32d630f9afd0150213620c57f91098369a4",
    ("ipw", 1): "e3d12bd752a94b447a1ba0aab9c333bde689b180e6f1dbca333d9291df941cdb",
    ("ipw", 2): "eb03287db37bc07adfef38ecf4209dd73698eb6a842f40bc3e09ec0b7186dbc0",
    ("mpw", 0): "b4a3ff6b37c85ed884343a7a14bf03d876821cefddc553112d38bf29b92d8a0f",
    ("mpw", 1): "305d24bc42031026e2859f62cb66d616ffbdc03ca1d2fe592fb8f779d04de1a7",
    ("mpw", 2): "7bdc067adad3a71e791f92560af0960f2a3855c3ebcf21f20d8be0ee8db0e739",
}

GOLDEN_EXHAUSTING = {
    "ipw": "927490ba39108d5451bce01d3b66d3d103e1188bade8d8f8b2a9961ab34a8e52",
    "sipw": "9d8077b053fa86a186f09b556007df0f73af865a1c49117df4ab2ee2aeeec77b",
}

GOLDEN_RUN_FILES = {
    ("sw", "curves.csv"): "443698fdbcf9a11f7a25df7e766fc5f615aa98b088ebffb46ad9eaf57a307ffb",
    ("sw", "summary.json"): "9d422f2e4f8feace44db01ff33810bdfd67f7e27b5eb49f88f3a001088db29a7",
    ("mpw", "curves.csv"): "1255054787ddb943b68e48c19f79f5f57a6ba285d17b02568500e369e212493f",
    ("mpw", "summary.json"): "1d889d676b02d85ca92b5387b65d5931a7eb17d22c1545dbf54d168106af33b6",
    ("ipw", "curves.csv"): "f855a1e5b1530916cc611067d5e411491392bd163988a6d4d77d18998e0f1c38",
    ("ipw", "summary.json"): "1bb647263afe5d536ce9f44c0e9947447e2477ef4f55104c8f247f0710aaef8b",
    ("sipw", "curves.csv"): "6e380b9c4d883c33fedf26dd6b686b21db838b8f343dcfda52671d2ba7f3cf41",
    ("sipw", "summary.json"): "acf6b1d6864072691361a0689889c346add85c4b42b37d76d437bb644c208294",
}

GOLDEN_GRID = {
    ("synthetic.json", "compare", "results.jsonl"): "457db777a985c157eb10f7d9547f40f3d52d11da4c4b59a3555049b40c3a38b3",
    ("synthetic.json", "compare", "rates.csv"): "70a6821e8d80098681ae62e1f4c6cb1f6ad84a10d03036b5c1cf39e91f9e4fdb",
    ("synthetic.json", "compare", "ratios.csv"): "85592dcec0e3a25dbd3ebd7d638c8aac5659e584e63f3ac1c8b71920b665523c",
    ("synthetic.json", "sweep", "operating_points.csv"): "2fa8dc5cc9a68719efee27831f3b1d42ec5fe5eb47b3904b3b2b592073907b47",
    ("face.json", "compare", "results.jsonl"): "0b9d9e536f1b4d41b92d78d69c54bf4df64a7e05cc98517233ef922307964ab1",
    ("face.json", "compare", "rates.csv"): "9fb9e5589d1f2e38e15fd7e37f3d1b8b9aa458bbf602a841c293df8b32765bc2",
    ("face.json", "compare", "ratios.csv"): "dc8f71541984a42ff600a435ac5a1a0c9ba5aafbb17894c3ac76f70b27e2949a",
    ("face.json", "sweep", "operating_points.csv"): "b8eb5ad554e6b147e8fc9fe5f81eac5f16384426009d6dfd09931ab6886b1ef4",
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
