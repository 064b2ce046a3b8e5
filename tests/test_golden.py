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
    ("ipw", 0): "f7154308a2cfce64503cc76b5d8cecd4fbd213e8e35995dbf89ab3ca5d7a8d75",
    ("ipw", 1): "9f8c066a5f4f78d62efe2532337f5292dfaf1340b534d6c456dc63df9dd4b16a",
    ("ipw", 2): "83d34dabc1e7bf52ee8dca0385834c717e10938d616407e326d588221bbfc25b",
    ("sipw", 0): "c11cb7896a7c28a81ecec4622405a042a857c0e6afb22323e05886ee6698abc4",
    ("sipw", 1): "611a6c54f9541d594d87fc91866d63460d88f12c5ffdd6b98bca11d298468394",
    ("sipw", 2): "57098ba030b6e15f820c3d019eb5aa45c2cd151a70370c2e3c8ed205b6e33958",
    ("mpw", 0): "de8720fb3486cbadb9833d8310756bbe278e4e4925caeb0656f7554ba2ff6d50",
    ("mpw", 1): "348ad97c265557bbd714d0a6ebee7a12884a01c7f2e49a0cc6eadf460c99021f",
    ("mpw", 2): "e16854f275aabccb70ef2a16b19347064dc3027d8df428ab7bab5b6995bad9c7",
    ("sw", 0): "8c8b1340aee583cab953ea9588cd7923469451d53291760db2e367017f6530b7",
    ("sw", 1): "0ba15eede48251099fad12d7512d8ee33d0936c6e765c683ec9d974ec054c62e",
    ("sw", 2): "6855fc161c95ae1874579c20121d631c34fbd2fd0f2bef8614036e18d09dd3a2",
}

GOLDEN_CASCADE = {
    ("ipw", 0): "89ef60db7fcad05ea2c67711fee1bdcb799f4b0c6cf49c2aad1317448b0fb999",
    ("ipw", 1): "b88123e122818131caf7a6478196660b43a76a409cfc5b200347fc68d1497aed",
    ("ipw", 2): "272fb53a4060ca06e50eefc46a6f6e5eda43861433874bd47cacda74581aa848",
    ("mpw", 0): "b4a3ff6b37c85ed884343a7a14bf03d876821cefddc553112d38bf29b92d8a0f",
    ("mpw", 1): "305d24bc42031026e2859f62cb66d616ffbdc03ca1d2fe592fb8f779d04de1a7",
    ("mpw", 2): "7bdc067adad3a71e791f92560af0960f2a3855c3ebcf21f20d8be0ee8db0e739",
}

GOLDEN_EXHAUSTING = {
    "ipw": "16acd956405e4d5b4216164261219fb6d0adfc2ad661f67fa8fa83cf4bb30a2e",
    "sipw": "808ac3ff8182623329603da39a5489f1314b03ea73577435b4503125fa19ea76",
}

GOLDEN_RUN_FILES = {
    ("sw", "curves.csv"): "443698fdbcf9a11f7a25df7e766fc5f615aa98b088ebffb46ad9eaf57a307ffb",
    ("sw", "summary.json"): "9d422f2e4f8feace44db01ff33810bdfd67f7e27b5eb49f88f3a001088db29a7",
    ("mpw", "curves.csv"): "1255054787ddb943b68e48c19f79f5f57a6ba285d17b02568500e369e212493f",
    ("mpw", "summary.json"): "1d889d676b02d85ca92b5387b65d5931a7eb17d22c1545dbf54d168106af33b6",
    ("ipw", "curves.csv"): "e064c008120be7ceade1c6cf634605851b947405645542c210046e209cc9a8c0",
    ("ipw", "summary.json"): "1bb647263afe5d536ce9f44c0e9947447e2477ef4f55104c8f247f0710aaef8b",
    ("sipw", "curves.csv"): "fddf4eafbae8edcbeccb2815c0a90776cd5f2d6ac32f36033aa027d820c8b4be",
    ("sipw", "summary.json"): "acf6b1d6864072691361a0689889c346add85c4b42b37d76d437bb644c208294",
}

GOLDEN_GRID = {
    ("synthetic.json", "compare", "results.jsonl"): "bce929b0129eecc54a1f1a6ca592f5ca9eff557c2330c0c43014fd6c4569ebcb",
    ("synthetic.json", "compare", "rates.csv"): "07bf66cb6c20f9faecbfc887fc8ae597abbd103d0503d48ed33e9dbf512e6551",
    ("synthetic.json", "compare", "ratios.csv"): "7ecd65d864fa9a9e908c01e28ca9e1516417d0e3651edb88442f0e1a30810828",
    ("synthetic.json", "sweep", "operating_points.csv"): "2fa8dc5cc9a68719efee27831f3b1d42ec5fe5eb47b3904b3b2b592073907b47",
    ("face.json", "compare", "results.jsonl"): "934d10ce1b8a0653a4dbb4fed6b9d5cb7a27741d98039f2d52d3afe3d22689dc",
    ("face.json", "compare", "rates.csv"): "9fb9e5589d1f2e38e15fd7e37f3d1b8b9aa458bbf602a841c293df8b32765bc2",
    ("face.json", "compare", "ratios.csv"): "0349e3e39244ebc1ee1a1fb4c59d54b49dfed1eda69e17d8290670733ecf86ca",
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
