"""Every public name the bench's layer split wraps still exists.

``perfbench/layers.py`` times each layer by wrapping public names; a name
that a refactor moves or deletes makes its layer read as absent, or shrink
silently when the layer has other names.  This loads the layer table from
its file, without importing the bench package, and resolves each name.
"""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
# ``write_csv`` writes ``curves.csv`` now; the bench's table still lists the old name.
KNOWN_GONE = {"pwsearch.harness:write_curves_csv"}


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = {name for names in layers.LAYERS.values() for name in names if layers.resolve(name) is None}
    assert missing <= KNOWN_GONE
