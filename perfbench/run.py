"""Run the pwsearch benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload pedestrian --seed 0 --seconds 50 --trace 0

Run from anywhere; the repository root is this file's parent directory.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  Exits 2 without a
result when the workload is unknown or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 is the shipped seed pair")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench.BUILDERS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(bench.BUILDERS)}", file=sys.stderr)
        return 2
    result = bench.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
