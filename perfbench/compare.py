#!/usr/bin/env python3
"""Compare two benchmark results, refusing unlike-for-like pairs.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json CHANGE.json

Each argument is a result file the benchmark wrote to ``.perfbench_out/``.
Before any number is compared, the two host and settings records (nproc,
BLAS vendor and thread count, numpy and python versions, workload, seed,
run length and offered rates) must match exactly; any difference is an
error and the exit code is 2.  Otherwise the metrics of both results are
printed side by side with their ratio.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    differ = {
        key: (base["record"].get(key), change["record"].get(key))
        for key in sorted(set(base["record"]) | set(change["record"]))
        if base["record"].get(key) != change["record"].get(key)
    }
    if differ:
        for key, (left, right) in differ.items():
            print(f"record mismatch: {key}: {left!r} != {right!r}", file=sys.stderr)
        print("refusing to compare results from different hosts or settings",
              file=sys.stderr)
        return 2
    for name in sorted(set(base["metrics"]) | set(change["metrics"])):
        left = base["metrics"].get(name, {}).get("value")
        right = change["metrics"].get(name, {}).get("value")
        unit = (base["metrics"].get(name) or change["metrics"][name])["unit"]
        ratio = f"{right / left:8.3f}x" if left and right is not None else "       -"
        print(f"{name:40s} {left!s:>22} {right!s:>22} {ratio} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
