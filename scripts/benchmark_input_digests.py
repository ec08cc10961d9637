#!/usr/bin/env python3
"""Print the sha256 of every input file the benchmark workloads write.

For each seed given, every workload in ``perfbench/workloads.py`` writes
its inputs into ``<seed>/`` under a temporary directory; the digests come
out in ``sha256sum``'s format, one ``<hex>  <seed>/<file>`` line per file.
The dump writer's float layout shows in the dump files' bytes but not in
the benchmark's output digests, so this pins it on full-sized data.

Run from the repository root:

    python scripts/benchmark_input_digests.py 0 1 | diff tests/golden/benchmark_inputs.sha256 -
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            directory = Path(tmp) / str(seed)
            directory.mkdir()
            for workload in WORKLOADS.values():
                workload.write_inputs(seed, directory)
                for name in workload.inputs:
                    data = (directory / name).read_bytes()
                    print(f"{hashlib.sha256(data).hexdigest()}  {seed}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
