"""One set-up of a benchmark run, timed from outside by the harness.

Usage: probe.py WORKLOAD_JSON SEED CONFIG_PATH OUT_DIR

Imports numpy and pgclab, writes the workload config from the seed and
prints "ready"; the harness stops its clock on that line.
"""

import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import pgclab  # noqa: E402,F401
import pgclab.cli  # noqa: E402,F401


def main(argv: list[str]) -> int:
    wl_json, seed, config_path, out_dir = argv
    workloads.write_config(
        workloads.workload_from_json(wl_json), int(seed), Path(config_path), Path(out_dir)
    )
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
