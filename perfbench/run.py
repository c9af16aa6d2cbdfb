"""pgclab benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-bn --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full result, with the environment, the
output digest and every round, goes to .perfbench_work/<run>/result.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Limit BLAS threads and put the checkout's src first on sys.path;
    False when the checkout holds no pgclab sources."""
    if not (ROOT / "src" / "pgclab" / "cli.py").is_file():
        return False
    # At most one BLAS thread per CPU this process may run on; set before
    # numpy loads OpenBLAS, and inherited by the set-up probes.
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    # Imported here: workloads names the choices, and it imports no numpy.
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        print(f"perfbench: no pgclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("digest " + json.dumps({"sha256": result["digest"], **result["results"]},
                                 sort_keys=True))
    if result["trace"]:
        for r in result["rounds"]:
            if r["traced"]:
                print("breakdown " + json.dumps(r["breakdown"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
