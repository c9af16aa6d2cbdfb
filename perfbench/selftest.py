"""Toy-size self-test of the benchmark; runs every workload in seconds.

    python3 perfbench/selftest.py

Checks that:
- BENCHMARK.json names exactly the metrics the benchmark reports, with
  the same units, and every one of them is reported;
- traced spans nest, every self time is >= 0, and the self times under
  each verb add up to the verb's wall time;
- every pgclab function the tracer wrapped is restored afterwards;
- a corrupted output digest is reported as a failed op, not as a pass;
- without pgclab's sources the benchmark exits non-zero and prints no result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import run


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(result: dict, spec: list[dict], what: str) -> None:
    got = result["metrics"]
    check(set(got) == {m["name"] for m in spec}, f"{what}: metric names {sorted(got)}")
    for m in spec:
        check(got[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}")


def check_spans(trace_file: Path, tracing) -> None:
    rounds = defaultdict(list)
    for line in trace_file.read_text().splitlines():
        s = json.loads(line)
        rounds[s["round"]].append([s["name"], s["start"], s["end"], s["parent"]])
    check(bool(rounds), "no spans written")
    for spans in rounds.values():
        selfs = tracing.self_times(spans)  # raises unless children nest
        check(min(selfs) >= -1e-9, "negative self time")
        top = tracing.roots(spans)
        under = defaultdict(float)
        for i, s in enumerate(selfs):
            under[top[i]] += s
        for root, total in under.items():
            name, start, end, _ = spans[root]
            check(name.startswith("cli."), f"root span {name} is not a verb")
            check(abs(total - (end - start)) < 1e-6, f"self times under {name} do not add up")


def main() -> int:
    check(run.prepare(), "no pgclab sources")
    import harness
    import tracing
    from workloads import TOY_SPLIT, WORKLOADS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"]: w["why"] for w in bench["workloads"]}
          == {name: wl.why for name, wl in WORKLOADS.items()}, "workload names or whys")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END,
          "end_to_end metrics differ from harness.END_TO_END")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER,
          "per_layer metrics differ from tracing.PER_LAYER")

    def pgclab_functions() -> dict:
        return {(name, attr): value for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "pgclab" for attr, value in vars(mod).items()
                if callable(value)}

    before = pgclab_functions()
    base = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    for name, wl in WORKLOADS.items():
        toy = replace(wl, split=TOY_SPLIT, epochs=1)
        for traced in (False, True):
            work = base / f"{name}-trace{int(traced)}"
            res = harness.run(toy, 1, 0.1, traced, work, probes=2)
            what = f"{name} trace={int(traced)}"
            check(res["correct"] and res["failed"] == 0, f"{what}: run not correct")
            check(res["attempted"] >= 8, f"{what}: fewer than two rounds")
            check(len({r["digest"] for r in res["rounds"]}) == 1, f"{what}: digests differ")
            check_metrics(res, bench["per_layer" if traced else "end_to_end"], what)
            if traced:
                check(pgclab_functions() == before, f"{what}: wrapped names not restored")
                check_spans(work / "trace.jsonl", tracing)
                for v in ("train", "attack", "roc"):
                    check(f"cli.{v}" in res["rounds"][1]["breakdown"], f"{what}: no {v} span")
            else:
                check(all(m["value"] > 0 for m in res["metrics"].values()),
                      f"{what}: an end-to-end metric is not positive")
        print(f"selftest: {name} ok")

    # Flip one output byte before the second round is hashed.
    real_digest = harness.digest_dir
    calls = []

    def corrupting_digest(root: Path) -> str:
        calls.append(root)
        if len(calls) == 2:
            victim = next(p for p in sorted(root.rglob("*.csv")))
            data = bytearray(victim.read_bytes())
            data[-2] ^= 1
            victim.write_bytes(bytes(data))
        return real_digest(root)

    harness.digest_dir = corrupting_digest
    try:
        toy = replace(WORKLOADS["train-bn"], split=TOY_SPLIT, epochs=1)
        res = harness.run(toy, 1, 0.1, False, base / "corrupt", probes=1)
    finally:
        harness.digest_dir = real_digest
    check(not res["correct"] and res["failed"] > 0, "a corrupted digest passed")
    check(res["metrics"]["ok_ops_ratio"]["value"] < 1.0, "ok_ops_ratio ignores the failure")
    print("selftest: corrupted digest counted as failed ops")

    bare = base / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-bn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode != 0, "ran without pgclab sources")
    check('"correct"' not in proc.stdout, "printed a result without pgclab sources")
    print("selftest: exits non-zero without sources")

    shutil.rmtree(base, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
