"""Runs one workload through pgclab's four verbs and measures it.

A run is a closed loop with one client in one process: each verb starts
through the public entry point pgclab.cli.main only after the previous
one has returned.  A round is one pass gen -> train -> attack -> roc in a
fresh out_dir.  After an untimed warm-up, rounds repeat until the run's
time is used up, at least two of them.  Every round's output digest must
match the first round's.

Untraced runs give the end-to-end metrics.  In a round of an untraced run
a verb that finishes in under MIN_VERB_S is run again, until its runs add
up to MIN_VERB_S; the same config writes the same bytes, so a repeat only
adds samples.  Each verb's time is the median of its samples.

Traced runs alternate untraced and traced single passes and report the
per-layer metrics of the traced ones (see tracing.py) and the overhead of
tracing.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import pgclab.cli
import tracing
import workloads
from workloads import REPRINTS_PER_TEST_CODE, TARGET_PRINTER, Workload

ROOT = Path(__file__).resolve().parent.parent
VERBS = ("gen", "train", "attack", "roc")
MIN_ROUNDS = 2
MIN_VERB_S = 1.5
MAX_REPS = 6
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "gen_scans_per_s": "scans/s",
    "train_samples_per_s": "blocks/s",
    "attack_codes_per_s": "codes/s",
    "roc_reprints_per_s": "prints/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}


# ---------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """What a result depends on besides the code, so results from different
    machines are never compared silently."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------- outputs

def digest_dir(root: Path) -> str:
    """sha256 over the sorted relative paths and the bytes of every file."""
    h = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    for rel, path in files:
        data = path.read_bytes()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _count(path: Path, pattern: str) -> int:
    return len(list(path.glob(pattern))) if path.is_dir() else 0


def check_outputs(out: Path, wl: Workload) -> tuple[list[str], dict]:
    """Problems found in one round's out_dir, and its deterministic results."""
    problems: list[str] = []
    p, n, n_test = TARGET_PRINTER, wl.n_images, wl.test_codes
    sources = (wl.arch, "thr")

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: {got} != {want}")

    def within(what: str, value: float, lo: float, hi: float) -> None:
        if not (math.isfinite(value) and lo <= value <= hi):
            problems.append(f"{what}: {value} outside [{lo}, {hi}]")

    try:
        ds = out / "dataset"
        expect("originals", _count(ds / "originals", "code_*.pbm"), n)
        for pid in wl.printers:
            expect(f"{pid} scans", _count(ds / "scans" / pid, "scan_*.pgm"), n)
        manifest = json.loads((ds / "manifest.json").read_text())
        expect("manifest split", manifest["split_sizes"], list(wl.split))

        model = out / "models" / f"{p}_{wl.arch}.pgcm"
        expect("model magic", model.read_bytes()[:4], b"PGCM")
        losses = [float(r[1]) for r in _rows(model.with_name(f"{p}_{wl.arch}_loss.csv"))]
        expect("loss rows", len(losses), wl.epochs)
        for loss in losses:
            within("loss", loss, 0.0, math.inf)

        reports = out / "reports"
        rows = _rows(reports / f"{p}_{wl.arch}_metrics.csv")
        expect("metrics rows", len(rows), n_test + 1)
        for row in rows:
            within("pearson_model", float(row[1]), -1.0, 1.0)
            within("hamming_model", float(row[2]), 0.0, 1.0)
            within("pearson_thr", float(row[3]), -1.0, 1.0)
            within("hamming_thr", float(row[4]), 0.0, 1.0)
        mean = rows[-1]
        expect("metrics mean row", mean[0], "mean")
        results = {
            "mean": {
                wl.arch: {"pearson": float(mean[1]), "hamming": float(mean[2])},
                "thr": {"pearson": float(mean[3]), "hamming": float(mean[4])},
            },
            "auc": {},
        }
        for src in sources:
            expect(f"{src} estimates", _count(out / "estimates" / f"{p}_{src}", "est_*.pbm"), n_test)
            expect(f"{src} diff maps", _count(reports / "diff" / f"{p}_{src}", "diff_*.pgm"), n_test)
            for measure in ("pearson", "hamming"):
                labels = [r[1] for r in _rows(reports / f"scores_{p}_{src}_{measure}.csv")]
                expect(f"{src}/{measure} authentic scores", labels.count("authentic"), n_test)
                expect(f"{src}/{measure} fake scores", labels.count("fake"), n_test)
                for r in _rows(reports / f"roc_{p}_{src}_{measure}.csv"):
                    within("pd", float(r[1]), 0.0, 1.0)
                    within("pfa", float(r[2]), 0.0, 1.0)
        summary = _rows(reports / f"summary_{p}_{wl.arch}.csv")
        expect("summary sources", sorted((r[0], r[1]) for r in summary),
               sorted((s, m) for s in sources for m in ("pearson", "hamming")))
        for r in summary:
            within("auc", float(r[2]), 0.0, 1.0)
            results["auc"][f"{r[0]}/{r[1]}"] = float(r[2])
        for measure in ("pearson", "hamming"):
            svg = (reports / f"roc_{p}_{measure}.svg").read_text()
            expect(f"{measure} svg", svg.startswith("<svg"), True)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        results = {}
    return problems, results


# ---------------------------------------------------------------- running

def run_verb(verb: str, cfg_path: Path, tracer: tracing.Tracer | None) -> tuple[bool, float]:
    """One verb through pgclab.cli.main; returns (succeeded, wall seconds)."""
    argv = [verb, "--config", str(cfg_path)]
    if verb != "gen":
        argv += ["--printer", TARGET_PRINTER]
    chatter = io.StringIO()
    gc.collect()  # garbage of the previous verb is not this verb's cost
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(chatter):
            if tracer is None:
                code = pgclab.cli.main(argv)
            else:
                code = tracer.verb(verb, lambda: pgclab.cli.main(argv))
    except Exception:  # a traceback is a failed verb, not a failed benchmark
        traceback.print_exc()
        code = -1
    elapsed = perf_counter() - start
    if code != 0:
        print(f"perfbench: {verb} failed (exit {code}): {chatter.getvalue()[-500:]}",
              file=sys.stderr)
    return code == 0, elapsed


def run_round(wl: Workload, cfg_path: Path, out: Path, tracer=None, min_verb_s=0.0) -> dict:
    """One pass gen -> train -> attack -> roc in an emptied out_dir."""
    shutil.rmtree(out, ignore_errors=True)
    times: dict[str, list[float]] = {v: [] for v in VERBS}
    attempted = 0
    for verb in VERBS:
        while True:
            attempted += 1
            ok, elapsed = run_verb(verb, cfg_path, tracer)
            if not ok:
                return {"traced": tracer is not None, "times": times, "attempted": attempted,
                        "failed": attempted, "digest": None, "problems": [f"{verb} failed"],
                        "results": {}}
            times[verb].append(elapsed)
            if sum(times[verb]) >= min_verb_s or len(times[verb]) >= MAX_REPS:
                break
    problems, results = check_outputs(out, wl)
    return {"traced": tracer is not None, "times": times, "attempted": attempted,
            "failed": attempted if problems else 0, "digest": digest_dir(out),
            "problems": problems, "results": results}


def measure_setup(wl: Workload, seed: int, cfg_path: Path, out: Path, probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ready-to-run: imports
    of numpy and pgclab plus writing the config, once per probe."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           workloads.workload_json(wl), str(seed), str(cfg_path), str(out)]
    samples = []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def _pipeline(rounds: list[dict]) -> tuple[dict[str, float], float]:
    """Median seconds of each verb over rounds, and their sum."""
    med = {}
    for verb in VERBS:
        samples = [t for r in rounds for t in r["times"][verb]]
        med[verb] = statistics.median(samples) if samples else math.inf
    return med, sum(med.values())


def _enough(rounds: list[dict], deadline: float) -> bool:
    walls = [sum(sum(ts) for ts in r["times"].values()) for r in rounds]
    return perf_counter() + statistics.median(walls) > deadline


def run(wl: Workload, seed: int, seconds: float, traced: bool, work: Path,
        probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the full result (see README.md)."""
    work.mkdir(parents=True, exist_ok=True)
    cfg_path, out = work / "config.json", work / "out"
    workloads.write_config(wl, seed, cfg_path, out)
    env = environment()
    setup = measure_setup(wl, seed, cfg_path, out, probes)
    # Untimed warm-up: a toy round of the workload, so that lazy imports and
    # the BLAS thread pool are ready before the first timed verb.
    toy = replace(wl, split=workloads.TOY_SPLIT, epochs=1)
    workloads.write_config(toy, seed, work / "warmup.json", work / "warmup_out")
    warmup = run_round(toy, work / "warmup.json", work / "warmup_out")
    shutil.rmtree(work / "warmup_out", ignore_errors=True)
    warmup_ok = not warmup["failed"]

    rounds: list[dict] = []
    span_log: list[tuple[int, list, list]] = []
    tracer = tracing.Tracer() if traced else None
    deadline = perf_counter() + seconds
    while warmup_ok:
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.reset()
            tracer.install()
            try:
                r = run_round(wl, cfg_path, out, tracer)
            finally:
                tracer.uninstall()
            r["layers"], r["breakdown"] = tracing.layer_metrics(tracer)
            span_log.append((len(rounds), list(tracer.spans), tracing.self_times(tracer.spans)))
        else:
            r = run_round(wl, cfg_path, out, None, 0.0 if traced else MIN_VERB_S)
        rounds.append(r)
        if r["failed"] or (len(rounds) >= MIN_ROUNDS and _enough(rounds, deadline)):
            break
    shutil.rmtree(out, ignore_errors=True)

    if not warmup_ok:
        warmup["failed"] = warmup["attempted"]
        rounds.append(warmup)
    first = rounds[0]["digest"]
    for r in rounds[1:]:
        if r["digest"] is not None and r["digest"] != first:
            r["problems"].append(f"digest {r['digest']} differs from the first round's {first}")
            r["failed"] = r["attempted"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    plain = [r for r in rounds if not r["traced"] and not r["failed"]]
    verb_s, pipeline_s = _pipeline(plain)
    if traced:
        layered = [r for r in rounds if r["traced"] and not r["failed"]]
        metrics = {
            name: statistics.median(r["layers"][name] for r in layered) if layered else 0.0
            for name in tracing.PER_LAYER if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = _pipeline(layered)[1] / pipeline_s if layered else 0.0
        units = tracing.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pipeline_s": pipeline_s,
            "gen_scans_per_s": wl.scans / verb_s["gen"],
            "train_samples_per_s": wl.epochs * wl.train_blocks / verb_s["train"],
            "attack_codes_per_s": wl.test_codes / verb_s["attack"],
            "roc_reprints_per_s": REPRINTS_PER_TEST_CODE * wl.test_codes / verb_s["roc"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(traced),
        "env": env,
        "closed_loop_clients": 1,
        "setup_samples_s": setup,
        "verb_median_s": verb_s,
        "failed_ops_ratio": failed / attempted,
        "digest": first,
        "results": rounds[0]["results"],
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A run with no successful round has no finite times; it reports
        # zeros, and correct is false.
        "metrics": {name: {"value": float(metrics[name]) if math.isfinite(metrics[name]) else 0.0,
                           "unit": unit}
                    for name, unit in units.items()},
    }
    if traced:
        result["per_round_layers"] = [r["layers"] for r in rounds if r["traced"]]
        with open(work / "trace.jsonl", "w") as fh:
            for rnd, spans, selfs in span_log:
                for i, ((name, start, end, parent), self_s) in enumerate(zip(spans, selfs)):
                    fh.write(json.dumps({"round": rnd, "id": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "self_s": self_s}) + "\n")
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result
