"""channel.parallel_map and the two callers that fan out on it."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pgclab
from pgclab.attack import build_dataset, load_dataset, stream_seed
from pgclab.channel import parallel_map, preset, print_scan
from pgclab.codegen import (
    Geometry,
    ModuleMatrix,
    binarize,
    generate_module_matrix,
    ink_intensity,
    modules_from_pixels,
    render,
)
from pgclab.detector import MEASURES, hamming_norm, pearson, reprint_scores
from pgclab.errors import DomainError, PgcError


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that waits on its workers for over a minute, not hang."""
    def expire(signum, frame):
        raise TimeoutError("parallel_map still waiting after 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def square_with_pid(j):
    return j * j, os.getpid()


def slow_first_job(j):
    if j == 0:
        time.sleep(0.5)
    return j, os.getpid()


def fail_at_five(j):
    if j == 5:
        raise DomainError(f"job {j} is off its domain")
    return j


def die_at_five(j):
    if j == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return j


def die_at_five_with_a_job_queued(j):
    if j == 5:
        time.sleep(0.1)  # the other worker takes the counter past 5 meanwhile
        os.kill(os.getpid(), signal.SIGKILL)
    return j


def exit_quietly_at_five(j):
    if j == 5:
        os._exit(0)
    return j


def mark_then_fail_at_one(job):
    j, marks = job
    if j == 1:
        raise DomainError("job 1 failed")
    time.sleep(0.2)
    (marks / str(j)).touch()
    return j


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def raise_unpicklable_at_zero(j):
    # One failing job, so the error that reaches the parent is known.
    if j == 0:
        raise Unpicklable(j, "x")
    return j


@pytest.mark.parametrize("n", [2, 3])
def test_results_come_back_in_job_order(monkeypatch, n):
    cpus(monkeypatch, n)
    out = parallel_map(square_with_pid, range(23))
    assert [r for r, _ in out] == [j * j for j in range(23)]
    pids = {pid for _, pid in out}
    assert len(pids) == n and os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_in_the_caller(monkeypatch):
    cpus(monkeypatch, 1)
    out = parallel_map(square_with_pid, range(5))
    assert out == [(j * j, os.getpid()) for j in range(5)]


def test_no_more_workers_than_jobs(monkeypatch):
    cpus(monkeypatch, 8)
    out = parallel_map(square_with_pid, range(2))
    assert [r for r, _ in out] == [0, 1]
    assert len({pid for _, pid in out}) == 2
    assert parallel_map(square_with_pid, []) == []


def test_a_slow_worker_runs_fewer_jobs(monkeypatch):
    cpus(monkeypatch, 2)
    out = parallel_map(slow_first_job, range(12))
    # Workers take indices as they free up: while job 0 sleeps, the other
    # worker runs the rest, runs out of indices and exits first.  That loses
    # no result and reorders none.
    assert [j for j, _ in out] == list(range(12))
    pids = [pid for _, pid in out]
    assert pids.count(pids[0]) <= 3
    assert multiprocessing.active_children() == []


def test_worker_error_keeps_its_type_and_message(monkeypatch):
    cpus(monkeypatch, 2)
    with pytest.raises(DomainError, match="^job 5 is off its domain$"):
        parallel_map(fail_at_five, range(12))
    assert multiprocessing.active_children() == []


def test_error_stops_the_other_workers(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    with pytest.raises(DomainError, match="job 1 failed"):
        parallel_map(mark_then_fail_at_one, [(j, tmp_path) for j in range(20)])
    assert multiprocessing.active_children() == []
    # Worker 0 would have run all ten of its jobs had it not been killed.
    assert len(list(tmp_path.iterdir())) < 10


def test_unpicklable_worker_error_becomes_pgc_error(monkeypatch):
    cpus(monkeypatch, 2)
    with pytest.raises(PgcError, match="Unpicklable: 0 x"):
        parallel_map(raise_unpicklable_at_zero, range(4))
    assert multiprocessing.active_children() == []


def unpicklable_result_at_two(j):
    return (lambda: j) if j == 2 else j


def test_unpicklable_result_is_sent_as_an_error(monkeypatch):
    cpus(monkeypatch, 2)
    with pytest.raises(Exception, match="lambda"):
        parallel_map(unpicklable_result_at_two, range(4))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fn", [die_at_five, die_at_five_with_a_job_queued])
def test_killed_worker_raises_pgc_error(monkeypatch, fn):
    cpus(monkeypatch, 2)
    with pytest.raises(PgcError, match=r"^worker [01] exited with code -9 before job 5$"):
        parallel_map(fn, range(12))
    assert multiprocessing.active_children() == []


def test_worker_that_exits_mid_job_raises_pgc_error(monkeypatch):
    # Exit code 0 with an index still unfinished is a death, not running out.
    cpus(monkeypatch, 2)
    with pytest.raises(PgcError, match=r"^worker [01] exited with code 0 before job 5$"):
        parallel_map(exit_quietly_at_five, range(12))
    assert multiprocessing.active_children() == []


# Run as a script: a parallel_map on two workers, each of which leaves a
# file named by its pid in the directory argv[1] names.
KILLED_PARENT = """
import os, sys, time
from pgclab.channel import parallel_map

os.sched_getaffinity = lambda pid: {0, 1}

def job(j):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(0.2)

parallel_map(job, range(100))
"""


def exited(pid):
    """The process has exited: it is gone, or a zombie nobody reaps."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_workers_exit_when_the_parent_is_killed(tmp_path):
    """A parent killed mid-map runs no cleanup; each worker's next result
    then meets a broken pipe, and the worker exits quietly, with no
    traceback, instead of running the remaining jobs."""
    marks = tmp_path / "workers"
    marks.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(pgclab.__file__).parents[1])}
    with open(tmp_path / "stderr", "wb") as stderr:
        parent = subprocess.Popen([sys.executable, "-c", KILLED_PARENT, str(marks)], env=env,
                                  stderr=stderr)
    try:
        for _ in range(200):
            if len(list(marks.iterdir())) == 2:
                break
            time.sleep(0.05)
        time.sleep(0.5)
    finally:
        parent.kill()
        parent.wait()
    workers = [int(p.name) for p in marks.iterdir()]
    assert len(workers) == 2
    try:
        for _ in range(100):
            if all(exited(pid) for pid in workers):
                break
            time.sleep(0.05)
        assert [pid for pid in workers if not exited(pid)] == []
    finally:
        for pid in workers:
            if not exited(pid):
                os.kill(pid, signal.SIGKILL)
    assert "Traceback" not in (tmp_path / "stderr").read_text()


# The per-image loops that build_dataset and reprint_scores ran before
# they fanned out, kept as references for the bytes.

def reference_scans(ds, printer_params, seed):
    scans = {}
    for pid in sorted(printer_params):
        scans[pid] = [
            print_scan(render(ds.originals[i], ds.geometry.module_px), printer_params[pid],
                       stream_seed(seed, "scan", pid, i)).pixels.tobytes()
            for i in range(ds.n_images)
        ]
    return scans


def reference_reprint_scores(originals, printed, params, module_px, seeds, threshold):
    r, h = [], []
    for code, xp, seed in zip(originals, printed, seeds, strict=True):
        ink = ink_intensity(print_scan(render(xp, module_px), params, seed))
        r.append(pearson(render(code, module_px).pixels, ink.pixels))
        decided = modules_from_pixels(binarize(ink, threshold), module_px)
        h.append(hamming_norm(code.bits, decided.bits))
    return [np.asarray(r).tobytes(), np.asarray(h).tobytes()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_dataset_matches_the_per_image_loop(monkeypatch, tmp_path, n):
    printers = {pid: preset(pid) for pid in ("SA", "HP", "LX")}
    cpus(monkeypatch, n)
    # Written by the workers, and read back, the scans are the loop's.
    ds = build_dataset((3, 1, 1), Geometry(), printers, 9, tmp_path)
    assert ds.scans == {}
    want = reference_scans(ds, printers, 9)
    for pid in printers:
        back = load_dataset(tmp_path, pid)
        assert [s.pixels.tobytes() for s in back.scans[pid]] == want[pid]
        assert [m.bits.tobytes() for m in back.originals] == \
            [m.bits.tobytes() for m in ds.originals]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n", [1, 2])
def test_reprint_scores_match_the_per_image_loop(monkeypatch, n):
    codes = [generate_module_matrix(500 + i, 8, 8) for i in range(7)]
    estimates = [ModuleMatrix(np.roll(c.bits, 1, axis=1)) for c in codes]
    cpus(monkeypatch, n)
    seeds = [stream_seed(81, "reprint-fake", "CA", i) for i in range(7)]
    (_, out), _ = reprint_scores(codes, [estimates], seeds, seeds, preset("CA"), 3, 0.45)
    assert [out[m].tobytes() for m in MEASURES] == reference_reprint_scores(
        codes, estimates, preset("CA"), 3, seeds, 0.45)
