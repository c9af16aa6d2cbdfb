"""Simulated print-scan degradation for named virtual printers.

The pipeline runs in a fixed order on a clean binary render (1 = inked):

1. probabilistic dot gain: every non-inked pixel within the Chebyshev
   dot_gain_radius of an inked pixel turns inked with dot_gain_prob;
2. Gaussian point-spread blur (separable, kernel truncated at radius
   floor(3 * sigma), renormalized, clamp-to-edge borders);
3. affine ink response, v <- clamp01(gain * v + offset);
4. additive i.i.d. Gaussian noise, clamped back to [0, 1];
5. conversion to luminance 255 * (1 - v), always rounded to the nearest
   of the 256 integer levels of an 8-bit scanner.

Everything is deterministic given (image, params, seed).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .codegen import BINARY01, BYTE0_255, PixelImage, check_size
from .errors import (
    DimensionError,
    DomainError,
    ParameterError,
    PgcError,
    UnknownIdError,
    check_field_types,
)


@dataclass(frozen=True)
class ChannelParams:
    """Degradation knobs for one virtual printer."""

    dot_gain_radius: int = 0
    dot_gain_prob: float = 0.0
    psf_sigma: float = 0.0
    gain: float = 1.0
    offset: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.dot_gain_radius < 0:
            raise ParameterError("dot_gain_radius must be >= 0")
        if not 0.0 <= self.dot_gain_prob <= 1.0:
            raise ParameterError("dot_gain_prob must lie in [0, 1]")
        if self.psf_sigma < 0.0:
            raise ParameterError("psf_sigma must be >= 0")
        if self.gain <= 0.0:
            raise ParameterError("gain must be > 0")
        if not -1.0 <= self.offset <= 1.0:
            raise ParameterError("offset must lie in [-1, 1]")
        if self.noise_sigma < 0.0:
            raise ParameterError("noise_sigma must be >= 0")


# Two virtual laser printers (SA, LX) and two inkjets (HP, CA).  Values are
# tuning knobs, not measurements: dot gain grows SA <= LX < CA < HP and the
# inkjets are noisier than the lasers.  Blur is the main module killer at
# 6 px/module; these settings leave direct thresholding with a few percent
# of module errors while a trained model recovers nearly all of them.
_PRESETS = {
    "SA": ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.50, psf_sigma=2.2,
        gain=1.0, offset=0.03, noise_sigma=0.12),
    "LX": ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.55, psf_sigma=2.3,
        gain=1.0, offset=0.04, noise_sigma=0.12),
    "CA": ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.65, psf_sigma=2.4,
        gain=1.0, offset=0.05, noise_sigma=0.14),
    "HP": ChannelParams(
        dot_gain_radius=1, dot_gain_prob=0.85, psf_sigma=2.6,
        gain=1.0, offset=0.06, noise_sigma=0.15),
}

PRINTER_IDS = tuple(_PRESETS)


def preset(printer_id: str) -> ChannelParams:
    """Return the fixed channel parameters of a named virtual printer."""
    try:
        return _PRESETS[printer_id]
    except KeyError:
        raise UnknownIdError(
            f"unknown printer id {printer_id!r} (known: {', '.join(PRINTER_IDS)})"
        ) from None


def with_fields(base: ChannelParams, fields: dict) -> ChannelParams:
    """base with the given fields replaced, checked as every ChannelParams
    is when it is made."""
    try:
        return replace(base, **fields)
    except TypeError as exc:
        raise ParameterError(f"unknown channel parameter: {exc}") from None


def _dilate(ink: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a (2r+1) square structuring element."""
    h, w = ink.shape
    check_size(f"dot_gain_radius {radius}", (h + 2 * radius, w + 2 * radius), 1)
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius : radius + h, radius : radius + w] = ink
    out = np.zeros_like(ink, dtype=bool)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= padded[dy : dy + h, dx : dx + w]
    return out


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """1-D Gaussian taps truncated at floor(3 * sigma), renormalized."""
    radius = int(math.floor(3.0 * sigma))
    check_size(f"psf_sigma {sigma}", (2 * radius + 1,), 8)
    if radius == 0:
        # One tap; its weight renormalizes to 1 (exp would give 0/0 for tiny sigma).
        return np.ones(1)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


# At most this many taps are summed by table lookup: a window code of
# that many bits indexes a table of 2 ** 16 float64 sums (512 KiB).
_TABLE_TAPS = 16
# print_scans works through images in strips of this many rows.  A
# strip's float64 rows and work arrays stay in the L2 cache, and its
# temporaries are small enough for malloc to reuse instead of mapping
# and faulting in fresh pages for every image.
_STRIP_ROWS = 64


def _strips(h: int):
    """Row slices covering 0..h in order, _STRIP_ROWS rows at most each."""
    return [slice(y0, min(y0 + _STRIP_ROWS, h)) for y0 in range(0, h, _STRIP_ROWS)]


@lru_cache(maxsize=8)
def _window_table(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel taps, and the horizontal blur of every 0/1 window.

    Entry c of the table is the sum 0 + t0 * b0 + t1 * b1 + ..., taken in
    that order in float64, where bit k of c is the pixel under tap k; the
    first min(taps, _TABLE_TAPS) taps are covered.  That is the order of a
    sequential multiply-add over the image, so a lookup gives its bytes.
    """
    kernel = _gaussian_kernel(sigma)
    n = min(len(kernel), _TABLE_TAPS)
    codes = np.arange(1 << n)
    table = np.zeros(1 << n)
    for k, tap in enumerate(kernel[:n]):
        table += tap * ((codes >> k) & 1).astype(np.float64)
    kernel.flags.writeable = False
    table.flags.writeable = False
    return kernel, table


def _blur(values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 0/1 mask with clamp-to-edge borders.

    Returns float64 (a view into the work buffer when the kernel has more
    than one tap).  Each pass sums tap * pixel in tap order starting from
    0.  The horizontal pass reads 0/1 pixels, so each of its sums depends
    only on the window's bits and is looked up in _window_table by a
    uint16 window code; taps beyond _TABLE_TAPS are added one by one.
    """
    kernel, table = _window_table(sigma)
    radius = (len(kernel) - 1) // 2
    if radius == 0:
        return values.astype(np.float64)
    h, w = values.shape
    n = min(len(kernel), _TABLE_TAPS)
    # Window codes by doubling over the clamp-to-edge padded strip: each
    # step joins the s-bit codes at columns j and j + s into the 2s-bit
    # code at j.  The n-bit code joins two codes of the largest power of
    # two up to n, which overlap and agree where they do: for 13 bits, the
    # 8 bits at j and the 8 at j + 5 shifted left by 5.
    longest = 1 << (n.bit_length() - 1)
    wide = w + 2 * radius
    bits, code, shifted = np.empty((3, _STRIP_ROWS, wide), np.uint16)
    # Horizontal pass into the middle rows; the rows above and below hold
    # the clamp-to-edge border of the vertical pass.
    padded = np.empty((h + 2 * radius, w))
    for rows in _strips(h):
        m = rows.stop - rows.start
        bits[:m, radius : radius + w] = values[rows]
        bits[:m, :radius] = values[rows, :1]
        bits[:m, radius + w :] = values[rows, w - 1 :]
        src, s = bits, 1
        while s < longest:
            cols = wide - 2 * s + 1
            np.left_shift(src[:m, s : s + cols], s, out=shifted[:m, :cols])
            np.bitwise_or(src[:m, :cols], shifted[:m, :cols], out=code[:m, :cols])
            src, s = code, 2 * s
        rest = n - longest
        if rest:
            np.left_shift(code[:m, rest : rest + w], rest, out=shifted[:m, :w])
            code[:m, :w] |= shifted[:m, :w]
        out = padded[rows.start + radius : rows.stop + radius]
        # Codes are below len(table); mode="raise" would buffer the output.
        np.take(table, code[:m, :w], out=out, mode="clip")
        for k in range(n, len(kernel)):
            out += kernel[k] * bits[:m, k : k + w]
    padded[:radius] = padded[radius]
    padded[radius + h :] = padded[radius + h - 1]

    # Vertical pass.  A strip reads padded rows from its own first row on,
    # so its result can overwrite the rows above the next strip.
    acc, part = np.empty((2, _STRIP_ROWS, w))
    for rows in _strips(h):
        m = rows.stop - rows.start
        np.multiply(kernel[0], padded[rows], out=acc[:m])
        for k in range(1, len(kernel)):
            np.multiply(kernel[k], padded[rows.start + k : rows.stop + k], out=part[:m])
            acc[:m] += part[:m]
        padded[rows] = acc[:m]
    return padded[:h]


def print_scans(imgs: list[PixelImage], params: ChannelParams, seed: int) -> list[PixelImage]:
    """Simulate printing and scanning binary code images of one shape.

    Returns one byte0_255 luminance scan (ink is dark) per image.  Each
    scan is deterministic given (img, params, seed), whichever images share
    the call; with noise_sigma = 0 and dot_gain_prob in {0, 1} it does not
    depend on the seed at all.  The seed's random values are drawn once,
    strip by strip, and each strip's draws apply to every image; each
    image has its own blur buffer.
    """
    for img in imgs:
        if img.domain != BINARY01:
            raise DomainError("print_scans expects a binary01 input image")
    shapes = {img.pixels.shape for img in imgs}
    if len(shapes) != 1:
        raise DimensionError(f"print_scans needs images of one shape, not {sorted(shapes)}")
    (h, w), = shapes
    rng = np.random.default_rng(seed)
    # Random draws fill row-major strips in order, so they are the values
    # of one draw over the whole image.
    draws = np.empty((_STRIP_ROWS, w))

    inks = [img.pixels.astype(bool) for img in imgs]
    if params.dot_gain_radius > 0 and params.dot_gain_prob > 0.0:
        dilated = [_dilate(ink, params.dot_gain_radius) for ink in inks]
        if params.dot_gain_prob >= 1.0:
            inks = dilated
        else:
            candidates = [d & ~ink for d, ink in zip(dilated, inks)]
            for rows in _strips(h):
                u = rng.random(out=draws[: rows.stop - rows.start])
                gained = u < params.dot_gain_prob
                for c in candidates:
                    c[rows] &= gained
            for ink, c in zip(inks, candidates):
                ink |= c

    vs = [_blur(ink, params.psf_sigma) for ink in inks]

    # v = clamp01(gain * v + offset), v = clamp01(v + noise_sigma * z) and
    # 255 * (1 - v), computed in place, strip by strip.
    scans = [np.empty((h, w), np.uint8) for _ in imgs]
    for rows in _strips(h):
        if params.noise_sigma > 0.0:
            # rng.normal(0, sigma) draws standard normals z and returns 0 + sigma * z.
            z = rng.standard_normal(out=draws[: rows.stop - rows.start])
            z *= params.noise_sigma
        for v, scan in zip(vs, scans):
            s = v[rows]
            s *= params.gain
            s += params.offset
            np.clip(s, 0.0, 1.0, out=s)
            if params.noise_sigma > 0.0:
                s += z
                np.clip(s, 0.0, 1.0, out=s)
            np.subtract(1.0, s, out=s)
            s *= 255.0
            np.rint(s, out=s)
            scan[rows] = s
    return [PixelImage(scan, BYTE0_255) for scan in scans]


def _worker(fn, jobs, w, shared, lock, conn, parent_ends) -> None:
    """Run job w, then each index taken from the shared counter, until the
    counter is past the last job; send (j, True, fn(jobs[j])) for each and
    stop after the first error."""
    # Ctrl-C reaches the whole process group; the parent handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The fork copied the parent's end of this pipe and of every earlier
    # worker's; with them closed, the parent's death ends this pipe.
    for end in parent_ends:
        end.close()
    # A ConnectionError (a broken pipe) means the parent has gone.
    with conn:
        j = w
        while j < len(jobs):
            try:
                result = fn(jobs[j])
            except Exception as exc:
                err = exc
            else:
                try:
                    conn.send((j, True, result))
                except ConnectionError:
                    return
                except Exception as exc:  # the result cannot be pickled
                    err = exc
                else:
                    with lock:
                        j = shared[1 + w] = int(shared[0])
                        shared[0] = j + 1
                    continue
            try:
                # Sent as it is only if the parent can unpickle it.
                pickle.loads(pickle.dumps(err))
            except Exception:
                err = PgcError(f"{type(err).__name__}: {err}")
            try:
                conn.send((j, False, err))
            except ConnectionError:
                pass
            return


def parallel_map(fn, jobs) -> list:
    """[fn(job) for job in jobs], run on one forked worker per usable CPU.

    fn must be a module-level function whose result depends only on its
    job (each job carries its own seed), so the results do not depend on
    which worker ran them.  Worker w runs job w first; after that each
    worker takes the next index from one counter the workers share, so a
    worker on a slower CPU simply runs fewer jobs, and it exits once the
    counter is past the last job.  Each worker sends its results to the
    parent over its own pipe; the parent sends nothing, receives the
    results on the calling thread, from whichever worker is ready, and
    returns them in job order.  An exception fn raises is re-raised here
    with its type and message, and a worker that dies raises PgcError.
    Every worker has exited when this returns, also when it raises.

    Workers are forked, not spawned, so they neither re-import numpy nor
    unpickle fn and the jobs.  pgclab starts no threads, and OpenBLAS
    stops its thread pool around a fork.  fn must not call BLAS: each
    forked worker would start its own OpenBLAS pool of one thread per CPU.
    """
    jobs = list(jobs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(cpus, len(jobs))
    if n <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that importing pgclab does not load it
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    # A mapping the forked workers share: shared[0] is the next unclaimed
    # index, and shared[1 + w] the one worker w runs, read if w dies.
    shared = np.frombuffer(mmap.mmap(-1, 8 * (1 + n)), np.int64)
    shared[:] = [n, *range(n)]
    lock = ctx.Lock()
    procs, conns = [], []
    done = False
    try:
        for w in range(n):
            parent_end, child_end = ctx.Pipe(duplex=False)
            conns.append(parent_end)
            proc = ctx.Process(target=_worker, args=(fn, jobs, w, shared, lock, child_end, conns),
                               daemon=True)
            proc.start()
            # Closed before the next fork, so the worker holds the only
            # copy of its end and its exit ends the pipe.
            child_end.close()
            procs.append(proc)
        results = [None] * len(jobs)
        left = len(jobs)
        busy = list(conns)
        while left:
            for conn in wait(busy):
                w = conns.index(conn)
                try:
                    j, ok, value = conn.recv()
                except EOFError:
                    procs[w].join()
                    j = int(shared[1 + w])
                    if procs[w].exitcode == 0 and j >= len(jobs):  # out of indices
                        busy.remove(conn)
                        continue
                    raise PgcError(
                        f"worker {w} exited with code {procs[w].exitcode} before job {j}"
                    ) from None
                if not ok:
                    raise value
                results[j] = value
                left -= 1
        done = True
        return results
    finally:
        for proc in procs:
            if not done:
                proc.kill()
            proc.join()
        for conn in conns:
            conn.close()
