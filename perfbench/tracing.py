"""Spans around pgclab's layers, recorded from outside the program.

A Tracer replaces each public function of the traced modules (and a few
named private ones) with a wrapper that records a span: name, start, end
and the index of the enclosing span.  cli, attack and detector import
functions by name, so a function is replaced in every pgclab module that
holds it, not only where it is defined.  Private helpers such as _blur are
looked up in their own module's globals at call time, so replacing them
there is enough.  uninstall() puts every original back.

Work a wrapper does to count things (hashing an image, say) is recorded as
a "trace.hook" span of its own, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("codegen", "channel", "nn", "attack", "detector", "imgio", "cli")
# Private helpers that are traced, with the name their span gets.
PRIVATE = {
    "channel": {"_blur": "blur", "_dilate": "dilate"},
    "nn": {"_forward_acts": "forward_acts", "_grads_from_acts": "grads"},
    "cli": {"_write_csv": "write_csv"},
}
# The verb span cli.<verb> wraps cli.main, so main and the cmd_* bodies
# are the verb itself and get no span of their own.
UNTRACED = {"cli": ("main", "cmd_")}

HOOK = "trace.hook"

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "channel.print_scan.calls": "count",
    "channel.print_scan.self_s": "s",
    "channel.print_scan.ms_p50": "ms",
    "channel.print_scan.ms_tail": "ms",
    "channel.print_scan.unique_ratio": "ratio",
    "channel.blur.s": "s",
    "channel.dilate.s": "s",
    "channel.blur.madds_computed": "madd",
    "channel.share_of_gen_roc": "ratio",
    "nn.train_step.calls": "count",
    "nn.train_step.ms_p50": "ms",
    "nn.train_step.ms_tail": "ms",
    "nn.forward_acts.s": "s",
    "nn.grads.s": "s",
    "nn.loss_and_grads.self_s": "s",
    "nn.optimizer_step.s": "s",
    "nn.batch_loss.s": "s",
    "nn.forward.s": "s",
    "nn.save_model.s": "s",
    "nn.load_model.s": "s",
    "nn.train_step.flops_computed": "flop",
    "nn.optimizer_step.bytes_computed": "B",
    "nn.share_of_train": "ratio",
    "attack.build_dataset.s": "s",
    "attack.save_dataset.s": "s",
    "attack.load_dataset.s": "s",
    "attack.calibrate_threshold.s": "s",
    "attack.calibrate_pixel_threshold.s": "s",
    "attack.estimate_grey.s": "s",
    "attack.baseline_thr.s": "s",
    "attack.split_arrays.s": "s",
    "attack.split_arrays.calls": "count",
    "attack.split_arrays.unique_ratio": "ratio",
    "attack.calibrate_grid.s": "s",
    "attack.calibrate_grid.calls": "count",
    "attack.calibrate_grid.values": "count",
    "attack.train_attack.self_s": "s",
    "detector.score_experiment.self_s": "s",
    "detector.pearson.s": "s",
    "detector.pearson.calls": "count",
    "detector.hamming_norm.s": "s",
    "detector.hamming_norm.calls": "count",
    "detector.roc.s": "s",
    "detector.auc.s": "s",
    "detector.pd_at_pfa.s": "s",
    "codegen.generate_module_matrix.s": "s",
    "codegen.render.s": "s",
    "codegen.split_blocks.s": "s",
    "codegen.assemble_blocks.s": "s",
    "codegen.ink_intensity.s": "s",
    "codegen.binarize.s": "s",
    "codegen.modules_from_pixels.s": "s",
    **{
        f"imgio.{fn}.{what}": unit
        for fn in ("write_pgm", "read_pgm", "write_pbm", "read_pbm")
        for what, unit in (("s", "s"), ("calls", "count"), ("bytes", "B"))
    },
    "cli.load_config.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_roc_svg.s": "s",
    **{f"cli.{verb}.self_s": "s" for verb in ("gen", "train", "attack", "roc")},
    "trace.overhead_ratio": "ratio",
}


def tail_value(values: list[float]) -> float:
    """The value with ten samples above it (the median below 21 samples).

    That is the highest percentile a sample of this size can estimate.
    """
    ordered = sorted(values, reverse=True)
    if len(ordered) < 21:
        return statistics.median(ordered)
    return ordered[10]


# ---------------------------------------------------------------- hooks
# Each hook gets (tracer, span record, bound arguments, result).

def _print_scan_hook(tr, rec, a, result):
    img = a["img"]
    key = (hashlib.blake2b(img.pixels.tobytes(), digest_size=16).digest(),
           img.pixels.shape, img.pixels.dtype.str, img.domain, a["params"], a["seed"])
    tr.distinct["channel.print_scan"].add((tr.verb_index, key))


def _blur_hook(tr, rec, a, result):
    # Kernel truncated at floor(3 sigma): 2r + 1 taps, one pass per axis.
    radius = int(math.floor(3.0 * a["sigma"]))
    if radius:
        tr.counts["channel.blur.madds"] += 2 * (2 * radius + 1) * a["values"].size


def _split_arrays_hook(tr, rec, a, result):
    tr.distinct["attack.split_arrays"].add((tr.verb_index, a["printer"], a["tag"]))


def _calibrate_grid_hook(tr, rec, a, result):
    tr.counts["attack.calibrate_grid.values"] += int(getattr(a["values"], "size", 0))


def _loss_and_grads_hook(tr, rec, a, result):
    # Matmul FLOPs of one step: forward, weight gradients, and the input
    # gradient of every layer but the first.
    m, n = a["m"], len(a["batch_x"])
    sizes = [spec.in_dim * spec.out_dim for spec in m.layers]
    tr.counts["nn.train_step.flops"] += 2 * n * (2 * sum(sizes) + sum(sizes[1:]))
    tr.step_start = rec[1]


def _optimizer_step_hook(tr, rec, a, result):
    # Adam reads parameter, gradient and both moments and writes back
    # parameter and both moments: 7 array passes over the parameters.
    m = a["m"]
    nbytes = sum(p.nbytes for p in m.weights) + sum(p.nbytes for p in m.biases)
    tr.counts["nn.optimizer_step.bytes"] += 7 * nbytes
    if tr.step_start is not None:
        tr.samples["nn.train_step"].append(rec[2] - tr.step_start)
        tr.step_start = None


def _file_bytes_hook(tr, rec, a, result):
    tr.counts[f"{rec[0]}.bytes"] += os.path.getsize(a["path"])


HOOKS = {
    "channel.print_scan": _print_scan_hook,
    "channel.blur": _blur_hook,
    "attack.split_arrays": _split_arrays_hook,
    "attack.calibrate_grid": _calibrate_grid_hook,
    "nn.loss_and_grads": _loss_and_grads_hook,
    "nn.optimizer_step": _optimizer_step_hook,
    **{f"imgio.{fn}": _file_bytes_hook
       for fn in ("write_pgm", "read_pgm", "write_pbm", "read_pbm")},
}


class Tracer:
    """In-memory spans and counters for one traced round at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.verb_index = -1
        self.reset()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.samples: defaultdict = defaultdict(list)
        self.step_start = None

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def verb(self, verb: str, call):
        """Run call() as the root span cli.<verb>."""
        self.verb_index += 1
        rec = self._open(f"cli.{verb}")
        try:
            return call()
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                h = [HOOK, perf_counter(), 0.0, rec[3]]
                hook(self, rec, sig.bind(*args, **kwargs).arguments, result)
                h[2] = perf_counter()
                self.spans.append(h)
            return result

        return wrapper

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items() if n == "pgclab" or n.startswith("pgclab.")]
        for layer in LAYERS:
            mod = sys.modules[f"pgclab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = PRIVATE.get(layer, {}).get(attr) if attr.startswith("_") else attr
                if label is None or attr.startswith(UNTRACED.get(layer, ())):
                    continue
                wrapper = self._wrap(f"{layer}.{label}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._patches.append((holder, name, fn))

    def uninstall(self) -> None:
        while self._patches:
            holder, name, fn = self._patches.pop()
            setattr(holder, name, fn)


# ---------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Raises ValueError when a child lies outside its parent or a self
    time is negative (overlapping siblings), since then the sums mean
    nothing.
    """
    covered = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[1] or end > p[2]:
                raise ValueError(f"span {i} {name} is not inside its parent {p[0]}")
            covered[parent] += end - start
    out = [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]
    for i, s in enumerate(out):
        if s < -1e-9:
            raise ValueError(f"span {i} {spans[i][0]} has negative self time {s}")
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of the root (verb) span above each span."""
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def layer_metrics(tr: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of the round the tracer holds, and a breakdown of
    each verb's wall time by layer (self seconds)."""
    spans = tr.spans
    selfs = self_times(spans)
    top = roots(spans)
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    durations = defaultdict(list)
    by_verb: dict[str, Counter] = defaultdict(Counter)
    wall: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        self_by_name[name] += selfs[i]
        calls[name] += 1
        durations[name].append(end - start)
        verb = spans[top[i]][0]
        if not verb.startswith("cli."):
            raise ValueError(f"span {name} ran outside any verb")
        by_verb[verb][name.split(".")[0]] += selfs[i]
        if parent < 0:
            wall[verb] += end - start

    def share(layer: str, verbs: tuple[str, ...]) -> float:
        total = sum(wall[f"cli.{v}"] for v in verbs)
        return sum(by_verb[f"cli.{v}"][layer] for v in verbs) / total if total else 0.0

    steps = tr.samples["nn.train_step"]
    scans = durations["channel.print_scan"]
    m = {}
    for metric in PER_LAYER:
        base, _, what = metric.rpartition(".")
        if what in ("s", "self_s"):
            m[metric] = self_by_name[base]
        elif what == "calls":
            m[metric] = len(steps) if base == "nn.train_step" else calls[base]
    m.update({
        "channel.print_scan.ms_p50": 1e3 * statistics.median(scans) if scans else 0.0,
        "channel.print_scan.ms_tail": 1e3 * tail_value(scans) if scans else 0.0,
        "channel.print_scan.unique_ratio": _ratio(len(tr.distinct["channel.print_scan"]), len(scans)),
        "channel.blur.madds_computed": _ratio(tr.counts["channel.blur.madds"], calls["channel.blur"]),
        "channel.share_of_gen_roc": share("channel", ("gen", "roc")),
        "nn.train_step.ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "nn.train_step.ms_tail": 1e3 * tail_value(steps) if steps else 0.0,
        "nn.train_step.flops_computed": _ratio(tr.counts["nn.train_step.flops"], len(steps)),
        "nn.optimizer_step.bytes_computed": _ratio(
            tr.counts["nn.optimizer_step.bytes"], calls["nn.optimizer_step"]),
        "nn.share_of_train": share("nn", ("train",)),
        "attack.split_arrays.unique_ratio": _ratio(
            len(tr.distinct["attack.split_arrays"]), calls["attack.split_arrays"]),
        "attack.calibrate_grid.values": tr.counts["attack.calibrate_grid.values"],
    })
    for fn in ("write_pgm", "read_pgm", "write_pbm", "read_pbm"):
        m[f"imgio.{fn}.bytes"] = tr.counts[f"imgio.{fn}.bytes"]
    breakdown = {
        verb: {"wall_s": wall[verb], "self_s_by_layer": dict(layers)}
        for verb, layers in by_verb.items()
    }
    return m, breakdown


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
