"""Attacker pipeline: dataset build, training, calibration, estimation.

Also the pixel-threshold calibration of the non-learning baseline.  All
randomness comes from stream_seed's keyed streams of the configured seeds,
so rebuilding a dataset or retraining a model reproduces every byte.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import imgio, nn
from .channel import ChannelParams, _strips, parallel_map, print_scans, with_fields
from .codegen import (
    BYTE0_255,
    UNIT_INTERVAL,
    Geometry,
    ModuleMatrix,
    PixelImage,
    assemble_blocks,
    generate_module_matrix,
    ink_intensity,
    render,
    split_blocks,
)
from .errors import (
    DimensionError,
    FormatError,
    MissingInputError,
    ParameterError,
    StateError,
    UnknownIdError,
    check_type,
)

SPLIT_TRAIN = "train"
SPLIT_VAL = "val"
SPLIT_TEST = "test"
SPLITS = (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)

# Each architecture's model builder, called with the block width and the
# "init" stream's seed.
_BUILDERS = {
    "fc2": lambda d, s: nn.build_fc(2, d, s),
    "fc3": lambda d, s: nn.build_fc(3, d, s),
    "fc4": lambda d, s: nn.build_fc(4, d, s),
    "bn": nn.build_bn,
}
ARCHS = tuple(_BUILDERS)

# What a random stream is drawn for, in the order stream_seed keys them.
PURPOSES = ("code", "scan", "reprint-authentic", "reprint-fake", "init", "shuffle")


def stream_seed(seed: int, purpose: str, printer: str = "", index: int = 0) -> int:
    """The first 128 bits of SeedSequence(seed) spawned with the key
    (purpose's place in PURPOSES, the little-endian int of the printer id's
    UTF-8 bytes, lone surrogates kept, index) (NEP 19).  Printer ids hold no
    NUL, so for indices below 2**32 distinct keys give distinct streams."""
    printer_key = int.from_bytes(printer.encode(errors="surrogatepass"), "little")
    seq = np.random.SeedSequence(seed, spawn_key=(PURPOSES.index(purpose), printer_key, index))
    return int.from_bytes(seq.generate_state(4).astype("<u4").tobytes(), "little")


@dataclass
class PairedDataset:
    """Original codes paired with their simulated scans.

    The splits are by index order: the first split_sizes[0] codes train,
    the next split_sizes[1] validate, the rest test.  channel_params names
    every printer of the dataset; scans holds load_dataset's ScanList, which
    reads a scan when used, for one of them, or none (see build_dataset).
    The split sizes, seed and printer ids are checked when the dataset is
    made; the originals and scans are filled in after.
    """

    geometry: Geometry
    seed: int
    split_sizes: tuple[int, int, int]
    originals: list[ModuleMatrix]
    scans: dict[str, ScanList]
    channel_params: dict[str, ChannelParams]

    def __post_init__(self):
        sizes = self.split_sizes
        if not (isinstance(sizes, tuple) and len(sizes) == 3):
            raise ParameterError(f"split_sizes must be three counts, not {sizes!r}")
        for name, value in [("split_sizes", s) for s in sizes] + [("seed", self.seed)]:
            if check_type(name, value, int) < 0:
                raise ParameterError(f"{name} must be an integer >= 0, not {value!r}")
        if sum(sizes) < 1:
            raise ParameterError("split_sizes must count at least one code")
        if not self.channel_params:
            raise ParameterError("a dataset must name at least one printer")
        for pid in self.channel_params:
            # A printer id names its scans' directory and keys its streams.
            if pid in ("", ".", "..") or any(c in pid for c in "/\\\0"):
                raise ParameterError(f"printer id {pid!r} is not a plain file name")

    @property
    def n_images(self) -> int:
        return sum(self.split_sizes)

    @property
    def printers(self) -> tuple[str, ...]:
        return tuple(sorted(self.channel_params))

    def indices(self, tag: str) -> list[int]:
        if tag not in SPLITS:
            raise ParameterError(f"unknown split tag {tag!r}")
        k = SPLITS.index(tag)
        start = sum(self.split_sizes[:k])
        return list(range(start, start + self.split_sizes[k]))

    def rendered_original(self, i: int) -> PixelImage:
        return render(self.originals[i], self.geometry.module_px)

    def block_counts(self) -> dict[str, int]:
        per = self.geometry.blocks_per_image
        return {tag: len(self.indices(tag)) * per for tag in SPLITS}


def _scan_job(job) -> None:
    """Scan one code and write the scan to the job's path."""
    code, module_px, params, seed, path = job
    imgio.write_pgm(print_scans([render(code, module_px)], params, seed)[0], path)


def build_dataset(
    split_sizes: tuple[int, int, int],
    geometry: Geometry,
    printer_params: dict[str, ChannelParams],
    seed: int,
    out_dir,
) -> PairedDataset:
    """Generate codes, render them, scan each through every printer, and
    write the dataset under out_dir, each file where _manifest puts it.

    The scans run on parallel_map's workers, each seeded by its own
    ("scan", printer, index) stream, and each worker writes the scans it
    makes, so the scans never reach this process: the dataset returned
    holds the originals and no scan.  The splits are by index order (see
    PairedDataset), which checks the arguments before anything is touched.
    An earlier manifest in out_dir is deleted before anything is written
    and the new one is written after every scan, so a build that fails
    leaves none.
    """
    ds = PairedDataset(geometry, seed, split_sizes, [], {}, dict(printer_params))
    out = Path(out_dir)
    (out / MANIFEST_NAME).unlink(missing_ok=True)
    (out / "originals").mkdir(parents=True, exist_ok=True)
    ds.originals = [
        generate_module_matrix(stream_seed(seed, "code", index=i), geometry.rows, geometry.cols)
        for i in range(ds.n_images)
    ]
    for i, m in enumerate(ds.originals):
        imgio.write_pbm(m, out / _original_rel(i))
    for pid in ds.printers:
        (out / "scans" / pid).mkdir(parents=True, exist_ok=True)
    # Each path is a str, not a Path: at the paper's 1536 scans, Path
    # objects raised every forked worker's peak by 0.6 MB.
    jobs = [
        (ds.originals[i], geometry.module_px, printer_params[pid],
         stream_seed(seed, "scan", pid, i), str(out / _scan_rel(pid, i)))
        for pid in ds.printers
        for i in range(ds.n_images)
    ]
    parallel_map(_scan_job, jobs)
    # Written last, so a dataset with a manifest is whole.
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(_manifest(ds), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ds


def split_arrays(ds: PairedDataset, printer: str, tag: str):
    """Stacked (inputs, targets) block arrays for one printer and split.

    Inputs are the scan blocks in the scans' own uint8 luminance bytes,
    shape (n_blocks, block_px ** 2).  Targets are the matching rendered
    original blocks, each packed along its row with np.packbits, shape
    (n_blocks, ceil(block_px ** 2 / 8)).  network_rows turns rows of both
    into the network's input and 0/1 targets, so callers hold those forms
    only a batch or a row block at a time.
    """
    if printer not in ds.scans:
        raise UnknownIdError(f"printer {printer!r} not in dataset")
    idx = ds.indices(tag)
    bpx = ds.geometry.block_px
    per = ds.geometry.blocks_per_image
    dim = ds.geometry.block_dim
    x = np.empty((0, dim), np.uint8)
    t = np.empty((0, (dim + 7) // 8), np.uint8)
    for k, i in enumerate(idx):
        scan = ds.scans[printer][i]
        if k == 0:
            # Sized once a scan has matched the geometry: a manifest's
            # geometry alone could ask for any size.
            x = np.empty((len(idx) * per, dim), np.uint8)
            t = np.empty((len(idx) * per, (dim + 7) // 8), np.uint8)
        rows = slice(k * per, (k + 1) * per)
        x[rows] = split_blocks(scan, bpx)
        t[rows] = np.packbits(split_blocks(ds.rendered_original(i), bpx), axis=1)
    return x, t


def network_rows(x: np.ndarray, t: np.ndarray):
    """Rows of split_arrays' (inputs, targets) as the network's input, the
    float32 ink intensity of the scan bytes, and its uint8 0/1 targets."""
    ink = ink_intensity(PixelImage(x, BYTE0_255)).pixels
    return ink, np.unpackbits(t, axis=1, count=x.shape[1])


def train_attack(train, val, arch: str, cfg: nn.TrainConfig):
    """Train one regenerator; returns (model, per-epoch mean loss, the kept
    model's validation loss).

    train and val are the training and validation splits' (inputs, targets)
    from split_arrays; an empty one raises StateError before a model is
    built.  Runs all configured epochs but keeps the parameters from the
    epoch with the lowest validation loss (earliest such epoch on ties).
    Squared-error against hard 0/1 targets pushes logits toward saturation
    as the fit becomes exact, and in float32 a late Adam step can tip the
    network into a frozen all-saturated state; restoring the best snapshot
    makes the outcome independent of where in the schedule that happens.

    The splits stay in split_arrays' forms: network_rows turns each
    training batch into the network's input and targets as it is
    gathered, and the validation loss does so one row block at a time.
    """
    if arch not in _BUILDERS:
        raise ParameterError(f"unknown arch {arch!r} (known: {', '.join(ARCHS)})")
    x, t = train
    xv, tv = val
    n = x.shape[0]
    if n == 0:
        raise StateError("empty train split")
    if xv.shape[0] == 0:
        raise StateError("empty validation split")

    model = _BUILDERS[arch](x.shape[1], stream_seed(cfg.seed, "init"))
    state = nn.init_adam(model)
    shuffle_rng = np.random.default_rng(stream_seed(cfg.seed, "shuffle"))
    history = []
    best_val = None
    # The best epoch's parameters, copied into buffers allocated once.
    params = model.weights + model.biases
    best_params = [np.empty_like(p) for p in params]
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            value, gw, gb = nn.loss_and_grads(model, *network_rows(x[sel], t[sel]), cfg)
            nn.optimizer_step(model, (gw, gb), state, cfg)
            del gw, gb  # freed before the next step makes its own
            total += value * len(sel)
        history.append(total / n)
        val_loss = nn.batch_loss(model, xv, tv, prep=network_rows)
        if best_val is None or val_loss < best_val:
            best_val = val_loss
            for dst, p in zip(best_params, params):
                np.copyto(dst, p)
    for p, src in zip(params, best_params):
        np.copyto(p, src)
    return model, history, best_val


def threshold_grid() -> np.ndarray:
    """The 101-point calibration grid 0.00, 0.01, ..., 1.00."""
    return np.arange(101, dtype=np.float64) / 100.0


def _grid_errors(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The bit disagreements at each grid point, as integers.

    values are reals in [0, 1], targets the binary truth; a value counts as
    1 when >= t, compared in float64.  Sort-and-count (Fawcett 2006): each
    class is sorted once, in the values' own float dtype, and searched at
    every grid point.  The errors at t are the 0-targets at or above t plus
    the 1-targets below it; sorting puts NaNs last, the search at inf counts
    the numbers before them, and a NaN is never >= t.  Equals sweeping every
    grid point exactly.  The counts are integers, so those of separate
    pieces of the values add up to the counts of the whole.
    """
    values = np.asarray(values)
    targets = np.asarray(targets).astype(bool)
    if values.shape != targets.shape:
        raise ParameterError("values and targets shapes differ")
    v, tb = values.ravel(), targets.ravel()
    zeros, ones = np.compress(~tb, v), np.compress(tb, v)
    zeros.sort()
    ones.sort()
    grid = threshold_grid()
    errors = np.searchsorted(zeros, np.inf, side="right") - np.searchsorted(zeros, grid)
    errors += np.searchsorted(ones, grid) + ones.size - np.searchsorted(ones, np.inf, side="right")
    return errors


def _grid_argmin(errors: np.ndarray, total: int):
    """The grid point with the fewest errors, the smallest on ties, and its
    error rate."""
    if total == 0:
        raise StateError("nothing to calibrate on")
    k = int(np.argmin(errors))
    return float(threshold_grid()[k]), int(errors[k]) / total


def calibrate_threshold(model: nn.MlpModel, val) -> float:
    """The model's output threshold, picked on the validation split.

    val is that split's (inputs, targets) from split_arrays.  The model
    runs over the split's nn.row_blocks and the errors at each grid point
    are added up block by block, so the peak does not grow with the split;
    the counts are exact, so the threshold is the grid point with the
    fewest errors on the whole output, the smallest on ties.
    """
    x, t = val
    if x.shape[0] == 0:
        raise StateError("empty validation split")
    errors = 0
    for lo, hi in nn.row_blocks(x.shape[0]):
        xb, tb = network_rows(x[lo:hi], t[lo:hi])
        errors += _grid_errors(nn.forward(model, xb), tb)
    best_t, _ = _grid_argmin(errors, x.size)
    return best_t


def calibrate_pixel_threshold(ds: PairedDataset, printer: str) -> float:
    """Calibrate a raw ink-intensity threshold on the validation scans.

    Same grid and criterion as calibrate_threshold, applied to pixels
    instead of model outputs.  Also serves as the defender's calibration,
    which only ever sees authentic prints.  A scan holds only 256 ink
    levels, so its pixels are counted per (target bit, byte) instead of
    sorted one by one, and the errors at each grid point are counted
    straight from that 2x256 table: the 0-target pixels of the levels at or
    above t plus the 1-target pixels of the levels below it, compared in
    float64 as _grid_errors compares.
    """
    if printer not in ds.scans:
        raise UnknownIdError(f"printer {printer!r} not in dataset")
    idx = ds.indices(SPLIT_VAL)
    if not idx:
        raise StateError("empty validation split")
    counts = np.zeros(512, np.int64)
    for i in idx:
        # The scan is read, and checked against the geometry, before the
        # original is rendered at that geometry.
        scan = ds.scans[printer][i].pixels
        bits = ds.rendered_original(i).pixels
        # Per strip: np.bincount copies its input to intp, 8 bytes a pixel.
        for rows in _strips(len(scan)):
            key = bits[rows].astype(np.uint16)
            key <<= 8
            key |= scan[rows]
            counts += np.bincount(key.ravel(), minlength=512)
    levels = ink_intensity(PixelImage(np.arange(256, dtype=np.uint8)[None], BYTE0_255))
    ge = levels.pixels[0, :, None] >= threshold_grid()
    zeros, ones = counts.reshape(2, 256)
    best_t, _ = _grid_argmin(zeros @ ge + ones @ ~ge, int(counts.sum()))
    return best_t


def estimate_grey(model: nn.MlpModel, scan: PixelImage, block_px: int) -> PixelImage:
    """The model's real-valued reconstruction of a byte0_255 luminance
    scan, as one image."""
    # ink is held until the return: freeing it before the forward pass
    # measured about 10% slower cmd_attack runs for the same work.
    ink = ink_intensity(scan)
    out = nn.forward(model, split_blocks(ink, block_px))
    return assemble_blocks(out, ink.pixels.shape, block_px, UNIT_INTERVAL)


MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1


def _original_rel(i: int) -> str:
    return f"originals/code_{i:04d}.pbm"


def _scan_rel(pid: str, i: int) -> str:
    return f"scans/{pid}/scan_{i:04d}.pgm"


def _manifest(ds: PairedDataset) -> dict:
    """The manifest build_dataset writes for ds: its geometry, seed, split
    sizes and printers, each code's split tag, and the relative path of
    every original and scan.  The one definition of the dataset on disk."""
    n = ds.n_images
    return {
        "format_version": _MANIFEST_VERSION,
        "geometry": asdict(ds.geometry),
        "seed": ds.seed,
        "split_sizes": list(ds.split_sizes),
        "split": [tag for tag, size in zip(SPLITS, ds.split_sizes) for _ in range(size)],
        "printers": {pid: asdict(p) for pid, p in ds.channel_params.items()},
        "originals": [_original_rel(i) for i in range(n)],
        "scans": {pid: [_scan_rel(pid, i) for i in range(n)] for pid in ds.printers},
    }


def _manifest_paths(rels: list[str], root: Path, manifest_path: Path) -> list[str]:
    """Relative paths as real paths, each under root.

    Each path's directory is resolved once for all of its files, and a
    file that is a symbolic link resolved on its own; the returned path is
    the one checked, and the one read.  The paths are those _manifest
    builds from plain printer ids, but a canonical file or scans/<pid>
    directory may be a link out of root.
    """
    base = os.path.realpath(root)
    prefix = os.path.join(base, "")
    real_dirs: dict[str, str] = {}
    paths = []
    for rel in rels:
        head, name = os.path.split(os.path.join(base, rel))
        if head not in real_dirs:
            real_dirs[head] = os.path.realpath(head)
        path = os.path.join(real_dirs[head], name)
        if os.path.islink(path):
            path = os.path.realpath(path)
        if not path.startswith(prefix):
            raise FormatError(f"{manifest_path}: path {rel!r} lies outside {root}")
        paths.append(path)
    return paths


def _read_image(read, path: str, manifest_path: Path):
    try:
        return read(path)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingInputError(
            f"{manifest_path} names {exc.filename}, which is not a file"
        ) from None


class ScanList:
    """One printer's scans as load_dataset found them: each index reads its
    scan's file again, and checks the scan's size against the geometry.
    An index past the last scan raises IndexError, which ends iteration."""

    def __init__(self, paths: list[str], geometry: Geometry, manifest_path: Path):
        self._paths = paths
        self._geometry = geometry
        self._manifest_path = manifest_path

    def __getitem__(self, i) -> PixelImage:
        path, g = self._paths[operator.index(i)], self._geometry
        scan = _read_image(imgio.read_pgm, path, self._manifest_path)
        if scan.pixels.shape != (g.image_height, g.image_width):
            raise FormatError(f"{self._manifest_path} names {path}, whose size does not match {g}")
        return scan


def load_dataset(in_dir, printer: str) -> PairedDataset:
    """Read a dataset written by build_dataset, with one printer's scans.

    The manifest must be exactly the one build_dataset writes for the
    geometry, seed, split sizes and printers it names; FormatError names
    the top-level keys that differ.  Every original is read, and no scan:
    the printer's scans are a ScanList, but every one must be a file
    already, so a missing one ends in MissingInputError here.  printers
    still names every printer in the manifest.
    """
    root = Path(in_dir)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise MissingInputError(
            f"no dataset manifest at {manifest_path}; run the gen command first"
        )
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{manifest_path}: not valid JSON ({exc})") from None
    try:
        version = manifest["format_version"]
        if type(version) is not int or version != _MANIFEST_VERSION:
            raise FormatError(f"{manifest_path}: unsupported manifest version {version!r}")
        ds = PairedDataset(
            Geometry(**manifest["geometry"]),
            manifest["seed"],
            tuple(manifest["split_sizes"]),
            [],
            {},
            {pid: with_fields(ChannelParams(), p) for pid, p in manifest["printers"].items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError, DimensionError,
            ParameterError) as exc:
        raise FormatError(f"{manifest_path}: malformed manifest ({exc})") from None
    # Each code's split tag and paths take bytes of a manifest that lists
    # them, so this bounds the manifest rebuilt below by the file's size.
    if ds.n_images * (len(ds.channel_params) + 2) > manifest_path.stat().st_size:
        raise FormatError(
            f"{manifest_path}: split_sizes count more codes than the file can list"
        )
    expected = _manifest(ds)
    if manifest != expected:
        differ = sorted(k for k in manifest.keys() | expected.keys()
                        if k not in manifest or k not in expected or manifest[k] != expected[k])
        raise FormatError(
            f"{manifest_path}: not the manifest gen writes (differs in {', '.join(differ)})"
        )
    if printer not in ds.channel_params:
        raise UnknownIdError(f"printer {printer!r} not in dataset")
    geometry = ds.geometry
    original_paths = _manifest_paths(expected["originals"], root, manifest_path)
    scan_paths = _manifest_paths(expected["scans"][printer], root, manifest_path)
    ds.originals = [_read_image(imgio.read_pbm, path, manifest_path) for path in original_paths]
    if any(m.bits.shape != (geometry.rows, geometry.cols) for m in ds.originals):
        raise FormatError(f"{manifest_path}: an original's size does not match {geometry}")
    missing = [path for path in scan_paths if not os.path.isfile(path)]
    if missing:
        raise MissingInputError(f"{manifest_path} names {missing[0]}, which is not a file")
    ds.scans = {printer: ScanList(scan_paths, geometry, manifest_path)}
    return ds
