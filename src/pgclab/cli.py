"""Command-line front end: gen, train, attack, roc.

Every command is driven by one JSON config and writes its artifacts under
the config's out_dir.  Reruns with the same config produce byte-identical
files, so outputs can be diffed across machines.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import nn
from .attack import (
    ARCHS,
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    build_dataset,
    calibrate_pixel_threshold,
    calibrate_threshold,
    estimate_grey,
    load_dataset,
    split_arrays,
    stream_seed,
    train_attack,
)
from .channel import PRINTER_IDS, ChannelParams, parallel_map, preset, with_fields
from .codegen import (
    BYTE0_255,
    Geometry,
    ModuleMatrix,
    PixelImage,
    ink_intensity,
    render,
)
from .detector import (
    MEASURES,
    auc,
    pd_at_pfa,
    pearson_reference,
    reprint_scores,
    roc,
    score_print,
)
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    MissingInputError,
    PgcError,
    StateError,
    check_type,
)
from .imgio import read_pbm, write_pbm, write_pgm

# The paper's train/val/test split, for a config that gives none.
DEFAULT_SPLIT = (100, 50, 234)


@dataclass
class ExperimentConfig:
    out_dir: Path
    geometry: Geometry
    split_sizes: tuple[int, int, int]
    dataset_seed: int
    printers: dict[str, ChannelParams]
    arch: str
    train: nn.TrainConfig
    measures: list[str]
    target_pfa: list[float]
    plots: bool


# The keys of each section.  Absent geometry and training keys take the
# defaults of Geometry and TrainConfig, which check their own values.
_SECTIONS = {
    "geometry": [f.name for f in fields(Geometry)],
    "dataset": ["n_images", "split", "seed"],
    "training": ["arch", *(f.name for f in fields(nn.TrainConfig))],
    "evaluation": ["measures", "target_pfa", "plots"],
}


def _reject_unknown(raw: dict, known, where: str) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def load_config(path, out=None, seed=None, arch=None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    out, seed and arch, when given, override out_dir, both the dataset and
    training seeds, and training.arch.
    """
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise MissingInputError(f"no config file at {cfg_path}")
    with open(cfg_path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cfg_path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{cfg_path}: top level must be an object")
    try:
        return _parse_config(raw, out, seed, arch)
    except PgcError as exc:
        raise ConfigError(str(exc)) from None


def _parse_config(raw: dict, out, seed, arch) -> ExperimentConfig:
    """load_config's checks and overrides of a config's JSON object."""
    _reject_unknown(raw, {"out_dir", "printers", *_SECTIONS}, "config")
    sections = {}
    for section, known in _SECTIONS.items():
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"{section} must be an object")
        _reject_unknown(values, known, section)
        sections[section] = values

    geometry = Geometry(**sections["geometry"])

    ds = sections["dataset"]
    if "n_images" not in ds:
        raise ConfigError("dataset.n_images is required")
    n_images = check_type("dataset.n_images", ds["n_images"], int)
    if n_images < 1:
        raise ConfigError("dataset.n_images must be >= 1")
    # null stands for an absent split.
    split = ds.get("split")
    if split is None:
        if n_images != sum(DEFAULT_SPLIT):
            raise ConfigError(f"dataset.split is required when n_images != {sum(DEFAULT_SPLIT)}")
        split = DEFAULT_SPLIT
    elif isinstance(split, list) and len(split) == 3:
        split = tuple(check_type("dataset.split", s, int) for s in split)
    else:
        raise ConfigError("dataset.split must be a list of three counts")
    if any(s < 0 for s in split):
        raise ConfigError("dataset.split counts must be >= 0")
    if sum(split) != n_images:
        raise ConfigError(
            f"dataset.split must sum to dataset.n_images ({sum(split)} != {n_images})"
        )
    dataset_seed = check_type("dataset.seed", ds.get("seed", 0), int)
    if dataset_seed < 0:
        raise ConfigError("dataset.seed must be >= 0")

    printers_raw = raw.get("printers", list(PRINTER_IDS))
    if not (isinstance(printers_raw, list) and printers_raw):
        raise ConfigError("printers must be a non-empty list")
    printers: dict[str, ChannelParams] = {}
    for i, entry in enumerate(printers_raw):
        if isinstance(entry, str):
            entry = {"id": entry}
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"printers[{i}] must be an id or an object with an id")
        _reject_unknown(entry, ("id", "overrides"), f"printers[{i}]")
        pid = check_type(f"printers[{i}].id", entry["id"], str)
        if pid in printers:
            raise ConfigError(f"printers: duplicate id {pid!r}")
        overrides = entry.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"printers[{i}].overrides must be an object, not {overrides!r}")
        try:
            printers[pid] = with_fields(preset(pid), overrides)
        except PgcError as exc:
            raise ConfigError(f"printers[{i}]: {exc}") from None

    training = sections["training"]
    training_arch = training.pop("arch", "bn")
    if training_arch not in ARCHS:
        raise ConfigError(f"training.arch must be one of {', '.join(ARCHS)}")
    train = nn.TrainConfig(**training)

    evaluation = sections["evaluation"]
    measures = check_type("evaluation.measures", evaluation.get("measures", list(MEASURES)), list)
    for m in measures:
        if not isinstance(m, str) or m not in MEASURES:
            raise ConfigError(f"evaluation.measures: unknown measure {m!r}")
    if not measures:
        raise ConfigError("evaluation.measures must name at least one measure")
    targets = evaluation.get("target_pfa", [0.0, 0.05, 0.1])
    # float() keeps the summary's header pd_at_pfa_0.0 for a target of 0.
    target_pfa = [float(check_type("evaluation.target_pfa", t, float))
                  for t in check_type("evaluation.target_pfa", targets, list)]
    for t in target_pfa:
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"evaluation.target_pfa: {t} outside [0, 1]")
    for key, values in (("measures", measures), ("target_pfa", target_pfa)):
        if len(set(values)) < len(values):
            raise ConfigError(f"evaluation.{key}: a value is named twice in {values!r}")

    if out is None:
        out = check_type("out_dir", raw.get("out_dir", ""), str)
    if not out:
        raise ConfigError("out_dir missing (set it in the config or pass --out)")
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed must be >= 0")
        dataset_seed = int(seed)
        train = replace(train, seed=int(seed))
    if arch is None:
        arch = training_arch
    elif arch not in ARCHS:
        raise ConfigError(f"--arch must be one of {', '.join(ARCHS)}")
    return ExperimentConfig(
        out_dir=Path(out),
        geometry=geometry,
        split_sizes=split,
        dataset_seed=dataset_seed,
        printers=printers,
        arch=arch,
        train=train,
        measures=list(measures),
        target_pfa=target_pfa,
        plots=check_type("evaluation.plots", evaluation.get("plots", False), bool),
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _dataset_dir(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "dataset"


def _model_path(cfg: ExperimentConfig, printer: str, arch: str) -> Path:
    return cfg.out_dir / "models" / f"{printer}_{arch}.pgcm"


def _estimate_dir(cfg: ExperimentConfig, printer: str, source: str) -> Path:
    return cfg.out_dir / "estimates" / f"{printer}_{source}"


def cmd_gen(cfg: ExperimentConfig) -> None:
    """Build the dataset and write it under out_dir/dataset.

    Each worker writes the scans it makes, so this process never holds
    them.
    """
    ds = build_dataset(
        cfg.split_sizes, cfg.geometry, cfg.printers, cfg.dataset_seed, _dataset_dir(cfg)
    )
    counts = ds.block_counts()
    print(
        f"gen: {ds.n_images} codes, printers {', '.join(ds.printers)}, "
        f"blocks {counts['train']}/{counts['val']}/{counts['test']} "
        f"(train/val/test) -> {_dataset_dir(cfg)}"
    )


def cmd_train(cfg: ExperimentConfig, printer: str) -> None:
    """Train and calibrate one model; write the model file and loss table."""
    ds = load_dataset(_dataset_dir(cfg), printer)
    train = split_arrays(ds, printer, SPLIT_TRAIN)
    val = split_arrays(ds, printer, SPLIT_VAL)
    del ds  # the epochs need only the cut splits
    model, history, kept = train_attack(train, val, cfg.arch, cfg.train)
    threshold = calibrate_threshold(model, val)
    model_path = _model_path(cfg, printer, cfg.arch)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    nn.save_model(model, threshold, model_path)
    _write_csv(
        model_path.with_name(f"{printer}_{cfg.arch}_loss.csv"),
        ["epoch", "loss"],
        [(e + 1, v) for e, v in enumerate(history)],
    )
    print(
        f"train: {cfg.arch} on {printer}, {cfg.train.epochs} epochs, "
        f"final loss {history[-1]:.6f}, kept-model val loss {kept:.6f}, "
        f"threshold {threshold:.2f} -> {model_path}"
    )


def _attack_job(job) -> dict[str, float]:
    """Score one test code's two estimates and write them as PBMs; returns
    each score under its metrics column, <measure>_<source>.

    Runs on parallel_map's workers, so it does no BLAS work: the model's
    grey estimate comes from the parent, and the Thr baseline reads the scan.
    """
    scans, i, original, grey, model_t, thr_t, mpx, model_path, thr_path = job
    ref = pearson_reference(render(original, mpx).pixels)
    columns = {}
    for source, image, t, path in (("model", grey, model_t, model_path),
                                   ("thr", ink_intensity(scans[i]), thr_t, thr_path)):
        scores, _, decided = score_print(original, ref, image, t, mpx)
        write_pbm(decided, path)
        columns.update((f"{m}_{source}", s) for m, s in scores.items())
    return columns


# cmd_attack runs the forward passes of this many test codes, then scores
# them on the workers, so it holds at most this many grey estimates.
_ATTACK_WINDOW = 24


def cmd_attack(cfg: ExperimentConfig, printer: str) -> None:
    """Estimate test codes with the trained model and the Thr baseline.

    The model's forward passes run here, one test code and its scan at a
    time; the thresholding, votes, scores and PBM writes run on
    parallel_map's workers, which must not start BLAS thread pools.
    """
    ds = load_dataset(_dataset_dir(cfg), printer)
    test_idx = ds.indices(SPLIT_TEST)
    if not test_idx:
        raise StateError("empty test split")
    model_path = _model_path(cfg, printer, cfg.arch)
    if not model_path.exists():
        raise MissingInputError(f"no model file at {model_path}; run the train command first")
    model, threshold = nn.load_model(model_path)
    block_dim = ds.geometry.block_dim
    if model.in_dim != block_dim or model.out_dim != block_dim:
        raise DimensionError(
            f"{model_path} maps {model.in_dim} to {model.out_dim} values; "
            f"the geometry's blocks have {block_dim} pixels"
        )

    thr_t = calibrate_pixel_threshold(ds, printer)
    mpx = ds.geometry.module_px
    model_dir = _estimate_dir(cfg, printer, cfg.arch)
    thr_dir = _estimate_dir(cfg, printer, "thr")
    model_dir.mkdir(parents=True, exist_ok=True)
    thr_dir.mkdir(parents=True, exist_ok=True)

    scans = ds.scans[printer]
    scores = []
    for start in range(0, len(test_idx), _ATTACK_WINDOW):
        # A temporary list, so that one window's greys are freed before
        # the next window's forward passes.
        scores += parallel_map(_attack_job, [
            (scans, i, ds.originals[i], estimate_grey(model, scans[i], ds.geometry.block_px),
             threshold, thr_t, mpx,
             model_dir / f"est_{i:04d}.pbm", thr_dir / f"est_{i:04d}.pbm")
            for i in test_idx[start : start + _ATTACK_WINDOW]
        ])
    columns = list(scores[0])
    rows = [(i, *s.values()) for i, s in zip(test_idx, scores)]
    # Each column summed over the codes in test order.
    means = {c: sum(s[c] for s in scores) / len(test_idx) for c in columns}
    rows.append(("mean", *means.values()))
    report = cfg.out_dir / "reports" / f"{printer}_{cfg.arch}_metrics.csv"
    _write_csv(report, ["image", *columns], rows)
    versus = ", ".join(f"{m} {means[f'{m}_model']:.4f} vs thr {means[f'{m}_thr']:.4f}"
                       for m in MEASURES)
    print(f"attack: {printer}/{cfg.arch} on {len(test_idx)} test codes: "
          f"{versus} (thr t={thr_t:.2f}) -> {report}")


def _load_estimates(cfg: ExperimentConfig, ds, printer: str, source: str) -> list[ModuleMatrix]:
    """A source's estimates of ds's test codes, each with the codes' module grid."""
    est_dir = _estimate_dir(cfg, printer, source)
    shape = (ds.geometry.rows, ds.geometry.cols)
    estimates = []
    for i in ds.indices(SPLIT_TEST):
        path = est_dir / f"est_{i:04d}.pbm"
        if not path.exists():
            raise MissingInputError(f"no estimate at {path}; run the attack command first")
        estimate = read_pbm(path)
        if estimate.bits.shape != shape:
            raise FormatError(f"{path}: {estimate.bits.shape} modules (rows, cols), "
                              f"not the dataset's {shape}")
        estimates.append(estimate)
    return estimates


def cmd_roc(cfg: ExperimentConfig, printer: str) -> None:
    """Score re-prints of the estimates against authentic re-prints."""
    ds = load_dataset(_dataset_dir(cfg), printer)
    test_idx = ds.indices(SPLIT_TEST)
    if not test_idx:
        raise StateError("empty test split")
    originals = [ds.originals[i] for i in test_idx]
    defender_t = calibrate_pixel_threshold(ds, printer)
    # Keyed by dataset index; a code's two fake re-prints share their seed.
    auth_seeds = [stream_seed(ds.seed, "reprint-authentic", printer, i) for i in test_idx]
    fake_seeds = [stream_seed(ds.seed, "reprint-fake", printer, i) for i in test_idx]
    params = ds.channel_params[printer]
    mpx = ds.geometry.module_px
    reports = cfg.out_dir / "reports"
    sources = {s: _load_estimates(cfg, ds, printer, s) for s in (cfg.arch, "thr")}
    (authentic, *fakes), constant = reprint_scores(
        originals, list(sources.values()), auth_seeds, fake_seeds, params, mpx, defender_t)

    summary_rows = []
    curves_by_measure: dict[str, list] = {m: [] for m in cfg.measures}
    for (source, estimates), fake in zip(sources.items(), fakes):
        diff_dir = reports / "diff" / f"{printer}_{source}"
        diff_dir.mkdir(parents=True, exist_ok=True)
        for original, xhat, i in zip(originals, estimates, test_idx):
            diff = render(ModuleMatrix(original.bits != xhat.bits), mpx).pixels * 255
            write_pgm(PixelImage(diff, BYTE0_255), diff_dir / f"diff_{i:04d}.pgm")
        for measure in cfg.measures:
            _write_csv(
                reports / f"scores_{printer}_{source}_{measure}.csv",
                ["score", "label"],
                [(float(s), "authentic") for s in authentic[measure]]
                + [(float(s), "fake") for s in fake[measure]],
            )
            curve = roc(authentic[measure], fake[measure], measure)
            _write_csv(
                reports / f"roc_{printer}_{source}_{measure}.csv",
                ["gamma", "pd", "pfa"],
                curve,
            )
            area = auc(curve)
            summary_rows.append(
                (source, measure, area)
                + tuple(pd_at_pfa(curve, t) for t in cfg.target_pfa)
            )
            curves_by_measure[measure].append((source, curve))
    _write_csv(
        reports / f"summary_{printer}_{cfg.arch}.csv",
        ["fake_source", "measure", "auc"] + [f"pd_at_pfa_{t}" for t in cfg.target_pfa],
        summary_rows,
    )
    if cfg.plots:
        for measure, curves in curves_by_measure.items():
            write_roc_svg(
                reports / f"roc_{printer}_{measure}.svg",
                curves,
                f"{printer} re-prints, {measure} detector",
            )
    for row in summary_rows:
        print(f"roc: {printer} fakes from {row[0]}, {row[1]} AUC {row[2]:.4f}")
    counts = ", ".join(f"{n} {name}" for name, n in zip(("authentic", *sources), constant))
    print(f"roc: {printer} constant re-prints, each scored Pearson 0: {counts}")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def write_roc_svg(path: Path, curves, title: str) -> None:
    """Plot detection rate against false-acceptance rate, one line per
    (label, roc points) pair of curves."""
    w, h = 640, 480
    ml, mr, mt, mb = 60, 20, 40, 50

    def px(pfa: float) -> str:
        return f"{ml + pfa * (w - ml - mr):.2f}"

    def py(pd: float) -> str:
        return f"{h - mb - pd * (h - mt - mb):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="13">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.2f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for k in range(6):
        v = k / 5.0
        parts.append(
            f'<line x1="{px(v)}" y1="{py(0)}" x2="{px(v)}" y2="{py(1)}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{px(0)}" y1="{py(v)}" x2="{px(1)}" y2="{py(v)}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px(v)}" y="{h - mb + 18}" text-anchor="middle">{v:.1f}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{float(py(v)) + 4:.2f}" text-anchor="end">{v:.1f}</text>'
        )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(0)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(1)}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(ml + w - mr) / 2:.2f}" y="{h - 12}" text-anchor="middle">'
        "false acceptance rate</text>"
    )
    parts.append(
        f'<text x="16" y="{(mt + h - mb) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt + h - mb) / 2:.2f})">detection rate</text>'
    )
    for k, (label, curve) in enumerate(curves):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = sorted((pfa, pd) for _, pd, pfa in curve)
        coords = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        y = mt + 16 + 18 * k
        parts.append(
            f'<line x1="{w - mr - 150}" y1="{y}" x2="{w - mr - 120}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{w - mr - 112}" y="{y + 4}">fakes from {label}</text>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pgclab",
        description="Clone printed binary codes through a simulated print-scan "
        "channel and measure how well a similarity defender still spots the fakes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config (JSON)")
    common.add_argument("--out", help="output directory (overrides config out_dir)")
    common.add_argument("--seed", type=int, help="override dataset and training seeds")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[common], help="generate codes and simulated scans")
    for verb, doc in (
        ("train", "train a regeneration model for one printer"),
        ("attack", "estimate test codes and report regeneration accuracy"),
        ("roc", "score simulated re-prints and write ROC tables"),
    ):
        p = sub.add_parser(verb, parents=[common], help=doc)
        p.add_argument("--printer", required=True, help="printer id from the config")
        p.add_argument("--arch", choices=ARCHS, help="model architecture (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out=args.out, seed=args.seed,
                          arch=getattr(args, "arch", None))
        if args.command == "gen":
            cmd_gen(cfg)
        elif args.command == "train":
            cmd_train(cfg, args.printer)
        elif args.command == "attack":
            cmd_attack(cfg, args.printer)
        else:
            cmd_roc(cfg, args.printer)
    except PgcError as exc:
        print(f"pgclab: error [{exc.category}] {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pgclab: error [io] {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"pgclab: error [memory] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
