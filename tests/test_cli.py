import copy
import json
import math
import multiprocessing
import os
import re
import shutil
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgclab import attack, cli, detector, nn
from pgclab.attack import (
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    calibrate_pixel_threshold,
    estimate_grey,
    load_dataset,
    stream_seed,
)
from pgclab.cli import (
    DEFAULT_SPLIT,
    _dataset_dir,
    _estimate_dir,
    _load_estimates,
    _model_path,
    _write_csv,
    cmd_gen,
    load_config,
    main,
    write_roc_svg,
)
from pgclab.channel import parallel_map, preset, print_scan
from pgclab.codegen import (
    BYTE0_255,
    Geometry,
    ModuleMatrix,
    PixelImage,
    binarize,
    ink_intensity,
    modules_from_pixels,
    render,
)
from pgclab.detector import (
    auc,
    hamming_norm,
    pd_at_pfa,
    pearson,
    reprint_scores,
    roc,
)
from pgclab.errors import ConfigError, DomainError, MissingInputError, PgcError
from pgclab.imgio import write_pbm, write_pgm


BASE = {
    "out_dir": None,  # filled per test
    "geometry": {"rows": 24, "cols": 24, "module_px": 6, "block_px": 24},
    "dataset": {"n_images": 6, "split": [4, 1, 1], "seed": 5},
    "printers": ["SA"],
    "training": {
        "arch": "bn",
        "epochs": 2,
        "batch_size": 128,
        "learning_rate": 1e-3,
        "seed": 1,
    },
    "evaluation": {
        "measures": ["pearson", "hamming"],
        "target_pfa": [0.0, 0.1],
        "plots": True,
    },
}


def write_cfg(tmp_path, mutate=None, name="cfg.json"):
    cfg = copy.deepcopy(BASE)
    cfg["out_dir"] = str(tmp_path / "run")
    if mutate:
        mutate(cfg)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------- config

def test_load_config_minimal_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"out_dir": str(tmp_path / "o"), "dataset": {"n_images": 384}}))
    cfg = load_config(p)
    assert cfg.split_sizes == DEFAULT_SPLIT
    assert sorted(cfg.printers) == ["CA", "HP", "LX", "SA"]
    assert cfg.arch == "bn"
    assert cfg.measures == ["pearson", "hamming"]
    assert cfg.plots is False


def test_load_config_overrides(tmp_path):
    p = write_cfg(tmp_path)
    cfg = load_config(p, out=str(tmp_path / "elsewhere"), seed=99, arch="fc2")
    assert cfg.out_dir.name == "elsewhere"
    assert cfg.dataset_seed == 99
    assert cfg.train.seed == 99
    assert cfg.arch == "fc2"
    with pytest.raises(ConfigError, match="--arch"):
        load_config(p, arch="cnn")


def test_load_config_printer_overrides(tmp_path):
    p = write_cfg(tmp_path, lambda c: c.update(
        printers=[{"id": "SA", "overrides": {"noise_sigma": 0.2}}]))
    cfg = load_config(p)
    assert cfg.printers["SA"].noise_sigma == 0.2


def test_load_config_missing_file(tmp_path):
    with pytest.raises(MissingInputError):
        load_config(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.update(extra=1), "extra"),
        (lambda c: c["dataset"].pop("n_images"), "dataset.n_images"),
        (lambda c: c["dataset"].update(n_images=0), "dataset.n_images"),
        (lambda c: c["dataset"].update(split=[4, 1]), "dataset.split"),
        (lambda c: c["dataset"].update(split=[4, 1, 2]), "dataset.split"),
        (lambda c: c["dataset"].update(split=[-1, 6, 1]), "dataset.split"),
        (lambda c: (c["dataset"].pop("split"), c["dataset"].update(n_images=9)), "dataset.split"),
        (lambda c: c["dataset"].update(seed=-1), "dataset.seed"),
        (lambda c: c["dataset"].update(shuffle=True), "dataset"),
        (lambda c: c.update(printers=[]), "printers"),
        (lambda c: c.update(printers=["SA", "SA"]), "printers"),
        (lambda c: c.update(printers=["ZZ"]), r"printers\[0\]"),
        (lambda c: c.update(printers=[{"id": "SA", "speed": 9}]), r"printers\[0\]"),
        (lambda c: c.update(printers=[{"id": "SA", "overrides": {"noise_sigma": -1}}]), r"printers\[0\]"),
        *[
            (lambda c, key=key, v=v: c.update(printers=[{"id": "SA", "overrides": {key: v}}]),
             rf"printers\[0\]: {key} must be finite")
            for key in ("noise_sigma", "gain", "psf_sigma")
            for v in (math.nan, math.inf, -math.inf)
        ],
        *[
            (lambda c, v=v: c.update(printers=[{"id": "SA", "overrides": v}]),
             r"printers\[0\]\.overrides must be an object")
            for v in (None, False, "", 0, [], [1])
        ],
        *[
            (lambda c, key=key, v=v: c["training"].update({key: v}), rf"training\.{key} must be a finite")
            for key in ("learning_rate", "lam")
            for v in (math.nan, math.inf, -math.inf)
        ],
        (lambda c: c["evaluation"].update(target_pfa=[math.nan]), "evaluation.target_pfa"),
        (lambda c: c["training"].update(arch="cnn"), "training.arch"),
        (lambda c: c["training"].update(epochs=0), "training"),
        (lambda c: c["training"].update(lam=0.1, regularizer="none"), "training: lam 0.1"),
        (lambda c: c["training"].update(momentum=0.9), "training"),
        (lambda c: c["evaluation"].update(measures=["cosine"]), "evaluation.measures"),
        (lambda c: c["evaluation"].update(target_pfa=[1.5]), "evaluation.target_pfa"),
        (lambda c: c["geometry"].update(block_px=25), "block"),
        (lambda c: c["geometry"].update(block_px=12), "block_px 12 makes 144-pixel blocks"),
        (lambda c: c.pop("out_dir"), "out_dir"),
        (lambda c: c.update(out_dir=5), "out_dir"),
        (lambda c: c.update(out_dir=["a"]), "out_dir"),
        (lambda c: c.update(printers=[{"id": ["SA"]}]), r"printers\[0\]"),
        (lambda c: c.update(printers=[{"id": {}}]), r"printers\[0\]"),
    ],
)
def test_load_config_names_offending_field(tmp_path, mutate, needle):
    p = write_cfg(tmp_path, mutate)
    with pytest.raises(ConfigError, match=needle):
        load_config(p)


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(p)


# Every field of BASE, by its path: the top-level keys, each section's
# keys, and the first printer entry.
FIELDS = (
    [(key,) for key in BASE]
    + [(key, sub) for key, value in BASE.items() if isinstance(value, dict) for sub in value]
    + [("printers", 0)]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["SA", "HP", "bn", "fc2", "none", "pearson", "hamming"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["id", "overrides", "noise_sigma", "quantize", "rows", "x"]),
        inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
@example(field=("out_dir",), value=5)
@example(field=("out_dir",), value=["a"])
@example(field=("printers", 0), value={"id": ["SA"]})
@example(field=("printers", 0), value={"id": {}})
def test_load_config_loads_or_raises_pgc_error(tmp_path_factory, field, value):
    """One field of a valid config replaced by any JSON value: the config
    loads, or load_config raises one of pgclab's typed errors."""
    cfg = copy.deepcopy(BASE)
    cfg["out_dir"] = "run"
    *parents, last = field
    holder = cfg
    for key in parents:
        holder = holder[key]
    holder[last] = value
    p = tmp_path_factory.getbasetemp() / "fuzzed.json"
    p.write_text(json.dumps(cfg))
    try:
        load_config(p)
    except PgcError:
        pass


ROOT = Path(__file__).resolve().parent.parent


def readme_config(path):
    """The JSON block under the README's "Config schema" heading."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path.write_text(block)
    return path


@pytest.mark.parametrize(
    "source, n_images, split, seed, printers, epochs",
    [
        ("configs/desk.json", 70, (40, 10, 20), 7, ["SA", "LX", "CA", "HP"], 150),
        ("configs/paper.json", 384, (100, 50, 234), 1, ["SA", "LX", "CA", "HP"], 1000),
        ("README.md", 70, (40, 10, 20), 7, ["SA", "HP"], 150),
    ],
)
def test_shipped_configs_load(tmp_path, source, n_images, split, seed, printers, epochs):
    path = readme_config(tmp_path / "readme.json") if source == "README.md" else ROOT / source
    cfg = load_config(path)
    assert cfg.out_dir.parent == Path("runs")
    assert cfg.geometry == Geometry(64, 64, 6, 24)
    assert (sum(cfg.split_sizes), cfg.split_sizes, cfg.dataset_seed) == (n_images, split, seed)
    assert list(cfg.printers) == printers
    assert cfg.arch == "bn"
    assert cfg.train == nn.TrainConfig(epochs=epochs, batch_size=128, learning_rate=0.001,
                                       lam=0.0, regularizer="none", seed=11)
    assert cfg.measures == ["pearson", "hamming"]
    assert cfg.target_pfa == [0.0, 0.01, 0.05, 0.1]
    assert cfg.plots is True
    if source == "README.md":
        assert cfg.printers["HP"] == replace(preset("HP"), noise_sigma=0.2)
    else:
        assert all(cfg.printers[pid] == preset(pid) for pid in printers)


# ---------------------------------------------------------------- pipeline

def run(args):
    return main(args)


def test_full_pipeline_tiny(tmp_path, capsys):
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    common = ["--config", str(p)]

    assert run(["gen", *common]) == 0
    assert (out / "dataset" / "manifest.json").exists()
    assert len(list((out / "dataset" / "originals").glob("*.pbm"))) == 6
    assert len(list((out / "dataset" / "scans" / "SA").glob("*.pgm"))) == 6

    assert run(["train", *common, "--printer", "SA"]) == 0
    assert (out / "models" / "SA_bn.pgcm").exists()
    loss_rows = (out / "models" / "SA_bn_loss.csv").read_text().strip().split("\n")
    assert loss_rows[0] == "epoch,loss"
    assert len(loss_rows) == 1 + 2  # header + one row per epoch

    assert run(["attack", *common, "--printer", "SA"]) == 0
    est = list((out / "estimates" / "SA_bn").glob("est_*.pbm"))
    assert len(est) == 1  # one test image
    metrics = (out / "reports" / "SA_bn_metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "image,pearson_model,hamming_model,pearson_thr,hamming_thr"
    assert len(metrics) == 1 + 1 + 1  # header + test rows + mean
    assert metrics[-1].startswith("mean,")

    assert run(["roc", *common, "--printer", "SA"]) == 0
    reports = out / "reports"
    for source in ("bn", "thr"):
        for measure in ("pearson", "hamming"):
            assert (reports / f"scores_SA_{source}_{measure}.csv").exists()
            assert (reports / f"roc_SA_{source}_{measure}.csv").exists()
        assert (reports / "diff" / f"SA_{source}" / "diff_0005.pgm").exists()
    summary = (reports / "summary_SA_bn.csv").read_text().strip().split("\n")
    assert summary[0] == "fake_source,measure,auc,pd_at_pfa_0.0,pd_at_pfa_0.1"
    assert len(summary) == 1 + 4  # 2 sources x 2 measures
    assert (reports / "roc_SA_pearson.svg").exists()
    assert (reports / "roc_SA_hamming.svg").exists()

    # Both fake sources are scored against the same authentic re-prints.
    for measure in ("pearson", "hamming"):
        auth = [(reports / f"scores_SA_{source}_{measure}.csv").read_text().split("\n")[1:2]
                for source in ("bn", "thr")]
        assert auth[0] == auth[1] and auth[0][0].endswith(",authentic")

    shown = capsys.readouterr().out
    assert "gen: 6 codes" in shown
    assert "train: bn on SA" in shown
    assert "attack: SA/bn" in shown
    assert "roc: SA fakes from" in shown


def tree(root):
    return {f.relative_to(root): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def test_forked_and_one_cpu_pipelines_write_the_same_bytes(tmp_path, monkeypatch):
    # SA blurs with 13 taps and HP with 15.
    def mutate(c):
        c["dataset"].update(n_images=7, split=[4, 1, 2])
        c["printers"] = ["SA", "HP"]

    p = write_cfg(tmp_path, mutate)
    trees = []
    for n in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        out = tmp_path / f"cpus{n}"
        for verb in ("gen", "train", "attack", "roc"):
            args = [verb, "--config", str(p), "--out", str(out)]
            assert run(args if verb == "gen" else [*args, "--printer", "SA"]) == 0
            assert multiprocessing.active_children() == []
        trees.append(tree(out))
    assert trees[0] == trees[1]


def test_worker_error_exits_with_its_category(tmp_path, monkeypatch, capsys):
    def jammed(img, params, seed):
        raise DomainError("scanner jammed")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(attack, "print_scan", jammed)
    assert run(["gen", "--config", str(write_cfg(tmp_path))]) == 1
    assert "pgclab: error [domain] scanner jammed" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def serial_cmd_attack(cfg, printer):
    """cmd_attack as one serial loop over the test codes, kept as the
    reference for the bytes it writes."""
    arch = cfg.arch
    ds = load_dataset(_dataset_dir(cfg), printer)
    model_path = _model_path(cfg, printer, arch)
    if not model_path.exists():
        raise MissingInputError(f"no model file at {model_path}; run the train command first")
    model, threshold = nn.load_model(model_path)

    thr_t = calibrate_pixel_threshold(ds, printer)
    mpx = ds.geometry.module_px
    test_idx = ds.indices(SPLIT_TEST)
    model_dir = _estimate_dir(cfg, printer, arch)
    thr_dir = _estimate_dir(cfg, printer, "thr")
    model_dir.mkdir(parents=True, exist_ok=True)
    thr_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    sums = np.zeros(4)
    for i in test_idx:
        # One ink image feeds the Thr baseline (as baseline_thr computes
        # it) and the baseline's Pearson score; the model reads the scan.
        ink = ink_intensity(ds.scans[printer][i])
        original = ds.originals[i]
        ref = ds.rendered_original(i).pixels
        grey = estimate_grey(model, ds.scans[printer][i], ds.geometry.block_px)
        xhat = modules_from_pixels(binarize(grey, threshold), mpx)
        xhat_thr = modules_from_pixels(binarize(ink, thr_t), mpx)
        write_pbm(xhat, model_dir / f"est_{i:04d}.pbm")
        write_pbm(xhat_thr, thr_dir / f"est_{i:04d}.pbm")
        r_model = pearson(ref, grey.pixels)
        h_model = hamming_norm(original.bits, xhat.bits)
        r_thr = pearson(ref, ink.pixels)
        h_thr = hamming_norm(original.bits, xhat_thr.bits)
        rows.append((i, r_model, h_model, r_thr, h_thr))
        sums += (r_model, h_model, r_thr, h_thr)
    means = sums / len(test_idx)
    rows.append(("mean", *[float(v) for v in means]))
    report = cfg.out_dir / "reports" / f"{printer}_{arch}_metrics.csv"
    _write_csv(
        report,
        ["image", "pearson_model", "hamming_model", "pearson_thr", "hamming_thr"],
        rows,
    )


def attack_outputs(out):
    return {f.relative_to(out): f.read_bytes()
            for d in ("estimates", "reports") for f in sorted((out / d).rglob("*"))
            if f.is_file()}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A trained SA model on 5 test codes, and the serial loop's attack outputs."""
    tmp_path = tmp_path_factory.mktemp("trained")
    p = write_cfg(tmp_path, lambda c: c["dataset"].update(n_images=10, split=[4, 1, 5]))
    for verb in ("gen", "train"):
        assert run([verb, "--config", str(p)] + (["--printer", "SA"] if verb == "train" else [])) == 0
    out = tmp_path / "run"
    serial_cmd_attack(load_config(p), "SA")
    want = attack_outputs(out)
    for d in ("estimates", "reports"):
        shutil.rmtree(out / d)
    return p, out, want


@pytest.mark.parametrize("window, fan_outs", [(24, [5]), (2, [2, 2, 1])],
                         ids=["one-window", "three-windows"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_attack_writes_the_serial_loops_bytes(trained, tmp_path, monkeypatch, n,
                                              window, fan_outs):
    p, out, want = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(cli, "_ATTACK_WINDOW", window)
    sizes = []

    def counted(fn, jobs):
        sizes.append(len(jobs))
        return parallel_map(fn, jobs)

    monkeypatch.setattr(cli, "parallel_map", counted)
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 0
    assert multiprocessing.active_children() == []
    assert sizes == fan_outs
    assert attack_outputs(mine) == want
    assert len(want) == 2 * 5 + 1


def test_attack_worker_error_exits_with_its_category(trained, tmp_path, monkeypatch, capsys):
    def jammed(m, path):
        raise DomainError("estimate jammed")

    p, out, _ = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "write_pbm", jammed)
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    assert "pgclab: error [domain] estimate jammed" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("damage, needle", [
    (lambda f: f.write_bytes(f.read_bytes()[:-1]), "truncated PGM raster"),
    (lambda f: write_pgm(PixelImage(np.full((48, 48), 9, np.uint8), BYTE0_255), f),
     "whose size does not match"),
], ids=["truncated", "off-geometry"])
def test_attack_on_a_malformed_test_scan_ends_in_a_format_error(trained, tmp_path, capsys,
                                                                damage, needle):
    p, out, _ = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    damage(mine / "dataset" / "scans" / "SA" / "scan_0007.pgm")
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [format]") and needle in err
    assert multiprocessing.active_children() == []


def test_attack_on_a_deleted_test_scan_fails_before_it_writes(trained, tmp_path, capsys):
    p, out, _ = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    (mine / "dataset" / "scans" / "SA" / "scan_0009.pgm").unlink()
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [missing-input]") and "scan_0009.pgm" in err
    assert not (mine / "estimates").exists()


def serial_reprint_scores(originals, printed, params, module_px, seeds, threshold):
    """One source's re-print scores as a serial per-image loop."""
    r, h = [], []
    for code, xp, seed in zip(originals, printed, seeds, strict=True):
        ink = ink_intensity(print_scan(render(xp, module_px), params, seed))
        r.append(pearson(render(code, module_px).pixels, ink.pixels))
        decided = modules_from_pixels(binarize(ink, threshold), module_px)
        h.append(hamming_norm(code.bits, decided.bits))
    return {"pearson": np.asarray(r, dtype=np.float64), "hamming": np.asarray(h, dtype=np.float64)}


def three_call_cmd_roc(cfg, printer):
    """cmd_roc scoring its three sources in three calls, kept as the
    reference for the bytes it writes."""
    arch = cfg.arch
    ds = load_dataset(_dataset_dir(cfg), printer)
    test_idx = ds.indices(SPLIT_TEST)
    originals = [ds.originals[i] for i in test_idx]
    defender_t = calibrate_pixel_threshold(ds, printer)
    auth_seeds = [stream_seed(ds.seed, "reprint-authentic", printer, i) for i in test_idx]
    fake_seeds = [stream_seed(ds.seed, "reprint-fake", printer, i) for i in test_idx]
    params = ds.channel_params[printer]
    mpx = ds.geometry.module_px
    reports = cfg.out_dir / "reports"
    sources = {s: _load_estimates(cfg, ds, printer, s) for s in (arch, "thr")}
    authentic = serial_reprint_scores(originals, originals, params, mpx, auth_seeds, defender_t)

    summary_rows = []
    curves_by_measure = {m: [] for m in cfg.measures}
    for source, estimates in sources.items():
        fake = serial_reprint_scores(originals, estimates, params, mpx, fake_seeds, defender_t)
        diff_dir = reports / "diff" / f"{printer}_{source}"
        diff_dir.mkdir(parents=True, exist_ok=True)
        for original, xhat, i in zip(originals, estimates, test_idx):
            diff = (original.bits != xhat.bits).astype(np.uint8) * 255
            diff_px = np.repeat(np.repeat(diff, mpx, axis=0), mpx, axis=1)
            write_pgm(PixelImage(diff_px, BYTE0_255), diff_dir / f"diff_{i:04d}.pgm")
        for measure in cfg.measures:
            _write_csv(
                reports / f"scores_{printer}_{source}_{measure}.csv",
                ["score", "label"],
                [(float(s), "authentic") for s in authentic[measure]]
                + [(float(s), "fake") for s in fake[measure]],
            )
            curve = roc(authentic[measure], fake[measure], measure)
            _write_csv(reports / f"roc_{printer}_{source}_{measure}.csv",
                       ["gamma", "pd", "pfa"], curve)
            summary_rows.append(
                (source, measure, auc(curve))
                + tuple(pd_at_pfa(curve, t) for t in cfg.target_pfa)
            )
            curves_by_measure[measure].append((source, curve))
    _write_csv(
        reports / f"summary_{printer}_{arch}.csv",
        ["fake_source", "measure", "auc"] + [f"pd_at_pfa_{t}" for t in cfg.target_pfa],
        summary_rows,
    )
    if cfg.plots:
        for measure, curves in curves_by_measure.items():
            write_roc_svg(reports / f"roc_{printer}_{measure}.svg", curves,
                          f"{printer} re-prints, {measure} detector")


@pytest.fixture(scope="module")
def attacked(trained, tmp_path_factory):
    """The trained run after attack, and the three-call roc's outputs on it."""
    p, out, _ = trained
    base = tmp_path_factory.mktemp("attacked") / "run"
    shutil.copytree(out, base)
    assert run(["attack", "--config", str(p), "--out", str(base), "--printer", "SA"]) == 0
    oracle = base.parent / "oracle"
    shutil.copytree(base, oracle)
    three_call_cmd_roc(load_config(p, out=str(oracle)), "SA")
    return p, base, attack_outputs(oracle)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_roc_writes_the_three_call_forms_bytes(attacked, tmp_path, monkeypatch, n):
    p, base, want = attacked
    mine = tmp_path / "run"
    shutil.copytree(base, mine)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    sizes = []

    def counted(fn, jobs):
        sizes.append(len(jobs))
        return parallel_map(fn, jobs)

    for module in (attack, cli, detector):
        monkeypatch.setattr(module, "parallel_map", counted)
    assert run(["roc", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 0
    assert multiprocessing.active_children() == []
    assert sizes == [5]
    assert attack_outputs(mine) == want
    assert len([f for f in want if f.parts[1] == "diff"]) == 2 * 5


def test_roc_scores_a_constant_reprint_zero_and_says_so(attacked, tmp_path, capsys):
    """Blank estimates through SA without noise re-print as constant images."""
    p, base, _ = attacked
    mine = tmp_path / "run"
    shutil.copytree(base, mine)
    manifest = mine / "dataset" / "manifest.json"
    m = json.loads(manifest.read_text())
    m["printers"]["SA"]["noise_sigma"] = 0.0
    manifest.write_text(json.dumps(m))
    for est in (mine / "estimates").glob("SA_*/est_*.pbm"):
        write_pbm(ModuleMatrix(np.zeros((24, 24), np.uint8)), est)
    assert run(["roc", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 0
    shown = capsys.readouterr().out
    assert "roc: SA constant re-prints, each scored Pearson 0: 0 authentic, 5 bn, 5 thr" in shown
    for source in ("bn", "thr"):
        rows = (mine / "reports" / f"scores_SA_{source}_pearson.csv").read_text().split("\n")
        assert [r for r in rows if r.endswith(",fake")] == ["0.0,fake"] * 5


def test_a_constant_original_scores_pearson_zero_in_every_verb(tmp_path, capsys):
    """A one-module code renders as a constant image, on which Pearson is
    undefined: attack and roc score it 0, as they score a constant print."""
    p = write_cfg(tmp_path, lambda c: c["geometry"].update(rows=1, cols=1, module_px=24))
    for verb in ("gen", "train", "attack", "roc"):
        args = [verb, "--config", str(p)]
        assert run(args if verb == "gen" else [*args, "--printer", "SA"]) == 0
    assert "each scored Pearson 0: 1 authentic, 1 bn, 1 thr" in capsys.readouterr().out
    reports = tmp_path / "run" / "reports"
    row = (reports / "SA_bn_metrics.csv").read_text().split("\n")[1].split(",")
    assert row[0] == "5" and row[1] == row[3] == "0.0"
    for source in ("bn", "thr"):
        scores = (reports / f"scores_SA_{source}_pearson.csv").read_text().split("\n")[1:3]
        assert scores == ["0.0,authentic", "0.0,fake"]


def test_attack_rejects_an_uncalibrated_model(trained, tmp_path, capsys):
    p, out, _ = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    model_path = mine / "models" / "SA_bn.pgcm"
    # Flag byte 0 in place of the flag 1 and the float32 threshold.
    model_path.write_bytes(model_path.read_bytes()[:-5] + b"\x00")
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [format]")
    assert "re-run train" in err


@pytest.mark.parametrize("in_dim, out_dim", [(576, 100), (100, 576)])
def test_attack_rejects_a_model_of_the_wrong_size_before_it_writes(trained, tmp_path, capsys,
                                                                  in_dim, out_dim):
    p, out, _ = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    model = nn.MlpModel([nn.LayerSpec(in_dim, out_dim, nn.ACT_SIGMOID)],
                        [np.zeros((out_dim, in_dim), np.float32)], [np.zeros(out_dim, np.float32)])
    nn.save_model(model, 0.5, mine / "models" / "SA_bn.pgcm")
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [dimension]") and f"{in_dim} to {out_dim}" in err
    assert not (mine / "estimates").exists()


@pytest.mark.parametrize("threshold", [math.nan, 2.0, -0.5])
def test_attack_rejects_a_threshold_outside_the_unit_interval(trained, tmp_path, capsys,
                                                              threshold):
    p, out, _ = trained
    mine = tmp_path / "run"
    shutil.copytree(out, mine)
    model_path = mine / "models" / "SA_bn.pgcm"
    model_path.write_bytes(model_path.read_bytes()[:-4] + struct.pack("<f", threshold))
    assert run(["attack", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [format]")
    assert f"SA_bn.pgcm: threshold {threshold} outside [0, 1]" in err
    assert not (mine / "estimates").exists()


@pytest.mark.parametrize("sources", [("bn",), ("bn", "thr")])
def test_roc_rejects_a_misshapen_estimate_before_it_writes(attacked, tmp_path, capsys, sources):
    """An estimate with the codes' number of modules in another grid."""
    p, base, _ = attacked
    mine = tmp_path / "run"
    shutil.copytree(base, mine)
    before = sorted((mine / "reports").rglob("*"))
    for source in sources:
        write_pbm(ModuleMatrix(np.zeros((12, 48), np.uint8)),
                  mine / "estimates" / f"SA_{source}" / "est_0009.pbm")
    assert run(["roc", "--config", str(p), "--out", str(mine), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [format]")
    assert f"SA_{sources[0]}/est_0009.pbm: (12, 48) modules" in err
    assert sorted((mine / "reports").rglob("*")) == before


def test_gen_is_reproducible_across_out_dirs(tmp_path):
    p = write_cfg(tmp_path)
    assert run(["gen", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert run(["gen", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
    a_files = sorted(f for f in (tmp_path / "a").rglob("*") if f.is_file())
    b_files = sorted(f for f in (tmp_path / "b").rglob("*") if f.is_file())
    assert [f.relative_to(tmp_path / "a") for f in a_files] == [
        f.relative_to(tmp_path / "b") for f in b_files
    ]
    for fa, fb in zip(a_files, b_files):
        assert fa.read_bytes() == fb.read_bytes(), fa.name


@pytest.mark.parametrize("n", [1, 2])
def test_a_failed_gen_leaves_no_manifest(tmp_path, monkeypatch, capsys, n):
    """A gen that fails part-way deletes the earlier run's manifest, which
    would name a mix of old and new scans, and writes none of its own."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    p = write_cfg(tmp_path)
    assert run(["gen", "--config", str(p)]) == 0
    dataset = tmp_path / "run" / "dataset"
    # The suite runs as root, which chmod does not stop; a directory does.
    blocker = dataset / "scans" / "SA" / "scan_0002.pgm"
    blocker.unlink()
    blocker.mkdir()
    capsys.readouterr()
    assert run(["gen", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [io]") and "Traceback" not in err
    assert not (dataset / "manifest.json").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("overrides", [{"dot_gain_radius": 10_000_000}, {"psf_sigma": 1e13}])
def test_gen_beyond_memory_exits_with_memory_error(tmp_path, capsys, overrides):
    """A channel whose arrays need over 128 TiB (364 TiB for the dilation,
    437 TiB for the blur kernel) fails to allocate under any overcommit
    setting, so nothing is allocated; gen ends in a one-line error."""
    def mutate(cfg):
        cfg["geometry"].update(rows=4, cols=4)
        cfg["printers"] = [{"id": "SA", "overrides": overrides}]

    assert run(["gen", "--config", str(write_cfg(tmp_path, mutate))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [memory] ") and "Traceback" not in err
    assert not (tmp_path / "run" / "dataset" / "manifest.json").exists()
    assert multiprocessing.active_children() == []


def gen_peak(tmp_path, n_images):
    """tracemalloc's peak over cmd_gen of n_images 64x64-module codes, each
    scanned by two printers into 384x384 bytes."""
    def mutate(c):
        c["geometry"].update(rows=64, cols=64)
        c["dataset"].update(n_images=n_images, split=[n_images - 2, 1, 1])
        c["printers"] = ["SA", "HP"]

    cfg = load_config(write_cfg(tmp_path, mutate, f"cfg{n_images}.json"),
                      out=tmp_path / f"run{n_images}")
    tracemalloc.start()
    try:
        cmd_gen(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_peak_does_not_grow_with_the_dataset(tmp_path, monkeypatch):
    """With one CPU every scan is made in this process, and each is written
    before the next is made: 16 codes peak within one scan of 4 codes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    gen_peak(tmp_path, 2)  # fills the channel's per-sigma tables
    small, large = gen_peak(tmp_path, 4), gen_peak(tmp_path, 16)
    assert large - small < 384 * 384, (small, large)


@pytest.mark.parametrize("verb", ["gen", "train"])
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, verb):
    args = [verb, "--config", str(write_cfg(tmp_path)), "--seed", "-1"]
    assert run(args if verb == "gen" else [*args, "--printer", "SA"]) == 1
    assert capsys.readouterr().err == "pgclab: error [config] --seed must be >= 0\n"
    assert not (tmp_path / "run").exists()


def test_seed_override_changes_dataset(tmp_path):
    p = write_cfg(tmp_path)
    run(["gen", "--config", str(p), "--out", str(tmp_path / "a"), "--seed", "5"])
    run(["gen", "--config", str(p), "--out", str(tmp_path / "b"), "--seed", "6"])
    a = (tmp_path / "a" / "dataset" / "originals" / "code_0000.pbm").read_bytes()
    b = (tmp_path / "b" / "dataset" / "originals" / "code_0000.pbm").read_bytes()
    assert a != b


# ---------------------------------------------------------------- errors

def test_train_before_gen(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert run(["train", "--config", str(p), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert "[missing-input]" in err
    assert "gen" in err


def test_attack_before_train(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert run(["gen", "--config", str(p)]) == 0
    assert run(["attack", "--config", str(p), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert "[missing-input]" in err
    assert "train" in err


def test_roc_before_attack(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert run(["gen", "--config", str(p)]) == 0
    assert run(["roc", "--config", str(p), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert "[missing-input]" in err
    assert "attack" in err


def test_unknown_printer_reported(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert run(["gen", "--config", str(p)]) == 0
    assert run(["train", "--config", str(p), "--printer", "HP"]) == 1
    assert "[lookup]" in capsys.readouterr().err


def test_config_error_reported(tmp_path, capsys):
    p = write_cfg(tmp_path, lambda c: c["training"].update(arch="cnn"))
    assert run(["gen", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "pgclab: error [config]" in err
    assert "training.arch" in err


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c["dataset"].update(n_images="abc"), "dataset.n_images must be an integer"),
        (lambda c: c["dataset"].update(seed="x"), "dataset.seed must be an integer"),
        (lambda c: c["training"].update(seed="x"), "training.seed must be an integer"),
        (lambda c: c["training"].update(epochs=2.7), "training.epochs must be an integer"),
        (lambda c: c["training"].update(epochs=True), "training.epochs must be an integer"),
        (lambda c: c["training"].update(learning_rate="fast"), "training.learning_rate must be a number"),
        (lambda c: c["dataset"].update(split=[3.9, 1, 1.1]), "dataset.split must be an integer"),
        (lambda c: c["geometry"].update(rows="a"), "geometry.rows must be an integer"),
        (lambda c: c.update(printers=[{"id": "SA", "overrides": {"psf_sigma": "2"}}]),
         r"printers\[0\]: psf_sigma must be float"),
        (lambda c: c.update(printers=[{"id": "SA", "overrides": {"dot_gain_radius": 1.5}}]),
         r"printers\[0\]: dot_gain_radius must be int"),
        # Every scan is 8-bit: the quantize knob is gone, and naming it is
        # an unknown channel parameter.
        (lambda c: c.update(printers=[{"id": "SA", "overrides": {"quantize": False}}]),
         r"printers\[0\]: unknown channel parameter.*quantize"),
        (lambda c: c["evaluation"].update(plots="false"), "evaluation.plots must be true or false"),
        (lambda c: c["evaluation"].update(measures="pearson"), "evaluation.measures must be a list"),
        (lambda c: c["evaluation"].update(measures=[["pearson"]]), r"unknown measure \['pearson'\]"),
        (lambda c: c["evaluation"].update(target_pfa="0.1"), "evaluation.target_pfa must be a list"),
        (lambda c: c["evaluation"].update(target_pfa=["0.1"]), "evaluation.target_pfa must be a number"),
        # Each measure and target names output that a repeat would write twice.
        (lambda c: c["evaluation"].update(measures=["pearson", "pearson"]),
         "evaluation.measures: a value is named twice"),
        (lambda c: c["evaluation"].update(target_pfa=[0.1, 0.05, 0.1]),
         "evaluation.target_pfa: a value is named twice"),
        (lambda c: c["evaluation"].update(target_pfa=[0, 0.0]),
         "evaluation.target_pfa: a value is named twice"),
        (lambda c: c["evaluation"].update(measures=[]),
         "evaluation.measures must name at least one measure"),
    ],
)
def test_config_type_errors_exit_as_config_errors(tmp_path, capsys, mutate, needle):
    """Wrongly typed values are refused by name, never coerced or raised raw."""
    p = write_cfg(tmp_path, mutate)
    assert run(["gen", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [config]")
    assert re.search(needle, err)
    assert not (tmp_path / "run").exists()


def test_verbs_read_only_their_printers_scans(tmp_path):
    """roc writes the same bytes when other printers' scans are gone, and
    its re-print seeds are keyed by the printer's id and each code's index."""
    p = write_cfg(tmp_path, lambda c: c.update(printers=["SA", "LX"]))
    out = tmp_path / "run"
    common = ["--config", str(p)]
    for verb in ("gen", "train", "attack", "roc"):
        args = [verb, *common] + ([] if verb == "gen" else ["--printer", "SA"])
        assert run(args) == 0
    reports = sorted((out / "reports").glob("*.csv"))
    before = {f.name: f.read_bytes() for f in reports}
    for scan in (out / "dataset" / "scans" / "LX").glob("*.pgm"):
        scan.unlink()
    for verb in ("train", "attack", "roc"):
        assert run([verb, *common, "--printer", "SA"]) == 0
    assert {f.name: f.read_bytes() for f in reports} == before

    ds = load_dataset(out / "dataset", "SA")
    test_idx = ds.indices(SPLIT_TEST)
    test = [ds.originals[i] for i in test_idx]
    seeds = [stream_seed(5, "reprint-authentic", "SA", i) for i in test_idx]
    (auth, _), _ = reprint_scores(test, [test], seeds, seeds,
                                  ds.channel_params["SA"], 6, calibrate_pixel_threshold(ds, "SA"))
    rows = (out / "reports" / "scores_SA_bn_pearson.csv").read_text().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows if r.endswith(",authentic")] \
        == auth["pearson"].tolist()


def test_verbs_read_only_the_splits_they_use(tmp_path):
    """train reads the train and val scans, attack val and test, roc val:
    with the other splits' scans no longer PGM files, each writes the same
    bytes."""
    p = write_cfg(tmp_path, lambda c: c["dataset"].update(n_images=7, split=[4, 1, 2]))
    out = tmp_path / "run"
    common = ["--config", str(p), "--printer", "SA"]
    assert run(["gen", "--config", str(p)]) == 0
    for verb in ("train", "attack", "roc"):
        assert run([verb, *common]) == 0
    files = [f for f in out.rglob("*") if f.is_file() and f.relative_to(out).parts[0] != "dataset"]
    want = {f: f.read_bytes() for f in files}
    ds = load_dataset(out / "dataset", "SA")
    scans = {tag: [out / "dataset" / "scans" / "SA" / f"scan_{i:04d}.pgm"
                   for i in ds.indices(tag)] for tag in (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)}
    saved = {f: f.read_bytes() for paths in scans.values() for f in paths}

    def keep_only(*tags):
        for tag, paths in scans.items():
            for f in paths:
                f.write_bytes(saved[f] if tag in tags else b"not a scan")

    for verb, tags in (("train", (SPLIT_TRAIN, SPLIT_VAL)), ("attack", (SPLIT_VAL, SPLIT_TEST)),
                       ("roc", (SPLIT_VAL,))):
        keep_only(*tags)
        assert run([verb, *common]) == 0
        assert {f: f.read_bytes() for f in files} == want


@pytest.mark.parametrize("verb, tags", [
    ("train", (SPLIT_TRAIN, SPLIT_VAL)),
    ("attack", (SPLIT_VAL, SPLIT_TEST, SPLIT_TEST)),
    ("roc", (SPLIT_VAL,)),
])
def test_each_verb_reads_each_scan_it_uses_when_it_uses_it(tmp_path, monkeypatch, verb, tags):
    """load_dataset reads no scan; train reads each train and val scan
    once, roc each val scan, and attack each val scan once and each test
    scan twice, once for the model's forward pass and once for the Thr
    baseline on the worker."""
    p = write_cfg(tmp_path, lambda c: c["dataset"].update(n_images=7, split=[3, 2, 2]))
    for v in ("gen", "train", "attack"):
        assert run([v, "--config", str(p)] + ([] if v == "gen" else ["--printer", "SA"])) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    read = []
    real_read_pgm, real_load = attack.imgio.read_pgm, cli.load_dataset

    def counted(path):
        read.append(Path(path).name)
        return real_read_pgm(path)

    def load(*args):
        ds = real_load(*args)
        assert read == []
        return ds

    monkeypatch.setattr(attack.imgio, "read_pgm", counted)
    monkeypatch.setattr(cli, "load_dataset", load)
    assert run([verb, "--config", str(p), "--printer", "SA"]) == 0
    ds = load_dataset(tmp_path / "run" / "dataset", "SA")
    assert sorted(read) == sorted(f"scan_{i:04d}.pgm" for tag in tags for i in ds.indices(tag))


def test_train_refuses_an_empty_validation_split_before_the_first_step(
        tmp_path, monkeypatch, capsys):
    p = write_cfg(tmp_path, lambda c: c["dataset"].update(split=[5, 0, 1]))
    assert run(["gen", "--config", str(p)]) == 0
    steps = []
    real_step = nn.optimizer_step

    def step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(nn, "optimizer_step", step)
    capsys.readouterr()
    assert run(["train", "--config", str(p), "--printer", "SA"]) == 1
    assert "pgclab: error [state] empty validation split" in capsys.readouterr().err
    assert steps == []
    assert not (tmp_path / "run" / "models").exists()


@pytest.mark.parametrize("verb", ["attack", "roc"])
def test_an_empty_test_split_is_refused_before_anything_is_written(tmp_path, capsys, verb):
    p = write_cfg(tmp_path, lambda c: c["dataset"].update(split=[5, 1, 0]))
    for v in ("gen", "train"):
        assert run([v, "--config", str(p)] + ([] if v == "gen" else ["--printer", "SA"])) == 0
    capsys.readouterr()
    assert run([verb, "--config", str(p), "--printer", "SA"]) == 1
    assert "pgclab: error [state] empty test split" in capsys.readouterr().err
    assert not (tmp_path / "run" / "estimates").exists()
    assert not (tmp_path / "run" / "reports").exists()


def test_roc_on_a_mistyped_manifest_ends_in_a_format_error(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert run(["gen", "--config", str(p)]) == 0
    manifest = tmp_path / "run" / "dataset" / "manifest.json"
    m = json.loads(manifest.read_text())
    m["printers"]["SA"]["psf_sigma"] = "2.2"
    manifest.write_text(json.dumps(m))
    capsys.readouterr()
    assert run(["roc", "--config", str(p), "--printer", "SA"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgclab: error [format]") and "psf_sigma must be float" in err
